//! Disaggregated prefill/decode serving: typed replica pools linked by a
//! KV-cache handoff.
//!
//! Splitwise and DistServe size a *Prefill* pool for TTFT and a *Decode*
//! pool for TPOT, moving each request's prefilled KV state across an
//! interconnect between the phases. [`DisaggEngine`] simulates exactly that
//! on top of the per-replica DES ([`crate::engine`]):
//!
//! 1. Arrivals route across the Prefill pool with the fleet's arrival
//!    [`RouterPolicy`] (state-aware, same semantics as
//!    [`crate::FleetEngine`]).
//! 2. A request finishing its last pre-decode stage on a prefill replica
//!    emits its first token there and a *handoff* record; the
//!    [`KvTransferModel`] prices the KV transfer (bytes from prefix length,
//!    latency from interconnect bandwidth plus fixed overhead) and a
//!    transfer-completion event enters the pool-level event queue
//!    (the `equeue` calendar lane — same-instant completions keep
//!    their emission order).
//! 3. At the transfer-completion instant the [`PoolRouter`] picks a decode
//!    replica (any intra-pool policy, including the content-affinity
//!    routers) and the request is re-injected with its *original* arrival
//!    time, so end-to-end latency includes queueing, prefill, transfer, and
//!    decode.
//!
//! Faults operate per pool ([`PoolCrash`]): a crash in the prefill pool
//! re-queues un-transferred work to prefill survivors only (handoffs
//! already emitted keep their in-flight transfers), a decode crash
//! re-queues un-finished decode work to decode survivors, and a crashed
//! replica can cold-restart after a delay.
//!
//! Degenerate paths are pinned by tests: a 1+1 split under
//! [`KvTransferModel::zero`] reproduces the monolithic engine's per-request
//! timings exactly (`tests/proptest_pools.rs`), and a single-Monolithic-pool
//! fleet never enters this module at all — the core evaluators dispatch it
//! to [`crate::FleetEngine`] unchanged.
//!
//! # Examples
//!
//! ```
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_serving_sim::pools::DisaggEngine;
//! use rago_schema::{FleetConfig, KvTransferModel, RouterPolicy, SequenceProfile};
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//!
//! let prefill = PipelineSpec::new(
//!     vec![StageSpec::new("prefix", 0, 8, LatencyTable::constant(8, 0.02))],
//!     DecodeSpec::new(32, LatencyTable::constant(32, 3e-3)),
//! );
//! let decode = PipelineSpec::decode_only(DecodeSpec::new(32, LatencyTable::constant(32, 3e-3)), None);
//! let fleet = FleetConfig::split(1, 2, RouterPolicy::LeastOutstanding);
//! let trace = TraceSpec {
//!     num_requests: 50,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(16),
//!     arrival: ArrivalProcess::Poisson { rate_rps: 60.0 },
//!     length_jitter: 0.0,
//!     seed: 11,
//! }
//! .generate();
//! let model = KvTransferModel::new(131_072.0, 25e9, 20e-6);
//! let report = DisaggEngine::from_fleet(prefill, decode, &fleet, model)
//!     .unwrap()
//!     .run_trace(&trace);
//! assert_eq!(report.merged.metrics.completed, 50);
//! assert_eq!(report.transfers.transfers, 50);
//! assert!(report.transfers.latency_total_s > 0.0);
//! ```

use crate::cluster::{route_pick, FleetReport, LoadImbalance, ReplicaReport};
use crate::engine::{
    build_report, sort_by_arrival, EngineRequest, PipelineSpec, ReplicaSim, RequestTimeline,
    ServingReport, SimAccumulators,
};
use crate::equeue::EventQueue;
use crate::fleet::{advance_all, ReplicaObs};
use rago_schema::{FleetConfig, KvTransferModel, PoolRole, RouterPolicy};
use rago_workloads::Trace;
use serde::{Deserialize, Serialize};

/// Phase-aware dispatch for a disaggregated fleet: the arrival router over
/// the Prefill pool plus the transfer router over the Decode pool, each an
/// ordinary intra-pool [`RouterPolicy`] with its own round-robin cursor.
#[derive(Debug, Clone)]
pub struct PoolRouter {
    /// Policy routing external arrivals across the prefill pool.
    pub prefill: RouterPolicy,
    /// Policy routing completed KV transfers across the decode pool.
    pub decode: RouterPolicy,
    rr_prefill: usize,
    rr_decode: usize,
}

impl PoolRouter {
    /// Creates a pool router.
    pub fn new(prefill: RouterPolicy, decode: RouterPolicy) -> Self {
        Self {
            prefill,
            decode,
            rr_prefill: 0,
            rr_decode: 0,
        }
    }

    /// Picks a live slot for `req` within `pool` (arrival → prefill pool,
    /// transfer completion → decode pool). Returns an index into
    /// `live` — the caller's list of live slot ids — while hashing-based
    /// policies see the *stable* slot ids, so a crash/restart re-homes only
    /// the templates touching the affected replica.
    fn pick(
        &mut self,
        role: PoolRole,
        slots: &[PoolSlot],
        live: &[usize],
        req: &EngineRequest,
    ) -> usize {
        let (policy, cursor) = match role {
            PoolRole::Prefill => (self.prefill, &mut self.rr_prefill),
            PoolRole::Decode => (self.decode, &mut self.rr_decode),
            PoolRole::Monolithic => unreachable!("monolithic pools never reach the pool router"),
        };
        route_pick(
            policy,
            live.len(),
            |i| {
                slots[live[i]]
                    .sim
                    .as_ref()
                    .expect("live slot list only holds occupied slots")
            },
            |i| live[i],
            cursor,
            req,
        )
    }
}

/// A deterministic per-pool fault: replica `replica` of `pool` crashes at
/// `at_s`, losing all in-flight work (re-queued to same-pool survivors),
/// and optionally cold-restarts `restart_delay_s` later.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolCrash {
    /// Which pool the crash hits ([`PoolRole::Prefill`] or
    /// [`PoolRole::Decode`]).
    pub pool: PoolRole,
    /// Slot index of the victim within its pool.
    pub replica: usize,
    /// Crash instant in seconds. At a tie the crash wins against
    /// same-instant transfers and arrivals (the fault-lane convention of
    /// [`crate::faults`]).
    pub at_s: f64,
    /// Cold-restart delay, or `None` for a permanent loss.
    pub restart_delay_s: Option<f64>,
}

/// Aggregate statistics of the prefill→decode KV handoffs of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TransferStats {
    /// Completed KV transfers (one per prefill handoff; a request re-queued
    /// by a prefill crash transfers once it finally prefills).
    pub transfers: u64,
    /// Total KV bytes moved across the interconnect.
    pub bytes_total: f64,
    /// Summed transfer latency in seconds.
    pub latency_total_s: f64,
    /// Largest single transfer latency in seconds.
    pub latency_max_s: f64,
    /// Requests re-queued to prefill survivors after prefill-pool crashes.
    pub requeued_prefill: u64,
    /// Requests re-queued to decode survivors after decode-pool crashes.
    pub requeued_decode: u64,
}

impl TransferStats {
    /// Mean transfer latency in seconds (zero for a transfer-free run).
    pub fn latency_mean_s(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.latency_total_s / self.transfers as f64
        }
    }
}

/// One pool's slice of a disaggregated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolReport {
    /// The pool's phase.
    pub role: PoolRole,
    /// Per-replica breakdowns by stable slot id. A crashed-and-restarted
    /// slot reports the union of its incarnations' work.
    pub per_replica: Vec<ReplicaReport>,
    /// How evenly the pool's router spread its requests (transfer
    /// completions for the decode pool; re-queued work counts toward the
    /// replica that finally served it).
    pub imbalance: LoadImbalance,
    /// The intra-pool routing policy.
    pub router: RouterPolicy,
    /// `(request id, slot index)` for every dispatch into this pool, in
    /// dispatch order: arrivals for the prefill pool, transfer completions
    /// for the decode pool. A request re-queued by a crash appears again
    /// under its new slot.
    pub assignments: Vec<(u64, usize)>,
}

/// The merged result of a disaggregated two-pool run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggReport {
    /// Fleet-level report over *stitched* request timelines: arrival and
    /// pre-decode stages from the prefill leg, decode join and completion
    /// from the decode leg, queueing summed across both. TTFT is the
    /// prefill-side first token; the KV transfer shows up in TPOT and
    /// end-to-end latency, exactly as disaggregation trades it in practice.
    /// `events_processed` counts both pools' DES events (a disaggregated run
    /// processes one extra arrival event per request — the transfer
    /// completion).
    pub merged: ServingReport,
    /// The prefill pool's breakdown.
    pub prefill: PoolReport,
    /// The decode pool's breakdown.
    pub decode: PoolReport,
    /// KV-handoff statistics.
    pub transfers: TransferStats,
    /// The transfer model that priced the handoffs.
    pub transfer_model: KvTransferModel,
}

impl DisaggReport {
    /// Flattens the two-pool run into the [`FleetReport`] shape the flat
    /// evaluators return, so pool and flat fleets score through one code
    /// path: replicas are renumbered prefill-first (prefill slot `i` → `i`,
    /// decode slot `j` → `prefill_len + j`), `assignments` concatenates both
    /// pools' dispatches under the renumbered indices (a disaggregated
    /// request therefore appears twice — once per phase), `imbalance` spans
    /// all replicas, and `router` is the arrival (prefill) router. The
    /// merged report is shared unchanged.
    pub fn to_fleet_report(&self) -> FleetReport {
        let prefill_len = self.prefill.per_replica.len();
        let mut per_replica = Vec::with_capacity(prefill_len + self.decode.per_replica.len());
        per_replica.extend(self.prefill.per_replica.iter().cloned());
        per_replica.extend(self.decode.per_replica.iter().map(|r| ReplicaReport {
            replica: prefill_len + r.replica,
            assigned: r.assigned,
            report: r.report.clone(),
        }));
        let assignments: Vec<(u64, usize)> = self
            .prefill
            .assignments
            .iter()
            .copied()
            .chain(
                self.decode
                    .assignments
                    .iter()
                    .map(|&(id, slot)| (id, prefill_len + slot)),
            )
            .collect();
        let imbalance =
            LoadImbalance::from_counts(per_replica.iter().map(|r| r.assigned).collect());
        FleetReport {
            merged: self.merged.clone(),
            per_replica,
            assignments,
            imbalance,
            router: self.prefill.router,
        }
    }
}

/// One replica slot of a pool: stable id, current incarnation (None while
/// crashed), retired incarnations' work, and routing counters.
struct PoolSlot {
    sim: Option<ReplicaSim>,
    /// Timelines and accumulators of crashed incarnations, merged into the
    /// slot's report at the end.
    retired_timelines: Vec<RequestTimeline>,
    retired_acc: SimAccumulators,
    /// Cache probes and event-queue counters of crashed incarnations,
    /// harvested at each death instant (empty when tracing is off).
    retired_probes: Vec<crate::engine::CacheProbe>,
    retired_equeue: crate::equeue::EventQueueStats,
    assigned: usize,
}

impl PoolSlot {
    fn new(spec: &PipelineSpec, track_probes: bool) -> Self {
        let mut sim = ReplicaSim::new(spec.clone());
        sim.track_probes = track_probes;
        Self {
            sim: Some(sim),
            retired_timelines: Vec::new(),
            retired_acc: SimAccumulators::default(),
            retired_probes: Vec::new(),
            retired_equeue: crate::equeue::EventQueueStats::default(),
            assigned: 0,
        }
    }
}

/// A pending KV handoff: the request plus its priced transfer.
struct TransferRec {
    req: EngineRequest,
    bytes: f64,
    latency_s: f64,
}

/// What the pool-level agenda does at an instant.
#[derive(Debug, Clone, Copy)]
enum PoolAction {
    Crash { pool: PoolRole, replica: usize },
    Restart { pool: PoolRole, replica: usize },
}

/// The disaggregated two-pool serving engine. See the module docs.
pub struct DisaggEngine {
    prefill_spec: PipelineSpec,
    decode_spec: PipelineSpec,
    prefill_replicas: usize,
    decode_replicas: usize,
    prefill_router: RouterPolicy,
    decode_router: RouterPolicy,
    transfer: KvTransferModel,
    parallel_advance: bool,
    faults: Vec<PoolCrash>,
    telemetry: rago_telemetry::TelemetryConfig,
}

impl DisaggEngine {
    /// Creates the engine from explicit pool shapes. `prefill_spec` is the
    /// pre-decode pipeline (marked handoff internally); `decode_spec`
    /// should be a [`PipelineSpec::decode_only`] pipeline.
    ///
    /// # Panics
    ///
    /// Panics when a pool is empty, the prefill spec has no pre-decode
    /// stages, or the decode spec still carries pre-decode stages.
    pub fn new(
        prefill_spec: PipelineSpec,
        prefill_replicas: usize,
        prefill_router: RouterPolicy,
        decode_spec: PipelineSpec,
        decode_replicas: usize,
        decode_router: RouterPolicy,
        transfer: KvTransferModel,
    ) -> Self {
        assert!(prefill_replicas > 0, "the prefill pool needs a replica");
        assert!(decode_replicas > 0, "the decode pool needs a replica");
        assert!(
            decode_spec.stages.is_empty(),
            "a decode-pool pipeline must not carry pre-decode stages \
             (use PipelineSpec::decode_only)"
        );
        let prefill_spec = if prefill_spec.handoff {
            prefill_spec
        } else {
            prefill_spec.with_handoff()
        };
        Self {
            prefill_spec,
            decode_spec,
            prefill_replicas,
            decode_replicas,
            prefill_router,
            decode_router,
            transfer,
            parallel_advance: false,
            faults: Vec::new(),
            telemetry: rago_telemetry::TelemetryConfig::disabled(),
        }
    }

    /// Sets the telemetry config used by [`Self::run_telemetry`] (and by
    /// [`Self::run_traced`] for its gauge cadence). The untraced run paths
    /// never consult it.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: rago_telemetry::TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Creates the engine from a disaggregated [`FleetConfig`], or `None`
    /// when the fleet is flat / single-Monolithic-pool (callers dispatch
    /// those to [`crate::FleetEngine`] unchanged).
    pub fn from_fleet(
        prefill_spec: PipelineSpec,
        decode_spec: PipelineSpec,
        fleet: &FleetConfig,
        transfer: KvTransferModel,
    ) -> Option<Self> {
        let (prefill, decode) = fleet.prefill_decode()?;
        Some(Self::new(
            prefill_spec,
            prefill.replicas as usize,
            prefill.router,
            decode_spec,
            decode.replicas as usize,
            decode.router,
            transfer,
        ))
    }

    /// Enables rayon-parallel advancement of the prefill pool between
    /// routing points (bit-identical to the serial loop, as in
    /// [`crate::FleetEngine::with_parallel_advance`]).
    #[must_use]
    pub fn with_parallel_advance(mut self, parallel: bool) -> Self {
        self.parallel_advance = parallel;
        self
    }

    /// Schedules deterministic per-pool crashes (and optional restarts).
    ///
    /// # Panics
    ///
    /// Panics on a crash aimed at [`PoolRole::Monolithic`], an out-of-range
    /// replica, or a negative/non-finite time or delay.
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<PoolCrash>) -> Self {
        for f in &faults {
            let pool_len = match f.pool {
                PoolRole::Prefill => self.prefill_replicas,
                PoolRole::Decode => self.decode_replicas,
                PoolRole::Monolithic => panic!("pool crashes target Prefill or Decode pools"),
            };
            assert!(
                f.replica < pool_len,
                "crash targets replica {} of a {}-replica {} pool",
                f.replica,
                pool_len,
                f.pool
            );
            assert!(
                f.at_s.is_finite() && f.at_s >= 0.0,
                "crash times must be finite and non-negative"
            );
            if let Some(d) = f.restart_delay_s {
                assert!(
                    d.is_finite() && d >= 0.0,
                    "restart delays must be finite and non-negative"
                );
            }
        }
        self.faults = faults;
        self
    }

    /// Runs the engine over a workload trace. See [`Self::run`].
    pub fn run_trace(&self, trace: &Trace) -> DisaggReport {
        self.run(trace.requests.iter().map(EngineRequest::from).collect())
    }

    /// Runs the fleet over `requests` (sorted by arrival internally) and
    /// returns the merged two-pool report.
    ///
    /// The run interleaves three deterministic lanes on one clock — pool
    /// faults, then KV-transfer completions, then external arrivals at a
    /// tie — and keeps a *knowledge horizon*: a transfer completion is only
    /// acted on once the prefill pool has simulated past it, so a handoff
    /// discovered later can never complete earlier than one already
    /// processed (transfer latency varies with prefix length).
    ///
    /// # Panics
    ///
    /// Panics if any arrival time is negative or non-finite, any request
    /// generates zero tokens, request ids are not unique, or a crash leaves
    /// a pool with work but no survivor to re-queue it to.
    pub fn run(&self, requests: Vec<EngineRequest>) -> DisaggReport {
        self.run_recorded(requests, &mut rago_telemetry::NullRecorder)
            .0
    }

    /// Runs the fleet like [`Self::run`] while recording a trace into `rec`,
    /// then derives per-replica spans, gauges, cache probes, and profile
    /// counters post-hoc. Prefill replicas own tracks `0..P`; decode
    /// replicas own tracks `P..P+D`. The simulated outcome is bit-identical
    /// to the untraced run for any recorder.
    pub fn run_traced<R: rago_telemetry::Recorder>(
        &self,
        requests: Vec<EngineRequest>,
        rec: &mut R,
    ) -> DisaggReport {
        let (report, obs) = self.run_recorded(requests, rec);
        if R::ENABLED {
            let end_s = report.merged.metrics.makespan_s;
            let cadence = self.telemetry.gauge_cadence_s;
            for (base, pool) in [
                (0, &report.prefill),
                (self.prefill_replicas, &report.decode),
            ] {
                for rr in &pool.per_replica {
                    let track = (base + rr.replica) as u32;
                    crate::telemetry::record_request_spans(rec, track, &rr.report.timelines);
                    crate::telemetry::record_load_gauges(
                        rec,
                        track,
                        &rr.report.timelines,
                        cadence,
                        end_s,
                    );
                }
            }
            let mut profile = rago_telemetry::SimProfile::default();
            let events_by_track: std::collections::HashMap<usize, u64> = report
                .prefill
                .per_replica
                .iter()
                .map(|rr| (rr.replica, rr.report.metrics.events_processed))
                .chain(report.decode.per_replica.iter().map(|rr| {
                    (
                        self.prefill_replicas + rr.replica,
                        rr.report.metrics.events_processed,
                    )
                }))
                .collect();
            for ob in &obs {
                crate::telemetry::record_cache_probes(rec, ob.replica as u32, &ob.probes);
                let events = events_by_track.get(&ob.replica).copied().unwrap_or(0);
                profile.merge_from(&crate::telemetry::profile_from_stats(
                    &ob.equeue, events, end_s,
                ));
            }
            profile.record_into(rec, end_s, rago_telemetry::FLEET_TRACK);
        }
        report
    }

    /// Runs with a [`rago_telemetry::TraceRecorder`] configured from the
    /// engine's [`TelemetryConfig`](rago_telemetry::TelemetryConfig) and
    /// returns the report together with the recorder holding the captured
    /// events.
    pub fn run_telemetry(
        &self,
        requests: Vec<EngineRequest>,
    ) -> (DisaggReport, rago_telemetry::TraceRecorder) {
        let mut rec = rago_telemetry::TraceRecorder::new(self.telemetry.clone());
        let report = self.run_traced(requests, &mut rec);
        (report, rec)
    }

    fn run_recorded<R: rago_telemetry::Recorder>(
        &self,
        mut requests: Vec<EngineRequest>,
        rec: &mut R,
    ) -> (DisaggReport, Vec<ReplicaObs>) {
        sort_by_arrival(&mut requests);
        let mut prefill: Vec<PoolSlot> = (0..self.prefill_replicas)
            .map(|_| PoolSlot::new(&self.prefill_spec, R::ENABLED))
            .collect();
        let mut decode: Vec<PoolSlot> = (0..self.decode_replicas)
            .map(|_| PoolSlot::new(&self.decode_spec, R::ENABLED))
            .collect();
        let mut router = PoolRouter::new(self.prefill_router, self.decode_router);
        let mut stats = TransferStats::default();
        let mut prefill_asg: Vec<(u64, usize)> = Vec::with_capacity(requests.len());
        let mut decode_asg: Vec<(u64, usize)> = Vec::with_capacity(requests.len());

        // Agenda of (time, action): crashes and restarts in time order,
        // ties by schedule position with each crash before its restart.
        let mut agenda: Vec<(f64, PoolAction)> = Vec::with_capacity(self.faults.len() * 2);
        for f in &self.faults {
            agenda.push((
                f.at_s,
                PoolAction::Crash {
                    pool: f.pool,
                    replica: f.replica,
                },
            ));
            if let Some(d) = f.restart_delay_s {
                agenda.push((
                    f.at_s + d,
                    PoolAction::Restart {
                        pool: f.pool,
                        replica: f.replica,
                    },
                ));
            }
        }
        agenda.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Pending transfers keyed by completion time in the calendar lane;
        // same-instant completions pop in emission (= handoff) order.
        let mut pending: EventQueue<u32> = EventQueue::new();
        let mut transfer_meta: Vec<TransferRec> = Vec::new();
        let mut harvest_buf: Vec<(f64, EngineRequest)> = Vec::new();
        let mut live_buf: Vec<usize> = Vec::new();

        // How far the prefill pool has been simulated: transfers completing
        // at or beyond this instant stay pending (an undiscovered handoff
        // could still complete before them).
        let mut horizon = 0.0f64;
        let mut prefill_drained = false;

        let mut arrival_idx = 0usize;
        let mut agenda_idx = 0usize;

        macro_rules! harvest {
            () => {
                for slot in prefill.iter_mut() {
                    if let Some(sim) = slot.sim.as_mut() {
                        sim.take_handoffs(&mut harvest_buf);
                        for (ready_s, req) in harvest_buf.drain(..) {
                            let bytes = self.transfer.bytes_for(req.prefix_tokens);
                            let latency_s = self.transfer.latency_s(req.prefix_tokens);
                            let idx = transfer_meta.len() as u32;
                            transfer_meta.push(TransferRec {
                                req,
                                bytes,
                                latency_s,
                            });
                            pending.push_scheduled(ready_s + latency_s, idx);
                        }
                    }
                }
            };
        }

        loop {
            let t_fault = agenda.get(agenda_idx).map(|a| a.0);
            let t_arrival = requests.get(arrival_idx).map(|r| r.arrival_s);
            // A transfer acts only when it is known-complete (inside the
            // horizon) and strictly earliest: faults and arrivals win ties.
            let t_transfer = pending
                .peek_time()
                .filter(|&tc| prefill_drained || tc < horizon)
                .filter(|&tc| t_fault.map_or(true, |tf| tc < tf))
                .filter(|&tc| t_arrival.map_or(true, |ta| tc < ta));

            if t_transfer.is_some() {
                let (tc, idx) = pending.pop().expect("peeked transfer exists");
                self.deliver_transfer(
                    tc,
                    &transfer_meta[idx as usize],
                    &mut decode,
                    &mut router,
                    &mut live_buf,
                    &mut stats,
                    &mut decode_asg,
                    rec,
                );
                continue;
            }

            match (t_fault, t_arrival) {
                (Some(tf), ta) if ta.map_or(true, |ta| tf <= ta) => {
                    // Advance the prefill pool to the fault instant first so
                    // every handoff that precedes the fault is discovered,
                    // and let those transfers act before the fault does.
                    advance_pool(&mut prefill, tf, self.parallel_advance);
                    harvest!();
                    horizon = horizon.max(tf);
                    if pending.peek_time().is_some_and(|tc| tc < tf) {
                        continue;
                    }
                    let (_, action) = agenda[agenda_idx];
                    agenda_idx += 1;
                    self.apply_action(
                        tf,
                        action,
                        &mut prefill,
                        &mut decode,
                        &mut router,
                        &mut live_buf,
                        &mut stats,
                        &mut prefill_asg,
                        &mut decode_asg,
                        rec,
                    );
                }
                (_, Some(ta)) => {
                    advance_pool(&mut prefill, ta, self.parallel_advance);
                    harvest!();
                    horizon = horizon.max(ta);
                    if pending.peek_time().is_some_and(|tc| tc < ta) {
                        continue;
                    }
                    let req = requests[arrival_idx];
                    arrival_idx += 1;
                    live_slots(&prefill, &mut live_buf);
                    assert!(
                        !live_buf.is_empty(),
                        "an arrival at {ta:.6}s found no live prefill replica"
                    );
                    let pick = router.pick(PoolRole::Prefill, &prefill, &live_buf, &req);
                    let slot = live_buf[pick];
                    if R::ENABLED {
                        crate::telemetry::record_route_pick(
                            rec,
                            ta,
                            self.prefill_router,
                            slot,
                            &req,
                            prefill[slot].sim.as_ref().expect("picked slot is live"),
                        );
                    }
                    prefill[slot].assigned += 1;
                    prefill_asg.push((req.id, slot));
                    prefill[slot]
                        .sim
                        .as_mut()
                        .expect("picked slot is live")
                        .inject(req);
                }
                // The guard on the first arm is always true when there is
                // no arrival, so this point is unreachable.
                (Some(_), None) => unreachable!("a lone fault matches the first arm"),
                (None, None) => {
                    if !prefill_drained {
                        for slot in prefill.iter_mut() {
                            if let Some(sim) = slot.sim.as_mut() {
                                sim.run_to_completion();
                            }
                        }
                        harvest!();
                        prefill_drained = true;
                        continue;
                    }
                    if pending.is_empty() {
                        break;
                    }
                    // Every handoff is known now; drain remaining transfers
                    // in completion order.
                    let (tc, idx) = pending.pop().expect("pending transfer exists");
                    self.deliver_transfer(
                        tc,
                        &transfer_meta[idx as usize],
                        &mut decode,
                        &mut router,
                        &mut live_buf,
                        &mut stats,
                        &mut decode_asg,
                        rec,
                    );
                }
            }
        }

        for slot in decode.iter_mut() {
            if let Some(sim) = slot.sim.as_mut() {
                sim.run_to_completion();
            }
        }

        self.build_disagg_report(prefill, decode, stats, prefill_asg, decode_asg)
    }

    /// Routes one completed KV transfer into the decode pool at `tc`.
    #[allow(clippy::too_many_arguments)]
    fn deliver_transfer<R: rago_telemetry::Recorder>(
        &self,
        tc: f64,
        rec: &TransferRec,
        decode: &mut [PoolSlot],
        router: &mut PoolRouter,
        live_buf: &mut Vec<usize>,
        stats: &mut TransferStats,
        decode_asg: &mut Vec<(u64, usize)>,
        trace: &mut R,
    ) {
        advance_pool(decode, tc, false);
        live_slots(decode, live_buf);
        assert!(
            !live_buf.is_empty(),
            "a KV transfer completing at {tc:.6}s found no live decode replica"
        );
        let pick = router.pick(PoolRole::Decode, decode, live_buf, &rec.req);
        let slot = live_buf[pick];
        if R::ENABLED {
            let track = self.prefill_replicas + slot;
            crate::telemetry::record_route_pick(
                trace,
                tc,
                self.decode_router,
                track,
                &rec.req,
                decode[slot].sim.as_ref().expect("picked slot is live"),
            );
            crate::telemetry::record_kv_transfer(
                trace,
                track as u32,
                tc,
                rec.latency_s,
                rec.bytes,
                &rec.req,
            );
        }
        decode[slot].assigned += 1;
        decode_asg.push((rec.req.id, slot));
        decode[slot]
            .sim
            .as_mut()
            .expect("picked slot is live")
            .inject_delayed(rec.req, tc);
        stats.transfers += 1;
        stats.bytes_total += rec.bytes;
        stats.latency_total_s += rec.latency_s;
        stats.latency_max_s = stats.latency_max_s.max(rec.latency_s);
    }

    /// Applies one agenda action at `t`: kill a replica (re-queueing its
    /// in-flight work to same-pool survivors) or cold-restart a slot.
    #[allow(clippy::too_many_arguments)]
    fn apply_action<R: rago_telemetry::Recorder>(
        &self,
        t: f64,
        action: PoolAction,
        prefill: &mut Vec<PoolSlot>,
        decode: &mut Vec<PoolSlot>,
        router: &mut PoolRouter,
        live_buf: &mut Vec<usize>,
        stats: &mut TransferStats,
        prefill_asg: &mut Vec<(u64, usize)>,
        decode_asg: &mut Vec<(u64, usize)>,
        rec: &mut R,
    ) {
        match action {
            PoolAction::Crash { pool, replica } => {
                let (slots, track_base, policy): (&mut Vec<PoolSlot>, usize, RouterPolicy) =
                    match pool {
                        PoolRole::Prefill => (prefill, 0, self.prefill_router),
                        PoolRole::Decode => (decode, self.prefill_replicas, self.decode_router),
                        PoolRole::Monolithic => unreachable!("validated in with_faults"),
                    };
                // The prefill pool is already advanced (and harvested) to
                // the fault instant by the main loop; the decode pool is
                // advanced here. Either way the victim stops just before
                // `t` — the crash wins the tie against its own work.
                advance_pool(slots, t, false);
                let Some(mut sim) = slots[replica].sim.take() else {
                    panic!("crash at {t:.6}s targets replica {replica} which is already down");
                };
                if R::ENABLED {
                    slots[replica].retired_probes.extend(sim.drain_probe_log());
                    slots[replica]
                        .retired_equeue
                        .merge_from(&sim.equeue_stats());
                }
                let (timelines, in_flight, acc) = sim.dismantle();
                slots[replica].retired_timelines.extend(timelines);
                slots[replica].retired_acc.merge_from(&acc);
                match pool {
                    PoolRole::Prefill => stats.requeued_prefill += in_flight.len() as u64,
                    PoolRole::Decode => stats.requeued_decode += in_flight.len() as u64,
                    PoolRole::Monolithic => unreachable!(),
                }
                live_slots(slots, live_buf);
                assert!(
                    in_flight.is_empty() || !live_buf.is_empty(),
                    "a {pool} crash at {t:.6}s left {} in-flight requests with no survivor",
                    in_flight.len()
                );
                let asg = match pool {
                    PoolRole::Prefill => prefill_asg,
                    PoolRole::Decode => decode_asg,
                    PoolRole::Monolithic => unreachable!(),
                };
                for req in in_flight {
                    let pick = router.pick(pool, slots, live_buf, &req);
                    let slot = live_buf[pick];
                    if R::ENABLED {
                        crate::telemetry::record_route_pick(
                            rec,
                            t,
                            policy,
                            track_base + slot,
                            &req,
                            slots[slot].sim.as_ref().expect("picked slot is live"),
                        );
                    }
                    slots[slot].assigned += 1;
                    asg.push((req.id, slot));
                    slots[slot]
                        .sim
                        .as_mut()
                        .expect("picked slot is live")
                        .inject_delayed(req, t);
                }
            }
            PoolAction::Restart { pool, replica } => {
                let (slots, spec) = match pool {
                    PoolRole::Prefill => (&mut *prefill, &self.prefill_spec),
                    PoolRole::Decode => (&mut *decode, &self.decode_spec),
                    PoolRole::Monolithic => unreachable!("validated in with_faults"),
                };
                assert!(
                    slots[replica].sim.is_none(),
                    "restart at {t:.6}s targets replica {replica} which is already up"
                );
                let mut sim = ReplicaSim::new(spec.clone());
                sim.track_probes = R::ENABLED;
                slots[replica].sim = Some(sim);
            }
        }
    }

    /// Finishes both pools, stitches prefill and decode legs into
    /// fleet-level timelines, and assembles the report.
    fn build_disagg_report(
        &self,
        prefill: Vec<PoolSlot>,
        decode: Vec<PoolSlot>,
        stats: TransferStats,
        prefill_asg: Vec<(u64, usize)>,
        decode_asg: Vec<(u64, usize)>,
    ) -> (DisaggReport, Vec<ReplicaObs>) {
        let (prefill_report, prefill_legs, prefill_acc, mut obs) = finish_pool(
            prefill,
            PoolRole::Prefill,
            self.prefill_router,
            prefill_asg,
            0,
        );
        let (decode_report, decode_legs, decode_acc, decode_obs) = finish_pool(
            decode,
            PoolRole::Decode,
            self.decode_router,
            decode_asg,
            self.prefill_replicas,
        );
        obs.extend(decode_obs);

        // Stitch by request id: arrival + pre-decode stages + first token
        // from the prefill leg, decode join + completion from the decode
        // leg, queueing summed (the transfer itself is neither queueing nor
        // decode service — it widens completion, so it lands in TPOT and
        // end-to-end latency).
        let mut decode_by_id: std::collections::HashMap<u64, &RequestTimeline> =
            std::collections::HashMap::with_capacity(decode_legs.len());
        for leg in &decode_legs {
            let prior = decode_by_id.insert(leg.id, leg);
            assert!(
                prior.is_none(),
                "duplicate request id {} in the decode pool — disaggregated \
                 runs require unique request ids for stitching",
                leg.id
            );
        }
        let mut merged_timelines: Vec<RequestTimeline> = prefill_legs
            .iter()
            .map(|p| {
                let d = decode_by_id
                    .remove(&p.id)
                    .unwrap_or_else(|| panic!("request {} prefilled but never decoded", p.id));
                RequestTimeline {
                    id: p.id,
                    arrival_s: p.arrival_s,
                    stage_starts_s: p.stage_starts_s.clone(),
                    stage_ends_s: p.stage_ends_s.clone(),
                    class: p.class,
                    decode_join_s: d.decode_join_s,
                    first_token_s: p.first_token_s,
                    completion_s: d.completion_s,
                    queueing_s: p.queueing_s + d.queueing_s,
                    decode_tokens: d.decode_tokens,
                }
            })
            .collect();
        assert!(
            decode_by_id.is_empty(),
            "{} requests decoded without a prefill leg",
            decode_by_id.len()
        );
        merged_timelines.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));

        let mut merged_acc = SimAccumulators::default();
        merged_acc.merge_from(&prefill_acc);
        merged_acc.merge_from(&decode_acc);

        (
            DisaggReport {
                merged: build_report(merged_timelines, &merged_acc),
                prefill: prefill_report,
                decode: decode_report,
                transfers: stats,
                transfer_model: self.transfer,
            },
            obs,
        )
    }
}

/// Advances every live slot of a pool to just before `t`.
fn advance_pool(slots: &mut [PoolSlot], t: f64, parallel: bool) {
    advance_all(slots, |s| s.sim.as_mut(), t, parallel);
}

/// Collects the indices of slots whose replica is currently up.
fn live_slots(slots: &[PoolSlot], out: &mut Vec<usize>) {
    out.clear();
    out.extend(
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sim.is_some())
            .map(|(i, _)| i),
    );
}

/// Finishes a pool: per-slot reports (current incarnation's work merged
/// with retired incarnations'), the pool's merged request legs, its summed
/// accumulators, and per-slot observability (probes + event-queue stats,
/// tracked at `track_base + slot` in the fleet-wide numbering).
fn finish_pool(
    slots: Vec<PoolSlot>,
    role: PoolRole,
    router: RouterPolicy,
    assignments: Vec<(u64, usize)>,
    track_base: usize,
) -> (
    PoolReport,
    Vec<RequestTimeline>,
    SimAccumulators,
    Vec<ReplicaObs>,
) {
    let mut per_replica = Vec::with_capacity(slots.len());
    let mut legs: Vec<RequestTimeline> = Vec::new();
    let mut pool_acc = SimAccumulators::default();
    let mut assigned_counts = Vec::with_capacity(slots.len());
    let mut obs = Vec::with_capacity(slots.len());
    for (replica, slot) in slots.into_iter().enumerate() {
        let mut timelines = slot.retired_timelines;
        let mut acc = slot.retired_acc;
        let mut probes = slot.retired_probes;
        let mut equeue = slot.retired_equeue;
        if let Some(mut sim) = slot.sim {
            probes.extend(sim.drain_probe_log());
            equeue.merge_from(&sim.equeue_stats());
            let (live_timelines, live_acc) = sim.finish();
            timelines.extend(live_timelines);
            acc.merge_from(&live_acc);
        }
        timelines.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        legs.extend(timelines.iter().cloned());
        pool_acc.merge_from(&acc);
        assigned_counts.push(slot.assigned);
        obs.push(ReplicaObs {
            replica: track_base + replica,
            probes,
            equeue,
        });
        per_replica.push(ReplicaReport {
            replica,
            assigned: slot.assigned,
            report: build_report(timelines, &acc),
        });
    }
    (
        PoolReport {
            role,
            per_replica,
            imbalance: LoadImbalance::from_counts(assigned_counts),
            router,
            assignments,
        },
        legs,
        pool_acc,
        obs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DecodeSpec, LatencyTable, ServingEngine, StageSpec};
    use rago_schema::SequenceProfile;
    use rago_workloads::{ArrivalProcess, TraceSpec};

    fn two_stage_spec() -> PipelineSpec {
        PipelineSpec::new(
            vec![
                StageSpec::new(
                    "retrieval",
                    0,
                    16,
                    LatencyTable::from_fn(16, |b| 0.02 + 1e-4 * f64::from(b)),
                ),
                StageSpec::new(
                    "prefix",
                    1,
                    8,
                    LatencyTable::from_fn(8, |b| 0.01 * f64::from(b)),
                ),
            ],
            DecodeSpec::new(
                32,
                LatencyTable::from_fn(32, |b| 2e-3 + 1e-5 * f64::from(b)),
            ),
        )
    }

    fn decode_spec() -> PipelineSpec {
        PipelineSpec::decode_only(
            DecodeSpec::new(
                32,
                LatencyTable::from_fn(32, |b| 2e-3 + 1e-5 * f64::from(b)),
            ),
            None,
        )
    }

    fn trace(n: u32, rate: f64, seed: u64) -> rago_workloads::Trace {
        TraceSpec {
            num_requests: n as usize,
            profile: SequenceProfile::paper_default().with_decode_tokens(24),
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            length_jitter: 0.2,
            seed,
        }
        .generate()
    }

    fn engine_1p1(transfer: KvTransferModel) -> DisaggEngine {
        DisaggEngine::new(
            two_stage_spec(),
            1,
            RouterPolicy::RoundRobin,
            decode_spec(),
            1,
            RouterPolicy::RoundRobin,
            transfer,
        )
    }

    /// The monolithic engine groups events within [`crate::engine::TIME_EPS`]
    /// onto one instant, so a near-coincident prefill event can nudge the
    /// decode step chain by sub-picosecond amounts that a split decode pool
    /// (which never sees prefill events) cannot reproduce. Equivalence of
    /// the zero-cost 1+1 split therefore holds to the grouping tolerance on
    /// time fields and exactly on everything discrete.
    fn assert_time_eq(label: &str, id: u64, d: f64, m: f64) {
        assert!(
            (d - m).abs() <= 1e-12,
            "request {id}: {label} diverged beyond the event-grouping \
             tolerance: disagg {d} vs monolithic {m}"
        );
    }

    #[test]
    fn one_plus_one_at_zero_cost_matches_the_monolithic_engine() {
        let trace = trace(120, 60.0, 9);
        let mono = ServingEngine::from_trace(two_stage_spec(), &trace).run();
        let disagg = engine_1p1(KvTransferModel::zero()).run_trace(&trace);

        assert_eq!(disagg.merged.timelines.len(), mono.timelines.len());
        for (d, m) in disagg.merged.timelines.iter().zip(&mono.timelines) {
            assert_eq!(d.id, m.id);
            assert_eq!(d.arrival_s, m.arrival_s);
            assert_eq!(d.decode_tokens, m.decode_tokens);
            assert_eq!(d.stage_starts_s.len(), m.stage_starts_s.len());
            for (ds, ms) in d.stage_starts_s.iter().zip(&m.stage_starts_s) {
                assert_time_eq("stage start", d.id, *ds, *ms);
            }
            for (de, me) in d.stage_ends_s.iter().zip(&m.stage_ends_s) {
                assert_time_eq("stage end", d.id, *de, *me);
            }
            assert_time_eq("first token", d.id, d.first_token_s, m.first_token_s);
            assert_time_eq("decode join", d.id, d.decode_join_s, m.decode_join_s);
            assert_time_eq("completion", d.id, d.completion_s, m.completion_s);
            assert_time_eq("queueing", d.id, d.queueing_s, m.queueing_s);
        }
        let dm = &disagg.merged.metrics;
        let mm = &mono.metrics;
        assert!((dm.ttft.mean_s - mm.ttft.mean_s).abs() <= 1e-12);
        assert!((dm.tpot.p99_s - mm.tpot.p99_s).abs() <= 1e-12);
        assert!((dm.latency.max_s - mm.latency.max_s).abs() <= 1e-12);
        // The disaggregated run re-processes one arrival event per request
        // (the transfer completion) on the decode side.
        assert_eq!(
            dm.events_processed,
            mm.events_processed + trace.requests.len() as u64
        );
        assert_eq!(disagg.transfers.transfers, trace.requests.len() as u64);
        assert_eq!(disagg.transfers.bytes_total, 0.0);
        assert_eq!(disagg.transfers.latency_total_s, 0.0);
    }

    #[test]
    fn transfer_model_delays_completion_but_not_first_token() {
        let trace = trace(60, 40.0, 3);
        let free = engine_1p1(KvTransferModel::zero()).run_trace(&trace);
        // 1 ms fixed + wire time per handoff.
        let model = KvTransferModel::new(131_072.0, 25e9, 1e-3);
        let paid = engine_1p1(model).run_trace(&trace);

        assert_eq!(paid.transfers.transfers, 60);
        let expected_bytes: f64 = trace
            .requests
            .iter()
            .map(|r| model.bytes_for(r.prefix_tokens))
            .sum();
        assert!((paid.transfers.bytes_total - expected_bytes).abs() < 1e-6);
        assert!(paid.transfers.latency_mean_s() >= 1e-3);
        assert!(paid.transfers.latency_max_s >= paid.transfers.latency_mean_s());

        // TTFT is emitted on the prefill side: identical request-by-request.
        for (p, f) in paid.merged.timelines.iter().zip(&free.merged.timelines) {
            assert_eq!(p.first_token_s, f.first_token_s);
            assert!(p.completion_s >= f.completion_s);
        }
        // The transfer cost lands in end-to-end latency.
        assert!(paid.merged.metrics.latency.mean_s > free.merged.metrics.latency.mean_s);
    }

    #[test]
    fn decode_pool_router_spreads_transfers() {
        let trace = trace(80, 80.0, 5);
        let report = DisaggEngine::new(
            two_stage_spec(),
            2,
            RouterPolicy::LeastOutstanding,
            decode_spec(),
            3,
            RouterPolicy::RoundRobin,
            KvTransferModel::new(131_072.0, 100e9, 5e-6),
        )
        .run_trace(&trace);
        assert_eq!(report.merged.metrics.completed, 80);
        assert_eq!(report.prefill.per_replica.len(), 2);
        assert_eq!(report.decode.per_replica.len(), 3);
        let decode_assigned: Vec<usize> = report
            .decode
            .per_replica
            .iter()
            .map(|r| r.assigned)
            .collect();
        // Round-robin over three decode replicas: 27/27/26 in some order.
        assert_eq!(decode_assigned.iter().sum::<usize>(), 80);
        assert!(decode_assigned.iter().all(|&a| a >= 26));
        // Every request appears exactly once per pool.
        let prefill_served: usize = report
            .prefill
            .per_replica
            .iter()
            .map(|r| r.report.timelines.len())
            .sum();
        assert_eq!(prefill_served, 80);
        // Per-pool assignment ledgers record every dispatch.
        assert_eq!(report.prefill.assignments.len(), 80);
        assert_eq!(report.decode.assignments.len(), 80);
        assert!(report.prefill.assignments.iter().all(|&(_, s)| s < 2));
        assert!(report.decode.assignments.iter().all(|&(_, s)| s < 3));

        // The fleet-report view renumbers replicas prefill-first and keeps
        // the merged metrics shared.
        let fleet = report.to_fleet_report();
        assert_eq!(fleet.merged, report.merged);
        assert_eq!(fleet.per_replica.len(), 5);
        assert_eq!(
            fleet
                .per_replica
                .iter()
                .map(|r| r.replica)
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(fleet.assignments.len(), 160);
        assert!(fleet.assignments[..80].iter().all(|&(_, s)| s < 2));
        assert!(fleet.assignments[80..]
            .iter()
            .all(|&(_, s)| (2..5).contains(&s)));
        assert_eq!(fleet.imbalance.assigned_per_replica.len(), 5);
        assert_eq!(fleet.router, RouterPolicy::LeastOutstanding);
    }

    #[test]
    fn prefill_crash_requeues_unfinished_work_to_survivors() {
        // 400 rps against ~200 rps of two-replica prefill capacity: the
        // prefill pool is backlogged for the whole trace, so the crash is
        // guaranteed to find in-flight work on the victim.
        let trace = trace(100, 400.0, 7);
        let report = DisaggEngine::new(
            two_stage_spec(),
            2,
            RouterPolicy::RoundRobin,
            decode_spec(),
            2,
            RouterPolicy::RoundRobin,
            KvTransferModel::new(131_072.0, 25e9, 20e-6),
        )
        .with_faults(vec![PoolCrash {
            pool: PoolRole::Prefill,
            replica: 0,
            at_s: 0.2,
            restart_delay_s: None,
        }])
        .run_trace(&trace);
        // Nothing is lost: every request still prefills, transfers, decodes.
        assert_eq!(report.merged.metrics.completed, 100);
        assert_eq!(report.transfers.transfers, 100);
        assert!(report.transfers.requeued_prefill > 0);
        assert_eq!(report.transfers.requeued_decode, 0);
        // The dead replica serves nothing after the crash; the survivor
        // carries the re-queued work on top of its own.
        let t0_max = report.prefill.per_replica[0]
            .report
            .timelines
            .iter()
            .map(|t| t.completion_s)
            .fold(0.0f64, f64::max);
        assert!(t0_max <= 0.2 + 1e-9);
    }

    #[test]
    fn decode_crash_with_restart_conserves_requests() {
        let trace = trace(100, 120.0, 13);
        // A deliberately slow decode step keeps each request resident for
        // ~0.25 s, so the 0.5 s crash always finds work on the victim.
        let slow_decode = PipelineSpec::decode_only(
            DecodeSpec::new(
                32,
                LatencyTable::from_fn(32, |b| 10e-3 + 1e-5 * f64::from(b)),
            ),
            None,
        );
        let report = DisaggEngine::new(
            two_stage_spec(),
            1,
            RouterPolicy::RoundRobin,
            slow_decode,
            2,
            RouterPolicy::JoinShortestQueue,
            KvTransferModel::new(131_072.0, 25e9, 20e-6),
        )
        .with_faults(vec![PoolCrash {
            pool: PoolRole::Decode,
            replica: 1,
            at_s: 0.5,
            restart_delay_s: Some(0.4),
        }])
        .run_trace(&trace);
        assert_eq!(report.merged.metrics.completed, 100);
        assert_eq!(report.transfers.transfers, 100);
        assert!(report.transfers.requeued_decode > 0);
        assert_eq!(report.transfers.requeued_prefill, 0);
        // Conservation by id across the merged report.
        let mut ids: Vec<u64> = report.merged.timelines.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn from_fleet_rejects_flat_fleets() {
        let flat = FleetConfig::new(4, RouterPolicy::RoundRobin);
        assert!(DisaggEngine::from_fleet(
            two_stage_spec(),
            decode_spec(),
            &flat,
            KvTransferModel::zero()
        )
        .is_none());
        let split = FleetConfig::split(1, 3, RouterPolicy::RoundRobin);
        assert!(DisaggEngine::from_fleet(
            two_stage_spec(),
            decode_spec(),
            &split,
            KvTransferModel::zero()
        )
        .is_some());
    }

    #[test]
    fn parallel_advance_is_bit_identical() {
        let trace = trace(90, 70.0, 21);
        let model = KvTransferModel::new(131_072.0, 25e9, 20e-6);
        let serial = DisaggEngine::new(
            two_stage_spec(),
            3,
            RouterPolicy::LeastOutstanding,
            decode_spec(),
            2,
            RouterPolicy::RoundRobin,
            model,
        )
        .run_trace(&trace);
        let parallel = DisaggEngine::new(
            two_stage_spec(),
            3,
            RouterPolicy::LeastOutstanding,
            decode_spec(),
            2,
            RouterPolicy::RoundRobin,
            model,
        )
        .with_parallel_advance(true)
        .run_trace(&trace);
        assert_eq!(serial.merged.timelines, parallel.merged.timelines);
        assert_eq!(serial.transfers, parallel.transfers);
    }
}
