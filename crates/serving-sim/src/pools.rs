//! Disaggregated prefill/decode serving: two replica pools linked by a
//! KV-cache handoff.
//!
//! Splitwise and DistServe size a *Prefill* pool for TTFT and a *Decode*
//! pool for TPOT, moving each request's prefilled KV state across an
//! interconnect between the phases. A split fleet is a configuration of the
//! one fleet loop,
//! [`FleetEngine::disaggregated`](crate::FleetEngine::disaggregated), on
//! top of the per-replica DES ([`crate::engine`]):
//!
//! 1. Arrivals route across the Prefill pool with its [`RouterPolicy`]
//!    (state-aware, as in any fleet).
//! 2. A request finishing its last pre-decode stage on a prefill replica
//!    emits its first token there and a *handoff* record; the
//!    [`KvTransferModel`] prices the KV transfer (bytes from prefix length,
//!    latency from interconnect bandwidth plus fixed overhead), and the
//!    transfer's completion joins the fleet's transfer lane (an `equeue`
//!    scheduled lane — same-instant completions keep their emission order).
//! 3. At the completion instant the Decode pool's router (any policy,
//!    including the content-affinity routers) picks a decode replica, and
//!    the request is re-injected with its *original* arrival time, so
//!    end-to-end latency includes queueing, prefill, transfer, and decode.
//!
//! Faults are the fleet's slot-indexed [`FaultEvent`](crate::FaultEvent)s:
//! slots `0..P` are the prefill pool and `P..P+D` the decode pool, and a
//! fault aimed past them is skipped. A crash in the prefill pool re-queues
//! un-transferred work to prefill survivors only (handoffs already emitted
//! keep their in-flight transfers), a decode crash re-queues unfinished
//! decodes to decode survivors, and a restart provisions a cold
//! replacement into the victim's pool. Work that finds no live replica in its pool waits for
//! one, and fails if none ever comes back.
//!
//! A split run returns the fleet's [`ChaosReport`]; [`DisaggReport`] is its
//! two-pool view. Degenerate paths are pinned by tests: a 1+1 split under
//! [`KvTransferModel::zero`] reproduces a one-replica flat fleet's
//! per-request timings exactly (`tests/proptest_pools.rs`).
//!
//! # Examples
//!
//! ```
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_serving_sim::fleet::FleetEngine;
//! use rago_serving_sim::pools::DisaggReport;
//! use rago_schema::{KvTransferModel, PoolSpec, RouterPolicy, SequenceProfile};
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//!
//! let prefill = PipelineSpec::new(
//!     vec![StageSpec::new("prefix", 0, 8, LatencyTable::constant(8, 0.02))],
//!     DecodeSpec::new(32, LatencyTable::constant(32, 3e-3)),
//! );
//! let decode = PipelineSpec::decode_only(DecodeSpec::new(32, LatencyTable::constant(32, 3e-3)), None);
//! let prefill_pool = PoolSpec::new(1, RouterPolicy::LeastOutstanding);
//! let decode_pool = PoolSpec::new(2, RouterPolicy::LeastOutstanding);
//! let trace = TraceSpec {
//!     num_requests: 50,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(16),
//!     arrival: ArrivalProcess::Poisson { rate_rps: 60.0 },
//!     length_jitter: 0.0,
//!     seed: 11,
//! }
//! .generate();
//! let model = KvTransferModel::new(131_072.0, 25e9, 20e-6);
//! let engine = FleetEngine::disaggregated(prefill, decode, prefill_pool, decode_pool, model);
//! let report = DisaggReport::from_chaos(engine.run_trace(&trace), decode_pool.router, model);
//! assert_eq!(report.merged.metrics.completed, 50);
//! assert_eq!(report.transfers.transfers, 50);
//! assert!(report.transfers.latency_total_s > 0.0);
//! ```

use crate::cluster::{LoadImbalance, ReplicaReport};
use crate::engine::ServingReport;
use crate::faults::ChaosReport;
use rago_schema::{KvTransferModel, PoolRole, RouterPolicy};
use serde::{Deserialize, Serialize};

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
    /// Per-replica breakdowns by index within the pool, in provisioning
    /// order. A crashed replica reports the work it completed before
    /// dying; its cold replacement is the pool's next index.
    pub per_replica: Vec<ReplicaReport>,
    /// How evenly the pool's router spread its requests (transfer
    /// completions for the decode pool; re-queued work counts toward the
    /// replica that finally served it).
    pub imbalance: LoadImbalance,
    /// The intra-pool routing policy.
    pub router: RouterPolicy,
    /// `(request id, replica index)` for every dispatch into this pool, in
    /// dispatch order: arrivals for the prefill pool, transfer completions
    /// for the decode pool. A request re-queued by a crash appears again
    /// under its new replica.
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
    /// The two-pool view of a split fleet's run: the merged report and the
    /// transfer statistics as they are, and the fleet's replicas and
    /// dispatches partitioned by pool ([`crate::ReplicaLifetime::pool`])
    /// and renumbered within it. The fleet report's router is the prefill
    /// pool's; `decode_router` and `transfer_model` are the rest of the
    /// split's configuration.
    pub fn from_chaos(
        report: ChaosReport,
        decode_router: RouterPolicy,
        transfer_model: KvTransferModel,
    ) -> Self {
        let ChaosReport {
            fleet,
            lifetimes,
            transfers,
            ..
        } = report;
        // Each slot's pool (0 = prefill, 1 = decode) and index within it.
        let mut sizes = [0usize; 2];
        let place: Vec<(usize, usize)> = lifetimes
            .iter()
            .map(|l| {
                let pool = usize::from(l.pool == PoolRole::Decode);
                sizes[pool] += 1;
                (pool, sizes[pool] - 1)
            })
            .collect();
        let mut pools = [
            (PoolRole::Prefill, fleet.router),
            (PoolRole::Decode, decode_router),
        ]
        .map(|(role, router)| PoolReport {
            role,
            per_replica: Vec::new(),
            imbalance: LoadImbalance::from_counts(Vec::new()),
            router,
            assignments: Vec::new(),
        });
        for rr in fleet.per_replica {
            let (pool, replica) = place[rr.replica];
            pools[pool]
                .per_replica
                .push(ReplicaReport { replica, ..rr });
        }
        for (id, slot) in fleet.assignments {
            let (pool, replica) = place[slot];
            pools[pool].assignments.push((id, replica));
        }
        for pool in &mut pools {
            pool.imbalance =
                LoadImbalance::from_counts(pool.per_replica.iter().map(|r| r.assigned).collect());
        }
        let [prefill, decode] = pools;
        Self {
            merged: fleet.merged,
            prefill,
            decode,
            transfers,
            transfer_model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
    use crate::faults::{FaultEvent, FaultSchedule, ScaleDriver};
    use crate::fleet::FleetEngine;
    use rago_schema::{FleetConfig, PoolSpec, SequenceProfile};
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

    /// A `prefill + decode` split of the two-stage pipeline, and the view
    /// turning its runs into two-pool reports.
    fn split(
        prefill: u32,
        prefill_router: RouterPolicy,
        decode_spec: PipelineSpec,
        decode: u32,
        decode_router: RouterPolicy,
        transfer: KvTransferModel,
    ) -> (FleetEngine, impl Fn(ChaosReport) -> DisaggReport) {
        let engine = FleetEngine::disaggregated(
            two_stage_spec(),
            decode_spec,
            PoolSpec::new(prefill, prefill_router),
            PoolSpec::new(decode, decode_router),
            transfer,
        );
        let view = move |report| DisaggReport::from_chaos(report, decode_router, transfer);
        (engine, view)
    }

    fn split_1p1(transfer: KvTransferModel) -> (FleetEngine, impl Fn(ChaosReport) -> DisaggReport) {
        split(
            1,
            RouterPolicy::RoundRobin,
            decode_spec(),
            1,
            RouterPolicy::RoundRobin,
            transfer,
        )
    }

    /// A monolithic replica groups events within [`crate::engine::TIME_EPS`]
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
        let one = ScaleDriver::Static { replicas: 1 };
        let mono = FleetEngine::new(two_stage_spec(), RouterPolicy::default(), one)
            .run_trace(&trace)
            .fleet
            .merged;
        let (engine, view) = split_1p1(KvTransferModel::zero());
        let disagg = view(engine.run_trace(&trace));

        assert_eq!(disagg.merged.timelines.len(), mono.timelines.len());
        for (d, m) in disagg.merged.timelines.iter().zip(&mono.timelines) {
            assert_eq!(d.id, m.id);
            assert_eq!(d.arrival_s, m.arrival_s);
            assert_eq!(d.decode_tokens, m.decode_tokens);
            assert_eq!(d.stages.starts().len(), m.stages.starts().len());
            for (ds, ms) in d.stages.starts().iter().zip(m.stages.starts()) {
                assert_time_eq("stage start", d.id, *ds, *ms);
            }
            for (de, me) in d.stages.ends().iter().zip(m.stages.ends()) {
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
        let (engine, view) = split_1p1(KvTransferModel::zero());
        let free = view(engine.run_trace(&trace));
        // 1 ms fixed + wire time per handoff.
        let model = KvTransferModel::new(131_072.0, 25e9, 1e-3);
        let (engine, view) = split_1p1(model);
        let paid = view(engine.run_trace(&trace));

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
        let (engine, view) = split(
            2,
            RouterPolicy::LeastOutstanding,
            decode_spec(),
            3,
            RouterPolicy::RoundRobin,
            KvTransferModel::new(131_072.0, 100e9, 5e-6),
        );
        let chaos = engine.run_trace(&trace);
        let fleet = chaos.fleet.clone();
        let report = view(chaos);
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

        // The fleet report numbers replicas prefill-first and shares the
        // merged metrics.
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
        let (engine, view) = split(
            2,
            RouterPolicy::RoundRobin,
            decode_spec(),
            2,
            RouterPolicy::RoundRobin,
            KvTransferModel::new(131_072.0, 25e9, 20e-6),
        );
        // Prefill replica 0 is fleet slot 0; it never restarts.
        let crash = FaultEvent::Crash {
            replica: 0,
            at_s: 0.2,
            restart_delay_s: f64::INFINITY,
        };
        let report = view(
            engine
                .with_faults(FaultSchedule::new(vec![crash]))
                .run_trace(&trace),
        );
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
        let (engine, view) = split(
            1,
            RouterPolicy::RoundRobin,
            slow_decode,
            2,
            RouterPolicy::JoinShortestQueue,
            KvTransferModel::new(131_072.0, 25e9, 20e-6),
        );
        // Decode replica 1 follows the one prefill slot: fleet slot 2.
        let crash = FaultEvent::Crash {
            replica: 2,
            at_s: 0.5,
            restart_delay_s: 0.4,
        };
        let report = view(
            engine
                .with_faults(FaultSchedule::new(vec![crash]))
                .run_trace(&trace),
        );
        assert_eq!(report.merged.metrics.completed, 100);
        assert_eq!(report.transfers.transfers, 100);
        assert!(report.transfers.requeued_decode > 0);
        assert_eq!(report.transfers.requeued_prefill, 0);
        // The cold replacement joins the decode pool as its third replica.
        assert_eq!(report.decode.per_replica.len(), 3);
        // Conservation by id across the merged report.
        let mut ids: Vec<u64> = report.merged.timelines.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn from_fleet_rejects_flat_fleets() {
        // Only a fleet with a decode pool configures a split fleet.
        let flat = FleetConfig::new(4, RouterPolicy::RoundRobin);
        assert!(flat.decode.is_none());
        let split = FleetConfig::split(1, 3, RouterPolicy::RoundRobin);
        let engine = split.decode.map(|decode| {
            FleetEngine::disaggregated(
                two_stage_spec(),
                decode_spec(),
                PoolSpec::new(split.replicas, split.router),
                decode,
                split.transfer,
            )
        });
        assert!(engine.is_some());
        assert_eq!(
            engine.unwrap().driver(),
            &ScaleDriver::Static { replicas: 4 }
        );
    }

    /// A split fleet's slots are `0..P` then `P..P+D`; a crash and a
    /// straggler aimed past them are skipped and leave the run untouched.
    #[test]
    fn faults_beyond_the_split_are_skipped() {
        let trace = trace(60, 40.0, 17);
        let run = |faults: Vec<FaultEvent>| {
            let (engine, _) = split(
                2,
                RouterPolicy::LeastOutstanding,
                decode_spec(),
                1,
                RouterPolicy::RoundRobin,
                KvTransferModel::new(131_072.0, 25e9, 20e-6),
            );
            engine
                .with_faults(FaultSchedule::new(faults))
                .run_trace(&trace)
        };
        let baseline = run(Vec::new());
        let report = run(vec![
            FaultEvent::Crash {
                replica: 3,
                at_s: 0.3,
                restart_delay_s: 0.1,
            },
            FaultEvent::StragglerStart {
                replica: 5,
                at_s: 0.4,
                slowdown: 3.0,
            },
        ]);
        assert_eq!(report.fault.faults_skipped, 2);
        assert_eq!(report.fault.faults_applied, 0);
        assert_eq!(report.fleet, baseline.fleet);
    }
}
