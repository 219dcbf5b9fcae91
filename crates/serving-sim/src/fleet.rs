//! The fleet engine: pipeline replicas behind a router, sized by a scale
//! driver, degraded by faults, and guarded by admission control — every
//! simulation, from one pipeline replica to a fleet split into
//! prefill/decode pools, runs through this one loop.
//!
//! [`crate::engine`] simulates what one pipeline replica does under a
//! request stream. [`FleetEngine`] owns one such replica simulation per
//! fleet slot, advances live replicas to just before each clock point (the
//! replica's composable shared-clock form), and routes a shared arrival
//! stream across the routable replicas with a [`RouterPolicy`] that
//! observes live queue depths and decode residency. A single pipeline is a
//! one-replica [`ScaleDriver::Static`] fleet. What varies between a plain,
//! an elastic, a faulted, and a disaggregated fleet is configuration, not
//! code:
//!
//! * the [`ScaleDriver`] sizes the fleet — `Static` (fixed; the only driver
//!   a [`FleetEngine::disaggregated`] fleet takes), `Reactive` (the
//!   [`crate::autoscaler::AutoscalerPolicy`] evaluated at its interval), or
//!   `Predictive` (a feed-forward [`crate::faults::ScalingPlan`]);
//! * the [`FaultSchedule`] injects crashes, stragglers, and preemptions
//!   (empty by default);
//! * an optional [`AdmissionConfig`] sheds arrivals in priority order;
//! * the pools: one for a flat fleet, or a prefill pool feeding a decode
//!   pool through priced KV transfers (see [`crate::pools`]). Each pool
//!   routes with its own policy and round-robin cursor, and a crashed
//!   replica's work re-queues within its own pool.
//!
//! Five chronological lanes share one clock, with a pinned tie-break at
//! equal instants: **fault actions**, then **pending-request flushes**
//! (requests that found no routable replica in their pool), then **policy
//! ticks / plan steps**, then **arrivals**, then **KV-transfer
//! completions** — a fault or scaling decision at an arrival's instant is
//! in force before that arrival is routed. A transfer is acted on only once
//! the prefill pool has been simulated past it (the *knowledge horizon*),
//! so a handoff discovered later can never complete earlier than one
//! already delivered. The report is a [`ChaosReport`]: the merged
//! [`FleetReport`] plus the scaling history, the fault ledger, and the
//! transfer statistics. A one-replica static fleet runs exactly as its
//! replica would with every request scheduled up front, for every router
//! (pinned in [`crate::cluster`]'s tests).
//!
//! [`FleetEngine::run`] is the one way to run the loop: it pulls arrivals
//! in the order given and takes a [`MetricsMode`] and a [`Recorder`]. Each
//! replica retires a request once it and every earlier one have completed,
//! so a lazily generated trace drives the fleet with per-request state only
//! for requests in flight. [`arrivals`] reads a [`Trace`] in injection
//! order, and [`FleetEngine::run_trace`] runs one exactly and untraced. Any
//! fleet can also run *verdict-only* ([`FleetEngine::run_trace_verdict`]):
//! the same loop, stopped once its final SLO misses rule the attainment
//! target out — what the capacity planners use for the probes they do not
//! return.
//!
//! # Examples
//!
//! ```
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_serving_sim::faults::ScaleDriver;
//! use rago_serving_sim::fleet::{arrivals, FleetEngine};
//! use rago_serving_sim::{MetricsMode, StreamingConfig};
//! use rago_schema::{HistogramSpec, RouterPolicy, SequenceProfile, SloTarget};
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//!
//! let spec = PipelineSpec::new(
//!     vec![StageSpec::new("prefix", 0, 8, LatencyTable::constant(8, 0.02))],
//!     DecodeSpec::new(32, LatencyTable::constant(32, 3e-3)),
//! );
//! let trace = TraceSpec {
//!     num_requests: 200,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(16),
//!     arrival: ArrivalProcess::Poisson { rate_rps: 150.0 },
//!     length_jitter: 0.0,
//!     seed: 3,
//! }
//! .generate();
//! let slo = SloTarget::new(1.0, 0.05);
//! let streaming = MetricsMode::Streaming(
//!     StreamingConfig::new(HistogramSpec::default()).with_slo(slo),
//! );
//! let engine = FleetEngine::new(spec, RouterPolicy::LeastOutstanding,
//!     ScaleDriver::Static { replicas: 3 });
//! let exact = engine.run_trace(&trace);
//! let streamed = engine.run(arrivals(&trace), &streaming, &mut rago_telemetry::NullRecorder);
//! // Streaming keeps histogram-sized state: no timelines, no assignment log.
//! assert!(streamed.fleet.merged.timelines.is_empty());
//! assert!(streamed.fleet.assignments.is_empty());
//! assert_eq!(streamed.fleet.merged.metrics.completed, 200);
//! assert_eq!(exact.offered_attainment(&slo), streamed.offered_attainment(&slo));
//! ```

use crate::autoscaler::{AutoscalerPolicy, ReplicaLifetime, ScalingAction, ScalingEvent};
use crate::cluster::{route_pick, FleetReport, LoadImbalance, ReplicaReport};
use crate::engine::{
    build_report, CacheProbe, ClassMetrics, EngineRequest, LatencyStats, PipelineSpec, ReplicaSim,
    RequestTimeline, Retired, ServingReport, SimAccumulators, SloTally,
};
use crate::equeue::{EventQueue, EventQueueStats};
use crate::faults::{
    AdmissionConfig, ChaosReport, ClassShed, CrashPolicy, Disruption, FaultEvent, FaultKind,
    FaultReport, FaultSchedule, ScaleDriver, ShedEvent,
};
use crate::pools::TransferStats;
use crate::sink::{MetricsMode, RunSink, ScopeFold};
use rago_schema::{KvTransferModel, PoolRole, PoolSpec, RouterPolicy, SloTarget};
use rago_telemetry::Recorder;
use rago_workloads::{Request, Trace};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Index of the pool arrivals route over: the only pool of a flat fleet,
/// the prefill pool of a split one.
const ARRIVAL_POOL: usize = 0;
/// Index of a split fleet's decode pool.
const DECODE_POOL: usize = 1;

/// The fleet engine. See the module docs.
#[derive(Debug, Clone)]
pub struct FleetEngine {
    /// The pipeline of each pool, indexed like [`Run::pools`]: the one
    /// pipeline of a flat fleet, or a split fleet's prefill and decode
    /// pipelines.
    specs: Vec<PipelineSpec>,
    /// The arrival pool's router (a split fleet's prefill router).
    router: RouterPolicy,
    driver: ScaleDriver,
    /// A split fleet's prefill and decode pools and the KV handoff between
    /// them; `None` for a flat fleet.
    split: Option<(PoolSpec, PoolSpec, KvTransferModel)>,
    faults: FaultSchedule,
    crash_policy: CrashPolicy,
    admission: Option<AdmissionConfig>,
    /// Gauge sampling cadence of traced runs ([`Self::with_telemetry`]).
    gauge_cadence_s: f64,
}

impl FleetEngine {
    /// A fleet of `spec` replicas behind `router`, sized by `driver`, with
    /// no faults and no admission control.
    ///
    /// # Panics
    ///
    /// Panics if the driver is malformed ([`ScaleDriver::validate`]) or the
    /// spec is ([`PipelineSpec::validate`]).
    pub fn new(spec: PipelineSpec, router: RouterPolicy, driver: ScaleDriver) -> Self {
        Self::from_specs(vec![spec], router, driver)
    }

    /// A prefill/decode pool fleet (Splitwise/DistServe style): the
    /// `prefill` pool runs `prefill_spec` (marked for KV handoff) and takes
    /// the arrivals; the `decode` pool runs `decode_spec` and takes each
    /// request once its prefilled KV state has crossed the interconnect,
    /// priced by `transfer`. Slots `0..P` are the prefill pool and
    /// `P..P+D` the decode pool, each routed by its own pool's policy. The
    /// fleet is static and runs in [`MetricsMode::Exact`] only: the report
    /// stitches each request's two legs (see [`crate::pools`]).
    ///
    /// # Panics
    ///
    /// Panics unless each pool has at least one replica, the prefill spec
    /// has a pre-decode stage, the decode spec has none (use
    /// [`PipelineSpec::decode_only`]), and both specs pass
    /// [`PipelineSpec::validate`].
    pub fn disaggregated(
        prefill_spec: PipelineSpec,
        decode_spec: PipelineSpec,
        prefill: PoolSpec,
        decode: PoolSpec,
        transfer: KvTransferModel,
    ) -> Self {
        assert!(
            prefill.replicas > 0 && decode.replicas > 0,
            "each pool of a split fleet needs a replica"
        );
        assert!(
            decode_spec.stages.is_empty(),
            "a decode-pool pipeline must not carry pre-decode stages \
             (use PipelineSpec::decode_only)"
        );
        let replicas = prefill.replicas + decode.replicas;
        let mut engine = Self::from_specs(
            vec![prefill_spec.with_handoff(), decode_spec],
            prefill.router,
            ScaleDriver::Static { replicas },
        );
        engine.split = Some((prefill, decode, transfer));
        engine
    }

    fn from_specs(specs: Vec<PipelineSpec>, router: RouterPolicy, driver: ScaleDriver) -> Self {
        if let Err(e) = driver.validate() {
            panic!("{e}");
        }
        for spec in &specs {
            spec.assert_valid();
        }
        Self {
            specs,
            router,
            driver,
            split: None,
            faults: FaultSchedule::empty(),
            crash_policy: CrashPolicy::default(),
            admission: None,
            gauge_cadence_s: 0.0,
        }
    }

    /// Sets the cadence at which traced runs sample load gauges
    /// (`telemetry.gauge_cadence_s`); untraced runs never consult it.
    ///
    /// # Panics
    ///
    /// Panics if [`rago_telemetry::TelemetryConfig::validate`] fails.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: rago_telemetry::TelemetryConfig) -> Self {
        if let Err(e) = telemetry.validate() {
            panic!("{e}");
        }
        self.gauge_cadence_s = telemetry.gauge_cadence_s;
        self
    }

    /// Injects a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the in-flight policy for dying replicas (default
    /// [`CrashPolicy::Requeue`]).
    #[must_use]
    pub fn with_crash_policy(mut self, policy: CrashPolicy) -> Self {
        self.crash_policy = policy;
        self
    }

    /// Enables priority-aware admission control.
    ///
    /// # Panics
    ///
    /// Panics if [`AdmissionConfig::validate`] fails.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        if let Err(e) = admission.validate() {
            panic!("{e}");
        }
        self.admission = Some(admission);
        self
    }

    /// The scale driver.
    pub fn driver(&self) -> &ScaleDriver {
        &self.driver
    }

    /// Runs a generated trace through the fleet in exact metrics mode,
    /// untraced: [`Self::run`] over [`arrivals`]`(trace)`, so the trace may
    /// be in any order.
    pub fn run_trace(&self, trace: &Trace) -> ChaosReport {
        self.run(
            arrivals(trace),
            &MetricsMode::Exact,
            &mut rago_telemetry::NullRecorder,
        )
    }

    /// [`Self::run_trace`] for a caller that needs only the verdict
    /// `offered_attainment(slo) >= slo.attainment` of a run that misses it.
    /// The run stops as soon as so many requests have *finally* missed
    /// `slo` that even if every other request met it the attainment would
    /// fall short: `(n − misses) / n < slo.attainment`, the verdict's own
    /// expression over the `n` trace requests. Shed and failed requests are
    /// final misses, and so is a miss in a live replica's tally: a flat
    /// fleet's request completed outside `slo`, a split fleet's TTFT at the
    /// prefill handoff or TPOT at decode completion. A split fleet counts
    /// the larger of its prefill and decode legs' misses, a lower bound on
    /// its distinct misses; a dead replica's tally is dropped, which only
    /// loosens the bound.
    ///
    /// A run that never loses its verdict returns the full report, equal
    /// to [`Self::run_trace`]'s; one that loses it at any point returns
    /// the [`LostVerdict`] with the work it spent. Checking never changes
    /// the simulation.
    ///
    /// # Panics
    ///
    /// As [`Self::run_trace`].
    pub fn run_trace_verdict(
        &self,
        trace: &Trace,
        slo: &SloTarget,
    ) -> Result<ChaosReport, LostVerdict> {
        self.run_recorded(
            arrivals(trace),
            &MetricsMode::Exact,
            Some(slo),
            &mut rago_telemetry::NullRecorder,
        )
        .map(|(report, _)| report)
    }

    /// Runs the fleet over `arrivals`, pulled one at a time in the order
    /// given. Nothing is copied or sorted, so a lazy generator such as
    /// `rago_workloads::TraceSpec::requests` drives the fleet holding
    /// per-request state only for requests in flight; [`arrivals`] reads a
    /// [`Trace`] in injection order. Faults and restarts keep firing through
    /// the drain after the last arrival; policy scaling does not.
    ///
    /// In [`MetricsMode::Streaming`] each replica retires into its own
    /// [`crate::sink::HistogramSink`], merged in slot order: the report
    /// keeps no timelines and no assignment log, and its merged sums may
    /// differ in the last bits from the exact path's.
    ///
    /// `rec` sees router picks (crash re-picks included) and a split
    /// fleet's KV transfers live. Each replica's request spans and load
    /// gauges (at the [`Self::with_telemetry`] cadence, over the merged
    /// makespan) are recorded in slot order as the merge after the drain
    /// moves its requests into the fleet's report. Cache probes, profile
    /// counters, sheds and — only when a flat fleet's size can change,
    /// under a non-`Static` driver or faults — the scaling, lifecycle,
    /// disruption and routable lanes are derived from the report's ledgers
    /// afterwards. A [`rago_telemetry::NullRecorder`] records nothing and
    /// leaves the run unchanged.
    ///
    /// # Panics
    ///
    /// Panics if an arrival time is negative, non-finite or earlier than the
    /// one before it, a request generates zero tokens, or a split fleet runs
    /// in streaming mode or repeats a request id (its legs are stitched by
    /// id).
    pub fn run<R: Recorder, I>(&self, arrivals: I, mode: &MetricsMode, rec: &mut R) -> ChaosReport
    where
        I: IntoIterator<Item = EngineRequest>,
        I::IntoIter: ExactSizeIterator,
    {
        let Ok((report, obs)) = self.run_recorded(arrivals.into_iter(), mode, None, rec) else {
            unreachable!("a run without a miss budget never stops early")
        };
        if R::ENABLED {
            let cadence = self.gauge_cadence_s;
            let end_s = report.fleet.merged.metrics.makespan_s;
            record_fleet_observability(rec, &report.fleet, &obs);
            // Disruptions exist only under a non-empty fault schedule.
            let lifecycle = self.split.is_none()
                && (!matches!(self.driver, ScaleDriver::Static { .. }) || !self.faults.is_empty());
            if lifecycle {
                crate::telemetry::record_scaling_events(rec, &report.events);
                crate::telemetry::record_replica_lifetimes(rec, &report.lifetimes);
                crate::telemetry::record_routable_gauge(rec, &report.lifetimes, cadence, end_s);
            }
            crate::telemetry::record_shed_events(rec, &report.fault.shed_log);
            if lifecycle {
                crate::telemetry::record_disruptions(rec, &report.fault.disruptions);
            }
        }
        report
    }

    /// The one fleet loop, pulling sorted arrivals from `arrivals`. The
    /// recorder sees router picks, transfers and, during the final merge,
    /// each replica's spans and gauges; everything else is derived from
    /// the returned ledgers. With a miss budget the loop stops once
    /// `budget`'s verdict is lost (see [`Self::run_trace_verdict`]);
    /// without one it always runs out.
    fn run_recorded<R: Recorder, I>(
        &self,
        arrivals: I,
        mode: &MetricsMode,
        budget: Option<&SloTarget>,
        rec: &mut R,
    ) -> Result<(ChaosReport, Vec<ReplicaObs>), LostVerdict>
    where
        I: ExactSizeIterator<Item = EngineRequest>,
    {
        assert!(
            self.split.is_none() || matches!(mode, MetricsMode::Exact),
            "a prefill/decode split stitches exact timelines; run it in MetricsMode::Exact"
        );
        let injected = arrivals.len();
        let mut arrivals = Arrivals::new(arrivals);
        let mut run = Run::new(self, mode, R::ENABLED, budget.copied(), injected);
        let budget = budget.map(|&slo| MissBudget {
            slo,
            requests: injected,
        });
        // Reactive tick clock / predictive step cursor.
        let mut next_tick = match &self.driver {
            ScaleDriver::Reactive(policy) => policy.evaluation_interval_s,
            _ => f64::INFINITY,
        };
        let mut next_step = 0usize;

        loop {
            let agenda_t = run.agenda.peek_time();
            let flush_t = run.flush_time();
            let arrival_t = arrivals.peek().map(|r| r.arrival_s);
            // Policy ticks run up to the last arrival: live while another
            // arrival is coming, and then up to the last one pulled.
            let tick_live = |t: f64| arrival_t.is_some() || t <= arrivals.last_s;
            let tick_t = match &self.driver {
                ScaleDriver::Reactive(_) => tick_live(next_tick).then_some(next_tick),
                ScaleDriver::Predictive(p) => p
                    .plan
                    .steps
                    .get(next_step)
                    .map(|s| s.at_s)
                    .filter(|&t| tick_live(t)),
                ScaleDriver::Static { .. } => None,
            };
            let transfer_t = run.next_transfer(
                [agenda_t, flush_t, tick_t, arrival_t]
                    .into_iter()
                    .flatten()
                    .min_by(f64::total_cmp),
            );

            // Earliest wins; ties break fault < flush < tick < arrival <
            // transfer.
            let best = [agenda_t, flush_t, tick_t, arrival_t, transfer_t]
                .into_iter()
                .enumerate()
                .filter_map(|(lane, t)| t.map(|t| (lane, t)))
                .min_by(|(la, ta), (lb, tb)| ta.total_cmp(tb).then(la.cmp(lb)));
            let Some((lane, now)) = best else {
                break;
            };

            match lane {
                0 => {
                    let (_, action) = run.agenda.pop().expect("lane 0 implies an agenda entry");
                    run.apply_action(action, now, rec);
                }
                1 => run.flush(now, rec),
                2 => {
                    run.advance(ARRIVAL_POOL, now);
                    match &self.driver {
                        ScaleDriver::Reactive(policy) => {
                            next_tick += policy.evaluation_interval_s;
                            run.evaluate_reactive(policy, now);
                        }
                        ScaleDriver::Predictive(p) => {
                            let target = p.plan.steps[next_step].replicas;
                            next_step += 1;
                            run.apply_plan_target(target, p.warmup_s, now);
                        }
                        ScaleDriver::Static { .. } => unreachable!("static drivers have no ticks"),
                    }
                }
                3 => {
                    // Route the whole run of arrivals strictly earlier than
                    // the next fault, flush, or tick instant — nothing but an
                    // arrival parked for want of a routable replica can move
                    // those lanes, and that ends the run early. A KV
                    // transfer completing before an arrival goes first.
                    let horizon = [agenda_t, flush_t, tick_t]
                        .into_iter()
                        .flatten()
                        .fold(f64::INFINITY, f64::min);
                    while let Some(req) = arrivals.peek().filter(|r| r.arrival_s < horizon) {
                        let at = req.arrival_s;
                        if run.next_transfer(Some(at)).is_some_and(|t| t < at) {
                            break;
                        }
                        let req = arrivals.pull();
                        let routed = run.arrive(req, rec);
                        if let Some(budget) = &budget {
                            budget.check(&run)?;
                        }
                        if !routed {
                            break;
                        }
                    }
                }
                _ => run.deliver_transfer(rec),
            }
            if let Some(budget) = &budget {
                budget.check(&run)?;
            }
        }
        Ok(run.finish(injected, rec))
    }
}

/// `trace`'s requests in the fleet's injection order, ascending
/// `(arrival, id)`, without copying the trace: a sorted trace, what every
/// `rago-workloads` generator emits, is read in place, and an unsorted one
/// through a stably sorted `u32` permutation. Feed it to [`FleetEngine::run`].
///
/// # Panics
///
/// Panics if an unsorted trace has more than `u32::MAX` requests.
pub fn arrivals(trace: &Trace) -> impl ExactSizeIterator<Item = EngineRequest> + '_ {
    let requests = &trace.requests;
    let before =
        |a: &Request, b: &Request| injection_order((a.arrival_s, a.id), (b.arrival_s, b.id));
    let order = (!requests.windows(2).all(|w| before(&w[0], &w[1]).is_le())).then(|| {
        let n = u32::try_from(requests.len()).expect("an unsorted trace fits a u32 permutation");
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by(|&a, &b| before(&requests[a as usize], &requests[b as usize]));
        order
    });
    (0..requests.len()).map(move |k| {
        let i = order.as_ref().map_or(k, |order| order[k] as usize);
        EngineRequest::from(&requests[i])
    })
}

/// The fleet loop's arrival source: the next arrival held for peeking,
/// the rest pulled on demand. Every arrival is checked as it is fetched —
/// finite, non-negative, and no earlier than the one before — so no input
/// can stall the loop on an arrival it can never route.
struct Arrivals<I> {
    source: I,
    next: Option<EngineRequest>,
    /// The last arrival pulled (zero before the first).
    last_s: f64,
}

impl<I: Iterator<Item = EngineRequest>> Arrivals<I> {
    fn new(source: I) -> Self {
        let mut arrivals = Self {
            source,
            next: None,
            last_s: 0.0,
        };
        arrivals.next = arrivals.fetch();
        arrivals
    }

    fn fetch(&mut self) -> Option<EngineRequest> {
        let req = self.source.next()?;
        assert!(
            req.arrival_s.is_finite() && req.arrival_s >= 0.0,
            "arrival times must be finite and non-negative (request {} arrives at {})",
            req.id,
            req.arrival_s
        );
        assert!(
            req.arrival_s >= self.last_s,
            "arrivals must be pulled in non-decreasing time order \
             (request {} arrives at {} after {})",
            req.id,
            req.arrival_s,
            self.last_s
        );
        Some(req)
    }

    fn peek(&self) -> Option<&EngineRequest> {
        self.next.as_ref()
    }

    /// Takes the peeked arrival and fetches the one after it.
    ///
    /// # Panics
    ///
    /// Panics when the source is exhausted.
    fn pull(&mut self) -> EngineRequest {
        let req = self
            .next
            .take()
            .expect("pull() follows a successful peek()");
        self.last_s = req.arrival_s;
        self.next = self.fetch();
        req
    }
}

/// A verdict-only run ([`FleetEngine::run_trace_verdict`]) that stopped
/// once its SLO could no longer be met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostVerdict {
    /// Simulation events the replicas had processed when the run stopped.
    pub events: u64,
}

/// The miss budget of a verdict-only run: the verdict's SLO, scored by the
/// last tally of every replica, over `requests` offered requests.
struct MissBudget {
    slo: SloTarget,
    requests: usize,
}

impl MissBudget {
    /// Stops the run once even all-met remaining requests could not lift
    /// the offered attainment to the target. Sheds are misses before any
    /// pool; failures are misses of the last pool's legs, disjoint from
    /// the ones its live replicas scored.
    fn check(&self, run: &Run<'_>) -> Result<(), LostVerdict> {
        let mut leg_misses = [0; 2];
        for slot in &run.slots {
            if let Some(tally) = slot.sim.as_ref().and_then(|sim| sim.tallies.last()) {
                leg_misses[slot.pool] += tally.misses();
            }
        }
        let last = leg_misses[run.pools.len() - 1] + run.failed;
        let misses = run.shed_log.len() + leg_misses[ARRIVAL_POOL].max(last);
        let n = self.requests;
        if n > 0 && ((n - misses) as f64 / n as f64) < self.slo.attainment {
            return Err(LostVerdict {
                events: run
                    .slots
                    .iter()
                    .filter_map(|s| s.sim.as_ref())
                    .map(ReplicaSim::events)
                    .sum(),
            });
        }
        Ok(())
    }
}

/// One fleet slot. `sim` is `None` once the replica is dead (crashed or
/// killed); its pre-death results are parked in [`Run::dead`].
struct Slot {
    sim: Option<ReplicaSim>,
    /// Index of the slot's pool in [`Run::pools`] and of its pipeline in
    /// [`FleetEngine::specs`]; a restart of this slot joins the same pool.
    pool: usize,
    /// The slot's stable id within its pool, in provisioning order: what
    /// hash-based routers key on, and its replica index in a pool report.
    home: usize,
    provisioned_s: f64,
    routable_s: f64,
    decommissioned_s: Option<f64>,
    /// Death instant of a crashed/preempted slot — its chips are released
    /// here, unlike a decommissioned-but-draining slot.
    retired_at: Option<f64>,
    assigned: usize,
}

impl Slot {
    fn sim(&self) -> &ReplicaSim {
        self.sim.as_ref().expect("routable slots are alive")
    }

    /// Alive and not decommissioned: the chips the fleet is paying for.
    fn provisioned(&self) -> bool {
        self.sim.is_some() && self.decommissioned_s.is_none()
    }

    fn routable_at(&self, t: f64) -> bool {
        self.provisioned() && self.routable_s <= t
    }
}

/// One pending fault-lane action of the run's agenda.
#[derive(Debug, Clone, Copy)]
enum Action {
    Crash {
        slot: usize,
        restart_delay_s: f64,
    },
    Slowdown {
        slot: usize,
        factor: f64,
    },
    PreemptNotice {
        slot: usize,
        notice_s: f64,
    },
    Kill {
        slot: usize,
    },
    /// Provision a cold replacement of slot `like`: same pipeline, same
    /// pool.
    Restart {
        like: usize,
    },
}

impl Action {
    fn of(event: &FaultEvent) -> Self {
        match *event {
            FaultEvent::Crash {
                replica,
                restart_delay_s,
                ..
            } => Action::Crash {
                slot: replica,
                restart_delay_s,
            },
            FaultEvent::StragglerStart {
                replica, slowdown, ..
            } => Action::Slowdown {
                slot: replica,
                factor: slowdown,
            },
            FaultEvent::StragglerEnd { replica, .. } => Action::Slowdown {
                slot: replica,
                factor: 1.0,
            },
            FaultEvent::Preempt {
                replica, notice_s, ..
            } => Action::PreemptNotice {
                slot: replica,
                notice_s,
            },
        }
    }
}

/// The routing state of one pool: a flat fleet's only pool, or a split
/// fleet's prefill or decode pool.
struct Pool {
    role: PoolRole,
    router: RouterPolicy,
    round_robin_next: usize,
    /// Slots provisioned into the pool so far — the next slot's `home`.
    size: usize,
    /// The latest instant the pool was advanced to; advancing to an
    /// earlier or equal instant is a no-op.
    clock: f64,
    /// Requests waiting for a routable replica of this pool.
    pending: VecDeque<EngineRequest>,
    /// `(request id, slot)` of every dispatch into the pool (exact mode
    /// only).
    assignments: Vec<(u64, usize)>,
}

impl Pool {
    fn new(role: PoolRole, router: RouterPolicy, log_capacity: usize) -> Self {
        Self {
            role,
            router,
            round_robin_next: 0,
            size: 0,
            clock: f64::NEG_INFINITY,
            pending: VecDeque::new(),
            assignments: Vec::with_capacity(log_capacity),
        }
    }
}

/// The KV handoffs of a split fleet, from the prefill pool's harvest to
/// their delivery into the decode pool.
struct Transfers {
    model: KvTransferModel,
    /// `(request, bytes, latency)` of each transfer in flight, keyed by
    /// its completion instant; same-instant completions pop in handoff
    /// order.
    in_flight: EventQueue<(EngineRequest, f64, f64)>,
    /// Reused buffer for one replica's harvested handoffs.
    harvest: Vec<(f64, EngineRequest)>,
    stats: TransferStats,
}

/// The mutable state of one fleet run.
struct Run<'e> {
    engine: &'e FleetEngine,
    mode: &'e MetricsMode,
    /// The reactive attainment trigger's SLO: every replica's first tally.
    trigger: Option<SloTarget>,
    /// A verdict-only run's SLO: every replica's last tally.
    verdict: Option<SloTarget>,
    /// Whether new replicas log cache probes (traced runs only).
    track_probes: bool,
    slots: Vec<Slot>,
    /// Routable slot indices of one pool as of the last
    /// [`Run::refresh_routable`] — one buffer reused for every clock point.
    routable: Vec<usize>,
    /// Pending fault-lane actions, keyed `(t, seq)` in scheduling order:
    /// the fault schedule's events first, in list order, then every
    /// action scheduled during the run.
    agenda: EventQueue<Action>,
    /// The arrival pool, then a split fleet's decode pool.
    pools: Vec<Pool>,
    /// A split fleet's transfer lane.
    transfers: Option<Transfers>,
    /// Retired sinks of replicas that died mid-run.
    dead: Vec<(usize, Retired, ReplicaObs)>,
    /// Whether routing decisions are logged (exact mode only).
    log_assignments: bool,
    events: Vec<ScalingEvent>,
    last_action_s: f64,
    peak_provisioned: u32,
    min_provisioned: u32,
    shed_by_class: BTreeMap<u32, usize>,
    shed_log: Vec<ShedEvent>,
    failed: usize,
    retried: usize,
    faults_applied: usize,
    faults_skipped: usize,
    disruptions: Vec<Disruption>,
}

impl<'e> Run<'e> {
    fn new(
        engine: &'e FleetEngine,
        mode: &'e MetricsMode,
        track_probes: bool,
        verdict: Option<SloTarget>,
        requests: usize,
    ) -> Self {
        let initial = engine.driver.initial_replicas();
        let log_assignments = matches!(mode, MetricsMode::Exact);
        let log_capacity = if log_assignments { requests } else { 0 };
        let pools = match &engine.split {
            None => vec![Pool::new(PoolRole::Monolithic, engine.router, log_capacity)],
            Some((_, decode, _)) => vec![
                Pool::new(PoolRole::Prefill, engine.router, log_capacity),
                Pool::new(PoolRole::Decode, decode.router, log_capacity),
            ],
        };
        let transfers = engine.split.map(|(_, _, model)| Transfers {
            model,
            in_flight: EventQueue::new(),
            harvest: Vec::new(),
            stats: TransferStats::default(),
        });
        let mut run = Self {
            engine,
            mode,
            trigger: match &engine.driver {
                ScaleDriver::Reactive(policy) => policy.attainment_trigger.map(|t| t.slo),
                _ => None,
            },
            verdict,
            track_probes,
            slots: Vec::with_capacity(initial as usize),
            routable: Vec::with_capacity(initial as usize),
            agenda: EventQueue::new(),
            pools,
            transfers,
            dead: Vec::new(),
            log_assignments,
            events: Vec::new(),
            last_action_s: f64::NEG_INFINITY,
            peak_provisioned: initial,
            min_provisioned: initial,
            shed_by_class: BTreeMap::new(),
            shed_log: Vec::new(),
            failed: 0,
            retried: 0,
            faults_applied: 0,
            faults_skipped: 0,
            disruptions: Vec::new(),
        };
        for event in engine.faults.events() {
            run.agenda.push_scheduled(event.at_s(), Action::of(event));
        }
        for i in 0..initial as usize {
            let pool = match &engine.split {
                Some((prefill, _, _)) if i >= prefill.replicas as usize => DECODE_POOL,
                _ => ARRIVAL_POOL,
            };
            run.provision(pool, 0.0, 0.0);
        }
        run
    }

    /// Appends a fresh, cold replica slot to `pool`, running its pipeline.
    fn provision(&mut self, pool: usize, now: f64, routable_s: f64) -> usize {
        let mut sim = ReplicaSim::new(self.engine.specs[pool].clone(), self.mode);
        // A decode leg's TTFT is not the request's, so it scores TPOT only.
        let verdict = self.verdict.map(|slo| match pool {
            DECODE_POOL => SloTarget {
                ttft_s: f64::INFINITY,
                ..slo
            },
            _ => slo,
        });
        sim.tallies = self
            .trigger
            .into_iter()
            .chain(verdict)
            .map(SloTally::new)
            .collect();
        sim.track_probes = self.track_probes;
        let home = self.pools[pool].size;
        self.pools[pool].size += 1;
        self.slots.push(Slot {
            sim: Some(sim),
            pool,
            home,
            provisioned_s: now,
            routable_s,
            decommissioned_s: None,
            retired_at: None,
            assigned: 0,
        });
        self.slots.len() - 1
    }

    /// When waiting requests can next be routed: the earliest instant a
    /// provisioned replica of a pool with waiting requests is (or becomes)
    /// routable.
    fn flush_time(&self) -> Option<f64> {
        if self.pools.iter().all(|p| p.pending.is_empty()) {
            return None;
        }
        self.slots
            .iter()
            .filter(|s| s.provisioned() && !self.pools[s.pool].pending.is_empty())
            .map(|s| s.routable_s)
            .min_by(f64::total_cmp)
    }

    fn alive(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(|s| s.sim.is_some())
    }

    fn provisioned(&self) -> u32 {
        self.slots.iter().filter(|s| s.provisioned()).count() as u32
    }

    /// Advances every live replica of `pool` to just before `t`. A split
    /// fleet's decode pool must not run ahead of the transfers it has yet
    /// to receive, so each pool advances only to its own routing instants.
    fn advance(&mut self, pool: usize, t: f64) {
        // Every event due before an earlier horizon has been processed, and
        // new events are never scheduled before the pool's clock.
        if t <= self.pools[pool].clock {
            return;
        }
        self.pools[pool].clock = t;
        for slot in self.slots.iter_mut().filter(|s| s.pool == pool) {
            if let Some(sim) = slot.sim.as_mut() {
                sim.advance_before(t);
            }
        }
    }

    fn refresh_routable(&mut self, t: f64, pool: usize) {
        self.routable.clear();
        self.routable.extend(
            (0..self.slots.len())
                .filter(|&i| self.slots[i].pool == pool && self.slots[i].routable_at(t)),
        );
    }

    /// The next KV-transfer completion of a split fleet (`None` for a flat
    /// one), after moving the knowledge horizon to `horizon` — the next
    /// instant of the other lanes: the prefill pool advances to it (or,
    /// once no other lane remains, runs dry) and its new handoffs join the
    /// transfer lane. Every transfer completing before `horizon` is
    /// then known, since no undiscovered handoff is ready before it.
    fn next_transfer(&mut self, horizon: Option<f64>) -> Option<f64> {
        self.transfers.as_ref()?;
        match horizon {
            Some(t) => self.advance(ARRIVAL_POOL, t),
            None => self
                .slots
                .iter_mut()
                .filter(|s| s.pool == ARRIVAL_POOL)
                .filter_map(|s| s.sim.as_mut())
                .for_each(ReplicaSim::run_to_completion),
        }
        let transfers = self.transfers.as_mut()?;
        for slot in self.slots.iter_mut().filter(|s| s.pool == ARRIVAL_POOL) {
            let Some(sim) = slot.sim.as_mut() else {
                continue;
            };
            sim.take_handoffs(&mut transfers.harvest);
            for (ready_s, req) in transfers.harvest.drain(..) {
                let latency_s = transfers.model.latency_s(req.prefix_tokens);
                let bytes = transfers.model.bytes_for(req.prefix_tokens);
                transfers
                    .in_flight
                    .push_scheduled(ready_s + latency_s, (req, bytes, latency_s));
            }
        }
        transfers.in_flight.peek_time()
    }

    /// Delivers the earliest KV transfer into the decode pool at its
    /// completion instant — or parks it until a decode replica is routable.
    fn deliver_transfer<R: Recorder>(&mut self, rec: &mut R) {
        let transfers = self.transfers.as_mut().expect("only split fleets transfer");
        let (t, (req, bytes, latency_s)) =
            transfers.in_flight.pop().expect("the transfer lane fired");
        let stats = &mut transfers.stats;
        stats.transfers += 1;
        stats.bytes_total += bytes;
        stats.latency_total_s += latency_s;
        stats.latency_max_s = stats.latency_max_s.max(latency_s);
        self.advance(DECODE_POOL, t);
        self.refresh_routable(t, DECODE_POOL);
        let track = if self.routable.is_empty() {
            self.pools[DECODE_POOL].pending.push_back(req);
            rago_telemetry::FLEET_TRACK
        } else {
            self.route(req, t, true, DECODE_POOL, rec) as u32
        };
        crate::telemetry::record_kv_transfer(rec, track, t, latency_s, bytes, &req);
    }

    /// Mean queued and mean outstanding requests per routable replica.
    fn mean_load(&self) -> (f64, f64) {
        let n = self.routable.len() as f64;
        let queued: usize = self
            .routable
            .iter()
            .map(|&i| self.slots[i].sim().queued())
            .sum();
        let outstanding: usize = self
            .routable
            .iter()
            .map(|&i| self.slots[i].sim().outstanding())
            .sum();
        (queued as f64 / n, outstanding as f64 / n)
    }

    /// The routable replica to decommission: the emptiest, ties retiring
    /// the newest — keeping long-lived replicas (and the round-robin
    /// pattern over them) stable.
    fn emptiest_routable(&self) -> usize {
        self.routable
            .iter()
            .copied()
            .min_by_key(|&i| (self.slots[i].sim().outstanding(), usize::MAX - i))
            .expect("routable is non-empty")
    }

    /// Handles one arrival at its own instant: shed, routed, or parked
    /// until a replica becomes routable. Returns `false` when parked.
    fn arrive<R: Recorder>(&mut self, req: EngineRequest, rec: &mut R) -> bool {
        let t = req.arrival_s;
        self.advance(ARRIVAL_POOL, t);
        self.refresh_routable(t, ARRIVAL_POOL);
        if self.routable.is_empty() {
            self.pools[ARRIVAL_POOL].pending.push_back(req);
            return false;
        }
        if !self.shed(&req, t) {
            self.route(req, t, false, ARRIVAL_POOL, rec);
        }
        true
    }

    /// A replica just became routable: admit and route the waiting
    /// requests of every pool that can take them at this instant. Only
    /// the arrival pool's requests face admission control.
    fn flush<R: Recorder>(&mut self, now: f64, rec: &mut R) {
        for pool in 0..self.pools.len() {
            if self.pools[pool].pending.is_empty() {
                continue;
            }
            self.advance(pool, now);
            self.refresh_routable(now, pool);
            if self.routable.is_empty() {
                continue;
            }
            while let Some(req) = self.pools[pool].pending.pop_front() {
                if pool != ARRIVAL_POOL || !self.shed(&req, now) {
                    self.route(req, now, true, pool, rec);
                }
            }
        }
    }

    /// Returns `true` (and records the shed) when admission control rejects
    /// `req` at `t` given the routable arrival pool's load.
    fn shed(&mut self, req: &EngineRequest, t: f64) -> bool {
        let engine = self.engine;
        let Some(admission) = &engine.admission else {
            return false;
        };
        let (mean_queue_depth, _) = self.mean_load();
        let priority = admission.priority_of(req.class);
        if mean_queue_depth <= admission.threshold_for(priority) {
            return false;
        }
        *self.shed_by_class.entry(req.class).or_insert(0) += 1;
        self.shed_log.push(ShedEvent {
            time_s: t,
            id: req.id,
            class: req.class,
            priority,
            mean_queue_depth,
        });
        true
    }

    /// Routes `req` over `pool`'s routable replicas (as of the last
    /// [`Run::refresh_routable`]) at `t` and injects it — `delayed` for a
    /// request that waited, was re-queued, or crossed the transfer lane,
    /// whose arrival event fires now rather than at its recorded arrival.
    /// Returns the picked slot. The recorder sees one decision event per
    /// pick; it never influences the pick.
    fn route<R: Recorder>(
        &mut self,
        req: EngineRequest,
        t: f64,
        delayed: bool,
        pool: usize,
        rec: &mut R,
    ) -> usize {
        let pool = &mut self.pools[pool];
        let (slots, routable) = (&self.slots, &self.routable);
        let pick = route_pick(
            pool.router,
            routable.len(),
            |i| slots[routable[i]].sim(),
            // Hash homes key on the stable slot id within the pool, not the
            // position in the routable subset, so scale events do not
            // re-home every template.
            |i| slots[routable[i]].home,
            &mut pool.round_robin_next,
            &req,
        );
        let replica = routable[pick];
        if R::ENABLED {
            crate::telemetry::record_route_pick(
                rec,
                t,
                pool.router,
                replica,
                &req,
                slots[replica].sim(),
            );
        }
        if self.log_assignments {
            pool.assignments.push((req.id, replica));
        }
        let slot = &mut self.slots[replica];
        slot.assigned += 1;
        let sim = slot.sim.as_mut().expect("routable slots are alive");
        if delayed {
            sim.inject_delayed(req, t);
        } else {
            sim.inject(req);
        }
        replica
    }

    /// Applies one fault-lane action at `now`.
    fn apply_action<R: Recorder>(&mut self, action: Action, now: f64, rec: &mut R) {
        match action {
            Action::Slowdown { slot, factor } => {
                match self.slots.get_mut(slot).and_then(|s| s.sim.as_mut()) {
                    Some(sim) => {
                        // Rides the sim's own fault lane: in force before
                        // any same-instant arrival is processed.
                        sim.schedule_slowdown(now, factor);
                        self.faults_applied += 1;
                    }
                    None => self.faults_skipped += 1,
                }
            }
            Action::Crash {
                slot,
                restart_delay_s,
            } => {
                if !self.alive(slot) {
                    self.faults_skipped += 1;
                    return;
                }
                self.faults_applied += 1;
                self.kill(slot, now, rec);
                self.disruptions.push(Disruption {
                    time_s: now,
                    replica: slot,
                    kind: FaultKind::Crash,
                });
                if restart_delay_s.is_finite() {
                    self.agenda
                        .push_scheduled(now + restart_delay_s, Action::Restart { like: slot });
                }
            }
            Action::PreemptNotice { slot, notice_s } => {
                if !self.alive(slot) {
                    self.faults_skipped += 1;
                    return;
                }
                self.faults_applied += 1;
                // Capacity stops at the notice: the replica drains, the
                // router excludes it, and the disruption clock starts now.
                self.slots[slot].decommissioned_s.get_or_insert(now);
                self.min_provisioned = self.min_provisioned.min(self.provisioned());
                self.disruptions.push(Disruption {
                    time_s: now,
                    replica: slot,
                    kind: FaultKind::Preemption,
                });
                self.agenda
                    .push_scheduled(now + notice_s, Action::Kill { slot });
            }
            Action::Kill { slot } => {
                // The preemption deadline; skip silently if the replica
                // already crashed during the notice window.
                if self.alive(slot) {
                    self.kill(slot, now, rec);
                }
            }
            Action::Restart { like } => {
                // A cold replacement replica: same provisioning path as a
                // scale-out (fresh caches, full warm-up).
                let pool = self.slots[like].pool;
                self.provision(pool, now, now + self.engine.driver.warmup_s());
                self.peak_provisioned = self.peak_provisioned.max(self.provisioned());
            }
        }
    }

    /// Tears one replica down at `now`: its completed work is harvested,
    /// its in-flight requests are re-queued within its pool or failed, and
    /// its chips are released.
    fn kill<R: Recorder>(&mut self, slot: usize, now: f64, rec: &mut R) {
        // Work completing strictly before the death instant survives; work
        // completing exactly at it is lost with the replica (the pinned
        // `advance_before` semantics).
        let pool = self.slots[slot].pool;
        self.advance(pool, now);
        let mut sim = self.slots[slot].sim.take().expect("only live slots die");
        let obs = ReplicaObs::take(slot, &mut sim);
        let (retired, in_flight) = sim.dismantle();
        self.dead.push((slot, retired, obs));
        let dying = &mut self.slots[slot];
        dying.decommissioned_s.get_or_insert(now);
        dying.retired_at = Some(now);
        self.min_provisioned = self.min_provisioned.min(self.provisioned());
        match self.engine.crash_policy {
            CrashPolicy::Fail => self.failed += in_flight.len(),
            CrashPolicy::Requeue => {
                if let Some(transfers) = &mut self.transfers {
                    let requeued = in_flight.len() as u64;
                    match pool {
                        DECODE_POOL => transfers.stats.requeued_decode += requeued,
                        _ => transfers.stats.requeued_prefill += requeued,
                    }
                }
                self.refresh_routable(now, pool);
                for req in in_flight {
                    self.retried += 1;
                    if self.routable.is_empty() {
                        self.pools[pool].pending.push_back(req);
                    } else {
                        // Retries bypass admission — they were admitted
                        // once; TTFT keeps accruing from the original
                        // arrival.
                        self.route(req, now, true, pool, rec);
                    }
                }
            }
        }
    }

    /// One reactive policy evaluation at tick `now` — the single copy of
    /// the autoscaler's decision: observe the routable replicas, then take
    /// at most one scaling action.
    fn evaluate_reactive(&mut self, policy: &AutoscalerPolicy, now: f64) {
        self.refresh_routable(now, ARRIVAL_POOL);
        if self.routable.is_empty() {
            return; // only transiently, while the whole fleet warms up or is dead
        }
        let mut counts = (self.provisioned(), self.routable.len() as u32);
        let load = self.mean_load();
        let queue_trigger = load.0 > policy.scale_out_queue_depth;
        // Each tick reads and restarts every live replica's trigger tally.
        // A flat fleet's replicas are never simulated past the current
        // instant, so that is exactly the last interval's completions.
        let attainment_trigger = policy.attainment_trigger.is_some_and(|trigger| {
            let (mut met, mut total) = (0, 0);
            for sim in self.slots.iter_mut().filter_map(|s| s.sim.as_mut()) {
                let tally = &mut sim.tallies[0];
                met += tally.met;
                total += tally.completed;
                *tally = SloTally::new(tally.slo);
            }
            total > 0 && (met as f64 / total as f64) < trigger.floor
        });
        let action = if (queue_trigger || attainment_trigger) && counts.0 < policy.max_replicas {
            ScalingAction::ScaleOut
        } else if load.1 < policy.scale_in_outstanding
            && counts.1 > policy.min_replicas
            && now - self.last_action_s >= policy.cooldown_s
        {
            ScalingAction::ScaleIn
        } else {
            return;
        };
        self.scale(action, now, policy.warmup_s, load, &mut counts);
        self.last_action_s = now;
    }

    /// One predictive plan step: provision or decommission until the live
    /// fleet matches `target`.
    fn apply_plan_target(&mut self, target: u32, warmup_s: f64, now: f64) {
        self.refresh_routable(now, ARRIVAL_POOL);
        let load = if self.routable.is_empty() {
            (0.0, 0.0)
        } else {
            self.mean_load()
        };
        let mut counts = (self.provisioned(), self.routable.len() as u32);
        while counts.0 < target {
            self.scale(ScalingAction::ScaleOut, now, warmup_s, load, &mut counts);
        }
        while counts.0 > target {
            // Never decommission the last routable replica (warming
            // replicas cannot drain the backlog).
            self.refresh_routable(now, ARRIVAL_POOL);
            if self.routable.len() <= 1 {
                break;
            }
            self.scale(ScalingAction::ScaleIn, now, warmup_s, load, &mut counts);
        }
    }

    /// One scaling step of the arrival pool at `now`, logged with the mean
    /// `(queue depth, outstanding)` load the decision saw: a scale-out
    /// provisions a replica routable after `warmup_s` and raises the peak;
    /// a scale-in decommissions the emptiest routable replica and lowers
    /// the minimum. `counts` is `(provisioned, routable)` before the step
    /// and after it; a zero-warm-up replica is routable at once, so it
    /// already counts.
    fn scale(
        &mut self,
        action: ScalingAction,
        now: f64,
        warmup_s: f64,
        load: (f64, f64),
        counts: &mut (u32, u32),
    ) {
        let replica = match action {
            ScalingAction::ScaleOut => {
                counts.0 += 1;
                counts.1 += u32::from(warmup_s <= 0.0);
                self.peak_provisioned = self.peak_provisioned.max(counts.0);
                self.provision(ARRIVAL_POOL, now, now + warmup_s)
            }
            ScalingAction::ScaleIn => {
                counts.0 -= 1;
                counts.1 = counts.1.saturating_sub(1);
                self.min_provisioned = self.min_provisioned.min(counts.0);
                let victim = self.emptiest_routable();
                self.slots[victim].decommissioned_s = Some(now);
                victim
            }
        };
        self.events.push(ScalingEvent {
            time_s: now,
            action,
            replica,
            provisioned_after: counts.0,
            routable_after: counts.1,
            mean_queue_depth: load.0,
            mean_outstanding: load.1,
        });
    }

    /// Drains and merges the fleet and assembles the report: requests still
    /// waiting fail, and a replica's chips are paid until its death, the
    /// end of its drain after a decommission, or the end of the run. `rec`
    /// sees each replica's spans and gauges as the merge reaches it.
    fn finish<R: Recorder>(
        mut self,
        injected: usize,
        rec: &mut R,
    ) -> (ChaosReport, Vec<ReplicaObs>) {
        // The dispatch log lists the arrival pool's dispatches, then the
        // decode pool's.
        let mut assignments = std::mem::take(&mut self.pools[ARRIVAL_POOL].assignments);
        for pool in &mut self.pools {
            self.failed += pool.pending.len();
            assignments.append(&mut pool.assignments);
        }
        let live = self
            .slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.sim.take().map(|sim| (i, sim)))
            .collect();
        let (fleet, obs) = drain_and_merge(
            live,
            self.dead,
            &self.slots,
            assignments,
            self.engine.router,
            self.mode,
            &self.shed_by_class,
            self.engine.gauge_cadence_s,
            rec,
        );
        let completed = fleet.merged.metrics.completed;
        let shed = self.shed_log.len();
        debug_assert_eq!(
            injected,
            completed + shed + self.failed,
            "request conservation must hold"
        );

        let makespan = fleet.merged.metrics.makespan_s;
        let mut lifetimes = Vec::with_capacity(self.slots.len());
        let mut replica_seconds = 0.0;
        for (replica, slot) in self.slots.iter().enumerate() {
            let last_completion = fleet.per_replica[replica]
                .metrics
                .makespan_s
                .max(slot.provisioned_s);
            let retired_s = match (slot.retired_at, slot.decommissioned_s) {
                (Some(death), _) => death,
                (None, Some(d)) => d.max(last_completion),
                (None, None) => makespan.max(slot.provisioned_s),
            };
            replica_seconds += retired_s - slot.provisioned_s;
            lifetimes.push(ReplicaLifetime {
                replica,
                pool: self.pools[slot.pool].role,
                provisioned_s: slot.provisioned_s,
                routable_s: slot.routable_s,
                decommissioned_s: slot.decommissioned_s,
                retired_s,
                assigned: slot.assigned,
            });
        }

        let report = ChaosReport {
            fleet,
            events: self.events,
            lifetimes,
            peak_provisioned: self.peak_provisioned,
            min_provisioned: self.min_provisioned,
            replica_seconds,
            fault: FaultReport {
                injected,
                completed,
                shed,
                failed: self.failed,
                retried: self.retried,
                faults_applied: self.faults_applied,
                faults_skipped: self.faults_skipped,
                shed_by_class: self
                    .shed_by_class
                    .iter()
                    .map(|(&class, &shed)| ClassShed { class, shed })
                    .collect(),
                shed_log: self.shed_log,
                disruptions: self.disruptions,
            },
            transfers: self.transfers.map(|t| t.stats).unwrap_or_default(),
        };
        (report, obs)
    }
}

/// Observability state harvested from one replica just before its
/// simulation is consumed: its cache-probe log (empty unless the replica
/// tracked probes, i.e. the run was traced) and its event-queue counters.
#[derive(Debug, Clone, Default)]
struct ReplicaObs {
    replica: usize,
    probes: Vec<CacheProbe>,
    equeue: EventQueueStats,
}

impl ReplicaObs {
    fn take(replica: usize, sim: &mut ReplicaSim) -> Self {
        Self {
            replica,
            probes: sim.drain_probe_log(),
            equeue: sim.equeue_stats(),
        }
    }
}

/// Fleet-level merging of the replicas' sinks. An exact fleet keeps the
/// timelines of every replica; a streaming one merges histograms.
impl RunSink {
    /// Folds one replica's sink into this fleet-level one's accumulators
    /// and returns the replica's own report, its timelines still in it
    /// (none in a streaming run).
    fn absorb(&mut self, replica: RunSink) -> ServingReport {
        match (self, replica) {
            (RunSink::Exact(all), RunSink::Exact(sink)) => {
                all.acc.merge_from(&sink.acc);
                ServingReport::from_exact_sink(*sink)
            }
            (RunSink::Streaming(all), RunSink::Streaming(sink)) => {
                all.merge_from(&sink);
                sink.into_report()
            }
            _ => unreachable!("every replica retires in the run's metrics mode"),
        }
    }

    /// The merged report of a flat fleet (timelines in arrival order),
    /// with admission sheds threaded in. The log is sorted in place.
    fn into_merged_report(self, shed_by_class: &BTreeMap<u32, usize>) -> ServingReport {
        let (report, acc) = match self {
            RunSink::Exact(mut sink) => {
                sort_log(&mut sink.timelines);
                (build_report(sink.timelines, &sink.acc), sink.acc)
            }
            RunSink::Streaming(sink) => {
                let acc = sink.acc.clone();
                (sink.into_report(), acc)
            }
        };
        with_sheds(report, &acc, shed_by_class)
    }

    /// The merged report of a split fleet: its prefill legs (`self`) and
    /// decode legs (`decode`) joined by request id into fleet-level
    /// timelines — arrival, pre-decode stages, and first token from the
    /// prefill leg; decode join and completion from the decode leg;
    /// queueing summed over both. A request whose decode never finished
    /// (its decode pool died under it) has no fleet timeline.
    fn stitch(self, decode: RunSink, shed_by_class: &BTreeMap<u32, usize>) -> ServingReport {
        let (RunSink::Exact(prefill), RunSink::Exact(decode)) = (self, decode) else {
            unreachable!("split fleets run in exact metrics mode")
        };
        let mut decoded: HashMap<u64, RequestTimeline> =
            HashMap::with_capacity(decode.timelines.len());
        for leg in decode.timelines {
            let id = leg.id;
            assert!(
                decoded.insert(id, leg).is_none(),
                "duplicate request id {id} in the decode pool — a split fleet \
                 stitches its two legs by request id"
            );
        }
        let mut timelines: Vec<RequestTimeline> = prefill
            .timelines
            .into_iter()
            .filter_map(|p| {
                let d = decoded.remove(&p.id)?;
                Some(RequestTimeline {
                    decode_join_s: d.decode_join_s,
                    completion_s: d.completion_s,
                    queueing_s: p.queueing_s + d.queueing_s,
                    decode_tokens: d.decode_tokens,
                    ..p
                })
            })
            .collect();
        assert!(
            decoded.is_empty(),
            "{} requests decoded without a prefill leg",
            decoded.len()
        );
        timelines.sort_by(by_arrival);
        let mut acc = SimAccumulators::default();
        acc.merge_from(&prefill.acc);
        acc.merge_from(&decode.acc);
        with_sheds(build_report(timelines, &acc), &acc, shed_by_class)
    }
}

/// Sorts a flat fleet's merged log into arrival order. The sort orders a
/// permutation of positions with the stable [`by_arrival`], which leaves
/// the log exactly as a stable sort of the timelines would; the log is then
/// permuted in place, one cycle of swaps at a time, so the sort needs no
/// scratch copy of the timelines.
fn sort_log(log: &mut [RequestTimeline]) {
    // `order[k]`: the position, before the sort, of the `k`-th timeline.
    let mut order: Vec<u32> = (0..log.len()).map(log_row).collect();
    order.sort_by(|&a, &b| by_arrival(&log[a as usize], &log[b as usize]));
    // Each cycle of `order` rotates its timelines into place; a placed
    // position is marked by `order[k] == k`.
    for start in 0..log.len() {
        let mut k = start;
        while order[k] as usize != start {
            let from = order[k] as usize;
            log.swap(k, from);
            order[k] = log_row(k);
            k = from;
        }
        order[k] = log_row(k);
    }
}

/// Position `p` of a merged log as a `u32`.
///
/// # Panics
///
/// Panics past `u32::MAX` timelines, 320 GiB of them.
fn log_row(p: usize) -> u32 {
    u32::try_from(p).expect("a merged log holds at most u32::MAX timelines")
}

/// The fleet's injection order: ascending `(arrival_s, id)`.
fn injection_order(a: (f64, u64), b: (f64, u64)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Timelines in injection order.
fn by_arrival(a: &RequestTimeline, b: &RequestTimeline) -> Ordering {
    injection_order((a.arrival_s, a.id), (b.arrival_s, b.id))
}

/// Threads admission sheds into a merged report's aggregate and per-class
/// rows — untouched when nothing was shed, preserving bit-identity with
/// shed-free runs.
fn with_sheds(
    mut report: ServingReport,
    acc: &SimAccumulators,
    shed_by_class: &BTreeMap<u32, usize>,
) -> ServingReport {
    if shed_by_class.is_empty() {
        return report;
    }
    report.metrics.shed = shed_by_class.values().sum();
    for row in &mut report.per_class {
        row.metrics.shed = shed_by_class.get(&row.class).copied().unwrap_or(0);
    }
    for (&class, &count) in shed_by_class {
        if !report.per_class.iter().any(|r| r.class == class) {
            // A class shed in its entirety still gets a row: zero
            // completions, its shed count, shared-resource fields repeating
            // the run-level values like every class row.
            let mut metrics = ScopeFold::EMPTY.metrics(acc, [LatencyStats::ZERO; 3]);
            metrics.shed = count;
            report.per_class.push(ClassMetrics { class, metrics });
        }
    }
    report.per_class.sort_by_key(|r| r.class);
    report
}

/// Drains the live replicas to completion, merges them in slot order with
/// the harvests of replicas that died mid-run, and assembles the fleet
/// report — one definition for fixed, elastic, faulted, and split fleets in
/// either metrics mode. The drain is the expensive leg (each replica runs
/// out its remaining events with no routing interaction), so a
/// multi-replica fleet drains in parallel; the slot-order merge keeps the
/// report identical to a serial drain. A split fleet merges each pool's
/// legs separately, folds each replica's legs in arrival order, and
/// stitches the two pools' legs into the merged report.
///
/// Once every replica's report is built, the merge records each replica's
/// request spans and load gauges on `rec` (track: its slot), in slot
/// order, and then moves its timelines into the merged log or the stitch,
/// so no replica keeps a request. The gauges run over the merged makespan,
/// which is the latest replica makespan of a flat fleet and the latest
/// decode replica makespan of a split one: the stitch keeps every decode
/// leg and no request without one.
#[allow(clippy::too_many_arguments)]
fn drain_and_merge<R: Recorder>(
    live: Vec<(usize, ReplicaSim)>,
    mut harvests: Vec<(usize, Retired, ReplicaObs)>,
    slots: &[Slot],
    assignments: Vec<(u64, usize)>,
    router: RouterPolicy,
    mode: &MetricsMode,
    shed_by_class: &BTreeMap<u32, usize>,
    gauge_cadence_s: f64,
    rec: &mut R,
) -> (FleetReport, Vec<ReplicaObs>) {
    let drain = |(replica, mut sim): (usize, ReplicaSim)| {
        sim.run_to_completion();
        let obs = ReplicaObs::take(replica, &mut sim);
        (replica, sim.finish(), obs)
    };
    if live.len() > 1 {
        let mut drained = live
            .into_iter()
            .par_bridge()
            .fold(Vec::new, |mut acc, item| {
                acc.push(drain(item));
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        harvests.append(&mut drained);
    } else {
        harvests.extend(live.into_iter().map(drain));
    }
    harvests.sort_by_key(|(replica, ..)| *replica);

    let split = slots.iter().any(|s| s.pool == DECODE_POOL);
    let legs_per_pool = assignments.len() / (1 + usize::from(split));
    let mut merged = RunSink::new(mode, legs_per_pool);
    let mut decode = split.then(|| RunSink::new(mode, legs_per_pool));
    let mut reports = Vec::with_capacity(harvests.len());
    let mut obs = Vec::with_capacity(harvests.len());
    for (replica, mut retired, ob) in harvests {
        if let (true, RunSink::Exact(sink)) = (split, &mut retired.sink) {
            sink.timelines.sort_by(by_arrival);
        }
        let sink = pool_sink(&mut merged, &mut decode, slots[replica].pool);
        reports.push((replica, retired.peak_live, sink.absorb(retired.sink)));
        obs.push(ob);
    }
    let end_s = reports
        .iter()
        .filter(|(replica, ..)| !split || slots[*replica].pool == DECODE_POOL)
        .map(|(.., report)| report.metrics.makespan_s)
        .fold(0.0, f64::max);
    let mut per_replica = Vec::with_capacity(reports.len());
    for (replica, peak_live, mut report) in reports {
        let track = replica as u32;
        crate::telemetry::record_request_spans(rec, track, &report.timelines);
        crate::telemetry::record_load_gauges(rec, track, &report.timelines, gauge_cadence_s, end_s);
        if let RunSink::Exact(all) = pool_sink(&mut merged, &mut decode, slots[replica].pool) {
            all.timelines.append(&mut report.timelines);
        }
        let assigned = slots[replica].assigned;
        per_replica.push(ReplicaReport::new(replica, assigned, peak_live, report));
    }
    let report = FleetReport {
        merged: match decode {
            None => merged.into_merged_report(shed_by_class),
            Some(decode) => merged.stitch(decode, shed_by_class),
        },
        per_replica,
        assignments,
        imbalance: LoadImbalance::from_counts(slots.iter().map(|s| s.assigned).collect()),
        router,
    };
    debug_assert_eq!(end_s, report.merged.metrics.makespan_s);
    (report, obs)
}

/// The fleet-level sink a replica of `pool` merges into: `decode` for a
/// split fleet's decode pool, `merged` otherwise.
fn pool_sink<'a>(
    merged: &'a mut RunSink,
    decode: &'a mut Option<RunSink>,
    pool: usize,
) -> &'a mut RunSink {
    match decode {
        Some(decode) if pool == DECODE_POOL => decode,
        _ => merged,
    }
}

/// Post-hoc derivation over a finished fleet: per-replica cache probes,
/// then the fleet's profile counters, walked in replica-index order so the
/// event stream is deterministic on any worker count.
fn record_fleet_observability<R: Recorder>(rec: &mut R, report: &FleetReport, obs: &[ReplicaObs]) {
    let end_s = report.merged.metrics.makespan_s;
    let mut profile = rago_telemetry::SimProfile::default();
    for (i, ob) in obs.iter().enumerate() {
        crate::telemetry::record_cache_probes(rec, ob.replica as u32, &ob.probes);
        let events = report
            .per_replica
            .get(i)
            .map_or(0, |rr| rr.metrics.events_processed);
        profile.merge_from(&crate::telemetry::profile_from_stats(
            &ob.equeue, events, end_s,
        ));
    }
    profile.record_into(rec, end_s, rago_telemetry::FLEET_TRACK);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DecodeSpec, LatencyTable, StageSpec};
    use crate::sink::StreamingConfig;
    use rago_schema::{HistogramSpec, SequenceProfile};
    use rago_telemetry::NullRecorder;
    use rago_workloads::{ArrivalProcess, TraceSpec};

    fn one_stage_spec(stage_latency: f64) -> PipelineSpec {
        PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                2,
                LatencyTable::constant(2, stage_latency),
            )],
            DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)),
        )
    }

    fn requests(n: u64, gap: f64) -> Vec<EngineRequest> {
        (0..n)
            .map(|i| EngineRequest {
                id: i,
                arrival_s: i as f64 * gap,
                prefix_tokens: 0,
                decode_tokens: 8,
                class: 0,
                identity: None,
            })
            .collect()
    }

    /// Streaming mode skips the assignment log but reports the same
    /// counts, assignments per replica, and lifetimes as exact mode.
    #[test]
    fn streaming_runs_match_exact_counts_without_an_assignment_log() {
        let slo = SloTarget::new(0.05, 0.01);
        let streaming =
            MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()).with_slo(slo));
        let engine = FleetEngine::new(
            one_stage_spec(0.03),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 3 },
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 1.0,
            restart_delay_s: 0.5,
        }]));
        let exact = engine.run(requests(300, 0.01), &MetricsMode::Exact, &mut NullRecorder);
        let streamed = engine.run(requests(300, 0.01), &streaming, &mut NullRecorder);
        assert!(streamed.fleet.assignments.is_empty());
        assert!(streamed.fleet.merged.timelines.is_empty());
        assert_eq!(streamed.fault, exact.fault);
        assert_eq!(streamed.lifetimes, exact.lifetimes);
        assert_eq!(streamed.fleet.imbalance, exact.fleet.imbalance);
        assert_eq!(
            streamed.fleet.merged.metrics.completed,
            exact.fleet.merged.metrics.completed
        );
        assert_eq!(
            streamed.fleet.attainment(&slo),
            exact.fleet.attainment(&slo)
        );
    }

    /// Same-instant agenda actions apply in the order they were
    /// scheduled: two crashes listed slot 1 first then slot 0 disrupt in
    /// that order, and their zero-delay restarts provision the
    /// replacements in that order too (slot 2 replaces the decode replica,
    /// slot 3 the prefill one).
    #[test]
    fn same_instant_agenda_actions_follow_the_fault_list() {
        let prefill = PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                8,
                LatencyTable::constant(8, 0.01),
            )],
            DecodeSpec::new(8, LatencyTable::constant(8, 1e-3)),
        );
        let decode =
            PipelineSpec::decode_only(DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)), None);
        let crash = |replica| FaultEvent::Crash {
            replica,
            at_s: 1.0,
            restart_delay_s: 0.0,
        };
        let engine = FleetEngine::disaggregated(
            prefill,
            decode,
            PoolSpec::new(1, RouterPolicy::LeastOutstanding),
            PoolSpec::new(1, RouterPolicy::LeastOutstanding),
            KvTransferModel::zero(),
        )
        .with_faults(FaultSchedule::new(vec![crash(1), crash(0)]));
        let report = engine.run(requests(300, 0.01), &MetricsMode::Exact, &mut NullRecorder);
        let disrupted: Vec<(usize, f64)> = report
            .fault
            .disruptions
            .iter()
            .map(|d| (d.replica, d.time_s))
            .collect();
        assert_eq!(disrupted, [(1, 1.0), (0, 1.0)]);
        let replacements: Vec<(usize, PoolRole, f64)> = report
            .lifetimes
            .iter()
            .filter(|l| l.replica >= 2)
            .map(|l| (l.replica, l.pool, l.provisioned_s))
            .collect();
        assert_eq!(
            replacements,
            [(2, PoolRole::Decode, 1.0), (3, PoolRole::Prefill, 1.0)]
        );
    }

    fn poisson_trace(n: usize, rate_rps: f64, decode_tokens: u32) -> Trace {
        TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(decode_tokens),
            arrival: ArrivalProcess::Poisson { rate_rps },
            length_jitter: 0.2,
            seed: 5,
        }
        .generate()
    }

    /// Runs `engine` both ways under every SLO of `slos` and checks the
    /// verdict-only run: it stops only when the full run's offered
    /// attainment is below target, and otherwise returns the full run's
    /// report — also at each SLO's boundary target, the full run's own
    /// offered attainment, where any overcount of misses would stop a
    /// feasible run. Returns `(stopped, complete)` counts.
    fn check_verdicts(engine: &FleetEngine, trace: &Trace, slos: &[SloTarget]) -> (usize, usize) {
        let full = engine.run_trace(trace);
        let boundaries = slos
            .iter()
            .map(|slo| slo.with_attainment(full.offered_attainment(slo)));
        let (mut stopped, mut complete) = (0, 0);
        for slo in slos.iter().copied().chain(boundaries) {
            match engine.run_trace_verdict(trace, &slo) {
                Err(lost) => {
                    stopped += 1;
                    assert!(full.offered_attainment(&slo) < slo.attainment, "{slo:?}");
                    assert!(lost.events <= full.fleet.merged.metrics.events_processed);
                }
                Ok(report) => {
                    complete += 1;
                    assert!(report == full, "{slo:?}: the kept report differs");
                }
            }
        }
        (stopped, complete)
    }

    /// Two SLOs of the one-stage fleets, each at targets from 0.3 to 1.
    fn flat_slos() -> Vec<SloTarget> {
        [0.3, 0.6, 0.9, 0.99, 1.0]
            .into_iter()
            .flat_map(|a| {
                [SloTarget::new(0.05, 0.01), SloTarget::new(0.2, 0.01)]
                    .map(|s| s.with_attainment(a))
            })
            .collect()
    }

    /// Verdict-only runs of flat fleets stop only on a lost verdict and
    /// otherwise equal the full run, across loads from overload to idle.
    #[test]
    fn verdict_runs_of_flat_fleets_are_sound() {
        let trace = poisson_trace(300, 120.0, 8);
        let slos = flat_slos();
        let (mut stopped, mut complete) = (0, 0);
        for replicas in 1..=4 {
            let engine = FleetEngine::new(
                one_stage_spec(0.03),
                RouterPolicy::LeastOutstanding,
                ScaleDriver::Static { replicas },
            );
            let (s, c) = check_verdicts(&engine, &trace, &slos);
            stopped += s;
            complete += c;
        }
        assert!(
            stopped > 0 && complete > 0,
            "{stopped} stopped, {complete} complete"
        );
        // An overloaded fleet loses its verdict long before the trace ends.
        let overloaded = FleetEngine::new(
            one_stage_spec(0.03),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        );
        let full = overloaded.run_trace(&trace).fleet.merged.metrics;
        let lost = overloaded
            .run_trace_verdict(&trace, &SloTarget::new(0.05, 0.01).with_attainment(0.9))
            .unwrap_err();
        assert!(lost.events < full.events_processed / 2, "{lost:?}");
    }

    /// A split fleet counts TTFT misses at the prefill handoff and TPOT
    /// misses at decode completion; stopping on the larger count stays
    /// sound when some requests miss both.
    #[test]
    fn verdict_runs_of_split_fleets_are_sound() {
        let prefill = PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                8,
                LatencyTable::from_fn(8, |b| 0.01 * f64::from(b)),
            )],
            DecodeSpec::new(8, LatencyTable::constant(8, 1e-3)),
        );
        let decode = PipelineSpec::decode_only(
            DecodeSpec::new(
                32,
                LatencyTable::from_fn(32, |b| 2e-3 + 1e-3 * f64::from(b)),
            ),
            None,
        );
        let trace = poisson_trace(300, 150.0, 24);
        let base = SloTarget::new(0.1, 0.02);
        let slos: Vec<SloTarget> = [0.2, 0.4, 0.6, 0.8, 0.95, 1.0]
            .into_iter()
            .map(|a| base.with_attainment(a))
            .collect();
        let (mut stopped, mut complete, mut both) = (0, 0, 0);
        // An 80 ms handoff puts each decode leg's first token past the TTFT
        // target while the request's own first token meets it: only a
        // decode leg that scores TPOT alone keeps this fleet's verdict.
        let priced = KvTransferModel::new(0.0, f64::INFINITY, 0.08);
        for (p, d, transfer) in [
            (1, 1, KvTransferModel::zero()),
            (1, 4, KvTransferModel::zero()),
            (2, 1, KvTransferModel::zero()),
            (2, 2, KvTransferModel::zero()),
            (4, 4, KvTransferModel::zero()),
            (4, 4, priced),
        ] {
            let engine = FleetEngine::disaggregated(
                prefill.clone(),
                decode.clone(),
                PoolSpec::new(p, RouterPolicy::LeastOutstanding),
                PoolSpec::new(d, RouterPolicy::LeastOutstanding),
                transfer,
            );
            both += engine
                .run_trace(&trace)
                .fleet
                .merged
                .timelines
                .iter()
                .filter(|t| t.ttft_s() > base.ttft_s && t.tpot_s() > base.tpot_s)
                .count();
            let (s, c) = check_verdicts(&engine, &trace, &slos);
            stopped += s;
            complete += c;
        }
        assert!(both > 0, "no request missed both targets");
        assert!(
            stopped > 0 && complete > 0,
            "{stopped} stopped, {complete} complete"
        );
    }

    /// The miss budget is sound on every fleet: a reactive fleet whose
    /// replicas carry a trigger tally next to the budget's, crashes that
    /// re-queue or fail their in-flight work, and admission control.
    /// Sheds and failures count as misses, so each fleet both stops and
    /// completes across the targets.
    #[test]
    fn verdict_runs_of_elastic_faulted_and_admission_fleets_are_sound() {
        let trace = poisson_trace(300, 120.0, 8);
        let slos = flat_slos();
        let pair = || {
            FleetEngine::new(
                one_stage_spec(0.04),
                RouterPolicy::LeastOutstanding,
                ScaleDriver::Static { replicas: 2 },
            )
        };
        let crash = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 0.8,
            restart_delay_s: 0.5,
        }]);
        let fleets = [
            FleetEngine::new(
                one_stage_spec(0.03),
                RouterPolicy::LeastOutstanding,
                ScaleDriver::Reactive(
                    AutoscalerPolicy::new(1, 3)
                        .with_evaluation_interval(0.25)
                        .with_scale_out_queue_depth(4.0)
                        .with_attainment_trigger(SloTarget::new(0.1, 0.01), 0.9),
                ),
            ),
            pair().with_faults(crash.clone()),
            pair()
                .with_faults(crash)
                .with_crash_policy(CrashPolicy::Fail),
            pair().with_admission(AdmissionConfig::new(2.0, 0.0)),
        ];
        let (mut shed, mut failed) = (0, 0);
        for engine in &fleets {
            let (stopped, complete) = check_verdicts(engine, &trace, &slos);
            assert!(
                stopped > 0 && complete > 0,
                "{stopped} stopped, {complete} complete"
            );
            let fault = engine.run_trace(&trace).fault;
            shed += fault.shed;
            failed += fault.failed;
        }
        assert!(fleets[0].run_trace(&trace).peak_provisioned > 1);
        assert_eq!((shed, failed), (64, 11));
    }

    /// A trace is read in place, sorted or not: [`arrivals`] yields an
    /// unsorted one in its sorted copy's order, ties broken by id, and it
    /// runs exactly as the sorted copy does.
    #[test]
    fn unsorted_traces_run_in_sorted_order() {
        let mut sorted = poisson_trace(120, 80.0, 8);
        // A tie at one instant, which the ids break.
        sorted.requests[11].arrival_s = sorted.requests[10].arrival_s;
        let mut shuffled = sorted.clone();
        shuffled.requests.reverse();
        shuffled.requests.swap(3, 70);
        let engine = FleetEngine::new(
            one_stage_spec(0.03),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        );
        assert!(arrivals(&shuffled).eq(arrivals(&sorted)));
        assert_eq!(engine.run_trace(&shuffled), engine.run_trace(&sorted));
    }

    /// Arrivals pulled out of time order are a caller bug the loop refuses
    /// rather than a stall.
    #[test]
    #[should_panic(expected = "non-decreasing time order")]
    fn pulled_arrivals_must_not_go_back_in_time() {
        let mut reqs = requests(10, 0.1);
        reqs.swap(2, 5);
        let _ = FleetEngine::new(
            one_stage_spec(0.03),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .run(reqs, &MetricsMode::Exact, &mut NullRecorder);
    }

    #[test]
    #[should_panic(expected = "gauge cadence must be finite")]
    fn infinite_gauge_cadences_are_rejected() {
        let _ = FleetEngine::new(
            one_stage_spec(0.03),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_telemetry(rago_telemetry::TelemetryConfig::full(f64::INFINITY));
    }

    /// Regression: the thresholds are public, so a struct literal skipped
    /// `AdmissionConfig::new`'s check, and a NaN or negative threshold shed
    /// every arrival.
    #[test]
    #[should_panic(expected = "the shed queue depth must be non-negative and finite")]
    fn malformed_admission_thresholds_are_rejected() {
        let nan = AdmissionConfig {
            shed_queue_depth: f64::NAN,
            ..AdmissionConfig::new(2.0, 4.0)
        };
        let negative = AdmissionConfig {
            depth_per_priority: -1.0,
            ..AdmissionConfig::new(2.0, 4.0)
        };
        assert!(negative
            .validate()
            .unwrap_err()
            .contains("per-priority depth"));
        let _ = FleetEngine::new(
            one_stage_spec(0.03),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_admission(nan);
    }

    /// A decode run is one queue pop for all of its steps, while
    /// `events_processed` still counts every step. Both counts are pinned
    /// on a seeded three-replica run with 64-token decodes; the events are
    /// the step-by-step loop's.
    #[test]
    fn queue_pops_count_the_pops_a_decode_run_saves() {
        let engine = FleetEngine::new(
            one_stage_spec(0.01),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 3 },
        );
        let trace = poisson_trace(400, 120.0, 64);
        let metrics = engine.run_trace(&trace).fleet.merged.metrics;
        assert_eq!(
            (metrics.events_processed, metrics.queue_pops),
            (6_103, 1_529)
        );
        assert!(metrics.queue_pops < metrics.events_processed);
        let streamed = engine.run(
            arrivals(&trace),
            &MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default())),
            &mut NullRecorder,
        );
        let m = &streamed.fleet.merged.metrics;
        assert_eq!((m.events_processed, m.queue_pops), (6_103, 1_529));
    }

    /// Every fleet constructor checks its specs: a struct literal that
    /// skips the part constructors fails here instead of mid-run.
    #[test]
    #[should_panic(expected = "decode step latency must be strictly positive")]
    fn split_fleets_reject_a_malformed_spec() {
        let mut decode =
            PipelineSpec::decode_only(DecodeSpec::new(8, LatencyTable::constant(8, 1e-3)), None);
        decode.decode.step_latency = LatencyTable::constant(8, 0.0);
        let _ = FleetEngine::disaggregated(
            one_stage_spec(0.01),
            decode,
            PoolSpec::new(1, RouterPolicy::LeastOutstanding),
            PoolSpec::new(1, RouterPolicy::LeastOutstanding),
            KvTransferModel::zero(),
        );
    }

    /// A pipeline with more pre-decode stages than there are pipeline
    /// stages would overflow its timelines' stage times; the fleet refuses
    /// it up front.
    #[test]
    #[should_panic(expected = "8 pre-decode stages; a pipeline has at most 7")]
    fn fleets_reject_more_stages_than_a_pipeline_has() {
        let mut spec = one_stage_spec(0.01);
        spec.stages = vec![spec.stages[0].clone(); 8];
        let _ = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        );
    }

    /// FNV-1a over `bytes`: a short, stable fingerprint of an export.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A crash whose in-flight requests are re-queued leaves the fleet's
    /// requests whole: each completed request sits under the replica it
    /// was last dispatched to, which counts it, and the traced export is
    /// the same on every run and every thread count (the pinned
    /// fingerprints; CI also runs this at one thread).
    #[test]
    fn traced_exports_survive_a_requeueing_crash() {
        let telemetry = rago_telemetry::TelemetryConfig::full(0.25);
        let engine = FleetEngine::new(
            one_stage_spec(0.03),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 3 },
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 1.0,
            restart_delay_s: 0.5,
        }]))
        .with_crash_policy(CrashPolicy::Requeue)
        .with_telemetry(telemetry.clone());
        let traced = || {
            let mut rec = rago_telemetry::TraceRecorder::new(telemetry.clone());
            let report = engine.run(requests(300, 0.01), &MetricsMode::Exact, &mut rec);
            let events = rec.into_events();
            let exports = (
                rago_telemetry::export_chrome_trace(&events),
                rago_telemetry::export_jsonl(&events),
            );
            (report, exports)
        };
        let (report, exports) = traced();
        assert!(report.fault.retried > 0, "the crash must re-queue work");
        assert_eq!(report.fault.completed, 300);
        let fleet = &report.fleet;

        let requests = crate::cluster::tests::replica_requests(fleet);
        let mut viewed: Vec<u64> = requests.iter().flatten().map(|t| t.id).collect();
        let mut logged: Vec<u64> = fleet.merged.timelines.iter().map(|t| t.id).collect();
        viewed.sort_unstable();
        logged.sort_unstable();
        assert_eq!(viewed, logged);
        for (r, served) in fleet.per_replica.iter().zip(&requests) {
            assert_eq!(r.metrics.completed, served.len(), "replica {}", r.replica);
        }

        let (again, exports_again) = traced();
        assert_eq!(again.fleet, report.fleet);
        assert!(
            exports_again == exports,
            "traced exports differ between runs"
        );
        assert_eq!(
            (fnv1a(exports.0.as_bytes()), fnv1a(exports.1.as_bytes())),
            (0xcbea_a544_f03f_798b, 0x714b_e932_a505_9483)
        );
    }

    /// A split fleet that loses its only decode replica samples every
    /// replica's gauges up to the merged makespan, its last decode
    /// completion, although its prefill pool runs on long after; the
    /// traced exports are pinned.
    #[test]
    fn split_gauges_end_at_the_merged_makespan_when_decode_dies() {
        let telemetry = rago_telemetry::TelemetryConfig::full(0.1);
        let decode = DecodeSpec::new(16, LatencyTable::constant(16, 2e-3));
        let prefill = PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                4,
                LatencyTable::constant(4, 0.02),
            )],
            decode.clone(),
        );
        let engine = FleetEngine::disaggregated(
            prefill,
            PipelineSpec::decode_only(decode, None),
            PoolSpec::new(2, RouterPolicy::LeastOutstanding),
            PoolSpec::new(1, RouterPolicy::LeastOutstanding),
            KvTransferModel::new(131_072.0, 25e9, 20e-6),
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 2,
            at_s: 1.0,
            restart_delay_s: f64::INFINITY,
        }]))
        .with_telemetry(telemetry.clone());
        let mut rec = rago_telemetry::TraceRecorder::new(telemetry);
        let trace = poisson_trace(150, 50.0, 16);
        let report = engine.run(arrivals(&trace), &MetricsMode::Exact, &mut rec);
        let events = rec.into_events();

        let end_s = report.fleet.merged.metrics.makespan_s;
        let prefill_end = report.fleet.per_replica[..2]
            .iter()
            .map(|r| r.metrics.makespan_s)
            .fold(0.0, f64::max);
        assert!(prefill_end > end_s, "prefill {prefill_end} vs {end_s}");
        let last_sample = events
            .iter()
            .filter(|e| e.name == "queue_depth")
            .map(|e| e.time_s)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (0.0..=end_s).contains(&last_sample),
            "{last_sample} vs {end_s}"
        );
        assert_eq!(
            (
                fnv1a(rago_telemetry::export_chrome_trace(&events).as_bytes()),
                fnv1a(rago_telemetry::export_jsonl(&events).as_bytes())
            ),
            (0x441f_846f_883d_cf25, 0x8f1f_0630_db82_2f58)
        );
    }
}
