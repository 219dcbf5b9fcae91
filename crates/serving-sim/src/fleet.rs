//! The fleet engine: pipeline replicas behind a router, sized by a scale
//! driver, degraded by faults, and guarded by admission control — every
//! flat fleet runs through this one loop.
//!
//! [`crate::engine::ServingEngine`] answers what one pipeline replica does
//! under a request stream. [`FleetEngine`] answers the fleet question: it
//! owns one replica simulation per fleet slot, advances every live replica
//! to just before each clock point (the engine's composable shared-clock
//! form), and routes a shared arrival stream across the routable replicas
//! with a [`RouterPolicy`] that observes live queue depths and decode
//! residency. What varies between a plain, an elastic, and a faulted fleet
//! is configuration, not code:
//!
//! * the [`ScaleDriver`] sizes the fleet — `Static` (fixed; the only driver
//!   a [`FleetEngine::heterogeneous`] fleet takes), `Reactive` (the
//!   [`crate::autoscaler::AutoscalerPolicy`] evaluated at its interval), or
//!   `Predictive` (a feed-forward [`crate::faults::ScalingPlan`]);
//! * the [`FaultSchedule`] injects crashes, stragglers, and preemptions
//!   (empty by default);
//! * an optional [`AdmissionConfig`] sheds arrivals in priority order.
//!
//! Four chronological lanes share one clock, with a pinned tie-break at
//! equal instants: **fault actions**, then **pending-request flushes**
//! (arrivals that found no routable replica), then **policy ticks / plan
//! steps**, then **arrivals** — a fault or scaling decision at an
//! arrival's instant is in force before that arrival is routed. The report
//! is a [`ChaosReport`]: the merged [`FleetReport`] plus the scaling
//! history and the fault ledger. A one-replica static fleet reproduces
//! [`ServingEngine::run`](crate::engine::ServingEngine::run) exactly
//! (`tests/proptest_cluster.rs`).
//!
//! # Examples
//!
//! ```
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_serving_sim::faults::ScaleDriver;
//! use rago_serving_sim::fleet::FleetEngine;
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
//! let streamed = engine.run_trace_with_mode(&trace, &streaming);
//! // Streaming keeps histogram-sized state: no timelines, no assignment log.
//! assert!(streamed.fleet.merged.timelines.is_empty());
//! assert!(streamed.fleet.assignments.is_empty());
//! assert_eq!(streamed.fleet.merged.metrics.completed, 200);
//! assert_eq!(exact.offered_attainment(&slo), streamed.offered_attainment(&slo));
//! ```

use crate::autoscaler::{AutoscalerPolicy, ReplicaLifetime, ScalingAction, ScalingEvent};
use crate::cluster::{route_pick, FleetReport, LoadImbalance, ReplicaReport};
use crate::engine::{
    build_report, compute_metrics_for, sort_by_arrival, CacheProbe, ClassMetrics, EngineRequest,
    PipelineSpec, ReplicaSim, RequestTimeline, ServingReport, SimAccumulators,
};
use crate::equeue::EventQueueStats;
use crate::faults::{
    AdmissionConfig, ChaosReport, ClassShed, CrashPolicy, Disruption, FaultEvent, FaultKind,
    FaultReport, FaultSchedule, ScaleDriver, ShedEvent,
};
use crate::sink::{HistogramSink, MetricsMode, MetricsSink, RequestOutcome};
use rago_schema::RouterPolicy;
use rago_telemetry::Recorder;
use rago_workloads::Trace;
use rayon::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// The fleet engine. See the module docs.
#[derive(Debug, Clone)]
pub struct FleetEngine {
    /// The pipeline of each initial slot of a heterogeneous fleet, or the
    /// one pipeline every slot of a homogeneous fleet runs.
    specs: Vec<PipelineSpec>,
    router: RouterPolicy,
    driver: ScaleDriver,
    faults: FaultSchedule,
    crash_policy: CrashPolicy,
    admission: Option<AdmissionConfig>,
    parallel_advance: bool,
    telemetry: rago_telemetry::TelemetryConfig,
}

impl FleetEngine {
    /// A fleet of `spec` replicas behind `router`, sized by `driver`, with
    /// no faults and no admission control.
    ///
    /// # Panics
    ///
    /// Panics if the driver is malformed (zero replicas, invalid reactive
    /// policy).
    pub fn new(spec: PipelineSpec, router: RouterPolicy, driver: ScaleDriver) -> Self {
        Self::from_specs(vec![spec], router, driver)
    }

    /// A fixed fleet with one (possibly different) pipeline per replica —
    /// e.g. distinct schedules from a Pareto frontier serving side by side.
    /// A crashed replica restarts with its own pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, or `driver` is not
    /// [`ScaleDriver::Static`] with exactly one replica per spec — an
    /// elastic fleet would have no pipeline to provision a new replica with.
    pub fn heterogeneous(
        specs: Vec<PipelineSpec>,
        router: RouterPolicy,
        driver: ScaleDriver,
    ) -> Self {
        assert!(!specs.is_empty(), "a fleet needs at least one replica");
        assert!(
            matches!(driver, ScaleDriver::Static { replicas } if replicas as usize == specs.len()),
            "a heterogeneous fleet takes a Static driver with one replica per spec"
        );
        Self::from_specs(specs, router, driver)
    }

    fn from_specs(specs: Vec<PipelineSpec>, router: RouterPolicy, driver: ScaleDriver) -> Self {
        driver.assert_valid();
        Self {
            specs,
            router,
            driver,
            faults: FaultSchedule::empty(),
            crash_policy: CrashPolicy::default(),
            admission: None,
            parallel_advance: false,
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
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Advances replicas in parallel between clock points (off by
    /// default). Replicas share no state between clock points, so each one
    /// ends up bit-identical to a serial advance regardless of thread
    /// interleaving — routing still inspects the replicas serially, and the
    /// report equals the serial run's (the `scale_stress` bench asserts
    /// this on every run).
    #[must_use]
    pub fn with_parallel_advance(mut self, parallel: bool) -> Self {
        self.parallel_advance = parallel;
        self
    }

    /// The scale driver.
    pub fn driver(&self) -> &ScaleDriver {
        &self.driver
    }

    /// Runs a generated trace through the fleet.
    pub fn run_trace(&self, trace: &Trace) -> ChaosReport {
        self.run(trace.requests.iter().map(EngineRequest::from).collect())
    }

    /// [`Self::run_trace`] with an explicit metrics pipeline.
    pub fn run_trace_with_mode(&self, trace: &Trace, mode: &MetricsMode) -> ChaosReport {
        self.run_with_mode(
            trace.requests.iter().map(EngineRequest::from).collect(),
            mode,
        )
    }

    /// Runs the fleet over `requests` (sorted by arrival time internally)
    /// in exact metrics mode. No policy scaling happens after the last
    /// arrival, but faults (and restarts) keep firing through the drain.
    ///
    /// # Panics
    ///
    /// Panics if any arrival time is negative or non-finite, or any request
    /// generates zero tokens.
    pub fn run(&self, requests: Vec<EngineRequest>) -> ChaosReport {
        self.run_with_mode(requests, &MetricsMode::Exact)
    }

    /// [`Self::run`] with an explicit metrics pipeline. In streaming mode
    /// every replica drains into its own [`HistogramSink`] and the sinks
    /// merge in slot order: the fleet report holds no timelines and no
    /// assignment log (the scaling history, lifetimes, and fault ledger are
    /// `O(events + replicas)` and kept either way). The merged
    /// floating-point sums may differ in the last bits from the exact
    /// path's arrival-order accumulation.
    pub fn run_with_mode(&self, requests: Vec<EngineRequest>, mode: &MetricsMode) -> ChaosReport {
        self.run_recorded(requests, mode, &mut rago_telemetry::NullRecorder)
            .0
    }

    /// [`Self::run_with_mode`] recording a trace into `rec`: router picks
    /// (including crash-requeue re-picks) live during routing; per-replica
    /// request spans, cache probes, load gauges (at the
    /// [`Self::with_telemetry`] cadence), self-profiling counters,
    /// admission sheds and fault disruptions derived post-hoc from the
    /// report's ledgers. Scaling decisions, replica lifecycle instants, and
    /// the routable-replica gauge are recorded only when the fleet size can
    /// change — a non-`Static` driver or a non-empty fault schedule. A
    /// [`rago_telemetry::NullRecorder`] makes this exactly
    /// [`Self::run_with_mode`].
    pub fn run_traced<R: Recorder>(
        &self,
        requests: Vec<EngineRequest>,
        mode: &MetricsMode,
        rec: &mut R,
    ) -> ChaosReport {
        let (report, obs) = self.run_recorded(requests, mode, rec);
        if R::ENABLED {
            let cadence = self.telemetry.gauge_cadence_s;
            let end_s = report.fleet.merged.metrics.makespan_s;
            record_fleet_observability(rec, &report.fleet, &obs, cadence);
            if !matches!(self.driver, ScaleDriver::Static { .. }) || !self.faults.is_empty() {
                crate::telemetry::record_scaling_events(rec, &report.events);
                crate::telemetry::record_replica_lifetimes(rec, &report.lifetimes);
                crate::telemetry::record_routable_gauge(rec, &report.lifetimes, cadence, end_s);
            }
            crate::telemetry::record_shed_events(rec, &report.fault.shed_log);
            crate::telemetry::record_disruptions(rec, &report.fault.disruptions);
        }
        report
    }

    /// Convenience wrapper: [`Self::run_traced`] with a
    /// [`rago_telemetry::TraceRecorder`] built from the engine's
    /// [`Self::with_telemetry`] config.
    pub fn run_telemetry(
        &self,
        requests: Vec<EngineRequest>,
        mode: &MetricsMode,
    ) -> (ChaosReport, rago_telemetry::TraceRecorder) {
        let mut rec = rago_telemetry::TraceRecorder::new(self.telemetry.clone());
        let report = self.run_traced(requests, mode, &mut rec);
        (report, rec)
    }

    /// The one fleet loop. The recorder sees router picks only; everything
    /// else is derived from the returned ledgers.
    fn run_recorded<R: Recorder>(
        &self,
        mut requests: Vec<EngineRequest>,
        mode: &MetricsMode,
        rec: &mut R,
    ) -> (ChaosReport, Vec<ReplicaObs>) {
        sort_by_arrival(&mut requests);
        let mut run = Run::new(self, mode, R::ENABLED, requests.len());
        let last_arrival = requests.last().map_or(0.0, |r| r.arrival_s);
        let mut next_req = 0usize;
        // Reactive tick clock / predictive step cursor.
        let mut next_tick = match &self.driver {
            ScaleDriver::Reactive(policy) => policy.evaluation_interval_s,
            _ => f64::INFINITY,
        };
        let mut next_step = 0usize;

        loop {
            let agenda_pick = run.next_agendum();
            let agenda_t = agenda_pick.map(|(_, t)| t);
            let flush_t = run.flush_time();
            let tick_t = match &self.driver {
                ScaleDriver::Reactive(_) => (next_tick <= last_arrival).then_some(next_tick),
                ScaleDriver::Predictive(p) => p
                    .plan
                    .steps
                    .get(next_step)
                    .map(|s| s.at_s)
                    .filter(|&t| t <= last_arrival),
                ScaleDriver::Static { .. } => None,
            };
            let arrival_t = requests.get(next_req).map(|r| r.arrival_s);

            // Earliest wins; ties break fault < flush < tick < arrival.
            let best = [agenda_t, flush_t, tick_t, arrival_t]
                .into_iter()
                .enumerate()
                .filter_map(|(lane, t)| t.map(|t| (lane, t)))
                .min_by(|(la, ta), (lb, tb)| ta.total_cmp(tb).then(la.cmp(lb)));
            let Some((lane, now)) = best else {
                break;
            };

            match lane {
                0 => {
                    let (idx, _) = agenda_pick.expect("lane 0 implies an agenda entry");
                    let action = run.agenda.remove(idx).action;
                    run.apply_action(action, now, rec);
                }
                1 => run.flush(now, rec),
                2 => {
                    run.advance(now);
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
                _ => {
                    // Route the whole run of arrivals strictly earlier than
                    // the next fault, flush, or tick instant — nothing but an
                    // arrival parked for want of a routable replica can move
                    // those lanes, and that ends the run early.
                    let horizon = [agenda_t, flush_t, tick_t]
                        .into_iter()
                        .flatten()
                        .fold(f64::INFINITY, f64::min);
                    while let Some(&req) = requests.get(next_req).filter(|r| r.arrival_s < horizon)
                    {
                        next_req += 1;
                        if !run.arrive(req, rec) {
                            break;
                        }
                    }
                }
            }
        }
        run.finish(requests.len())
    }
}

/// One fleet slot. `sim` is `None` once the replica is dead (crashed or
/// killed); its pre-death results are parked in [`Run::dead`].
struct Slot {
    sim: Option<ReplicaSim>,
    /// Index of the slot's pipeline in [`FleetEngine::specs`]; a restart of
    /// this slot runs the same pipeline.
    spec: usize,
    provisioned_s: f64,
    routable_s: f64,
    decommissioned_s: Option<f64>,
    /// Death instant of a crashed/preempted slot — its chips are released
    /// here, unlike a decommissioned-but-draining slot.
    retired_at: Option<f64>,
    assigned: usize,
    /// Position in the replica's chronological completion log up to which
    /// the attainment trigger has already consumed outcomes — each
    /// completion is scored exactly once across ticks.
    completion_cursor: usize,
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
    /// Provision a cold replacement running pipeline `spec`.
    Restart {
        spec: usize,
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

struct Agendum {
    t: f64,
    seq: u64,
    action: Action,
}

/// The mutable state of one fleet run.
struct Run<'e> {
    engine: &'e FleetEngine,
    mode: &'e MetricsMode,
    /// Whether new replicas log completions (only the reactive attainment
    /// trigger reads the log).
    track_completions: bool,
    /// Whether new replicas log cache probes (traced runs only).
    track_probes: bool,
    slots: Vec<Slot>,
    /// Routable slot indices as of the last [`Run::refresh_routable`] —
    /// one buffer reused for every clock point.
    routable: Vec<usize>,
    agenda: Vec<Agendum>,
    next_seq: u64,
    /// Requests waiting for a routable replica.
    pending: VecDeque<EngineRequest>,
    /// Harvests of replicas that died mid-run.
    dead: Vec<(usize, Harvest, ReplicaObs)>,
    /// Whether routing decisions are logged (exact mode only).
    log_assignments: bool,
    assignments: Vec<(u64, usize)>,
    round_robin_next: usize,
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
        requests: usize,
    ) -> Self {
        let initial = engine.driver.initial_replicas();
        let log_assignments = matches!(mode, MetricsMode::Exact);
        let mut run = Self {
            engine,
            mode,
            track_completions: engine.driver.track_completions(),
            track_probes,
            slots: Vec::with_capacity(initial as usize),
            routable: Vec::with_capacity(initial as usize),
            agenda: engine
                .faults
                .events()
                .iter()
                .enumerate()
                .map(|(i, e)| Agendum {
                    t: e.at_s(),
                    seq: i as u64,
                    action: Action::of(e),
                })
                .collect(),
            next_seq: engine.faults.len() as u64,
            pending: VecDeque::new(),
            dead: Vec::new(),
            log_assignments,
            assignments: if log_assignments {
                Vec::with_capacity(requests)
            } else {
                Vec::new()
            },
            round_robin_next: 0,
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
        let last_spec = engine.specs.len() - 1;
        for i in 0..initial as usize {
            run.provision(i.min(last_spec), 0.0, 0.0);
        }
        run
    }

    /// Appends a fresh, cold replica slot running pipeline `spec`.
    fn provision(&mut self, spec: usize, now: f64, routable_s: f64) -> usize {
        let mut sim = ReplicaSim::new(self.engine.specs[spec].clone());
        sim.track_completions = self.track_completions;
        sim.track_probes = self.track_probes;
        self.slots.push(Slot {
            sim: Some(sim),
            spec,
            provisioned_s: now,
            routable_s,
            decommissioned_s: None,
            retired_at: None,
            assigned: 0,
            completion_cursor: 0,
        });
        self.slots.len() - 1
    }

    /// The earliest agenda entry (ties in scheduling order): its index and
    /// instant.
    fn next_agendum(&self) -> Option<(usize, f64)> {
        self.agenda
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.t.total_cmp(&b.t).then(a.seq.cmp(&b.seq)))
            .map(|(i, a)| (i, a.t))
    }

    /// When waiting requests can next be routed: the earliest instant a
    /// provisioned replica is (or becomes) routable.
    fn flush_time(&self) -> Option<f64> {
        if self.pending.is_empty() {
            return None;
        }
        self.slots
            .iter()
            .filter(|s| s.provisioned())
            .map(|s| s.routable_s)
            .min_by(f64::total_cmp)
    }

    fn schedule(&mut self, t: f64, action: Action) {
        self.agenda.push(Agendum {
            t,
            seq: self.next_seq,
            action,
        });
        self.next_seq += 1;
    }

    fn alive(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(|s| s.sim.is_some())
    }

    fn provisioned(&self) -> u32 {
        self.slots.iter().filter(|s| s.provisioned()).count() as u32
    }

    /// Advances every live replica to just before `t`.
    fn advance(&mut self, t: f64) {
        advance_all(
            &mut self.slots,
            |s| s.sim.as_mut(),
            t,
            self.engine.parallel_advance,
        );
    }

    fn refresh_routable(&mut self, t: f64) {
        self.routable.clear();
        self.routable
            .extend((0..self.slots.len()).filter(|&i| self.slots[i].routable_at(t)));
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
        self.advance(t);
        self.refresh_routable(t);
        if self.routable.is_empty() {
            self.pending.push_back(req);
            return false;
        }
        if !self.shed(&req, t) {
            self.route(req, t, false, rec);
        }
        true
    }

    /// A replica just became routable: admit and route the waiting
    /// requests at this instant.
    fn flush<R: Recorder>(&mut self, now: f64, rec: &mut R) {
        self.advance(now);
        self.refresh_routable(now);
        debug_assert!(
            !self.routable.is_empty(),
            "flushes fire at routable instants"
        );
        while let Some(req) = self.pending.pop_front() {
            if !self.shed(&req, now) {
                self.route(req, now, true, rec);
            }
        }
    }

    /// Returns `true` (and records the shed) when admission control rejects
    /// `req` at `t` given the routable fleet's load.
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

    /// Routes `req` over the routable replicas at `t` and injects it —
    /// `delayed` for a request that waited or was re-queued, whose arrival
    /// event fires now rather than at its recorded arrival. The recorder
    /// sees one decision event per pick; it never influences the pick.
    fn route<R: Recorder>(&mut self, req: EngineRequest, t: f64, delayed: bool, rec: &mut R) {
        let router = self.engine.router;
        let (slots, routable) = (&self.slots, &self.routable);
        let pick = route_pick(
            router,
            routable.len(),
            |i| slots[routable[i]].sim(),
            // Hash homes key on the stable slot index, not the position in
            // the routable subset, so scale events do not re-home every
            // template.
            |i| routable[i],
            &mut self.round_robin_next,
            &req,
        );
        let replica = routable[pick];
        if R::ENABLED {
            crate::telemetry::record_route_pick(
                rec,
                t,
                router,
                replica,
                &req,
                slots[replica].sim(),
            );
        }
        if self.log_assignments {
            self.assignments.push((req.id, replica));
        }
        let slot = &mut self.slots[replica];
        slot.assigned += 1;
        let sim = slot.sim.as_mut().expect("routable slots are alive");
        if delayed {
            sim.inject_delayed(req, t);
        } else {
            sim.inject(req);
        }
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
                    let spec = self.slots[slot].spec;
                    self.schedule(now + restart_delay_s, Action::Restart { spec });
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
                self.schedule(now + notice_s, Action::Kill { slot });
            }
            Action::Kill { slot } => {
                // The preemption deadline; skip silently if the replica
                // already crashed during the notice window.
                if self.alive(slot) {
                    self.kill(slot, now, rec);
                }
            }
            Action::Restart { spec } => {
                // A cold replacement replica: same provisioning path as a
                // scale-out (fresh caches, full warm-up).
                self.provision(spec, now, now + self.engine.driver.warmup_s());
                self.peak_provisioned = self.peak_provisioned.max(self.provisioned());
            }
        }
    }

    /// Tears one replica down at `now`: its completed work is harvested,
    /// its in-flight requests are re-queued or failed, and its chips are
    /// released.
    fn kill<R: Recorder>(&mut self, slot: usize, now: f64, rec: &mut R) {
        // Work completing strictly before the death instant survives; work
        // completing exactly at it is lost with the replica (the pinned
        // `advance_before` semantics).
        self.advance(now);
        let mut sim = self.slots[slot].sim.take().expect("only live slots die");
        let obs = ReplicaObs::take(slot, &mut sim);
        let (timelines, in_flight, acc) = sim.dismantle();
        self.dead
            .push((slot, Harvest::dismantled(timelines, acc, self.mode), obs));
        let dying = &mut self.slots[slot];
        dying.decommissioned_s.get_or_insert(now);
        dying.retired_at = Some(now);
        self.min_provisioned = self.min_provisioned.min(self.provisioned());
        match self.engine.crash_policy {
            CrashPolicy::Fail => self.failed += in_flight.len(),
            CrashPolicy::Requeue => {
                self.refresh_routable(now);
                for req in in_flight {
                    self.retried += 1;
                    if self.routable.is_empty() {
                        self.pending.push_back(req);
                    } else {
                        // Retries bypass admission — they were admitted
                        // once; TTFT keeps accruing from the original
                        // arrival.
                        self.route(req, now, true, rec);
                    }
                }
            }
        }
    }

    /// One reactive policy evaluation at tick `now` — the single copy of
    /// the autoscaler's decision: observe the routable replicas, then take
    /// at most one scaling action.
    fn evaluate_reactive(&mut self, policy: &AutoscalerPolicy, now: f64) {
        self.refresh_routable(now);
        if self.routable.is_empty() {
            return; // only transiently, while the whole fleet warms up or is dead
        }
        let provisioned = self.provisioned();
        let routable = self.routable.len() as u32;
        let (mean_queue_depth, mean_outstanding) = self.mean_load();
        let queue_trigger = mean_queue_depth > policy.scale_out_queue_depth;
        // Consecutive ticks are `evaluation_interval_s` apart, so consuming
        // everything up to `now` from each replica's cursor is exactly the
        // last interval's completions — in O(new completions), not a rescan
        // of every request.
        let attainment_trigger = policy.attainment_trigger.is_some_and(|trigger| {
            let (mut met, mut total) = (0usize, 0usize);
            for slot in &mut self.slots {
                let Some(sim) = slot.sim.as_ref() else {
                    continue;
                };
                for &(_, ttft, tpot) in sim.completions_up_to(&mut slot.completion_cursor, now) {
                    total += 1;
                    met += usize::from(trigger.slo.meets(ttft, tpot));
                }
            }
            total > 0 && (met as f64 / total as f64) < trigger.floor
        });
        let event = |action, replica, provisioned_after, routable_after| ScalingEvent {
            time_s: now,
            action,
            replica,
            provisioned_after,
            routable_after,
            mean_queue_depth,
            mean_outstanding,
        };

        if (queue_trigger || attainment_trigger) && provisioned < policy.max_replicas {
            let replica = self.provision(0, now, now + policy.warmup_s);
            self.last_action_s = now;
            self.peak_provisioned = self.peak_provisioned.max(provisioned + 1);
            // A zero-warm-up replica is routable at this very tick, so it
            // already counts.
            let routable_after = routable + u32::from(policy.warmup_s <= 0.0);
            self.events.push(event(
                ScalingAction::ScaleOut,
                replica,
                provisioned + 1,
                routable_after,
            ));
        } else if mean_outstanding < policy.scale_in_outstanding
            && routable > policy.min_replicas
            && now - self.last_action_s >= policy.cooldown_s
        {
            let victim = self.emptiest_routable();
            self.slots[victim].decommissioned_s = Some(now);
            self.last_action_s = now;
            self.min_provisioned = self.min_provisioned.min(provisioned - 1);
            self.events.push(event(
                ScalingAction::ScaleIn,
                victim,
                provisioned - 1,
                routable - 1,
            ));
        }
    }

    /// One predictive plan step: provision or decommission until the live
    /// fleet matches `target`.
    fn apply_plan_target(&mut self, target: u32, warmup_s: f64, now: f64) {
        self.refresh_routable(now);
        let (mean_queue_depth, mean_outstanding) = if self.routable.is_empty() {
            (0.0, 0.0)
        } else {
            self.mean_load()
        };
        let event = |action, replica, provisioned_after, routable_after| ScalingEvent {
            time_s: now,
            action,
            replica,
            provisioned_after,
            routable_after,
            mean_queue_depth,
            mean_outstanding,
        };
        let mut provisioned = self.provisioned();
        let mut routable_now = self.routable.len() as u32;
        while provisioned < target {
            let replica = self.provision(0, now, now + warmup_s);
            provisioned += 1;
            if warmup_s <= 0.0 {
                routable_now += 1;
            }
            self.peak_provisioned = self.peak_provisioned.max(provisioned);
            self.events.push(event(
                ScalingAction::ScaleOut,
                replica,
                provisioned,
                routable_now,
            ));
        }
        while provisioned > target {
            // Decommission the emptiest routable replica; never the last
            // one (warming replicas cannot drain the backlog).
            self.refresh_routable(now);
            if self.routable.len() <= 1 {
                break;
            }
            let victim = self.emptiest_routable();
            self.slots[victim].decommissioned_s = Some(now);
            provisioned -= 1;
            routable_now = routable_now.saturating_sub(1);
            self.min_provisioned = self.min_provisioned.min(provisioned);
            self.events.push(event(
                ScalingAction::ScaleIn,
                victim,
                provisioned,
                routable_now,
            ));
        }
    }

    /// Drains and merges the fleet and assembles the report: requests still
    /// waiting fail, and a replica's chips are paid until its death, the
    /// end of its drain after a decommission, or the end of the run.
    fn finish(mut self, injected: usize) -> (ChaosReport, Vec<ReplicaObs>) {
        self.failed += self.pending.len();
        let assigned_counts = self.slots.iter().map(|s| s.assigned).collect();
        let live = self
            .slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.sim.take().map(|sim| (i, sim)))
            .collect();
        let (fleet, obs) = drain_and_merge(
            live,
            self.dead,
            assigned_counts,
            self.assignments,
            self.engine.router,
            self.mode,
            &self.shed_by_class,
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
                .report
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
        };
        (report, obs)
    }
}

/// Observability state harvested from one replica just before its
/// simulation is consumed: its cache-probe log (empty unless the replica
/// tracked probes, i.e. the run was traced) and its event-queue counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplicaObs {
    pub(crate) replica: usize,
    pub(crate) probes: Vec<CacheProbe>,
    pub(crate) equeue: EventQueueStats,
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

/// One replica's finished results, in the run's metrics mode.
enum Harvest {
    /// Completed timelines, in injection order, and the accumulators.
    Exact(Vec<RequestTimeline>, SimAccumulators),
    /// A histogram sink holding the completed outcomes and the
    /// accumulators.
    Streaming(Box<HistogramSink>),
}

impl Harvest {
    /// An empty fleet-level harvest to merge replicas into.
    fn empty(mode: &MetricsMode, requests: usize) -> Self {
        match mode {
            MetricsMode::Exact => {
                Harvest::Exact(Vec::with_capacity(requests), SimAccumulators::default())
            }
            MetricsMode::Streaming(config) => {
                Harvest::Streaming(Box::new(HistogramSink::new(config)))
            }
        }
    }

    /// Harvests a simulation run to completion.
    fn drained(sim: ReplicaSim, mode: &MetricsMode) -> Self {
        match mode {
            MetricsMode::Exact => {
                let (timelines, acc) = sim.finish();
                Harvest::Exact(timelines, acc)
            }
            MetricsMode::Streaming(config) => {
                let mut sink = HistogramSink::new(config);
                sim.drain_outcomes(&mut sink);
                sink.acc = sim.into_accumulators();
                Harvest::Streaming(Box::new(sink))
            }
        }
    }

    /// Harvests the completed work of a replica that died mid-run.
    fn dismantled(
        timelines: Vec<RequestTimeline>,
        acc: SimAccumulators,
        mode: &MetricsMode,
    ) -> Self {
        match mode {
            MetricsMode::Exact => Harvest::Exact(timelines, acc),
            MetricsMode::Streaming(config) => {
                let mut sink = HistogramSink::new(config);
                for t in &timelines {
                    sink.record(&RequestOutcome {
                        id: t.id,
                        class: t.class,
                        arrival_s: t.arrival_s,
                        stage_starts_s: &t.stage_starts_s,
                        stage_ends_s: &t.stage_ends_s,
                        decode_join_s: t.decode_join_s,
                        first_token_s: t.first_token_s,
                        completion_s: t.completion_s,
                        queueing_s: t.queueing_s,
                        decode_tokens: t.decode_tokens,
                    });
                }
                sink.acc = acc;
                Harvest::Streaming(Box::new(sink))
            }
        }
    }

    /// Folds one replica's harvest into this fleet-level one and returns
    /// the replica's own report.
    fn absorb(&mut self, replica: Harvest) -> ServingReport {
        match (self, replica) {
            (Harvest::Exact(all, all_acc), Harvest::Exact(timelines, acc)) => {
                all.extend(timelines.iter().cloned());
                all_acc.merge_from(&acc);
                build_report(timelines, &acc)
            }
            (Harvest::Streaming(all), Harvest::Streaming(sink)) => {
                all.merge_from(&sink);
                sink.into_report()
            }
            _ => unreachable!("every replica harvests in the run's metrics mode"),
        }
    }

    /// The merged fleet report (timelines in arrival order), with admission
    /// sheds threaded into the merged and per-class rows — untouched when
    /// nothing was shed, preserving bit-identity with shed-free runs.
    fn into_merged_report(self, shed_by_class: &BTreeMap<u32, usize>) -> ServingReport {
        let (mut report, acc) = match self {
            Harvest::Exact(mut timelines, acc) => {
                timelines.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
                (build_report(timelines, &acc), acc)
            }
            Harvest::Streaming(sink) => {
                let acc = sink.acc.clone();
                (sink.into_report(), acc)
            }
        };
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
                // completions, its shed count, shared-resource fields
                // repeating the run-level values like every class row.
                let mut metrics = compute_metrics_for(&[], Some(class), &acc);
                metrics.shed = count;
                report.per_class.push(ClassMetrics { class, metrics });
            }
        }
        report.per_class.sort_by_key(|r| r.class);
        report
    }
}

/// Drains the live replicas to completion, merges them in slot order with
/// the harvests of replicas that died mid-run, and assembles the fleet
/// report — one definition for fixed, elastic, and faulted fleets in either
/// metrics mode. The drain is the expensive leg (each replica runs out its
/// remaining events with no routing interaction), so a multi-replica fleet
/// drains in parallel; the slot-order merge keeps the report identical to a
/// serial drain.
fn drain_and_merge(
    live: Vec<(usize, ReplicaSim)>,
    mut harvests: Vec<(usize, Harvest, ReplicaObs)>,
    assigned_counts: Vec<usize>,
    assignments: Vec<(u64, usize)>,
    router: RouterPolicy,
    mode: &MetricsMode,
    shed_by_class: &BTreeMap<u32, usize>,
) -> (FleetReport, Vec<ReplicaObs>) {
    let drain = |(replica, mut sim): (usize, ReplicaSim)| {
        sim.run_to_completion();
        let obs = ReplicaObs::take(replica, &mut sim);
        (replica, Harvest::drained(sim, mode), obs)
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

    let mut merged = Harvest::empty(mode, assignments.len());
    let mut per_replica = Vec::with_capacity(harvests.len());
    let mut obs = Vec::with_capacity(harvests.len());
    for (replica, harvest, ob) in harvests {
        per_replica.push(ReplicaReport {
            replica,
            assigned: assigned_counts[replica],
            report: merged.absorb(harvest),
        });
        obs.push(ob);
    }
    let report = FleetReport {
        merged: merged.into_merged_report(shed_by_class),
        per_replica,
        assignments,
        imbalance: LoadImbalance::from_counts(assigned_counts),
        router,
    };
    (report, obs)
}

/// Advances the live replica of every item to just before `t` — in
/// parallel when asked and there is more than one item. Replicas share no
/// state between clock points, so the parallel form leaves each one
/// bit-identical to the serial loop. Items without a live replica are
/// skipped.
pub(crate) fn advance_all<T, F>(items: &mut [T], sim_of: F, t: f64, parallel: bool)
where
    T: Send,
    F: for<'a> Fn(&'a mut T) -> Option<&'a mut ReplicaSim> + Sync,
{
    if parallel && items.len() > 1 {
        items
            .iter_mut()
            .par_bridge()
            .fold(
                || (),
                |(), item| {
                    if let Some(sim) = sim_of(item) {
                        sim.advance_before(t);
                    }
                },
            )
            .reduce(|| (), |(), ()| ());
    } else {
        for item in items.iter_mut() {
            if let Some(sim) = sim_of(item) {
                sim.advance_before(t);
            }
        }
    }
}

/// Post-hoc derivation over a finished fleet: per-replica spans, probes,
/// gauges, and profile counters, walked in replica-index order so the
/// event stream is deterministic on any worker count.
fn record_fleet_observability<R: Recorder>(
    rec: &mut R,
    report: &FleetReport,
    obs: &[ReplicaObs],
    gauge_cadence_s: f64,
) {
    let end_s = report.merged.metrics.makespan_s;
    for rr in &report.per_replica {
        let track = rr.replica as u32;
        crate::telemetry::record_request_spans(rec, track, &rr.report.timelines);
        crate::telemetry::record_load_gauges(
            rec,
            track,
            &rr.report.timelines,
            gauge_cadence_s,
            end_s,
        );
    }
    let mut profile = rago_telemetry::SimProfile::default();
    for (i, ob) in obs.iter().enumerate() {
        crate::telemetry::record_cache_probes(rec, ob.replica as u32, &ob.probes);
        let events = report
            .per_replica
            .get(i)
            .map_or(0, |rr| rr.report.metrics.events_processed);
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
    use rago_schema::{HistogramSpec, SloTarget};

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

    #[test]
    #[should_panic(expected = "Static driver with one replica per spec")]
    fn heterogeneous_fleets_reject_elastic_drivers() {
        let _ = FleetEngine::heterogeneous(
            vec![one_stage_spec(0.01), one_stage_spec(0.04)],
            RouterPolicy::RoundRobin,
            ScaleDriver::Reactive(AutoscalerPolicy::new(2, 4)),
        );
    }

    /// A crashed slot of a heterogeneous fleet restarts with its own
    /// pipeline: the replacement of the slow replica is just as slow.
    #[test]
    fn heterogeneous_restarts_keep_the_crashed_slots_pipeline() {
        let engine = FleetEngine::heterogeneous(
            vec![one_stage_spec(0.01), one_stage_spec(0.2)],
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 1,
            at_s: 0.05,
            restart_delay_s: 0.0,
        }]));
        let report = engine.run(requests(40, 0.5));
        assert_eq!(report.fault.completed, 40);
        let replacement = &report.fleet.per_replica[2].report;
        assert!(!replacement.timelines.is_empty());
        for t in &replacement.timelines {
            assert!((t.stage_ends_s[0] - t.stage_starts_s[0] - 0.2).abs() < 1e-12);
        }
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
        let exact = engine.run(requests(300, 0.01));
        let streamed = engine.run_with_mode(requests(300, 0.01), &streaming);
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
}
