//! Fault injection, SLO-aware admission control, and plan-driven scaling.
//!
//! A fleet that never fails is the easy case. Real fleets lose replicas
//! mid-peak — crashes, slow nodes, spot preemptions — and the serving
//! literature the roadmap tracks (DistServe's SLO-attained goodput,
//! Splitwise's provisioning headroom) presumes the fleet degrades
//! *proportionally* when that happens. This module holds the configuration
//! that makes that claim testable on [`crate::FleetEngine`], and the report
//! it comes back with:
//!
//! * **[`FaultSchedule`]** — a deterministic list of [`FaultEvent`]s
//!   (explicit or seeded): replica crashes (in-flight requests re-queued or
//!   failed per [`CrashPolicy`], restart after a configurable delay with
//!   **cold caches**), straggler onset/recovery (all stage and decode
//!   latencies scaled by a factor), and spot preemption with advance notice
//!   (the replica drains during the notice window, then dies).
//! * **[`AdmissionConfig`]** — fleet-level load shedding with per-class
//!   priorities: when the mean queue depth per routable replica exceeds a
//!   class's threshold, the arrival is shed instead of routed. Higher
//!   priority ⇒ higher threshold ⇒ shed later, so best-effort traffic
//!   absorbs the degradation. Shed counts are threaded into the merged
//!   [`crate::ServingMetrics::shed`] and the per-class rows.
//! * **[`ScaleDriver`]** — how capacity follows the trace: a fixed fleet, the
//!   reactive [`AutoscalerPolicy`], or a **predictive** [`ScalingPlan`]
//!   (e.g. derived from `plan_capacity_profile`'s rate-profile schedule in
//!   `rago-core`) that provisions capacity *before* the load arrives.
//! * **[`ChaosReport`]** — the ordinary fleet report plus a [`FaultReport`]
//!   (requests lost/shed/retried, disruption log) and recovery metrics:
//!   windowed attainment timelines, time-to-reattainment, and goodput-dip
//!   area per disruption.
//!
//! Fault events ride a dedicated lane of the event queue
//! (`crate::equeue`) that orders **before** same-instant arrivals and
//! scheduled completions, so a fault landing exactly at an arrival instant
//! is in force before that request is processed — the tie-break is pinned
//! by `tests/golden/fault_*.json`.
//!
//! An empty schedule and no admission control are the plain and elastic
//! fleets: the same loop with those lanes idle, pinned against the
//! pre-fault snapshots in `tests/golden_regression.rs`.
//!
//! # Examples
//!
//! Crash one replica of a three-replica fleet mid-trace and inspect the
//! recovery:
//!
//! ```
//! use rago_serving_sim::faults::{FaultEvent, FaultSchedule, ScaleDriver};
//! use rago_serving_sim::fleet::FleetEngine;
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_schema::{RouterPolicy, SloTarget};
//! use rago_schema::SequenceProfile;
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//!
//! let spec = PipelineSpec::new(
//!     vec![StageSpec::new("prefix", 0, 4, LatencyTable::constant(4, 0.02))],
//!     DecodeSpec::new(16, LatencyTable::constant(16, 2e-3)),
//! );
//! let trace = TraceSpec {
//!     num_requests: 120,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(16),
//!     arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
//!     length_jitter: 0.0,
//!     seed: 7,
//! }
//! .generate();
//! let faults = FaultSchedule::new(vec![FaultEvent::Crash {
//!     replica: 0,
//!     at_s: 1.0,
//!     restart_delay_s: 0.5,
//! }]);
//! let report = FleetEngine::new(spec, RouterPolicy::LeastOutstanding,
//!     ScaleDriver::Static { replicas: 3 })
//!     .with_faults(faults)
//!     .run_trace(&trace);
//! // Every injected request is accounted for exactly once.
//! assert_eq!(report.fault.injected, 120);
//! assert_eq!(
//!     report.fault.completed + report.fault.shed + report.fault.failed,
//!     120,
//! );
//! assert_eq!(report.fault.disruptions.len(), 1);
//! let slo = SloTarget::new(5.0, 1.0);
//! assert!(report.offered_attainment(&slo) > 0.0);
//! ```

use crate::autoscaler::{AutoscalerPolicy, ReplicaLifetime, ScalingEvent};
use crate::cluster::FleetReport;
use crate::pools::TransferStats;
use rago_schema::SloTarget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One injected fault. Replica indices refer to fleet slots in provisioning
/// order: the initial fleet is `0..initial`, and every later provisioning
/// (scale-out, plan step, restart) appends the next index. A fault whose
/// target slot does not exist — or is already dead — at the fault instant
/// is skipped (counted in [`FaultReport::faults_skipped`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The replica dies instantly at `at_s`: its caches and queued work are
    /// lost, in-flight requests are re-queued or failed per [`CrashPolicy`],
    /// and — unless `restart_delay_s` is infinite — a **cold** replacement
    /// replica is provisioned `restart_delay_s` later, taking the same
    /// warm-up path as a scale-out.
    Crash {
        /// Target fleet slot.
        replica: usize,
        /// Crash instant, in seconds.
        at_s: f64,
        /// Delay until the cold replacement is provisioned;
        /// `f64::INFINITY` means the replica never restarts.
        restart_delay_s: f64,
    },
    /// The replica degrades at `at_s`: every stage and decode latency is
    /// multiplied by `slowdown` until a matching [`FaultEvent::StragglerEnd`].
    StragglerStart {
        /// Target fleet slot.
        replica: usize,
        /// Onset instant, in seconds.
        at_s: f64,
        /// Latency multiplier (finite, `> 0`; `> 1` slows the replica down).
        slowdown: f64,
    },
    /// The replica recovers to full speed at `at_s`.
    StragglerEnd {
        /// Target fleet slot.
        replica: usize,
        /// Recovery instant, in seconds.
        at_s: f64,
    },
    /// Spot preemption with advance notice: at `at_s` the replica stops
    /// taking new traffic and drains; `notice_s` later it dies, and whatever
    /// is still in flight is re-queued or failed per [`CrashPolicy`]. A
    /// preempted replica never restarts.
    Preempt {
        /// Target fleet slot.
        replica: usize,
        /// Notice instant, in seconds.
        at_s: f64,
        /// Drain window between the notice and the kill, in seconds.
        notice_s: f64,
    },
}

impl FaultEvent {
    /// The fault's injection instant.
    pub fn at_s(&self) -> f64 {
        match *self {
            FaultEvent::Crash { at_s, .. }
            | FaultEvent::StragglerStart { at_s, .. }
            | FaultEvent::StragglerEnd { at_s, .. }
            | FaultEvent::Preempt { at_s, .. } => at_s,
        }
    }

    /// The targeted fleet slot.
    pub fn replica(&self) -> usize {
        match *self {
            FaultEvent::Crash { replica, .. }
            | FaultEvent::StragglerStart { replica, .. }
            | FaultEvent::StragglerEnd { replica, .. }
            | FaultEvent::Preempt { replica, .. } => replica,
        }
    }

    fn assert_valid(&self) {
        let at = self.at_s();
        assert!(
            at.is_finite() && at >= 0.0,
            "fault times must be finite and non-negative"
        );
        match *self {
            FaultEvent::Crash {
                restart_delay_s, ..
            } => assert!(
                restart_delay_s >= 0.0 && !restart_delay_s.is_nan(),
                "restart delays must be non-negative (infinity = never)"
            ),
            FaultEvent::StragglerStart { slowdown, .. } => assert!(
                slowdown.is_finite() && slowdown > 0.0,
                "straggler slowdown factors must be finite and positive"
            ),
            FaultEvent::StragglerEnd { .. } => {}
            FaultEvent::Preempt { notice_s, .. } => assert!(
                notice_s.is_finite() && notice_s >= 0.0,
                "preemption notice must be finite and non-negative"
            ),
        }
    }
}

/// A deterministic fault injection schedule: an explicit event list or a
/// seeded crash process. Events are stably sorted by time, so same-instant
/// events keep their list order — the replay is exactly reproducible and
/// golden-pinnable.
///
/// # Examples
///
/// ```
/// use rago_serving_sim::faults::{FaultEvent, FaultSchedule};
///
/// // Explicit: replica 1 straggles at 4x between t=2 and t=5.
/// let schedule = FaultSchedule::new(vec![
///     FaultEvent::StragglerEnd { replica: 1, at_s: 5.0 },
///     FaultEvent::StragglerStart { replica: 1, at_s: 2.0, slowdown: 4.0 },
/// ]);
/// assert_eq!(schedule.len(), 2);
/// assert_eq!(schedule.events()[0].at_s(), 2.0); // sorted by time
///
/// // Seeded: exponential crash inter-arrivals, reproducible per seed.
/// let a = FaultSchedule::seeded(13, 4, 20.0, 60.0, 5.0);
/// let b = FaultSchedule::seeded(13, 4, 20.0, 60.0, 5.0);
/// assert_eq!(a, b);
/// assert!(!a.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// A schedule of the given events, stably sorted by fault time.
    ///
    /// # Panics
    ///
    /// Panics if any event is malformed (negative or non-finite time,
    /// non-positive slowdown, negative notice or restart delay).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        for e in &events {
            e.assert_valid();
        }
        events.sort_by(|a, b| a.at_s().total_cmp(&b.at_s()));
        Self { events }
    }

    /// The empty schedule: no faults are ever injected, and the run is
    /// bit-identical to the fault-free engines.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A seeded crash process over `replicas` fleet slots: crash
    /// inter-arrival times are exponential with mean `mtbf_s` (mean time
    /// between failures), targets are uniform over the slots, and every
    /// crash restarts after `restart_delay_s`. Generation stops at
    /// `horizon_s`. Identical seeds produce identical schedules.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or `mtbf_s`/`horizon_s` are not
    /// positive and finite.
    pub fn seeded(
        seed: u64,
        replicas: usize,
        mtbf_s: f64,
        horizon_s: f64,
        restart_delay_s: f64,
    ) -> Self {
        assert!(replicas > 0, "a seeded schedule needs at least one replica");
        assert!(
            mtbf_s.is_finite() && mtbf_s > 0.0,
            "the mean time between failures must be positive and finite"
        );
        assert!(
            horizon_s.is_finite() && horizon_s > 0.0,
            "the schedule horizon must be positive and finite"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_5EED);
        let mut events = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen();
            t += -mtbf_s * (1.0 - u).ln();
            if t > horizon_s {
                break;
            }
            let replica = rng.gen_range(0..replicas);
            events.push(FaultEvent::Crash {
                replica,
                at_s: t,
                restart_delay_s,
            });
        }
        Self::new(events)
    }

    /// The events, ascending by fault time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What happens to a dying replica's in-flight requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CrashPolicy {
    /// Re-queue them into the surviving fleet at the crash instant (their
    /// original arrival times are kept, so TTFT includes the lost time).
    /// Re-queued requests bypass admission control — they were admitted
    /// once. If no replica is routable they wait for the next one.
    #[default]
    Requeue,
    /// Fail them outright; they count in [`FaultReport::failed`].
    Fail,
}

/// Fleet-level, priority-aware admission control. At each arrival the
/// engine measures the mean queue depth per routable replica; the arrival
/// is **shed** when that depth exceeds its class's threshold
///
/// ```text
/// threshold(class) = shed_queue_depth + depth_per_priority × priority(class)
/// ```
///
/// so a higher-priority class tolerates a deeper backlog before shedding —
/// the shed decision is monotone in priority by construction
/// (`tests/proptest_faults.rs` holds this under arbitrary load).
///
/// # Examples
///
/// ```
/// use rago_serving_sim::faults::AdmissionConfig;
///
/// // Shed best-effort traffic above 2 queued per replica; each priority
/// // level buys 4 more.
/// let admission = AdmissionConfig::new(2.0, 4.0)
///     .with_class_priority(1, 2); // class 1 is high priority
/// assert_eq!(admission.priority_of(0), 0);
/// assert_eq!(admission.priority_of(1), 2);
/// assert_eq!(admission.threshold_for(0), 2.0);
/// assert_eq!(admission.threshold_for(2), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Mean queued requests per routable replica above which priority-0
    /// (best-effort) traffic is shed.
    pub shed_queue_depth: f64,
    /// Additional queue depth each priority level tolerates before
    /// shedding.
    pub depth_per_priority: f64,
    /// Priority per workload class, indexed by class id; classes beyond the
    /// table are priority 0. Matches
    /// `rago_workloads::RequestClass::priority` when built from a mix.
    pub class_priorities: Vec<u32>,
}

impl AdmissionConfig {
    /// An admission policy with the given base threshold and per-priority
    /// headroom; every class starts at priority 0.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is negative or non-finite.
    pub fn new(shed_queue_depth: f64, depth_per_priority: f64) -> Self {
        let config = Self {
            shed_queue_depth,
            depth_per_priority,
            class_priorities: Vec::new(),
        };
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        config
    }

    /// Checks that both thresholds are non-negative and finite (a struct
    /// literal skips [`Self::new`]'s check), naming the first that is not.
    pub fn validate(&self) -> Result<(), String> {
        for (name, depth) in [
            ("shed queue depth", self.shed_queue_depth),
            ("per-priority depth", self.depth_per_priority),
        ] {
            if !(depth.is_finite() && depth >= 0.0) {
                return Err(format!("the {name} must be non-negative and finite"));
            }
        }
        Ok(())
    }

    /// Sets one class's priority (growing the table as needed).
    #[must_use]
    pub fn with_class_priority(mut self, class: u32, priority: u32) -> Self {
        let idx = class as usize;
        if self.class_priorities.len() <= idx {
            self.class_priorities.resize(idx + 1, 0);
        }
        self.class_priorities[idx] = priority;
        self
    }

    /// The priority of `class` (0 for classes beyond the table).
    pub fn priority_of(&self, class: u32) -> u32 {
        self.class_priorities
            .get(class as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The mean-queue-depth threshold above which priority `priority`
    /// traffic is shed.
    pub fn threshold_for(&self, priority: u32) -> f64 {
        self.shed_queue_depth + self.depth_per_priority * f64::from(priority)
    }
}

/// One shed arrival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedEvent {
    /// When the arrival was shed, in seconds.
    pub time_s: f64,
    /// The request id.
    pub id: u64,
    /// The request's workload class.
    pub class: u32,
    /// The class's priority at the time.
    pub priority: u32,
    /// The observed mean queue depth per routable replica.
    pub mean_queue_depth: f64,
}

/// One step of a [`ScalingPlan`]: from `at_s` on, the fleet targets
/// `replicas` provisioned replicas.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanStep {
    /// When the step takes effect, in seconds.
    pub at_s: f64,
    /// The provisioned-replica target from then on (at least 1).
    pub replicas: u32,
}

/// A feed-forward capacity schedule: the fleet starts at `initial` replicas
/// and re-targets at each step, provisioning *ahead* of predicted load
/// instead of reacting to queue build-up. `rago-core` derives one from
/// `plan_capacity_profile`'s per-window replica counts.
///
/// # Examples
///
/// ```
/// use rago_serving_sim::faults::{PlanStep, ScalingPlan};
///
/// let plan = ScalingPlan::new(1, vec![
///     PlanStep { at_s: 4.0, replicas: 3 },
///     PlanStep { at_s: 10.0, replicas: 1 },
/// ]);
/// assert_eq!(plan.target_at(0.0), 1);
/// assert_eq!(plan.target_at(4.0), 3);
/// assert_eq!(plan.target_at(11.0), 1);
/// // A flat plan is a static fleet.
/// assert_eq!(ScalingPlan::flat(2).target_at(123.0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingPlan {
    /// Replicas provisioned at the start of the run (at least 1).
    pub initial: u32,
    /// Re-target steps, strictly increasing in time.
    pub steps: Vec<PlanStep>,
}

impl ScalingPlan {
    /// A plan with the given initial size and steps.
    ///
    /// # Panics
    ///
    /// Panics if `initial` or any step target is zero, any step time is
    /// negative or non-finite, or step times are not strictly increasing.
    pub fn new(initial: u32, steps: Vec<PlanStep>) -> Self {
        let plan = Self { initial, steps };
        if let Err(e) = plan.validate() {
            panic!("{e}");
        }
        plan
    }

    fn validate(&self) -> Result<(), String> {
        if self.initial < 1 {
            return Err("a plan must start with at least one replica".into());
        }
        for step in &self.steps {
            if !(step.at_s.is_finite() && step.at_s >= 0.0) {
                return Err("plan step times must be finite and non-negative".into());
            }
            if step.replicas < 1 {
                return Err("plan targets must be at least 1".into());
            }
        }
        if !self.steps.windows(2).all(|w| w[0].at_s < w[1].at_s) {
            return Err("plan step times must be strictly increasing".into());
        }
        Ok(())
    }

    /// A constant plan: `replicas` for the whole run. A predictive driver
    /// with a flat plan is bit-identical to a static fleet of the same
    /// size (`tests/proptest_faults.rs`).
    pub fn flat(replicas: u32) -> Self {
        Self::new(replicas, Vec::new())
    }

    /// The provisioned-replica target in force at time `t`.
    pub fn target_at(&self, t: f64) -> u32 {
        let mut target = self.initial;
        for step in &self.steps {
            if step.at_s <= t {
                target = step.replicas;
            } else {
                break;
            }
        }
        target
    }
}

/// The predictive autoscaler: a [`ScalingPlan`] plus the warm-up delay each
/// newly provisioned replica pays before taking traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictivePolicy {
    /// The capacity schedule to feed forward.
    pub plan: ScalingPlan,
    /// Seconds a newly provisioned replica warms up before it is routable.
    pub warmup_s: f64,
}

impl PredictivePolicy {
    /// A predictive policy over `plan` with the given warm-up.
    ///
    /// # Panics
    ///
    /// Panics if the warm-up is negative or non-finite.
    pub fn new(plan: ScalingPlan, warmup_s: f64) -> Self {
        let policy = Self { plan, warmup_s };
        if let Err(e) = policy.validate() {
            panic!("{e}");
        }
        policy
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.warmup_s.is_finite() && self.warmup_s >= 0.0) {
            return Err("the warm-up delay must be non-negative and finite".into());
        }
        self.plan.validate()
    }
}

/// How [`crate::FleetEngine`] sizes the fleet while the trace plays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScaleDriver {
    /// A fixed fleet (no ticks, no scaling; restarts are immediate since a
    /// static fleet has no warm-up concept).
    Static {
        /// Fleet size (at least 1).
        replicas: u32,
    },
    /// The reactive [`AutoscalerPolicy`], evaluated at its interval up to
    /// the last arrival.
    Reactive(AutoscalerPolicy),
    /// A feed-forward [`ScalingPlan`]: capacity changes at the plan's step
    /// times regardless of observed load.
    Predictive(PredictivePolicy),
}

impl ScaleDriver {
    /// Checks that the driver can size a fleet: a static fleet needs at
    /// least one replica, a reactive policy must pass
    /// [`AutoscalerPolicy::validate`], and a predictive policy must hold
    /// what [`PredictivePolicy::new`] and [`ScalingPlan::new`] assert. The
    /// drivers' fields are public and deserializable, so a driver read from
    /// a configuration file is checked here rather than at construction.
    ///
    /// # Errors
    ///
    /// Returns a description of the first rule the driver breaks.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ScaleDriver::Static { replicas: 0 } => {
                Err("a static fleet needs at least one replica".into())
            }
            ScaleDriver::Static { .. } => Ok(()),
            ScaleDriver::Reactive(policy) => policy.validate(),
            ScaleDriver::Predictive(policy) => policy.validate(),
        }
    }

    pub(crate) fn initial_replicas(&self) -> u32 {
        match self {
            ScaleDriver::Static { replicas } => *replicas,
            ScaleDriver::Reactive(policy) => policy.min_replicas,
            ScaleDriver::Predictive(p) => p.plan.initial,
        }
    }

    /// The warm-up a provisioned replica pays — scale-out and restart take
    /// the same path.
    pub(crate) fn warmup_s(&self) -> f64 {
        match self {
            ScaleDriver::Static { .. } => 0.0,
            ScaleDriver::Reactive(policy) => policy.warmup_s,
            ScaleDriver::Predictive(p) => p.warmup_s,
        }
    }
}

/// The kind of one capacity disruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A crash (instant death).
    Crash,
    /// A spot preemption (death after the notice window).
    Preemption,
}

/// One capacity loss, as recorded for recovery analysis. Preemptions are
/// logged at the *notice* instant — capacity stops there even though the
/// replica drains on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Disruption {
    /// When the fleet lost the capacity, in seconds.
    pub time_s: f64,
    /// The fleet slot that died.
    pub replica: usize,
    /// Crash or preemption.
    pub kind: FaultKind,
}

/// One class's shed count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassShed {
    /// The workload class.
    pub class: u32,
    /// Arrivals of this class shed by admission control.
    pub shed: usize,
}

/// Fault-path accounting of one chaos run. Request conservation holds
/// exactly: `injected == completed + shed + failed`
/// (`tests/proptest_faults.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Requests offered to the fleet.
    pub injected: usize,
    /// Requests that finished generation.
    pub completed: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests lost to crashes/preemptions under [`CrashPolicy::Fail`],
    /// plus requests still waiting for a routable replica when the run
    /// ended.
    pub failed: usize,
    /// Re-queue occurrences: each time an in-flight request was recovered
    /// from a dying replica and re-queued (a request crashed twice counts
    /// twice).
    pub retried: usize,
    /// Fault events that found their target alive and were applied.
    pub faults_applied: usize,
    /// Fault events whose target slot did not exist or was already dead.
    pub faults_skipped: usize,
    /// Shed counts per class, ascending by class id.
    pub shed_by_class: Vec<ClassShed>,
    /// Every shed arrival, in time order.
    pub shed_log: Vec<ShedEvent>,
    /// Every capacity loss, in time order.
    pub disruptions: Vec<Disruption>,
}

/// One window of the attainment timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttainmentWindow {
    /// Window start, in seconds.
    pub start_s: f64,
    /// Window end, in seconds.
    pub end_s: f64,
    /// Requests completing inside the window.
    pub completed: usize,
    /// Of those, requests meeting the SLO.
    pub met: usize,
    /// `met / completed`; **zero** for an empty window — a fleet completing
    /// nothing is attaining nothing, which is exactly the dip the recovery
    /// metrics integrate.
    pub attainment: f64,
}

/// Per-disruption recovery metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryMetrics {
    /// The disruption instant, in seconds.
    pub fault_s: f64,
    /// The fleet slot that died.
    pub replica: usize,
    /// Crash or preemption.
    pub kind: FaultKind,
    /// Seconds from the disruption until the start of the first window at
    /// or above the SLO's attainment target *after the dip*: the scan
    /// starts at the disruption, waits for the first window that falls
    /// below target (queued work often keeps the fleet healthy for a few
    /// windows after a crash), and then measures to the first recovered
    /// window. `Some(0.0)` when attainment never dipped at all; `None`
    /// when it dipped and never recovered within the run.
    pub reattainment_s: Option<f64>,
    /// Integral of the attainment shortfall (target minus windowed
    /// attainment, clamped at zero) from the disruption to reattainment —
    /// or to the end of the run if attainment never recovered. Seconds of
    /// full outage contribute `target × window` each; zero when attainment
    /// never dipped.
    pub dip_area: f64,
}

/// The result of one [`crate::FleetEngine`] run: the fleet report and
/// scaling history, plus fault accounting, recovery analysis, and — for a
/// prefill/decode split — the KV-transfer statistics. A split fleet's
/// [`crate::pools::DisaggReport`] is a view of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// The merged fleet report, with one row per fleet slot ever
    /// provisioned (dead slots report what they completed before dying).
    /// [`crate::ServingMetrics::shed`] carries the admission-control counts
    /// in the merged and per-class rows.
    pub fleet: FleetReport,
    /// Every *policy* scaling decision, in time order (restarts appear in
    /// [`Self::lifetimes`], not here).
    pub events: Vec<ScalingEvent>,
    /// Per-slot provisioning windows, by slot index. A crashed slot retires
    /// at its death; its cold replacement is a new slot.
    pub lifetimes: Vec<ReplicaLifetime>,
    /// Largest number of provisioned replicas at any instant.
    pub peak_provisioned: u32,
    /// Smallest number of provisioned replicas at any instant (crashes
    /// count: a fleet reduced to zero reads zero here).
    pub min_provisioned: u32,
    /// Integral of provisioned replicas over time, in replica-seconds —
    /// dead time between a crash and its restart is *not* paid.
    pub replica_seconds: f64,
    /// Fault accounting.
    pub fault: FaultReport,
    /// The KV handoffs of a prefill/decode split fleet (all zero for a
    /// flat fleet).
    pub transfers: TransferStats,
}

impl ChaosReport {
    /// Mean provisioned replicas over the run (`replica_seconds` divided
    /// by the makespan; zero for an empty run).
    pub fn mean_provisioned(&self) -> f64 {
        let makespan = self.fleet.merged.metrics.makespan_s;
        if makespan <= 0.0 {
            return 0.0;
        }
        self.replica_seconds / makespan
    }

    /// Attainment against everything *offered*: requests meeting `slo`
    /// divided by all injected requests, so shed and failed requests count
    /// against the fleet (1.0 when nothing was injected). The plain
    /// [`FleetReport::attainment`] scores completions only. Met requests
    /// are counted like [`crate::ServingReport::attainment`] counts them,
    /// so exact and streaming runs agree.
    ///
    /// # Panics
    ///
    /// For a streaming report, panics unless `slo` is the SLO that was
    /// configured in the run's [`crate::StreamingConfig`].
    pub fn offered_attainment(&self, slo: &SloTarget) -> f64 {
        if self.fault.injected == 0 {
            return 1.0;
        }
        self.fleet.merged.met_count(slo) as f64 / self.fault.injected as f64
    }

    /// The windowed attainment timeline: completions bucketed by completion
    /// time into `window_s`-wide windows from `t = 0` to the run's
    /// makespan. Empty windows read zero attainment (see
    /// [`AttainmentWindow::attainment`]). Returns an empty vector for an
    /// empty run, a non-positive window, or a streaming report (which
    /// retains no timelines to bucket).
    pub fn attainment_timeline(&self, slo: &SloTarget, window_s: f64) -> Vec<AttainmentWindow> {
        if !window_s.is_finite() || window_s <= 0.0 || self.fleet.merged.timelines.is_empty() {
            return Vec::new();
        }
        let makespan = self.fleet.merged.metrics.makespan_s;
        let n = (makespan / window_s).floor() as usize + 1;
        let mut windows: Vec<AttainmentWindow> = (0..n)
            .map(|k| AttainmentWindow {
                start_s: k as f64 * window_s,
                end_s: (k + 1) as f64 * window_s,
                completed: 0,
                met: 0,
                attainment: 0.0,
            })
            .collect();
        for t in &self.fleet.merged.timelines {
            let k = ((t.completion_s / window_s).floor() as usize).min(n - 1);
            windows[k].completed += 1;
            if slo.meets(t.ttft_s(), t.tpot_s()) {
                windows[k].met += 1;
            }
        }
        for w in &mut windows {
            if w.completed > 0 {
                w.attainment = w.met as f64 / w.completed as f64;
            }
        }
        windows
    }

    /// Recovery metrics per disruption: time-to-reattainment and the
    /// goodput-dip area, measured on the `window_s`-wide attainment
    /// timeline against `slo` (whose `attainment` field is the recovery
    /// target).
    ///
    /// The dip is detected, not assumed: in-flight and queued work often
    /// keeps windowed attainment at target for a while after a crash, so
    /// the scan runs from the disruption to the *first window below
    /// target*, and measures reattainment from the disruption to the first
    /// at-target window after that. A disruption the fleet absorbs without
    /// ever dipping reports `reattainment_s = Some(0.0)` and a zero dip.
    ///
    /// Returns an empty vector for a streaming report: without retained
    /// timelines there is no windowed attainment to measure a dip on.
    pub fn recovery(&self, slo: &SloTarget, window_s: f64) -> Vec<RecoveryMetrics> {
        if self.fleet.merged.streamed.is_some() {
            return Vec::new();
        }
        let timeline = self.attainment_timeline(slo, window_s);
        self.fault
            .disruptions
            .iter()
            .map(|d| {
                let mut dip = 0.0;
                let mut dipped = false;
                let mut reattainment = None;
                for w in timeline.iter().filter(|w| w.start_s >= d.time_s) {
                    let at_target = w.completed > 0 && w.attainment >= slo.attainment;
                    if !dipped {
                        if at_target {
                            continue;
                        }
                        dipped = true;
                    } else if at_target {
                        reattainment = Some(w.start_s - d.time_s);
                        break;
                    }
                    dip += (slo.attainment - w.attainment).max(0.0) * window_s;
                }
                if !dipped {
                    reattainment = Some(0.0);
                }
                RecoveryMetrics {
                    fault_s: d.time_s,
                    replica: d.replica,
                    kind: d.kind,
                    reattainment_s: reattainment,
                    dip_area: dip,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::ScalingAction;
    use crate::cluster::tests::replica_requests;
    use crate::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
    use crate::fleet::FleetEngine;
    use crate::sink::{MetricsMode, StreamingConfig};
    use rago_schema::{HistogramSpec, RouterPolicy, SequenceProfile};
    use rago_telemetry::NullRecorder;
    use rago_workloads::{ArrivalProcess, Trace, TraceSpec};

    fn one_stage_spec(stage_latency: f64, batch: u32) -> PipelineSpec {
        PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                batch,
                LatencyTable::constant(batch, stage_latency),
            )],
            DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)),
        )
    }

    fn poisson_trace(n: usize, rate: f64, seed: u64) -> Trace {
        TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            length_jitter: 0.0,
            seed,
        }
        .generate()
    }

    fn spike_trace(n: usize) -> Trace {
        TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Spike {
                base_rps: 2.0,
                spike_rps: 80.0,
                start_s: 3.0,
                duration_s: 3.0,
            },
            length_jitter: 0.0,
            seed: 5,
        }
        .generate()
    }

    fn req(id: u64, arrival: f64, class: u32, tokens: u32) -> EngineRequest {
        EngineRequest {
            id,
            arrival_s: arrival,
            prefix_tokens: 0,
            decode_tokens: tokens,
            class,
            identity: None,
        }
    }

    /// A predictive driver with a flat plan is a static fleet, bit-exact.
    #[test]
    fn predictive_flat_plan_matches_static_exactly() {
        let spec = one_stage_spec(0.03, 2);
        let trace = poisson_trace(140, 50.0, 23);
        let baseline = FleetEngine::new(
            spec.clone(),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .run_trace(&trace);
        let predictive = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Predictive(PredictivePolicy::new(ScalingPlan::flat(2), 0.5)),
        )
        .run_trace(&trace);
        assert_eq!(predictive.fleet, baseline.fleet);
        assert_eq!(predictive.replica_seconds, baseline.replica_seconds);
        assert!(predictive.events.is_empty());
    }

    #[test]
    fn crash_requeues_in_flight_and_restarts_cold() {
        let spec = one_stage_spec(0.05, 2);
        let trace = poisson_trace(120, 40.0, 7);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 1.0,
            restart_delay_s: 0.5,
        }]);
        let report = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        // Conservation: everything completes (requeue policy, surviving
        // replica plus restart).
        assert_eq!(report.fault.injected, 120);
        assert_eq!(report.fault.completed, 120);
        assert_eq!(report.fault.failed, 0);
        assert!(report.fault.retried > 0, "the crash held no in-flight work");
        assert_eq!(report.fault.faults_applied, 1);
        assert_eq!(report.fault.disruptions.len(), 1);
        // The replacement slot exists, provisioned at crash + delay, cold.
        assert_eq!(report.lifetimes.len(), 3);
        let dead = &report.lifetimes[0];
        assert_eq!(dead.retired_s, 1.0);
        assert_eq!(dead.decommissioned_s, Some(1.0));
        let replacement = &report.lifetimes[2];
        assert!((replacement.provisioned_s - 1.5).abs() < 1e-12);
        // Static driver: restart is immediately routable (no warm-up).
        assert_eq!(replacement.routable_s, replacement.provisioned_s);
        // Chips: the dead replica is paid only until the crash.
        assert!(report.replica_seconds < 3.0 * report.fleet.merged.metrics.makespan_s);
        // Requests re-queued kept their original arrival: TTFT of retried
        // requests spans the crash.
        assert!(report.fleet.merged.metrics.ttft.max_s >= 0.0);
    }

    #[test]
    fn crash_fail_policy_fails_in_flight() {
        let spec = one_stage_spec(0.05, 2);
        let trace = poisson_trace(120, 40.0, 7);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 1.0,
            restart_delay_s: f64::INFINITY,
        }]);
        let report = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .with_crash_policy(CrashPolicy::Fail)
        .run_trace(&trace);
        assert!(report.fault.failed > 0, "the crash held no in-flight work");
        assert_eq!(report.fault.retried, 0);
        assert_eq!(
            report.fault.completed + report.fault.failed,
            report.fault.injected
        );
        // No restart: only the two initial slots exist.
        assert_eq!(report.lifetimes.len(), 2);
    }

    #[test]
    fn straggler_slows_completions_then_recovers() {
        let spec = one_stage_spec(0.02, 4);
        let trace = poisson_trace(200, 50.0, 3);
        let healthy = FleetEngine::new(
            spec.clone(),
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .run_trace(&trace);
        let faults = FaultSchedule::new(vec![
            FaultEvent::StragglerStart {
                replica: 0,
                at_s: 0.5,
                slowdown: 8.0,
            },
            FaultEvent::StragglerEnd {
                replica: 0,
                at_s: 2.5,
            },
        ]);
        let degraded = FleetEngine::new(
            spec,
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert_eq!(degraded.fault.faults_applied, 2);
        assert_eq!(degraded.fault.completed, 200);
        // The straggler window shows up as worse tail latency.
        assert!(
            degraded.fleet.merged.metrics.latency.p99_s
                > healthy.fleet.merged.metrics.latency.p99_s
        );
        // Recovery: the run still ends, and the post-recovery completions
        // are as fast as the healthy run's steady state.
        assert!(
            degraded.fleet.merged.metrics.makespan_s >= healthy.fleet.merged.metrics.makespan_s
        );
    }

    #[test]
    fn admission_sheds_low_priority_first() {
        let spec = one_stage_spec(0.2, 1); // slow: queues build fast
                                           // Two classes, same arrivals: class 1 is high priority.
        let mut requests = Vec::new();
        for i in 0..40u64 {
            let t = i as f64 * 0.01;
            requests.push(req(2 * i, t, 0, 8));
            requests.push(req(2 * i + 1, t, 1, 8));
        }
        let admission = AdmissionConfig::new(1.0, 100.0).with_class_priority(1, 1);
        let report = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_admission(admission)
        .run(requests, &MetricsMode::Exact, &mut NullRecorder);
        assert!(report.fault.shed > 0, "overload never shed");
        // Only the best-effort class was shed (class 1's threshold is far
        // higher).
        for s in &report.fault.shed_log {
            assert_eq!(s.class, 0, "high-priority request {} was shed", s.id);
        }
        // Shed counts are threaded into the metrics.
        assert_eq!(report.fleet.merged.metrics.shed, report.fault.shed);
        let class0 = report
            .fleet
            .merged
            .per_class
            .iter()
            .find(|r| r.class == 0)
            .expect("class 0 row");
        assert_eq!(class0.metrics.shed, report.fault.shed);
        let class1 = report
            .fleet
            .merged
            .per_class
            .iter()
            .find(|r| r.class == 1)
            .expect("class 1 row");
        assert_eq!(class1.metrics.shed, 0);
        // Conservation.
        assert_eq!(
            report.fault.completed + report.fault.shed + report.fault.failed,
            report.fault.injected
        );
    }

    /// The warm-up regression the restart path exposed: a replica
    /// provisioned by a *restart* must take the same warm-up path as a
    /// scale-out — crash one replica right after a scale-out event and
    /// check both replacements pay the identical warm-up window.
    #[test]
    fn restart_takes_the_same_warmup_path_as_scale_out() {
        let spec = one_stage_spec(0.05, 1);
        let trace = spike_trace(200);
        let policy = AutoscalerPolicy::new(2, 6)
            .with_evaluation_interval(0.25)
            .with_scale_out_queue_depth(1.0)
            .with_warmup(0.75);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 3.6, // right after the spike's first scale-out ticks
            restart_delay_s: 0.25,
        }]);
        let report = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Reactive(policy),
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert!(
            report
                .events
                .iter()
                .any(|e| e.action == ScalingAction::ScaleOut && e.time_s < 3.6),
            "the spike never scaled out before the crash"
        );
        // Every non-initial slot — scale-outs AND the restart replacement —
        // pays exactly the policy warm-up.
        let late: Vec<_> = report
            .lifetimes
            .iter()
            .filter(|l| l.provisioned_s > 0.0)
            .collect();
        assert!(late.len() >= 2, "need both a scale-out and a restart");
        let requests = replica_requests(&report.fleet);
        for l in late {
            assert!(
                (l.routable_s - l.provisioned_s - 0.75).abs() < 1e-12,
                "slot {} warm-up window is {} not 0.75",
                l.replica,
                l.routable_s - l.provisioned_s
            );
            // And no request reached it before it became routable.
            assert!(requests[l.replica].iter().all(|t| t.arrival_s >= 0.0));
        }
        assert_eq!(report.fault.completed, 200);
    }

    #[test]
    fn preemption_drains_during_the_notice_window() {
        let spec = one_stage_spec(0.05, 2);
        let trace = poisson_trace(120, 40.0, 9);
        let faults = FaultSchedule::new(vec![FaultEvent::Preempt {
            replica: 0,
            at_s: 1.0,
            notice_s: 0.5,
        }]);
        let report = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert_eq!(report.fault.disruptions.len(), 1);
        assert_eq!(report.fault.disruptions[0].kind, FaultKind::Preemption);
        assert_eq!(report.fault.disruptions[0].time_s, 1.0);
        // The preempted slot stopped taking traffic at the notice and died
        // at the deadline.
        let preempted = &report.lifetimes[0];
        assert_eq!(preempted.decommissioned_s, Some(1.0));
        assert_eq!(preempted.retired_s, 1.5);
        // No request was routed to it after the notice.
        assert!(replica_requests(&report.fleet)[0]
            .iter()
            .all(|t| t.arrival_s <= 1.0 + 1e-12));
        assert_eq!(
            report.fault.completed + report.fault.failed,
            report.fault.injected
        );
    }

    #[test]
    fn predictive_plan_steps_resize_the_fleet() {
        let spec = one_stage_spec(0.04, 2);
        let trace = poisson_trace(200, 40.0, 13);
        let plan = ScalingPlan::new(
            1,
            vec![
                PlanStep {
                    at_s: 1.0,
                    replicas: 3,
                },
                PlanStep {
                    at_s: 3.0,
                    replicas: 1,
                },
            ],
        );
        let report = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Predictive(PredictivePolicy::new(plan, 0.25)),
        )
        .run_trace(&trace);
        assert_eq!(report.peak_provisioned, 3);
        let outs = report
            .events
            .iter()
            .filter(|e| e.action == ScalingAction::ScaleOut)
            .count();
        let ins = report
            .events
            .iter()
            .filter(|e| e.action == ScalingAction::ScaleIn)
            .count();
        assert_eq!(outs, 2, "step to 3 provisions two replicas");
        assert_eq!(ins, 2, "step back to 1 decommissions two");
        assert!(report
            .events
            .iter()
            .all(|e| e.time_s == 1.0 || e.time_s == 3.0));
        assert_eq!(report.fault.completed, 200);
    }

    #[test]
    fn recovery_metrics_see_the_dip_and_the_reattainment() {
        let spec = one_stage_spec(0.03, 4);
        let trace = poisson_trace(400, 50.0, 17);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 2.0,
            restart_delay_s: 1.0,
        }]);
        let report = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        let slo = SloTarget::new(0.5, 0.02).with_attainment(0.9);
        let recovery = report.recovery(&slo, 0.5);
        assert_eq!(recovery.len(), 1);
        let r = &recovery[0];
        assert_eq!(r.fault_s, 2.0);
        assert_eq!(r.kind, FaultKind::Crash);
        assert!(r.dip_area >= 0.0);
        // The timeline covers the run and windows sum to the completions.
        let timeline = report.attainment_timeline(&slo, 0.5);
        assert!(!timeline.is_empty());
        let total: usize = timeline.iter().map(|w| w.completed).sum();
        assert_eq!(total, report.fault.completed);
        for w in &timeline {
            assert!(w.met <= w.completed);
            assert!((0.0..=1.0).contains(&w.attainment));
        }
    }

    #[test]
    fn crash_at_time_zero_with_restart_still_serves() {
        let spec = one_stage_spec(0.03, 2);
        let trace = poisson_trace(60, 20.0, 19);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 0.0,
            restart_delay_s: 0.5,
        }]);
        let report = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        // Arrivals before the restart wait (pending) and are flushed once
        // the replacement is routable; everything completes.
        assert_eq!(report.fault.completed, 60);
        assert_eq!(report.fault.failed, 0);
        assert_eq!(report.min_provisioned, 0);
        // The pre-restart arrivals were served no earlier than the restart.
        assert!(replica_requests(&report.fleet)[1]
            .iter()
            .all(|t| t.first_token_s >= 0.5));
    }

    #[test]
    fn crash_without_restart_fails_unroutable_pending() {
        let spec = one_stage_spec(0.03, 2);
        let trace = poisson_trace(60, 20.0, 19);
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 0.0,
            restart_delay_s: f64::INFINITY,
        }]);
        let report = FleetEngine::new(
            spec,
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert_eq!(report.fault.completed, 0);
        assert_eq!(report.fault.failed, 60);
        assert_eq!(report.fault.injected, 60);
    }

    #[test]
    fn faults_on_missing_replicas_are_skipped() {
        let spec = one_stage_spec(0.03, 2);
        let trace = poisson_trace(40, 20.0, 21);
        let faults = FaultSchedule::new(vec![
            FaultEvent::Crash {
                replica: 7, // never exists
                at_s: 0.5,
                restart_delay_s: 0.1,
            },
            FaultEvent::StragglerStart {
                replica: 9,
                at_s: 0.6,
                slowdown: 2.0,
            },
        ]);
        let baseline = FleetEngine::new(
            spec.clone(),
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .run_trace(&trace);
        let report = FleetEngine::new(
            spec,
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(faults)
        .run_trace(&trace);
        assert_eq!(report.fault.faults_skipped, 2);
        assert_eq!(report.fault.faults_applied, 0);
        // Skipped faults leave the run bit-identical.
        assert_eq!(report.fleet, baseline.fleet);
    }

    /// Offered attainment counts met requests through the report's own SLO
    /// counter, so a streaming run (no timelines) agrees with the exact run
    /// of the same reactive, admission-controlled fleet.
    #[test]
    fn offered_attainment_agrees_across_metrics_modes() {
        let slo = SloTarget::new(0.3, 0.01);
        let engine = FleetEngine::new(
            one_stage_spec(0.04, 2),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Reactive(
                AutoscalerPolicy::new(1, 3)
                    .with_evaluation_interval(0.25)
                    .with_scale_out_queue_depth(1.5)
                    .with_warmup(0.5),
            ),
        )
        .with_admission(AdmissionConfig::new(3.0, 0.0));
        let streaming =
            MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()).with_slo(slo));
        let exact = engine.run_trace(&spike_trace(220));
        let streamed = engine.run(
            crate::fleet::arrivals(&spike_trace(220)),
            &streaming,
            &mut NullRecorder,
        );
        assert!(streamed.fleet.merged.timelines.is_empty());
        assert!(exact.fault.shed > 0, "the spike should overflow admission");
        let offered = exact.offered_attainment(&slo);
        assert!(
            offered > 0.0 && offered < 1.0,
            "offered attainment {offered}"
        );
        assert_eq!(streamed.offered_attainment(&slo), offered);
        // Without timelines there is no windowed attainment to measure.
        assert!(streamed.attainment_timeline(&slo, 0.5).is_empty());
        assert!(streamed.recovery(&slo, 0.5).is_empty());
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_bounded() {
        let a = FaultSchedule::seeded(42, 3, 5.0, 30.0, 1.0);
        let b = FaultSchedule::seeded(42, 3, 5.0, 30.0, 1.0);
        assert_eq!(a, b);
        let c = FaultSchedule::seeded(43, 3, 5.0, 30.0, 1.0);
        assert_ne!(a, c, "different seeds should differ");
        for e in a.events() {
            assert!(e.at_s() <= 30.0);
            assert!(e.replica() < 3);
            assert!(matches!(e, FaultEvent::Crash { .. }));
        }
        assert!(a.events().windows(2).all(|w| w[0].at_s() <= w[1].at_s()));
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run = || {
            FleetEngine::new(
                one_stage_spec(0.04, 2),
                RouterPolicy::LeastOutstanding,
                ScaleDriver::Reactive(
                    AutoscalerPolicy::new(1, 4)
                        .with_evaluation_interval(0.3)
                        .with_scale_out_queue_depth(1.0),
                ),
            )
            .with_faults(FaultSchedule::seeded(7, 4, 2.0, 8.0, 0.5))
            .with_admission(AdmissionConfig::new(6.0, 4.0))
            .run_trace(&spike_trace(180))
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_plans_are_rejected() {
        let _ = ScalingPlan::new(
            1,
            vec![
                PlanStep {
                    at_s: 2.0,
                    replicas: 2,
                },
                PlanStep {
                    at_s: 2.0,
                    replicas: 3,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn malformed_fault_times_are_rejected() {
        let _ = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: f64::NAN,
            restart_delay_s: 1.0,
        }]);
    }
}
