//! Tenant-scored fleet evaluation: time-varying traffic, elastic scaling,
//! faults, and admission control, with every request scored against its
//! own class's SLO.
//!
//! [`Rago::evaluate_fleet_faulted`] is the one evaluator that scores a fleet
//! against per-tenant SLOs. The trace may be class-tagged (a
//! [`WorkloadMix`] of tenants, each with its own [`SloTarget`]) and
//! generated by a time-varying [`rago_workloads::ArrivalProcess`]
//! (diurnal, spike, piecewise). A [`FaultScenario`] sizes the fleet with
//! its [`ScaleDriver`] — static, a reactive
//! [`rago_serving_sim::autoscaler::AutoscalerPolicy`], or a predictive
//! [`ScalingPlan`] typically derived from a provisioning-side
//! [`CapacityProfile`] via [`scaling_plan_from_profile`] — plays a
//! [`FaultSchedule`] of crashes, stragglers, and spot preemptions against
//! it, and may shed work by class priority through an [`AdmissionConfig`].
//!
//! Scoring is on *offered* traffic: shed requests count against their
//! class in the denominator, so an admission controller cannot buy
//! attainment by refusing work. The result reports what the fleet *paid
//! for* ([`ChaosReport::replica_seconds`] and chip-seconds), so autoscaled
//! and statically provisioned deployments compare on equal terms.
//! Recovery metrics (time to SLO re-attainment and the goodput-dip area
//! after each disruption) come from the windowed attainment timeline of
//! the [`ChaosReport`].
//!
//! The scenario is one configuration of the crate's one fleet builder (see
//! [`crate::dynamic`]), so with one class, no faults, no admission
//! control, and a static driver the scores are **bit-identical** to
//! [`crate::dynamic::evaluate_fleet_dynamic_with`]'s — pinned by
//! `faultless_static_scenario_matches_fleet_dynamic` below.

use crate::capacity::CapacityProfile;
use crate::dynamic::{fleet_engine, run_fleet, FleetRun};
use crate::error::RagoError;
use crate::optimizer::Rago;
use crate::schedule::Schedule;
use rago_schema::{FleetConfig, RouterPolicy, SloTarget};
use rago_serving_sim::faults::{
    AdmissionConfig, AttainmentWindow, ChaosReport, CrashPolicy, FaultSchedule, PlanStep,
    RecoveryMetrics, ScaleDriver, ScalingPlan,
};
use rago_telemetry::NullRecorder;
use rago_workloads::{Trace, WorkloadMix};
use serde::{Deserialize, Serialize};

/// Everything that can go wrong (and how the fleet responds) in one
/// faulted evaluation: the fault schedule, the crash policy, the admission
/// controller, and the scaling driver.
///
/// # Examples
///
/// ```
/// use rago_core::faulted::FaultScenario;
/// use rago_serving_sim::faults::{FaultEvent, FaultSchedule, ScaleDriver};
///
/// let scenario = FaultScenario::new(ScaleDriver::Static { replicas: 3 })
///     .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
///         replica: 0,
///         at_s: 5.0,
///         restart_delay_s: 2.0,
///     }]))
///     .with_recovery_window(0.5);
/// assert_eq!(scenario.faults.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// How the fleet is sized over time (static, reactive, or predictive).
    pub driver: ScaleDriver,
    /// The deterministic fault schedule to inject (empty = no faults).
    pub faults: FaultSchedule,
    /// What happens to in-flight work when a replica dies.
    pub crash_policy: CrashPolicy,
    /// Admission control, or `None` to admit everything. A configuration
    /// with an *empty* priority table inherits each class's priority from
    /// the workload mix ([`rago_workloads::RequestClass::priority`]).
    pub admission: Option<AdmissionConfig>,
    /// The SLO recovery metrics are computed against, or `None` to use the
    /// mix's class-0 SLO.
    pub recovery_slo: Option<SloTarget>,
    /// Window width for the attainment timeline and recovery metrics, in
    /// seconds.
    pub recovery_window_s: f64,
}

impl FaultScenario {
    /// A scenario with no faults, no admission control, requeue-on-crash,
    /// and a half-second recovery window.
    pub fn new(driver: ScaleDriver) -> Self {
        Self {
            driver,
            faults: FaultSchedule::empty(),
            crash_policy: CrashPolicy::default(),
            admission: None,
            recovery_slo: None,
            recovery_window_s: 0.5,
        }
    }

    /// Sets the fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the crash policy.
    #[must_use]
    pub fn with_crash_policy(mut self, policy: CrashPolicy) -> Self {
        self.crash_policy = policy;
        self
    }

    /// Enables admission control.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Sets the SLO recovery metrics are scored against.
    #[must_use]
    pub fn with_recovery_slo(mut self, slo: SloTarget) -> Self {
        self.recovery_slo = Some(slo);
        self
    }

    /// Sets the recovery/timeline window width.
    ///
    /// # Panics
    ///
    /// Panics unless `window_s` is finite and positive.
    #[must_use]
    pub fn with_recovery_window(mut self, window_s: f64) -> Self {
        if let Err(e) = check_recovery_window(window_s) {
            panic!("{e}");
        }
        self.recovery_window_s = window_s;
        self
    }

    /// Checks what a struct literal can get wrong: a malformed driver
    /// ([`ScaleDriver::validate`]) or admission configuration
    /// ([`AdmissionConfig::validate`]), a recovery window that is not
    /// finite and positive, or an invalid recovery SLO.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] naming the first such field.
    pub fn validate(&self) -> Result<(), RagoError> {
        check_recovery_window(self.recovery_window_s)?;
        let invalid = |reason: String| RagoError::InvalidConfig { reason };
        if let Some(slo) = &self.recovery_slo {
            slo.validate()
                .map_err(|e| invalid(format!("recovery SLO: {e}")))?;
        }
        self.driver.validate().map_err(invalid)?;
        match &self.admission {
            Some(admission) => admission.validate().map_err(invalid),
            None => Ok(()),
        }
    }
}

/// The recovery-window rule: finite and positive.
fn check_recovery_window(window_s: f64) -> Result<(), RagoError> {
    if window_s.is_finite() && window_s > 0.0 {
        return Ok(());
    }
    Err(RagoError::InvalidConfig {
        reason: format!("recovery window must be finite and positive, got {window_s}"),
    })
}

/// One tenant class's outcome under faults, scored on *offered* traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultedClassOutcome {
    /// The workload-class tag (index into the mix).
    pub class: u32,
    /// The tenant name from the mix.
    pub name: String,
    /// Requests of this class offered to the fleet (completed + shed; lost
    /// requests — [`CrashPolicy::Fail`] casualties and work stranded after
    /// the last replica died — are counted fleet-wide in
    /// [`ChaosReport::fault`], not per class).
    pub offered: usize,
    /// Requests of this class that completed.
    pub completed: usize,
    /// Requests of this class shed by admission control.
    pub shed: usize,
    /// The admission priority the class was shed under.
    pub priority: u32,
    /// The SLO this tenant was scored against (its own, from the mix).
    pub slo: SloTarget,
    /// Fraction of *offered* requests meeting the class SLO (shed requests
    /// count as misses; 1.0 when the class offered nothing).
    pub attainment: f64,
    /// Requests meeting the class SLO per second of the class's serving
    /// window, in requests per second.
    pub goodput_rps: f64,
    /// Whether offered attainment reaches the SLO's required fraction.
    pub meets_slo: bool,
}

/// The outcome of one faulted fleet evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultedEvaluation {
    /// The full chaos run: merged fleet report, scaling events, replica
    /// lifetimes, provisioning cost, and the fault ledger.
    pub chaos: ChaosReport,
    /// Fraction of all *offered* requests meeting their own class's SLO
    /// (shed and lost requests count as misses).
    pub attainment: f64,
    /// Requests meeting their class SLO per second of fleet serving
    /// duration.
    pub goodput_rps: f64,
    /// Whether every class reaches its own SLO's attainment requirement on
    /// offered traffic.
    pub meets_slo: bool,
    /// Per-tenant outcomes, by class id.
    pub per_class: Vec<FaultedClassOutcome>,
    /// Windowed SLO-attainment timeline over the run, for recovery plots.
    pub timeline: Vec<AttainmentWindow>,
    /// Per-disruption recovery metrics (time to re-attainment, dip area).
    pub recovery: Vec<RecoveryMetrics>,
    /// [`ChaosReport::replica_seconds`] × total XPUs per replica — the
    /// chip-time the deployment paid.
    pub chip_seconds: f64,
}

impl FaultedEvaluation {
    /// The tenants ranked by goodput, best first (ties break toward the
    /// lower class id).
    pub fn tenants_by_goodput(&self) -> Vec<FaultedClassOutcome> {
        let mut ranked = self.per_class.clone();
        ranked.sort_by(|a, b| {
            b.goodput_rps
                .total_cmp(&a.goodput_rps)
                .then(a.class.cmp(&b.class))
        });
        ranked
    }

    /// Chip-hours paid by the deployment.
    pub fn chip_hours(&self) -> f64 {
        self.chip_seconds / 3600.0
    }

    /// The worst per-disruption time-to-reattainment, or `None` when no
    /// disruption occurred or some disruption never recovered within the
    /// run (a non-recovery is *worse* than any finite time, so callers
    /// should treat `None` after a disruption as failure).
    pub fn worst_recovery_s(&self) -> Option<f64> {
        if self.recovery.is_empty() {
            return None;
        }
        self.recovery
            .iter()
            .map(|r| r.reattainment_s)
            .collect::<Option<Vec<f64>>>()
            .map(|times| times.into_iter().fold(0.0, f64::max))
    }
}

/// Converts a provisioning-side [`CapacityProfile`] (the per-interval
/// replica schedule [`Rago::plan_capacity_profile`] computes)
/// into the feed-forward [`ScalingPlan`] a predictive
/// [`ScaleDriver::Predictive`] executes — the planning loop closed: size
/// the fleet offline from the known rate profile, then play that schedule
/// forward against the live trace.
///
/// `lead_s` shifts every step earlier by that many seconds so replicas
/// finish warming up *before* the rate change arrives (a step shifted to
/// or past time zero is folded into the initial count, taking the larger
/// target). Zero-replica intervals are clamped to one — a serving fleet
/// never scales to nothing. Consecutive intervals with the same target
/// merge into one step.
///
/// # Panics
///
/// Panics unless `lead_s` is finite and non-negative, or if the profile
/// has no intervals.
///
/// # Examples
///
/// ```
/// use rago_core::faulted::scaling_plan_from_profile;
/// use rago_core::{CapacityInterval, CapacityProfile};
///
/// let interval = |start_s: f64, replicas: u32| CapacityInterval {
///     start_s,
///     duration_s: 10.0,
///     rate_rps: 5.0,
///     replicas,
///     attainment: 1.0,
/// };
/// let profile = CapacityProfile {
///     intervals: vec![interval(0.0, 1), interval(10.0, 3), interval(20.0, 3), interval(30.0, 0)],
///     peak_replicas: 3,
///     replica_seconds: 70.0,
///     static_replica_seconds: 120.0,
///     savings_fraction: 5.0 / 12.0,
/// };
/// let plan = scaling_plan_from_profile(&profile, 2.0);
/// assert_eq!(plan.initial, 1);
/// // One step up (led by 2 s), the repeat merged away, and the zero-rate
/// // tail clamped to one replica.
/// assert_eq!(plan.steps.len(), 2);
/// assert_eq!((plan.steps[0].at_s, plan.steps[0].replicas), (8.0, 3));
/// assert_eq!((plan.steps[1].at_s, plan.steps[1].replicas), (28.0, 1));
/// ```
pub fn scaling_plan_from_profile(profile: &CapacityProfile, lead_s: f64) -> ScalingPlan {
    assert!(
        lead_s.is_finite() && lead_s >= 0.0,
        "lead must be finite and non-negative, got {lead_s}"
    );
    assert!(
        !profile.intervals.is_empty(),
        "a capacity profile needs at least one interval"
    );
    let mut initial = profile.intervals[0].replicas.max(1);
    let mut steps: Vec<PlanStep> = Vec::new();
    for interval in &profile.intervals[1..] {
        let target = interval.replicas.max(1);
        let at_s = interval.start_s - lead_s;
        if at_s <= 0.0 {
            // The lead pushes this step before the run starts: provision it
            // from the beginning, never below an earlier folded target.
            initial = initial.max(target);
            continue;
        }
        // Collapse steps the lead squeezed onto the same instant (take the
        // larger target — over-provision rather than under) and merge
        // consecutive equal targets.
        if let Some(last) = steps.last_mut() {
            if at_s <= last.at_s {
                last.replicas = last.replicas.max(target);
                continue;
            }
        }
        let current = steps.last().map_or(initial, |s| s.replicas);
        if target != current {
            steps.push(PlanStep {
                at_s,
                replicas: target,
            });
        }
    }
    ScalingPlan::new(initial, steps)
}

impl Rago {
    /// Evaluates `schedule`'s pipeline as a fleet under `trace` while the
    /// `scenario`'s fault schedule plays against it, scoring every tenant's
    /// *offered* traffic against its own SLO from `mix`.
    ///
    /// The fleet is sized by `scenario.driver` behind `router`, admission
    /// control sheds by class priority when configured, and every disruption's
    /// recovery is measured on the windowed attainment timeline. Untagged
    /// traces (all requests class 0) work with any single-class mix — the
    /// homogeneous special case.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] for invalid schedules, an invalid
    /// scenario ([`FaultScenario::validate`]), an empty trace, a class tag
    /// outside the mix, or an invalid per-class SLO, and
    /// [`RagoError::CostModel`] when the schedule cannot be profiled.
    pub fn evaluate_fleet_faulted(
        &self,
        schedule: &Schedule,
        router: RouterPolicy,
        mix: &WorkloadMix,
        trace: &Trace,
        scenario: &FaultScenario,
    ) -> Result<FaultedEvaluation, RagoError> {
        scenario.validate()?;
        let num_classes = mix.num_classes() as u32;
        if let Some(bad) = trace.requests.iter().find(|r| r.class >= num_classes) {
            return Err(RagoError::InvalidConfig {
                reason: format!(
                    "request {} carries class tag {} but the mix has only {num_classes} classes",
                    bad.id, bad.class
                ),
            });
        }
        for class in &mix.classes {
            class.slo.validate().map_err(|e| RagoError::InvalidConfig {
                reason: format!("class `{}`: {e}", class.name),
            })?;
        }

        // An admission configuration with an empty priority table inherits the
        // mix's per-class priorities.
        let admission = scenario.admission.clone().map(|mut a| {
            if a.class_priorities.is_empty() {
                for (i, class) in mix.classes.iter().enumerate() {
                    a = a.with_class_priority(i as u32, class.priority);
                }
            }
            a
        });

        let run = FleetRun {
            // The driver sizes the fleet; the config gives its router.
            fleet: FleetConfig::new(1, router),
            driver: Some(scenario.driver.clone()),
            faults: scenario.faults.clone(),
            crash_policy: scenario.crash_policy,
            admission,
            ..FleetRun::default()
        };
        let engine = fleet_engine(self.profiler(), schedule, trace, &run)?;
        let chaos = run_fleet(
            self.profiler(),
            &engine,
            trace,
            &run.mode,
            &mut NullRecorder,
        );

        // Offered attainment: a shed request is an offered request that missed
        // its SLO. Completed counts and SLO hits come from the merged report's
        // per-class accounting; shed counts from the fault ledger.
        let shed_of = |class: u32| {
            chaos
                .fault
                .shed_by_class
                .iter()
                .find(|s| s.class == class)
                .map_or(0, |s| s.shed)
        };
        let mut met_total = 0usize;
        let mut offered_total = 0usize;
        let per_class: Vec<FaultedClassOutcome> = mix
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let class = i as u32;
                let (met, completed) = chaos.fleet.merged.class_slo_counts(class, &c.slo);
                let shed = shed_of(class);
                let offered = completed + shed;
                met_total += met;
                offered_total += offered;
                let attainment = if offered == 0 {
                    1.0
                } else {
                    met as f64 / offered as f64
                };
                let priority = run
                    .admission
                    .as_ref()
                    .map_or_else(|| c.priority, |a| a.priority_of(class));
                FaultedClassOutcome {
                    class,
                    name: c.name.clone(),
                    offered,
                    completed,
                    shed,
                    priority,
                    slo: c.slo,
                    attainment,
                    goodput_rps: chaos.fleet.merged.class_goodput_rps(class, &c.slo),
                    meets_slo: attainment >= c.slo.attainment,
                }
            })
            .collect();
        // Lost requests (failed) have no class attribution; count them against
        // the fleet-wide denominator so attainment stays honest.
        let offered_all = offered_total + chaos.fault.failed;
        let attainment = if offered_all == 0 {
            1.0
        } else {
            met_total as f64 / offered_all as f64
        };
        let serving_duration = chaos.fleet.merged.metrics.serving_duration_s;
        let goodput_rps = if serving_duration > 0.0 {
            met_total as f64 / serving_duration
        } else {
            0.0
        };
        let meets_slo = per_class.iter().all(|c| c.meets_slo) && chaos.fault.failed == 0;

        let recovery_slo = scenario.recovery_slo.unwrap_or(mix.classes[0].slo);
        let timeline = chaos.attainment_timeline(&recovery_slo, scenario.recovery_window_s);
        let recovery = chaos.recovery(&recovery_slo, scenario.recovery_window_s);

        let chip_seconds = chaos.replica_seconds * f64::from(schedule.allocation.total_xpus());

        Ok(FaultedEvaluation {
            chaos,
            attainment,
            goodput_rps,
            meets_slo,
            per_class,
            timeline,
            recovery,
            chip_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityOptions;
    use crate::disagg::{score_disagg, DisaggEvaluation};
    use crate::dynamic::pipeline_spec;
    use crate::placement::PlacementPlan;
    use crate::schedule::{BatchingPolicy, ResourceAllocation};
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::{FleetConfig, SequenceProfile, Stage};
    use rago_serving_sim::autoscaler::AutoscalerPolicy;
    use rago_serving_sim::faults::FaultEvent;
    use rago_serving_sim::fleet::FleetEngine;
    use rago_serving_sim::MetricsMode;
    use rago_workloads::{ArrivalProcess, MixTraceSpec, RateSegment, RequestClass};

    fn case1_rago() -> Rago {
        Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        )
    }

    fn case1_schedule() -> Schedule {
        Schedule {
            placement: PlacementPlan {
                predecode_groups: vec![vec![Stage::Prefix]],
            },
            allocation: ResourceAllocation {
                group_xpus: vec![8],
                decode_xpus: 8,
                retrieval_servers: 32,
            },
            batching: BatchingPolicy::new(8, 64),
        }
    }

    fn priority_mix() -> WorkloadMix {
        WorkloadMix::new(vec![
            RequestClass::new(
                "batch",
                1.0,
                SequenceProfile::paper_default().with_decode_tokens(64),
                0.1,
                SloTarget::new(10.0, 0.2),
            ),
            RequestClass::new(
                "chat",
                2.0,
                SequenceProfile::paper_default().with_decode_tokens(32),
                0.1,
                SloTarget::new(2.0, 0.05),
            )
            .with_priority(2),
        ])
    }

    fn diurnal_trace(mix: &WorkloadMix, n: usize) -> Trace {
        MixTraceSpec {
            num_requests: n,
            mix: mix.clone(),
            arrival: ArrivalProcess::Diurnal {
                base_rps: 5.0,
                peak_rps: 80.0,
                period_s: 20.0,
            },
            seed: 31,
        }
        .generate()
    }

    fn two_class_mix() -> WorkloadMix {
        WorkloadMix::new(vec![
            RequestClass::new(
                "chat",
                3.0,
                SequenceProfile::paper_default().with_decode_tokens(32),
                0.1,
                SloTarget::new(2.0, 0.05),
            ),
            RequestClass::new(
                "report",
                1.0,
                SequenceProfile::paper_default().with_decode_tokens(128),
                0.1,
                SloTarget::new(10.0, 0.2),
            ),
        ])
    }

    /// The degenerate pin at the core layer: one class, a constant rate,
    /// no faults, no admission, and a static driver reproduce
    /// `evaluate_fleet_dynamic_with` bit-exactly, and bill
    /// `replicas × makespan` replica-seconds.
    #[test]
    fn faultless_static_scenario_matches_fleet_dynamic() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let profile = SequenceProfile::paper_default().with_decode_tokens(32);
        let trace = rago_workloads::TraceSpec {
            num_requests: 90,
            profile,
            arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
            length_jitter: 0.2,
            seed: 13,
        }
        .generate();
        let mix = WorkloadMix::single("all", profile, 0.2, slo);
        let faulted = rago
            .evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::LeastOutstanding,
                &mix,
                &trace,
                &FaultScenario::new(ScaleDriver::Static { replicas: 3 }),
            )
            .unwrap();
        let dynamic = crate::dynamic::evaluate_fleet_dynamic_with(
            rago.profiler(),
            &schedule,
            &FleetConfig::new(3, RouterPolicy::LeastOutstanding),
            &trace,
            &slo,
            &MetricsMode::Exact,
        )
        .unwrap();
        assert_eq!(faulted.chaos.fleet, dynamic.report);
        // With nothing shed or lost, offered attainment equals completed
        // attainment.
        assert_eq!(faulted.attainment, dynamic.attainment);
        assert_eq!(faulted.goodput_rps, dynamic.goodput_rps);
        assert_eq!(faulted.meets_slo, dynamic.meets_slo);
        assert!(faulted.chaos.events.is_empty());
        assert!(faulted.recovery.is_empty());
        assert_eq!(faulted.chaos.fault.shed, 0);
        assert_eq!(faulted.chaos.fault.failed, 0);
        assert_eq!(faulted.per_class.len(), 1);
        assert_eq!(faulted.per_class[0].offered, 90);
        let makespan = faulted.chaos.fleet.merged.metrics.makespan_s;
        assert!((faulted.chaos.replica_seconds - 3.0 * makespan).abs() < 1e-12);
        assert!(faulted.chip_seconds > faulted.chaos.replica_seconds); // 16 XPUs per replica
    }

    /// A faultless reactive scenario is the plain time-varying fleet run: the
    /// same autoscaled `FleetEngine` run with no faults, crash policy or
    /// admission reproduces the evaluation's chaos report, and every score is
    /// recomputed here from that run's request timelines.
    #[test]
    fn faultless_scenario_matches_timevarying() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let mix = priority_mix();
        let trace = diurnal_trace(&mix, 300);
        let policy = AutoscalerPolicy::new(1, 4)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(1.0)
            .with_scale_in_outstanding(2.0)
            .with_cooldown(2.0)
            .with_warmup(0.5);
        let baseline = FleetEngine::new(
            pipeline_spec(rago.profiler(), &schedule, None).unwrap(),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Reactive(policy),
        )
        .run_trace(&trace);
        let scenario = FaultScenario::new(ScaleDriver::Reactive(policy));
        let faulted = rago
            .evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::LeastOutstanding,
                &mix,
                &trace,
                &scenario,
            )
            .unwrap();
        assert_eq!(faulted.chaos, baseline);
        assert!(!baseline.events.is_empty(), "the diurnal run never scaled");
        assert_eq!(
            faulted.chip_seconds,
            baseline.replica_seconds * f64::from(schedule.allocation.total_xpus())
        );

        // Each tenant scored against its own SLO, straight from the
        // timelines. With nothing shed or lost, offered attainment equals
        // completed attainment.
        let timelines = &baseline.fleet.merged.timelines;
        assert_eq!(timelines.len(), trace.requests.len());
        let mut met_total = 0;
        for (class, outcome) in faulted.per_class.iter().enumerate() {
            let slo = &mix.classes[class].slo;
            let offered = trace
                .requests
                .iter()
                .filter(|r| r.class == class as u32)
                .count();
            let met = timelines
                .iter()
                .filter(|t| t.class == class as u32 && slo.meets(t.ttft_s(), t.tpot_s()))
                .count();
            met_total += met;
            assert_eq!(outcome.offered, offered);
            assert_eq!(outcome.completed, offered);
            assert_eq!(outcome.shed, 0);
            assert_eq!(outcome.attainment, met as f64 / offered as f64);
        }
        assert_eq!(
            faulted.attainment,
            met_total as f64 / trace.requests.len() as f64
        );
        assert_eq!(
            faulted.goodput_rps,
            met_total as f64 / baseline.fleet.merged.metrics.serving_duration_s
        );
        assert!(faulted.recovery.is_empty());
        assert_eq!(faulted.chaos.fault.shed, 0);
        assert_eq!(faulted.chaos.fault.failed, 0);
    }

    #[test]
    fn tenants_are_scored_against_their_own_slos() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let mix = two_class_mix();
        let trace = MixTraceSpec {
            num_requests: 120,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 30.0 },
            seed: 7,
        }
        .generate();
        let eval = rago
            .evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::LeastOutstanding,
                &mix,
                &trace,
                &FaultScenario::new(ScaleDriver::Static { replicas: 2 }),
            )
            .unwrap();
        assert_eq!(eval.per_class.len(), 2);
        let total: usize = eval.per_class.iter().map(|c| c.offered).sum();
        assert_eq!(total, 120);
        // The overall attainment is the request-weighted mix of the classes.
        let weighted: f64 = eval
            .per_class
            .iter()
            .map(|c| c.attainment * c.offered as f64)
            .sum::<f64>()
            / 120.0;
        assert!((weighted - eval.attainment).abs() < 1e-12);
        // Ranking is sorted by goodput.
        let ranked = eval.tenants_by_goodput();
        for pair in ranked.windows(2) {
            assert!(pair[0].goodput_rps >= pair[1].goodput_rps);
        }
        // meets_slo is the conjunction over classes.
        assert_eq!(eval.meets_slo, eval.per_class.iter().all(|c| c.meets_slo));
    }

    #[test]
    fn autoscaled_diurnal_run_saves_chip_time_at_matching_attainment() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let profile = SequenceProfile::paper_default().with_decode_tokens(32);
        let slo = SloTarget::new(2.0, 0.1);
        let mix = WorkloadMix::single("all", profile, 0.1, slo);
        // One diurnal cycle: trough 5 rps, peak 120 rps over 30 s.
        let trace = MixTraceSpec {
            num_requests: 900,
            mix: mix.clone(),
            arrival: ArrivalProcess::Diurnal {
                base_rps: 5.0,
                peak_rps: 120.0,
                period_s: 30.0,
            },
            seed: 21,
        }
        .generate();
        let run = |driver| {
            rago.evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::LeastOutstanding,
                &mix,
                &trace,
                &FaultScenario::new(driver),
            )
            .unwrap()
        };
        let fixed = run(ScaleDriver::Static { replicas: 4 });
        let policy = AutoscalerPolicy::new(1, 5)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(1.0)
            .with_scale_in_outstanding(2.0)
            .with_cooldown(2.0)
            .with_warmup(0.5);
        let elastic = run(ScaleDriver::Reactive(policy));
        assert!(
            elastic.chaos.peak_provisioned > 1,
            "diurnal peak never scaled out"
        );
        assert!(!elastic.chaos.events.is_empty());
        assert!(
            elastic.chaos.replica_seconds < fixed.chaos.replica_seconds,
            "autoscaler paid {} replica-seconds vs static {}",
            elastic.chaos.replica_seconds,
            fixed.chaos.replica_seconds
        );
        assert!(
            elastic.attainment >= fixed.attainment - 0.05,
            "autoscaler attainment {} collapsed vs static {}",
            elastic.attainment,
            fixed.attainment
        );
    }

    /// A malformed driver — the kind a configuration file can carry, since
    /// the drivers' fields are public and deserializable — is a
    /// configuration error, not a panic inside the engine.
    #[test]
    fn malformed_scale_drivers_are_rejected() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let mix = priority_mix();
        let trace = diurnal_trace(&mix, 10);
        let nan_interval = AutoscalerPolicy {
            evaluation_interval_s: f64::NAN,
            ..AutoscalerPolicy::new(1, 2)
        };
        let empty_plan = rago_serving_sim::faults::PredictivePolicy {
            plan: ScalingPlan {
                initial: 0,
                steps: Vec::new(),
            },
            warmup_s: 0.5,
        };
        for driver in [
            ScaleDriver::Static { replicas: 0 },
            ScaleDriver::Reactive(AutoscalerPolicy::new(0, 2)),
            ScaleDriver::Reactive(nan_interval),
            ScaleDriver::Predictive(empty_plan),
        ] {
            let result = rago.evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::RoundRobin,
                &mix,
                &trace,
                &FaultScenario::new(driver.clone()),
            );
            assert!(
                matches!(result, Err(RagoError::InvalidConfig { .. })),
                "{driver:?} was not rejected"
            );
        }
    }

    /// The acceptance criterion: under a single-replica crash with
    /// admission on, the highest-priority class degrades less than the
    /// fleet's share of the lost replica.
    #[test]
    fn high_priority_class_degrades_less_than_fleet_share() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let mix = priority_mix();
        let trace = diurnal_trace(&mix, 400);
        let replicas = 3u32;
        let crash = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 4.0, // near the first diurnal peak
            restart_delay_s: 6.0,
        }]);
        let scenario = FaultScenario::new(ScaleDriver::Static { replicas })
            .with_faults(crash)
            .with_admission(AdmissionConfig::new(4.0, 24.0));
        let healthy = rago
            .evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::LeastOutstanding,
                &mix,
                &trace,
                &FaultScenario::new(ScaleDriver::Static { replicas }),
            )
            .unwrap();
        let faulted = rago
            .evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::LeastOutstanding,
                &mix,
                &trace,
                &scenario,
            )
            .unwrap();
        // Priorities were inherited from the mix (empty table).
        let chat = &faulted.per_class[1];
        assert_eq!(chat.priority, 2);
        assert_eq!(faulted.per_class[0].priority, 0);
        // The crash actually disrupted the run.
        assert_eq!(faulted.chaos.fault.disruptions.len(), 1);
        // The high-priority class's attainment drop is bounded by the
        // fleet share of the lost replica (1/3 here).
        let healthy_chat = &healthy.per_class[1];
        let drop = (healthy_chat.attainment - chat.attainment).max(0.0);
        let fleet_share = 1.0 / f64::from(replicas);
        assert!(
            drop < fleet_share,
            "chat dropped {drop:.3}, worse than the lost replica's share {fleet_share:.3}"
        );
        // Shed is attributed per class and offered conservation holds.
        let offered: usize = faulted.per_class.iter().map(|c| c.offered).sum();
        assert_eq!(
            offered + faulted.chaos.fault.failed,
            faulted.chaos.fault.injected
        );
    }

    #[test]
    fn predictive_plan_from_profile_closes_the_loop() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(2.0, 0.1);
        let profile_segments = vec![
            RateSegment {
                rate_rps: 5.0,
                duration_s: 5.0,
            },
            RateSegment {
                rate_rps: 60.0,
                duration_s: 5.0,
            },
            RateSegment {
                rate_rps: 5.0,
                duration_s: 5.0,
            },
        ];
        let options = CapacityOptions {
            max_replicas: 4,
            num_requests: 80,
            ..Default::default()
        };
        let capacity = rago
            .plan_capacity_profile(&schedule, &slo, &profile_segments, &options)
            .unwrap();
        let plan = scaling_plan_from_profile(&capacity, 1.0);
        assert!(plan.initial >= 1);
        // The plan follows the profile: the mid-window surge needs more
        // replicas than the trough.
        let peak_target = plan
            .steps
            .iter()
            .map(|s| s.replicas)
            .max()
            .unwrap_or(plan.initial);
        assert_eq!(peak_target, capacity.peak_replicas.max(1));
        // And it drives a faulted evaluation end to end.
        let profile_def = SequenceProfile::paper_default().with_decode_tokens(32);
        let mix = WorkloadMix::single("all", profile_def, 0.1, slo);
        let trace = MixTraceSpec {
            num_requests: 300,
            mix: mix.clone(),
            arrival: ArrivalProcess::PiecewiseRate {
                segments: profile_segments,
            },
            seed: 11,
        }
        .generate();
        let scenario = FaultScenario::new(ScaleDriver::Predictive(
            rago_serving_sim::faults::PredictivePolicy::new(plan.clone(), 0.5),
        ));
        let eval = rago
            .evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::LeastOutstanding,
                &mix,
                &trace,
                &scenario,
            )
            .unwrap();
        assert_eq!(eval.chaos.fault.completed, 300);
        assert_eq!(eval.chaos.peak_provisioned, peak_target.max(plan.initial));
    }

    #[test]
    fn recovery_metrics_follow_a_crash() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(2.0, 0.1).with_attainment(0.8);
        let profile = SequenceProfile::paper_default().with_decode_tokens(32);
        let mix = WorkloadMix::single("all", profile, 0.1, slo);
        let trace = MixTraceSpec {
            num_requests: 400,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
            seed: 17,
        }
        .generate();
        let scenario = FaultScenario::new(ScaleDriver::Static { replicas: 2 })
            .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
                replica: 0,
                at_s: 3.0,
                restart_delay_s: 1.0,
            }]))
            .with_recovery_window(0.5);
        let eval = rago
            .evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::LeastOutstanding,
                &mix,
                &trace,
                &scenario,
            )
            .unwrap();
        assert_eq!(eval.recovery.len(), 1);
        assert!(eval.recovery[0].dip_area >= 0.0);
        assert!(!eval.timeline.is_empty());
        let covered: usize = eval.timeline.iter().map(|w| w.completed).sum();
        assert_eq!(covered, eval.chaos.fault.completed);
        if eval.recovery[0].reattainment_s.is_some() {
            assert_eq!(eval.worst_recovery_s(), eval.recovery[0].reattainment_s);
        }
    }

    /// One replica crashing at 2 s with a 3 s restart, serving 400 Poisson
    /// requests at 30 rps, under `scenario`.
    fn crashed_single_replica(
        scenario: impl Fn(FaultScenario) -> FaultScenario,
    ) -> Result<FaultedEvaluation, RagoError> {
        let slo = SloTarget::new(2.0, 0.1);
        let profile = SequenceProfile::paper_default().with_decode_tokens(32);
        let mix = WorkloadMix::single("all", profile, 0.1, slo);
        let trace = MixTraceSpec {
            num_requests: 400,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 30.0 },
            seed: 5,
        }
        .generate();
        let crash = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 2.0,
            restart_delay_s: 3.0,
        }]);
        let base = FaultScenario::new(ScaleDriver::Static { replicas: 1 }).with_faults(crash);
        case1_rago().evaluate_fleet_faulted(
            &case1_schedule(),
            RouterPolicy::LeastOutstanding,
            &mix,
            &trace,
            &scenario(base),
        )
    }

    /// Regression: the scenario's fields are public, so a struct literal
    /// skipped `with_recovery_window`'s check. A zero, NaN or negative
    /// window then scored an empty timeline as an instant recovery, and a
    /// NaN recovery TTFT as no recovery at all; each is now a config error.
    #[test]
    fn malformed_recovery_windows_and_slos_are_rejected() {
        let good = crashed_single_replica(|s| s.with_recovery_window(0.5)).unwrap();
        assert_eq!(good.recovery.len(), 1);
        assert!(!good.timeline.is_empty());
        for window in [0.0, f64::NAN, -1.0] {
            let result = crashed_single_replica(|s| FaultScenario {
                recovery_window_s: window,
                ..s
            });
            assert!(
                matches!(&result, Err(RagoError::InvalidConfig { reason }) if reason.contains("recovery window")),
                "window {window}: {result:?}"
            );
            let built = std::panic::catch_unwind(|| {
                FaultScenario::new(ScaleDriver::Static { replicas: 1 }).with_recovery_window(window)
            });
            assert!(
                built.is_err(),
                "with_recovery_window({window}) was accepted"
            );
        }
        let nan_ttft = SloTarget {
            ttft_s: f64::NAN,
            ..SloTarget::new(2.0, 0.1)
        };
        let result = crashed_single_replica(|s| s.with_recovery_slo(nan_ttft));
        assert!(
            matches!(&result, Err(RagoError::InvalidConfig { reason }) if reason.contains("recovery SLO")),
            "{result:?}"
        );
    }

    /// Regression: a struct-literal admission config with a NaN or
    /// negative threshold shed every arrival and still returned `Ok`.
    #[test]
    fn malformed_admission_thresholds_are_rejected() {
        for depth in [f64::NAN, -1.0] {
            let admission = AdmissionConfig {
                shed_queue_depth: depth,
                ..AdmissionConfig::new(4.0, 4.0)
            };
            let result = crashed_single_replica(|s| FaultScenario {
                driver: ScaleDriver::Static { replicas: 2 },
                ..s.with_admission(admission.clone())
            });
            assert!(
                matches!(&result, Err(RagoError::InvalidConfig { reason }) if reason.contains("shed queue depth")),
                "depth {depth}: {result:?}"
            );
        }
        let scenario = FaultScenario::new(ScaleDriver::Static { replicas: 2 })
            .with_admission(AdmissionConfig::new(4.0, 4.0));
        assert!(scenario.validate().is_ok());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let mix = priority_mix();
        let scenario = FaultScenario::new(ScaleDriver::Static { replicas: 1 });
        let empty = Trace { requests: vec![] };
        assert!(matches!(
            rago.evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::RoundRobin,
                &mix,
                &empty,
                &scenario
            ),
            Err(RagoError::InvalidConfig { .. })
        ));
        let mut trace = diurnal_trace(&mix, 10);
        trace.requests[2].class = 9;
        assert!(matches!(
            rago.evaluate_fleet_faulted(
                &schedule,
                RouterPolicy::RoundRobin,
                &mix,
                &trace,
                &scenario
            ),
            Err(RagoError::InvalidConfig { .. })
        ));
    }

    /// Runs `trace` through the split `fleet` with `crashes` played onto
    /// its slots (prefill `0..P`, then decode `P..P+D`), and scores it as
    /// [`Rago::evaluate_fleet_disagg`] does, alongside the fleet's report.
    fn crashed_split(
        rago: &Rago,
        schedule: &Schedule,
        fleet: &FleetConfig,
        crashes: Vec<FaultEvent>,
        trace: &Trace,
        slo: &SloTarget,
    ) -> (DisaggEvaluation, ChaosReport) {
        let run = FleetRun {
            fleet: fleet.clone(),
            faults: FaultSchedule::new(crashes),
            ..FleetRun::default()
        };
        let profiler = rago.profiler();
        let engine = fleet_engine(profiler, schedule, trace, &run).unwrap();
        let chaos = run_fleet(profiler, &engine, trace, &run.mode, &mut NullRecorder);
        (score_disagg(chaos.clone(), schedule, fleet, slo), chaos)
    }

    /// A prefill-pool crash mid-run degrades (never improves) the split's
    /// attainment and conserves every request onto the survivors.
    #[test]
    fn pool_crashes_requeue_to_survivors_and_degrade_attainment() {
        use rago_workloads::{ArrivalProcess, TraceSpec};

        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = TraceSpec {
            num_requests: 120,
            profile: rago_schema::SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 120.0 },
            length_jitter: 0.2,
            seed: 23,
        }
        .generate();
        let fleet = FleetConfig::split(2, 1, RouterPolicy::LeastOutstanding);
        let healthy = rago
            .evaluate_fleet_disagg(&schedule, &fleet, &trace, &slo)
            .unwrap();
        let crash = FaultEvent::Crash {
            replica: 0,
            at_s: 0.2,
            restart_delay_s: f64::INFINITY,
        };
        let (crashed, _) = crashed_split(&rago, &schedule, &fleet, vec![crash], &trace, &slo);
        // Conservation: every request still completes on the survivors.
        assert_eq!(crashed.report.merged.metrics.completed, 120);
        assert!(crashed.attainment <= healthy.attainment);
    }

    fn pool_trace() -> Trace {
        rago_workloads::TraceSpec {
            num_requests: 120,
            profile: rago_schema::SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: rago_workloads::ArrivalProcess::Poisson { rate_rps: 40.0 },
            length_jitter: 0.2,
            seed: 29,
        }
        .generate()
    }

    /// The only replica of either pool of a 1+1 split can crash mid-trace:
    /// with a restart its pool's work waits for the cold replacement and
    /// every request completes; with a permanent loss the requests the
    /// pool can no longer serve fail and score as misses, and the call
    /// still returns `Ok`.
    #[test]
    fn single_replica_pool_crashes_wait_or_fail_instead_of_panicking() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = pool_trace();
        let fleet = FleetConfig::split(1, 1, RouterPolicy::LeastOutstanding);
        // Slot 0 is the prefill replica, slot 1 the decode replica.
        for (pool, replica) in [("prefill", 0), ("decode", 1)] {
            let crash = |restart_delay_s| FaultEvent::Crash {
                replica,
                at_s: 1.0,
                restart_delay_s,
            };
            let (eval, _) = crashed_split(&rago, &schedule, &fleet, vec![crash(0.5)], &trace, &slo);
            assert_eq!(eval.report.merged.metrics.completed, 120, "{pool} restart");

            let lost = vec![crash(f64::INFINITY)];
            let (lost_eval, chaos) = crashed_split(&rago, &schedule, &fleet, lost, &trace, &slo);
            let fault = &chaos.fault;
            assert_eq!(fault.injected, 120);
            assert_eq!(
                fault.completed + fault.failed,
                fault.injected,
                "{pool} loss"
            );
            assert!(fault.failed > 0, "the {pool} loss left nothing to fail");
            // A failed request is a miss: the split scores its offered
            // attainment, not the completed requests' full marks.
            assert_eq!(fault.failed, 77, "{pool} loss");
            assert_eq!(lost_eval.attainment, chaos.offered_attainment(&slo));
            assert_eq!(lost_eval.attainment, 43.0 / 120.0);
            assert!(!lost_eval.meets_slo, "{pool} loss");
        }
    }

    /// A crashed pool replica's cold replacement is reported next to it but
    /// billed in its place: the split still costs its configured chips.
    #[test]
    fn restarted_pool_replicas_are_billed_once() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let fleet = FleetConfig::split(2, 1, RouterPolicy::LeastOutstanding);
        let crash = FaultEvent::Crash {
            replica: 0,
            at_s: 0.5,
            restart_delay_s: 0.2,
        };
        let (eval, _) = crashed_split(
            &rago,
            &schedule,
            &fleet,
            vec![crash],
            &pool_trace(),
            &SloTarget::new(1.0, 0.1),
        );
        assert_eq!(eval.report.prefill.per_replica.len(), 3);
        assert_eq!(eval.total_xpus, crate::disagg::split_xpus(&schedule, 2, 1));
    }
}
