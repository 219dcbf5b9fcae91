//! Chaos-ready fleet evaluation: faults, admission control, and predictive
//! scaling scored end to end.
//!
//! [`crate::timevarying::evaluate_fleet_timevarying`] scores an elastic
//! fleet under time-varying traffic, but assumes every replica stays
//! healthy and every request is admitted. This module adds the failure
//! axis: a [`FaultSchedule`] of crashes, stragglers, and spot preemptions
//! plays against the fleet while it serves, an optional
//! [`AdmissionConfig`] sheds work by class priority under overload, and
//! the fleet may be driven by a *predictive* [`ScalingPlan`] — typically
//! derived from a provisioning-side [`CapacityProfile`] via
//! [`scaling_plan_from_profile`] — instead of the reactive policy.
//!
//! Scoring switches from *completed* to *offered* attainment: shed
//! requests count against their class in the denominator, so an admission
//! controller cannot buy attainment by refusing work. Recovery metrics
//! (time to SLO re-attainment and the goodput-dip area after each
//! disruption) come from the windowed attainment timeline of the
//! [`ChaosReport`].
//!
//! Both facades run the same [`rago_serving_sim::FleetEngine`] loop; with
//! no faults, no admission control, and a reactive (or static) driver the
//! scores are **bit-identical** to
//! [`crate::timevarying::evaluate_fleet_timevarying`]'s — pinned by
//! `faultless_scenario_matches_timevarying` below.

use crate::capacity::CapacityProfile;
use crate::dynamic::{fleet_engine, pipeline_spec, run_fleet, validate_trace};
use crate::error::RagoError;
use crate::profiler::StageProfiler;
use crate::schedule::Schedule;
use crate::timevarying::ScalingSummary;
use rago_schema::{FleetConfig, PoolRole, RouterPolicy, SloTarget};
use rago_serving_sim::faults::{
    AdmissionConfig, AttainmentWindow, ChaosReport, CrashPolicy, FaultSchedule, PlanStep,
    RecoveryMetrics, ScaleDriver, ScalingPlan,
};
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::pools::PoolCrash;
use rago_serving_sim::MetricsMode;
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
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "recovery window must be finite and positive, got {window_s}"
        );
        self.recovery_window_s = window_s;
        self
    }
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
    /// The full chaos run: merged fleet report, scaling events, lifetimes,
    /// and the fault ledger.
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
    /// Scaling history (always present: a chaos run tracks lifetimes even
    /// for a static fleet, since faults change the provisioned count).
    pub scaling: ScalingSummary,
    /// Windowed SLO-attainment timeline over the run, for recovery plots.
    pub timeline: Vec<AttainmentWindow>,
    /// Per-disruption recovery metrics (time to re-attainment, dip area).
    pub recovery: Vec<RecoveryMetrics>,
    /// Integral of provisioned replicas over time, in replica-seconds —
    /// dead replicas stop accruing at their death instant.
    pub replica_seconds: f64,
    /// `replica_seconds × total XPUs per replica` — the chip-time the
    /// deployment paid.
    pub chip_seconds: f64,
}

impl FaultedEvaluation {
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
/// replica schedule [`crate::capacity::plan_capacity_profile`] computes)
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

/// Evaluates `schedule`'s pipeline as a fleet under `trace` while the
/// `scenario`'s fault schedule plays against it, scoring every tenant's
/// *offered* traffic against its own SLO from `mix`.
///
/// The fleet is sized by `scenario.driver` (`fleet` supplies only the
/// router — the driver owns the replica count), admission control sheds by
/// class priority when configured, and every disruption's recovery is
/// measured on the windowed attainment timeline.
///
/// # Errors
///
/// Returns [`RagoError::InvalidConfig`] for invalid schedules, an empty
/// trace, a class tag outside the mix, or an invalid per-class SLO, and
/// [`RagoError::CostModel`] when the schedule cannot be profiled.
pub fn evaluate_fleet_faulted(
    profiler: &StageProfiler,
    schedule: &Schedule,
    router: RouterPolicy,
    mix: &WorkloadMix,
    trace: &Trace,
    scenario: &FaultScenario,
) -> Result<FaultedEvaluation, RagoError> {
    schedule.validate()?;
    validate_trace(trace)?;
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

    let spec = pipeline_spec(profiler, schedule, None)?;
    let mut engine = FleetEngine::new(spec, router, scenario.driver.clone())
        .with_faults(scenario.faults.clone())
        .with_crash_policy(scenario.crash_policy);
    if let Some(a) = admission.clone() {
        engine = engine.with_admission(a);
    }
    let chaos = engine.run_trace(trace);

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
            let priority = admission
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

    let scaling = ScalingSummary {
        peak_provisioned: chaos.peak_provisioned,
        min_provisioned: chaos.min_provisioned,
        mean_provisioned: chaos.mean_provisioned(),
        events: chaos.events.clone(),
        lifetimes: chaos.lifetimes.clone(),
    };
    let replica_seconds = chaos.replica_seconds;
    let chip_seconds = replica_seconds * f64::from(schedule.allocation.total_xpus());

    Ok(FaultedEvaluation {
        chaos,
        attainment,
        goodput_rps,
        meets_slo,
        per_class,
        scaling,
        timeline,
        recovery,
        replica_seconds,
        chip_seconds,
    })
}

/// The disaggregated analogue of [`evaluate_fleet_faulted`]: plays a
/// schedule of per-pool crashes ([`rago_serving_sim::pools::PoolCrash`])
/// against a `[Prefill, Decode]` pool fleet while it serves `trace`, and
/// scores the stitched result against `slo`.
///
/// Crash semantics are pool-typed: a prefill-replica crash re-queues its
/// un-prefilled and un-transferred work onto prefill *survivors* only; a
/// decode-replica crash re-injects its in-flight decodes directly into
/// surviving decode replicas (their KV state has already crossed the
/// interconnect). Work whose pool has no live replica waits for a
/// restart's cold replacement, which joins the victim's pool, or fails if
/// none comes; a failed request is missing from the stitched timelines.
/// The requeue counters land in
/// [`rago_serving_sim::pools::TransferStats`] on the returned report, and
/// chips are billed for the configured pool sizes.
///
/// # Errors
///
/// As [`crate::disagg::evaluate_fleet_disagg`], plus
/// [`RagoError::InvalidConfig`] for crashes targeting the Monolithic pool,
/// an out-of-range replica, or carrying non-finite timings.
pub fn evaluate_fleet_faulted_pools(
    profiler: &StageProfiler,
    schedule: &Schedule,
    fleet: &FleetConfig,
    crashes: &[PoolCrash],
    trace: &Trace,
    slo: &SloTarget,
) -> Result<crate::disagg::DisaggEvaluation, RagoError> {
    let engine = faulted_pool_engine(profiler, schedule, fleet, crashes, trace, slo)?;
    let report = run_fleet(
        profiler,
        &engine,
        trace,
        &MetricsMode::Exact,
        &mut NullRecorder,
    );
    Ok(crate::disagg::score_disagg(report, schedule, fleet, slo))
}

/// The pool fleet `fleet` as [`fleet_engine`] builds it, with `crashes`
/// played onto it once each is checked to target a real replica of the
/// Prefill or Decode pool at a finite, non-negative time.
pub(crate) fn faulted_pool_engine(
    profiler: &StageProfiler,
    schedule: &Schedule,
    fleet: &FleetConfig,
    crashes: &[PoolCrash],
    trace: &Trace,
    slo: &SloTarget,
) -> Result<FleetEngine, RagoError> {
    let (prefill, decode) = crate::disagg::pool_pair(fleet)?;
    let engine = fleet_engine(
        profiler,
        schedule,
        fleet,
        trace,
        slo,
        &MetricsMode::Exact,
        None,
    )?;
    for c in crashes {
        let pool_len = match c.pool {
            PoolRole::Prefill => prefill.replicas,
            PoolRole::Decode => decode.replicas,
            PoolRole::Monolithic => {
                return Err(RagoError::InvalidConfig {
                    reason: "pool crashes target the Prefill or Decode pool".into(),
                })
            }
        };
        if c.replica as u64 >= u64::from(pool_len) {
            return Err(RagoError::InvalidConfig {
                reason: format!(
                    "crash at {:.3}s targets replica {} of a {}-replica {} pool",
                    c.at_s, c.replica, pool_len, c.pool
                ),
            });
        }
        if !(c.at_s.is_finite() && c.at_s >= 0.0) {
            return Err(RagoError::InvalidConfig {
                reason: format!(
                    "crash times must be finite and non-negative, got {}",
                    c.at_s
                ),
            });
        }
        if let Some(d) = c.restart_delay_s {
            if !(d.is_finite() && d >= 0.0) {
                return Err(RagoError::InvalidConfig {
                    reason: format!("restart delays must be finite and non-negative, got {d}"),
                });
            }
        }
    }
    let faults = crashes
        .iter()
        .map(|c| c.to_fault(prefill.replicas))
        .collect();
    Ok(engine.with_faults(FaultSchedule::new(faults)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{plan_capacity_profile, CapacityOptions};
    use crate::placement::PlacementPlan;
    use crate::schedule::{BatchingPolicy, ResourceAllocation};
    use crate::timevarying::evaluate_fleet_timevarying;
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::{FleetConfig, SequenceProfile, Stage};
    use rago_serving_sim::autoscaler::AutoscalerPolicy;
    use rago_serving_sim::faults::FaultEvent;
    use rago_workloads::{ArrivalProcess, MixTraceSpec, RateSegment, RequestClass};

    fn case1_profiler() -> StageProfiler {
        StageProfiler::new(
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

    /// The degenerate pin at the core layer: no faults, no admission,
    /// reactive driver ⇒ the same fleet report and cost as the
    /// time-varying evaluation.
    #[test]
    fn faultless_scenario_matches_timevarying() {
        let profiler = case1_profiler();
        let schedule = case1_schedule();
        let mix = priority_mix();
        let trace = diurnal_trace(&mix, 300);
        let policy = AutoscalerPolicy::new(1, 4)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(1.0)
            .with_scale_in_outstanding(2.0)
            .with_cooldown(2.0)
            .with_warmup(0.5);
        let fleet = FleetConfig::new(1, RouterPolicy::LeastOutstanding);
        let baseline =
            evaluate_fleet_timevarying(&profiler, &schedule, &fleet, &mix, &trace, Some(&policy))
                .unwrap();
        let scenario = FaultScenario::new(ScaleDriver::Reactive(policy));
        let faulted = evaluate_fleet_faulted(
            &profiler,
            &schedule,
            RouterPolicy::LeastOutstanding,
            &mix,
            &trace,
            &scenario,
        )
        .unwrap();
        assert_eq!(faulted.chaos.fleet, baseline.report);
        assert_eq!(faulted.replica_seconds, baseline.replica_seconds);
        assert_eq!(faulted.chip_seconds, baseline.chip_seconds);
        // With nothing shed or lost, offered attainment equals completed
        // attainment.
        assert_eq!(faulted.attainment, baseline.attainment);
        assert_eq!(faulted.goodput_rps, baseline.goodput_rps);
        assert!(faulted.recovery.is_empty());
        assert_eq!(faulted.chaos.fault.shed, 0);
        assert_eq!(faulted.chaos.fault.failed, 0);
    }

    /// The acceptance criterion: under a single-replica crash with
    /// admission on, the highest-priority class degrades less than the
    /// fleet's share of the lost replica.
    #[test]
    fn high_priority_class_degrades_less_than_fleet_share() {
        let profiler = case1_profiler();
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
        let healthy = evaluate_fleet_faulted(
            &profiler,
            &schedule,
            RouterPolicy::LeastOutstanding,
            &mix,
            &trace,
            &FaultScenario::new(ScaleDriver::Static { replicas }),
        )
        .unwrap();
        let faulted = evaluate_fleet_faulted(
            &profiler,
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
        let profiler = case1_profiler();
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
        let capacity =
            plan_capacity_profile(&profiler, &schedule, &slo, &profile_segments, &options).unwrap();
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
        let eval = evaluate_fleet_faulted(
            &profiler,
            &schedule,
            RouterPolicy::LeastOutstanding,
            &mix,
            &trace,
            &scenario,
        )
        .unwrap();
        assert_eq!(eval.chaos.fault.completed, 300);
        assert_eq!(eval.scaling.peak_provisioned, peak_target.max(plan.initial));
    }

    #[test]
    fn recovery_metrics_follow_a_crash() {
        let profiler = case1_profiler();
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
        let eval = evaluate_fleet_faulted(
            &profiler,
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

    #[test]
    fn invalid_inputs_are_rejected() {
        let profiler = case1_profiler();
        let schedule = case1_schedule();
        let mix = priority_mix();
        let scenario = FaultScenario::new(ScaleDriver::Static { replicas: 1 });
        let empty = Trace { requests: vec![] };
        assert!(matches!(
            evaluate_fleet_faulted(
                &profiler,
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
            evaluate_fleet_faulted(
                &profiler,
                &schedule,
                RouterPolicy::RoundRobin,
                &mix,
                &trace,
                &scenario
            ),
            Err(RagoError::InvalidConfig { .. })
        ));
    }

    /// A prefill-pool crash mid-run degrades (never improves) the split's
    /// attainment, conserves every request onto the survivors, and invalid
    /// crash targets error instead of panicking.
    #[test]
    fn pool_crashes_requeue_to_survivors_and_degrade_attainment() {
        use rago_schema::{FleetConfig, PoolRole, SloTarget};
        use rago_serving_sim::pools::PoolCrash;
        use rago_workloads::{ArrivalProcess, TraceSpec};

        let profiler = case1_profiler();
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
        let healthy =
            crate::disagg::evaluate_fleet_disagg(&profiler, &schedule, &fleet, &trace, &slo)
                .unwrap();
        let crash = PoolCrash {
            pool: PoolRole::Prefill,
            replica: 0,
            at_s: 0.2,
            restart_delay_s: None,
        };
        let crashed =
            evaluate_fleet_faulted_pools(&profiler, &schedule, &fleet, &[crash], &trace, &slo)
                .unwrap();
        // Conservation: every request still completes on the survivors.
        assert_eq!(crashed.report.merged.metrics.completed, 120);
        assert!(crashed.attainment <= healthy.attainment);
        // Crashing the Monolithic pool is a configuration error.
        let bad = PoolCrash {
            pool: PoolRole::Monolithic,
            replica: 0,
            at_s: 0.1,
            restart_delay_s: None,
        };
        assert!(matches!(
            evaluate_fleet_faulted_pools(&profiler, &schedule, &fleet, &[bad], &trace, &slo),
            Err(RagoError::InvalidConfig { .. })
        ));
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
    /// pool can no longer serve fail, and the call still returns `Ok`.
    #[test]
    fn single_replica_pool_crashes_wait_or_fail_instead_of_panicking() {
        use rago_schema::PoolRole;
        use rago_serving_sim::pools::PoolCrash;

        let profiler = case1_profiler();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = pool_trace();
        let fleet = FleetConfig::split(1, 1, RouterPolicy::LeastOutstanding);
        for pool in [PoolRole::Prefill, PoolRole::Decode] {
            let restart = PoolCrash {
                pool,
                replica: 0,
                at_s: 1.0,
                restart_delay_s: Some(0.5),
            };
            let eval = evaluate_fleet_faulted_pools(
                &profiler,
                &schedule,
                &fleet,
                &[restart],
                &trace,
                &slo,
            )
            .unwrap();
            assert_eq!(eval.report.merged.metrics.completed, 120, "{pool} restart");

            let lost = PoolCrash {
                restart_delay_s: None,
                ..restart
            };
            assert!(evaluate_fleet_faulted_pools(
                &profiler,
                &schedule,
                &fleet,
                &[lost],
                &trace,
                &slo
            )
            .is_ok());
            let chaos = faulted_pool_engine(&profiler, &schedule, &fleet, &[lost], &trace, &slo)
                .unwrap()
                .run_trace(&trace);
            let fault = &chaos.fault;
            assert_eq!(fault.injected, 120);
            assert_eq!(
                fault.completed + fault.failed,
                fault.injected,
                "{pool} loss"
            );
            assert!(fault.failed > 0, "the {pool} loss left nothing to fail");
        }
    }

    /// A crashed pool replica's cold replacement is reported next to it but
    /// billed in its place: the split still costs its configured chips.
    #[test]
    fn restarted_pool_replicas_are_billed_once() {
        use rago_schema::PoolRole;
        use rago_serving_sim::pools::PoolCrash;

        let profiler = case1_profiler();
        let schedule = case1_schedule();
        let fleet = FleetConfig::split(2, 1, RouterPolicy::LeastOutstanding);
        let crash = PoolCrash {
            pool: PoolRole::Prefill,
            replica: 0,
            at_s: 0.5,
            restart_delay_s: Some(0.2),
        };
        let eval = evaluate_fleet_faulted_pools(
            &profiler,
            &schedule,
            &fleet,
            &[crash],
            &pool_trace(),
            &SloTarget::new(1.0, 0.1),
        )
        .unwrap();
        assert_eq!(eval.report.prefill.per_replica.len(), 3);
        assert_eq!(eval.total_xpus, crate::disagg::split_xpus(&schedule, 2, 1));
    }
}
