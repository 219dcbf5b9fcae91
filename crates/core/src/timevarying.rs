//! Time-varying, multi-tenant fleet evaluation: the scenario axis where
//! traffic breathes and capacity follows it.
//!
//! [`crate::dynamic::evaluate_fleet_dynamic_with`] scores a *fixed* fleet under
//! one SLO. This module generalizes both sides: the trace may be
//! class-tagged (a [`WorkloadMix`] of tenants, each with its own
//! [`rago_schema::SloTarget`]) and generated by a time-varying
//! [`rago_workloads::ArrivalProcess`] (diurnal, spike, piecewise), and the
//! fleet may be elastic — a reactive
//! [`rago_serving_sim::autoscaler::AutoscalerPolicy`] resizing it while the
//! trace plays. The result scores every tenant against its *own* SLO and
//! reports what the fleet *paid for* (replica-seconds and chip-seconds), so
//! autoscaled and statically provisioned deployments compare on equal
//! terms.
//!
//! With one class, a constant rate, and no autoscaler, the evaluation
//! reduces **bit-exactly** to [`crate::dynamic::evaluate_fleet_dynamic_with`] —
//! the equivalence is pinned by `timevarying_matches_fleet_dynamic` below
//! and property-tested in `rago-serving-sim/tests/proptest_tenant.rs`.

use crate::dynamic::{pipeline_spec, validate_trace};
use crate::error::RagoError;
use crate::profiler::StageProfiler;
use crate::schedule::Schedule;
use rago_schema::{FleetConfig, SloTarget};
use rago_serving_sim::autoscaler::{AutoscalerPolicy, ReplicaLifetime, ScalingEvent};
use rago_serving_sim::cluster::FleetReport;
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::{MetricsMode, StreamingConfig};
use rago_workloads::{Trace, WorkloadMix};
use serde::{Deserialize, Serialize};

/// One tenant class's outcome in a time-varying evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassOutcome {
    /// The workload-class tag (index into the mix).
    pub class: u32,
    /// The tenant name from the mix.
    pub name: String,
    /// Requests of this class in the trace.
    pub requests: usize,
    /// The SLO this tenant was scored against (its own, from the mix).
    pub slo: SloTarget,
    /// Fraction of the class's requests meeting its SLO (1.0 when the
    /// class sent no requests).
    pub attainment: f64,
    /// Requests meeting the class SLO per second of the class's own serving
    /// window, in requests per second.
    pub goodput_rps: f64,
    /// Whether the class's attainment reaches its SLO's required fraction.
    pub meets_slo: bool,
}

/// The scaling history of an autoscaled evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingSummary {
    /// Every scaling decision, in time order.
    pub events: Vec<ScalingEvent>,
    /// Per-replica provisioning windows.
    pub lifetimes: Vec<ReplicaLifetime>,
    /// Largest provisioned replica count at any instant.
    pub peak_provisioned: u32,
    /// Smallest provisioned replica count at any instant.
    pub min_provisioned: u32,
    /// Mean provisioned replicas over the run.
    pub mean_provisioned: f64,
}

/// The outcome of one time-varying, multi-tenant fleet evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeVaryingEvaluation {
    /// The merged fleet report (per-replica breakdowns, per-class metric
    /// rows in `report.merged.per_class`, imbalance stats).
    pub report: FleetReport,
    /// Fraction of all requests meeting *their own class's* SLO.
    pub attainment: f64,
    /// Requests meeting their class SLO per second of fleet serving
    /// duration.
    pub goodput_rps: f64,
    /// Whether every class reaches its own SLO's attainment requirement.
    pub meets_slo: bool,
    /// Per-tenant outcomes, by class id.
    pub per_class: Vec<ClassOutcome>,
    /// Scaling history, or `None` when the fleet was statically
    /// provisioned.
    pub scaling: Option<ScalingSummary>,
    /// Integral of provisioned replicas over time, in replica-seconds. For
    /// a static fleet this is `replicas × makespan`; for an autoscaled one
    /// it is what the policy actually held provisioned.
    pub replica_seconds: f64,
    /// `replica_seconds × total XPUs per replica` — the chip-time the
    /// deployment paid, the cost axis the `tenant_mix` bench compares.
    pub chip_seconds: f64,
}

impl TimeVaryingEvaluation {
    /// The tenants ranked by goodput, best first (ties break toward the
    /// lower class id).
    pub fn tenants_by_goodput(&self) -> Vec<ClassOutcome> {
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
}

/// Evaluates `schedule`'s pipeline as a fleet under a (possibly
/// class-tagged, possibly time-varying) `trace`, scoring every request
/// against its own class's SLO from `mix`.
///
/// * With `autoscaler = None`, the fleet is `fleet.replicas` fixed replicas
///   behind `fleet.router` — exactly the run of
///   [`crate::dynamic::evaluate_fleet_dynamic_with`], bit for bit; this function
///   adds the per-tenant scoring and the provisioning cost
///   (`replicas × makespan` replica-seconds).
/// * With `autoscaler = Some(policy)`, the fleet starts at
///   `policy.min_replicas` and the reactive policy resizes it while the
///   trace plays ([`ScaleDriver::Reactive`]); `fleet.replicas` is ignored and
///   `fleet.router` routes over the currently routable replicas. The
///   scaling history is returned in
///   [`TimeVaryingEvaluation::scaling`].
///
/// Untagged traces (all requests class 0) work with any single-class mix —
/// that is the homogeneous special case.
///
/// # Errors
///
/// Returns [`RagoError::InvalidConfig`] for invalid schedules or fleet
/// configurations, an empty trace, a class tag outside the mix, or an
/// invalid per-class SLO, and [`RagoError::CostModel`] when the schedule
/// cannot be profiled.
pub fn evaluate_fleet_timevarying(
    profiler: &StageProfiler,
    schedule: &Schedule,
    fleet: &FleetConfig,
    mix: &WorkloadMix,
    trace: &Trace,
    autoscaler: Option<&AutoscalerPolicy>,
) -> Result<TimeVaryingEvaluation, RagoError> {
    evaluate_fleet_timevarying_with(
        profiler,
        schedule,
        fleet,
        mix,
        trace,
        autoscaler,
        &MetricsMode::Exact,
    )
}

/// [`evaluate_fleet_timevarying`] with an explicit metrics mode. In
/// `Streaming` mode the engines keep `O(histogram buckets)` state instead
/// of per-request timelines, and the mix's per-tenant SLOs are injected
/// into the streaming configuration automatically — the caller only chooses
/// the histogram resolution (any class SLOs already present in the supplied
/// configuration are replaced by the mix's; a run-level SLO is preserved
/// for report-level queries).
///
/// # Errors
///
/// As [`evaluate_fleet_timevarying`].
pub fn evaluate_fleet_timevarying_with(
    profiler: &StageProfiler,
    schedule: &Schedule,
    fleet: &FleetConfig,
    mix: &WorkloadMix,
    trace: &Trace,
    autoscaler: Option<&AutoscalerPolicy>,
    mode: &MetricsMode,
) -> Result<TimeVaryingEvaluation, RagoError> {
    schedule.validate()?;
    fleet.validate().map_err(|e| RagoError::InvalidConfig {
        reason: e.to_string(),
    })?;
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

    // In streaming mode the sink must know every SLO it will be asked
    // about up front: re-root the caller's configuration on the mix's
    // per-tenant targets so the per-class scoring below is answerable.
    let mode = match mode {
        MetricsMode::Exact => MetricsMode::Exact,
        MetricsMode::Streaming(config) => {
            let mut cfg = StreamingConfig::new(config.spec);
            cfg.slo = config.slo;
            for (i, class) in mix.classes.iter().enumerate() {
                cfg = cfg.with_class_slo(i as u32, class.slo);
            }
            MetricsMode::Streaming(cfg)
        }
    };

    let spec = pipeline_spec(profiler, schedule, None)?;
    let driver = match autoscaler {
        None => ScaleDriver::Static {
            replicas: fleet.replicas,
        },
        Some(policy) => ScaleDriver::Reactive(*policy),
    };
    let run = FleetEngine::new(spec, fleet.router, driver).run_trace_with_mode(
        trace,
        &mode,
        &mut rago_telemetry::NullRecorder,
    );
    let (scaling, replica_seconds) = match autoscaler {
        None => (
            None,
            f64::from(fleet.replicas) * run.fleet.merged.metrics.makespan_s,
        ),
        Some(_) => (
            Some(ScalingSummary {
                peak_provisioned: run.peak_provisioned,
                min_provisioned: run.min_provisioned,
                mean_provisioned: run.mean_provisioned(),
                events: run.events,
                lifetimes: run.lifetimes,
            }),
            run.replica_seconds,
        ),
    };
    let report = run.fleet;

    // Score every tenant against its own SLO, through the engine's
    // per-class accounting primitives — one definition of per-class SLO
    // counting, attainment, and goodput across the workspace. Every request
    // belongs to exactly one class (tags were validated against the mix
    // above), so the class counts partition the run.
    let counts: Vec<(usize, usize)> = mix
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| report.merged.class_slo_counts(i as u32, &c.slo))
        .collect();
    let met_total: usize = counts.iter().map(|(met, _)| met).sum();
    let per_class: Vec<ClassOutcome> = mix
        .classes
        .iter()
        .zip(counts)
        .enumerate()
        .map(|(i, (c, (met, requests)))| {
            let class = i as u32;
            let class_attainment = if requests == 0 {
                1.0
            } else {
                met as f64 / requests as f64
            };
            ClassOutcome {
                class,
                name: c.name.clone(),
                requests,
                slo: c.slo,
                attainment: class_attainment,
                goodput_rps: report.merged.class_goodput_rps(class, &c.slo),
                meets_slo: class_attainment >= c.slo.attainment,
            }
        })
        .collect();
    // `metrics.requests` rather than `timelines.len()`: identical for exact
    // runs, and the only count a timeline-free streaming report has.
    let total = report.merged.metrics.requests;
    let attainment = met_total as f64 / total as f64;
    let serving_duration = report.merged.metrics.serving_duration_s;
    let goodput_rps = if serving_duration > 0.0 {
        met_total as f64 / serving_duration
    } else {
        0.0
    };
    let meets_slo = per_class.iter().all(|c| c.meets_slo);
    let chip_seconds = replica_seconds * f64::from(schedule.allocation.total_xpus());

    Ok(TimeVaryingEvaluation {
        report,
        attainment,
        goodput_rps,
        meets_slo,
        per_class,
        scaling,
        replica_seconds,
        chip_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::evaluate_fleet_dynamic_with;
    use crate::placement::PlacementPlan;
    use crate::schedule::{BatchingPolicy, ResourceAllocation};
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::{RouterPolicy, SequenceProfile, Stage};
    use rago_workloads::{ArrivalProcess, MixTraceSpec, RequestClass, TraceSpec};

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

    /// The acceptance-criterion equivalence: one class, constant rate, no
    /// autoscaler — `evaluate_fleet_timevarying` reproduces
    /// `evaluate_fleet_dynamic_with` bit-exactly.
    #[test]
    fn timevarying_matches_fleet_dynamic_bit_exactly() {
        let profiler = case1_profiler();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let profile = SequenceProfile::paper_default().with_decode_tokens(32);
        let trace = TraceSpec {
            num_requests: 90,
            profile,
            arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
            length_jitter: 0.2,
            seed: 13,
        }
        .generate();
        let fleet = FleetConfig::new(3, RouterPolicy::LeastOutstanding);
        let mix = WorkloadMix::single("all", profile, 0.2, slo);
        let tv =
            evaluate_fleet_timevarying(&profiler, &schedule, &fleet, &mix, &trace, None).unwrap();
        let dynamic = evaluate_fleet_dynamic_with(
            &profiler,
            &schedule,
            &fleet,
            &trace,
            &slo,
            &rago_serving_sim::MetricsMode::Exact,
        )
        .unwrap();
        assert_eq!(tv.report, dynamic.report);
        assert_eq!(tv.attainment, dynamic.attainment);
        assert_eq!(tv.goodput_rps, dynamic.goodput_rps);
        assert!(tv.scaling.is_none());
        assert_eq!(tv.per_class.len(), 1);
        assert_eq!(tv.per_class[0].requests, 90);
        assert!((tv.replica_seconds - 3.0 * tv.report.merged.metrics.makespan_s).abs() < 1e-12);
        assert!(tv.chip_seconds > tv.replica_seconds); // 16 XPUs per replica
    }

    #[test]
    fn tenants_are_scored_against_their_own_slos() {
        let profiler = case1_profiler();
        let schedule = case1_schedule();
        let mix = two_class_mix();
        let trace = MixTraceSpec {
            num_requests: 120,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 30.0 },
            seed: 7,
        }
        .generate();
        let fleet = FleetConfig::new(2, RouterPolicy::LeastOutstanding);
        let tv =
            evaluate_fleet_timevarying(&profiler, &schedule, &fleet, &mix, &trace, None).unwrap();
        assert_eq!(tv.per_class.len(), 2);
        let total: usize = tv.per_class.iter().map(|c| c.requests).sum();
        assert_eq!(total, 120);
        // The overall attainment is the request-weighted mix of the classes.
        let weighted: f64 = tv
            .per_class
            .iter()
            .map(|c| c.attainment * c.requests as f64)
            .sum::<f64>()
            / 120.0;
        assert!((weighted - tv.attainment).abs() < 1e-12);
        // Ranking is sorted by goodput.
        let ranked = tv.tenants_by_goodput();
        for pair in ranked.windows(2) {
            assert!(pair[0].goodput_rps >= pair[1].goodput_rps);
        }
        // meets_slo is the conjunction over classes.
        assert_eq!(tv.meets_slo, tv.per_class.iter().all(|c| c.meets_slo));
    }

    #[test]
    fn autoscaled_diurnal_run_saves_chip_time_at_matching_attainment() {
        use rago_serving_sim::autoscaler::AutoscalerPolicy;
        let profiler = case1_profiler();
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
        let static_fleet = FleetConfig::new(4, RouterPolicy::LeastOutstanding);
        let fixed =
            evaluate_fleet_timevarying(&profiler, &schedule, &static_fleet, &mix, &trace, None)
                .unwrap();
        let policy = AutoscalerPolicy::new(1, 5)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(1.0)
            .with_scale_in_outstanding(2.0)
            .with_cooldown(2.0)
            .with_warmup(0.5);
        let elastic = evaluate_fleet_timevarying(
            &profiler,
            &schedule,
            &static_fleet,
            &mix,
            &trace,
            Some(&policy),
        )
        .unwrap();
        let scaling = elastic.scaling.as_ref().expect("autoscaled run");
        assert!(
            scaling.peak_provisioned > 1,
            "diurnal peak never scaled out"
        );
        assert!(!scaling.events.is_empty());
        assert!(
            elastic.replica_seconds < fixed.replica_seconds,
            "autoscaler paid {} replica-seconds vs static {}",
            elastic.replica_seconds,
            fixed.replica_seconds
        );
        assert!(
            elastic.attainment >= fixed.attainment - 0.05,
            "autoscaler attainment {} collapsed vs static {}",
            elastic.attainment,
            fixed.attainment
        );
    }

    /// Streaming mode reproduces the exact evaluation's tenant scores — SLO
    /// counting is exact online; only percentile estimates are
    /// histogram-quantized — for both static and autoscaled fleets.
    #[test]
    fn streaming_timevarying_matches_exact_tenant_scores() {
        use rago_schema::HistogramSpec;

        let profiler = case1_profiler();
        let schedule = case1_schedule();
        let mix = two_class_mix();
        let trace = MixTraceSpec {
            num_requests: 120,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 30.0 },
            seed: 7,
        }
        .generate();
        let fleet = FleetConfig::new(2, RouterPolicy::LeastOutstanding);
        let mode = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));
        for policy in [
            None,
            Some(
                AutoscalerPolicy::new(1, 3)
                    .with_evaluation_interval(0.5)
                    .with_scale_out_queue_depth(1.0),
            ),
        ] {
            let exact = evaluate_fleet_timevarying(
                &profiler,
                &schedule,
                &fleet,
                &mix,
                &trace,
                policy.as_ref(),
            )
            .unwrap();
            let streamed = evaluate_fleet_timevarying_with(
                &profiler,
                &schedule,
                &fleet,
                &mix,
                &trace,
                policy.as_ref(),
                &mode,
            )
            .unwrap();
            assert_eq!(streamed.attainment, exact.attainment);
            assert_eq!(streamed.goodput_rps, exact.goodput_rps);
            assert_eq!(streamed.meets_slo, exact.meets_slo);
            assert_eq!(streamed.replica_seconds, exact.replica_seconds);
            assert_eq!(streamed.per_class.len(), exact.per_class.len());
            for (s, e) in streamed.per_class.iter().zip(&exact.per_class) {
                assert_eq!(s.requests, e.requests, "class {} request count", s.class);
                assert_eq!(s.attainment, e.attainment, "class {} attainment", s.class);
                assert_eq!(s.goodput_rps, e.goodput_rps, "class {} goodput", s.class);
            }
            assert!(streamed.report.merged.timelines.is_empty());
            assert!(streamed.report.merged.retained_bytes() < exact.report.merged.retained_bytes());
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let profiler = case1_profiler();
        let schedule = case1_schedule();
        let mix = two_class_mix();
        let fleet = FleetConfig::new(1, RouterPolicy::RoundRobin);
        // Empty trace.
        let empty = Trace { requests: vec![] };
        assert!(matches!(
            evaluate_fleet_timevarying(&profiler, &schedule, &fleet, &mix, &empty, None),
            Err(RagoError::InvalidConfig { .. })
        ));
        // A class tag outside the mix.
        let mut trace = MixTraceSpec {
            num_requests: 10,
            mix: mix.clone(),
            arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
            seed: 1,
        }
        .generate();
        trace.requests[3].class = 9;
        assert!(matches!(
            evaluate_fleet_timevarying(&profiler, &schedule, &fleet, &mix, &trace, None),
            Err(RagoError::InvalidConfig { .. })
        ));
    }
}
