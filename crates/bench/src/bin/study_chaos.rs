//! Chaos study: predictive-versus-reactive scaling and crash-at-peak
//! degradation under admission control, printed as JSON.
//!
//! Three runs over the same optimized schedule:
//!
//! * **Reactive** — an [`AutoscalerPolicy`] follows a diurnal-shaped
//!   piecewise rate profile by watching queue depth, paying the warm-up
//!   lag at every ramp.
//! * **Predictive** — the *same* profile is handed to
//!   `plan_capacity_profile`, its per-interval replica schedule becomes a
//!   feed-forward `ScalingPlan` (`scaling_plan_from_profile`, led by the
//!   warm-up time), and the fleet executes it open-loop.
//! * **Crash at peak** — a three-priority tenant mix on a static fleet
//!   loses one replica at the traffic peak with admission control on, and
//!   is compared against the identical run without the fault.
//!
//! Acceptance (asserted, and printed as the JSON's `acceptance` flags):
//!
//! * `predictive_beats_reactive` — the predictive run serves the profile
//!   at no worse offered attainment than the reactive run for no more
//!   chip-hours.
//! * `degradation_proportional` — the highest-priority class's attainment
//!   drop under the crash stays below the fleet share of the lost replica.
//! * `matches_baseline` — with no faults, no admission, and a static
//!   driver the chaos engine's fleet report is bit-identical to the plain
//!   exact-mode fleet evaluation (`evaluate_fleet_dynamic_with`) of the
//!   same fleet.
//!
//! Run with: `cargo run --release -p rago-bench --bin study_chaos`

use rago_core::faulted::{scaling_plan_from_profile, FaultScenario, FaultedEvaluation};
use rago_core::{evaluate_fleet_dynamic_with, CapacityOptions, MetricsMode, Rago, SearchOptions};
use rago_schema::presets::{self, LlmSize};
use rago_schema::{FleetConfig, RouterPolicy, SequenceProfile, SloTarget};
use rago_serving_sim::autoscaler::AutoscalerPolicy;
use rago_serving_sim::faults::{
    AdmissionConfig, FaultEvent, FaultSchedule, PredictivePolicy, ScaleDriver,
};
use rago_workloads::{ArrivalProcess, MixTraceSpec, RateSegment, RequestClass, WorkloadMix};

/// Discretizes one diurnal cycle (trough → peak → trough) into piecewise
/// segments, so the trace generator and the capacity planner see the same
/// profile.
fn diurnal_segments(base_rps: f64, peak_rps: f64, period_s: f64, n: usize) -> Vec<RateSegment> {
    let dt = period_s / n as f64;
    (0..n)
        .map(|i| {
            let mid = (i as f64 + 0.5) * dt;
            let phase = (2.0 * std::f64::consts::PI * mid / period_s).cos();
            RateSegment {
                rate_rps: base_rps + (peak_rps - base_rps) * (1.0 - phase) / 2.0,
                duration_s: dt,
            }
        })
        .collect()
}

fn class_rows(eval: &FaultedEvaluation) -> String {
    eval.per_class
        .iter()
        .map(|c| {
            format!(
                "      {{\"class\": {}, \"name\": \"{}\", \"priority\": {}, \"offered\": {}, \
                 \"completed\": {}, \"shed\": {}, \"attainment\": {:.4}, \"meets_slo\": {}}}",
                c.class,
                c.name,
                c.priority,
                c.offered,
                c.completed,
                c.shed,
                c.attainment,
                c.meets_slo
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let rago = Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        rago_bench::default_cluster(),
    );
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("static search succeeds");
    let best = frontier
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();
    let static_qps = best.performance.qps.max(1e-9);

    // ---- Runs A/B: reactive vs predictive on the same known profile ----
    let slo = SloTarget::new(2.0, 0.1);
    let profile_def = SequenceProfile::paper_default().with_decode_tokens(32);
    let mix = WorkloadMix::single("all", profile_def, 0.1, slo);
    let period_s = 32.0;
    let base_rps = 0.3 * static_qps;
    let peak_rps = 2.2 * static_qps;
    let segments = diurnal_segments(base_rps, peak_rps, period_s, 8);
    let mean_rps = segments.iter().map(|s| s.rate_rps).sum::<f64>() / segments.len() as f64;
    let num_requests = (mean_rps * period_s).ceil() as usize;
    let trace = MixTraceSpec {
        num_requests,
        mix: mix.clone(),
        arrival: ArrivalProcess::PiecewiseRate {
            segments: segments.clone(),
        },
        seed: 29,
    }
    .generate();

    let sizing_duration_s = 6.0;
    let capacity = CapacityOptions {
        max_replicas: 6,
        num_requests: (peak_rps * sizing_duration_s).ceil() as usize,
        profile: profile_def,
        ..CapacityOptions::default()
    };
    let capacity_profile = rago
        .plan_capacity_profile(&best.schedule, &slo, &segments, &capacity)
        .expect("the profile is plannable within the replica bound");
    let max_replicas = capacity_profile.peak_replicas.max(1);
    let warmup_s = 0.5;

    let reactive_policy = AutoscalerPolicy::new(1, max_replicas)
        .with_evaluation_interval(0.25)
        .with_scale_out_queue_depth(2.0)
        .with_scale_in_outstanding(10.0)
        .with_cooldown(1.0)
        .with_warmup(warmup_s);
    let reactive = rago
        .evaluate_fleet_faulted(
            &best.schedule,
            RouterPolicy::LeastOutstanding,
            &mix,
            &trace,
            &FaultScenario::new(ScaleDriver::Reactive(reactive_policy)),
        )
        .expect("reactive run succeeds");

    // Feed the planner's replica schedule forward, led by the warm-up so
    // capacity lands *before* each rate change.
    let plan = scaling_plan_from_profile(&capacity_profile, warmup_s);
    let plan_steps = plan.steps.len();
    let predictive = rago
        .evaluate_fleet_faulted(
            &best.schedule,
            RouterPolicy::LeastOutstanding,
            &mix,
            &trace,
            &FaultScenario::new(ScaleDriver::Predictive(PredictivePolicy::new(
                plan, warmup_s,
            ))),
        )
        .expect("predictive run succeeds");

    let predictive_beats_reactive = predictive.attainment >= reactive.attainment
        && predictive.chip_seconds <= reactive.chip_seconds;
    assert!(
        predictive_beats_reactive,
        "predictive (attainment {:.4}, {:.1} chip-s) lost to reactive (attainment {:.4}, {:.1} chip-s)",
        predictive.attainment, predictive.chip_seconds, reactive.attainment, reactive.chip_seconds
    );

    // ---- Run C: crash at the peak, three priorities, admission on ----
    let crash_mix = WorkloadMix::new(vec![
        RequestClass::new(
            "batch",
            1.0,
            SequenceProfile::paper_default().with_decode_tokens(128),
            0.1,
            SloTarget::new(10.0, 0.2),
        ),
        RequestClass::new(
            "search",
            2.0,
            SequenceProfile::paper_default().with_decode_tokens(48),
            0.1,
            SloTarget::new(4.0, 0.1),
        )
        .with_priority(1),
        RequestClass::new(
            "chat",
            3.0,
            SequenceProfile::paper_default().with_decode_tokens(32),
            0.1,
            SloTarget::new(2.0, 0.05),
        )
        .with_priority(2),
    ]);
    let crash_trace = MixTraceSpec {
        num_requests,
        mix: crash_mix.clone(),
        arrival: ArrivalProcess::Diurnal {
            base_rps,
            peak_rps,
            period_s,
        },
        seed: 31,
    }
    .generate();
    let crash_replicas = max_replicas.max(2);
    let crash_at_s = period_s / 2.0; // the diurnal peak
    let healthy = rago
        .evaluate_fleet_faulted(
            &best.schedule,
            RouterPolicy::LeastOutstanding,
            &crash_mix,
            &crash_trace,
            &FaultScenario::new(ScaleDriver::Static {
                replicas: crash_replicas,
            }),
        )
        .expect("healthy run succeeds");

    // ---- Baseline pin: faultless static chaos run == plain fleet run ----
    let baseline = evaluate_fleet_dynamic_with(
        rago.profiler(),
        &best.schedule,
        &FleetConfig::new(crash_replicas, RouterPolicy::LeastOutstanding),
        &crash_trace,
        &crash_mix.classes[0].slo,
        &MetricsMode::Exact,
    )
    .expect("baseline evaluation succeeds");
    let matches_baseline = healthy.chaos.fleet == baseline.report;
    assert!(
        matches_baseline,
        "faultless chaos run drifted from the plain fleet baseline"
    );

    let crash_scenario = FaultScenario::new(ScaleDriver::Static {
        replicas: crash_replicas,
    })
    .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
        replica: 0,
        at_s: crash_at_s,
        restart_delay_s: period_s / 8.0,
    }]))
    .with_admission(AdmissionConfig::new(4.0, 24.0))
    .with_recovery_slo(crash_mix.classes[2].slo)
    .with_recovery_window(period_s / 32.0);
    let crashed = rago
        .evaluate_fleet_faulted(
            &best.schedule,
            RouterPolicy::LeastOutstanding,
            &crash_mix,
            &crash_trace,
            &crash_scenario,
        )
        .expect("crash run succeeds");
    assert_eq!(crashed.chaos.fault.disruptions.len(), 1);

    let top_drop = (healthy.per_class[2].attainment - crashed.per_class[2].attainment).max(0.0);
    let fleet_share = 1.0 / f64::from(crash_replicas);
    let degradation_proportional = top_drop < fleet_share;
    assert!(
        degradation_proportional,
        "chat dropped {top_drop:.4}, worse than the lost replica's share {fleet_share:.4}"
    );

    let recovery_row = crashed.recovery.first().map_or_else(
        || "null".to_string(),
        |r| {
            format!(
                "{{\"reattainment_s\": {}, \"dip_area\": {:.4}}}",
                r.reattainment_s
                    .map_or_else(|| "null".to_string(), |t| format!("{t:.4}")),
                r.dip_area
            )
        },
    );

    print!(
        "{{\n  \"bench\": \"chaos_suite\",\n  \
         \"schedule\": \"{}\",\n  \"static_qps\": {static_qps:.3},\n  \
         \"profile\": {{\"base_rps\": {base_rps:.3}, \"peak_rps\": {peak_rps:.3}, \
         \"period_s\": {period_s:.1}, \"segments\": {}, \"num_requests\": {num_requests}}},\n  \
         \"reactive\": {{\"attainment\": {:.4}, \"chip_hours\": {:.4}, \
         \"peak_provisioned\": {}, \"shed\": {}, \"failed\": {}}},\n  \
         \"predictive\": {{\"attainment\": {:.4}, \"chip_hours\": {:.4}, \
         \"peak_provisioned\": {}, \"plan_steps\": {plan_steps}}},\n  \
         \"crash\": {{\n    \"replicas\": {crash_replicas}, \"crash_at_s\": {crash_at_s:.1}, \
         \"restart_delay_s\": {:.1},\n    \
         \"injected\": {}, \"completed\": {}, \"shed\": {}, \"failed\": {}, \"retried\": {},\n    \
         \"recovery\": {recovery_row},\n    \
         \"top_class_drop\": {top_drop:.4}, \"fleet_share\": {fleet_share:.4},\n    \
         \"healthy_per_class\": [\n{}\n    ],\n    \"faulted_per_class\": [\n{}\n    ]\n  }},\n  \
         \"acceptance\": {{\"predictive_beats_reactive\": {predictive_beats_reactive}, \
         \"degradation_proportional\": {degradation_proportional}, \
         \"matches_baseline\": {matches_baseline}}}\n}}\n",
        best.schedule.describe(),
        segments.len(),
        reactive.attainment,
        reactive.chip_hours(),
        reactive.chaos.peak_provisioned,
        reactive.chaos.fault.shed,
        reactive.chaos.fault.failed,
        predictive.attainment,
        predictive.chip_hours(),
        predictive.chaos.peak_provisioned,
        period_s / 8.0,
        crashed.chaos.fault.injected,
        crashed.chaos.fault.completed,
        crashed.chaos.fault.shed,
        crashed.chaos.fault.failed,
        crashed.chaos.fault.retried,
        class_rows(&healthy),
        class_rows(&crashed),
    );
}
