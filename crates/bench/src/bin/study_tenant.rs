//! Multi-tenant, time-varying study: a reactive autoscaler versus static
//! peak provisioning on a diurnal two-tenant trace, printed as JSON.
//!
//! The scenario: an interactive chat tenant (tight SLO, short decodes,
//! 3× the traffic) shares the fleet with a long-form report tenant (loose
//! SLO, 4× the decode length). Arrivals follow one diurnal cycle whose
//! peak is ~7× the trough. Two provisioning strategies serve the identical
//! trace with the identical schedule and router:
//!
//! * **Static** — the fleet `plan_capacity` sizes for the *peak* rate,
//!   held for the whole run (what a fixed deployment must do to survive
//!   the evening).
//! * **Autoscaled** — a reactive policy starting at one replica, scaling
//!   out on queue depth with a warm-up delay and scaling in after a
//!   cooldown, capped at the static plan's size.
//!
//! Acceptance (asserted): the autoscaler serves the trace at **no worse
//! SLO attainment** than the static plan while paying **fewer
//! chip-hours**. The JSON also carries the per-tenant goodput ranking of
//! the autoscaled run.
//!
//! Run with: `cargo run --release -p rago-bench --bin study_tenant`

use rago_core::faulted::{FaultScenario, FaultedEvaluation};
use rago_core::{CapacityOptions, Rago, SearchOptions};
use rago_schema::presets::{self, LlmSize};
use rago_schema::{RouterPolicy, SequenceProfile, SloTarget};
use rago_serving_sim::autoscaler::AutoscalerPolicy;
use rago_serving_sim::faults::ScaleDriver;
use rago_workloads::{ArrivalProcess, MixTraceSpec, RequestClass, WorkloadMix};

fn class_rows(eval: &FaultedEvaluation) -> String {
    eval.per_class
        .iter()
        .map(|c| {
            format!(
                "      {{\"class\": {}, \"name\": \"{}\", \"requests\": {}, \
                 \"attainment\": {:.4}, \"goodput_rps\": {:.3}, \"meets_slo\": {}}}",
                c.class, c.name, c.offered, c.attainment, c.goodput_rps, c.meets_slo
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

    // Two tenants with their own SLOs and length profiles.
    let mix = WorkloadMix::new(vec![
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
    ]);

    // One diurnal cycle: trough at 0.3× the single-replica static QPS,
    // peak at 2.2× — a fleet question at the peak, near-idle at the trough.
    let period_s = 32.0;
    let base_rps = 0.3 * static_qps;
    let peak_rps = 2.2 * static_qps;
    let mean_rps = 0.5 * (base_rps + peak_rps);
    let num_requests = (mean_rps * period_s).ceil() as usize;
    let trace = MixTraceSpec {
        num_requests,
        mix: mix.clone(),
        arrival: ArrivalProcess::Diurnal {
            base_rps,
            peak_rps,
            period_s,
        },
        seed: 29,
    }
    .generate();

    // Static provisioning sizes for the peak with the strictest tenant's
    // SLO (the chat tenant dominates the mix). The sizing trace must span
    // several seconds of *sustained* peak traffic — a fixed request count
    // would be a sub-second burst the fleet drains within the SLO, sizing
    // every fleet to one replica.
    let sizing_duration_s = 6.0;
    let capacity = CapacityOptions {
        max_replicas: 6,
        num_requests: (peak_rps * sizing_duration_s).ceil() as usize,
        profile: SequenceProfile::paper_default().with_decode_tokens(48),
        ..CapacityOptions::default()
    };
    let peak_plan = rago
        .plan_capacity(&best.schedule, &mix.classes[0].slo, peak_rps, &capacity)
        .expect("the peak rate is plannable within the replica bound");
    let static_replicas = peak_plan.replicas;
    let evaluate = |driver| {
        rago.evaluate_fleet_faulted(
            &best.schedule,
            RouterPolicy::LeastOutstanding,
            &mix,
            &trace,
            &FaultScenario::new(driver),
        )
    };

    let fixed = evaluate(ScaleDriver::Static {
        replicas: static_replicas,
    })
    .expect("static evaluation succeeds");

    // The reactive policy: start at one replica and follow the cycle,
    // capped at the static plan's size (capacity beyond the peak plan buys
    // nothing at this SLO and would only burn chips). Scale-in watches
    // mean outstanding work — at the trough a replica of this schedule
    // holds only a handful of requests, so a threshold of 10 sheds the
    // night-time replica quickly without thrashing the peak.
    let policy = AutoscalerPolicy::new(1, static_replicas)
        .with_evaluation_interval(0.25)
        .with_scale_out_queue_depth(2.0)
        .with_scale_in_outstanding(10.0)
        .with_cooldown(1.0)
        .with_warmup(0.5);
    let elastic = evaluate(ScaleDriver::Reactive(policy)).expect("autoscaled evaluation succeeds");

    // Acceptance: no worse attainment, strictly fewer chip-hours.
    assert!(
        elastic.attainment >= fixed.attainment,
        "autoscaler attainment {:.4} fell below static {:.4}",
        elastic.attainment,
        fixed.attainment
    );
    assert!(
        elastic.chip_seconds < fixed.chip_seconds,
        "autoscaler paid {:.1} chip-seconds vs static {:.1}",
        elastic.chip_seconds,
        fixed.chip_seconds
    );
    assert!(
        elastic.chaos.peak_provisioned > 1,
        "the peak never scaled out"
    );

    let ranking = elastic
        .tenants_by_goodput()
        .iter()
        .map(|c| format!("\"{}\"", c.name))
        .collect::<Vec<_>>()
        .join(", ");
    let events_out = elastic
        .chaos
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.action,
                rago_serving_sim::autoscaler::ScalingAction::ScaleOut
            )
        })
        .count();
    print!(
        "{{\n  \"bench\": \"tenant_mix/autoscale\",\n  \
         \"schedule\": \"{}\",\n  \"static_qps\": {static_qps:.3},\n  \
         \"diurnal\": {{\"base_rps\": {base_rps:.3}, \"peak_rps\": {peak_rps:.3}, \
         \"period_s\": {period_s:.1}, \"num_requests\": {num_requests}}},\n  \
         \"static\": {{\n    \"replicas\": {static_replicas},\n    \"attainment\": {:.4},\n    \
         \"chip_hours\": {:.4},\n    \"per_class\": [\n{}\n    ]\n  }},\n  \
         \"autoscaled\": {{\n    \"min_replicas\": 1, \"max_replicas\": {static_replicas},\n    \
         \"peak_provisioned\": {},\n    \"mean_provisioned\": {:.3},\n    \
         \"scale_out_events\": {events_out}, \"scale_in_events\": {},\n    \
         \"attainment\": {:.4},\n    \"chip_hours\": {:.4},\n    \"per_class\": [\n{}\n    ]\n  }},\n  \
         \"tenants_by_goodput\": [{ranking}],\n  \
         \"acceptance\": {{\"attainment_no_worse\": {}, \"fewer_chip_hours\": {}, \
         \"chip_hours_saved_fraction\": {:.4}}}\n}}\n",
        best.schedule.describe(),
        fixed.attainment,
        fixed.chip_hours(),
        class_rows(&fixed),
        elastic.chaos.peak_provisioned,
        elastic.chaos.mean_provisioned(),
        elastic.chaos.events.len() - events_out,
        elastic.attainment,
        elastic.chip_hours(),
        class_rows(&elastic),
        elastic.attainment >= fixed.attainment,
        elastic.chip_seconds < fixed.chip_seconds,
        1.0 - elastic.chip_seconds / fixed.chip_seconds,
    );
}
