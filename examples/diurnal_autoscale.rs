//! Serve a diurnal, two-tenant trace with a reactive autoscaler and
//! compare it against static peak provisioning.
//!
//! The walkthrough:
//!
//! 1. search the Case I scheduling space and take the best QPS/chip
//!    schedule off the Pareto frontier;
//! 2. build a two-tenant [`WorkloadMix`] (interactive chat with a tight
//!    SLO, long-form reports with a loose one) and sample one diurnal
//!    cycle of tagged traffic from it;
//! 3. `plan_capacity_profile`: derive the minimum replica *schedule* from
//!    a piecewise approximation of the diurnal rate — the provisioning
//!    lower bound;
//! 4. run the trace through a **static peak-sized fleet** and through the
//!    **autoscaled fleet** (`evaluate_fleet_faulted` with a faultless
//!    scenario driven by an [`AutoscalerPolicy`]), and compare per-tenant
//!    SLO attainment and chip-hours.
//!
//! ```sh
//! cargo run --release --example diurnal_autoscale
//! ```
//!
//! [`WorkloadMix`]: rago::workloads::WorkloadMix
//! [`AutoscalerPolicy`]: rago::serving_sim::autoscaler::AutoscalerPolicy

use rago::core::{CapacityOptions, FaultScenario, Rago, SearchOptions};
use rago::hardware::ClusterSpec;
use rago::schema::{presets, RouterPolicy, SequenceProfile, SloTarget};
use rago::serving_sim::autoscaler::AutoscalerPolicy;
use rago::serving_sim::faults::ScaleDriver;
use rago::workloads::{ArrivalProcess, MixTraceSpec, RateSegment, RequestClass, WorkloadMix};

fn main() {
    let schema = presets::case1_hyperscale(presets::LlmSize::B8, 1);
    let rago = Rago::new(schema, ClusterSpec::paper_default());

    // Step 1: the schedule under test.
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("the fast grid has feasible schedules");
    let best = frontier
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();
    let static_qps = best.performance.qps;
    println!("schedule under test: {}", best.schedule.describe());
    println!(
        "static model: QPS {static_qps:.1}, {} XPUs per replica",
        best.schedule.allocation.total_xpus()
    );

    // Step 2: two tenants sharing the fleet, one diurnal cycle of traffic.
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
    let (base_rps, peak_rps, period_s) = (0.3 * static_qps, 2.2 * static_qps, 24.0);
    let trace = MixTraceSpec {
        num_requests: (0.5 * (base_rps + peak_rps) * period_s).ceil() as usize,
        mix: mix.clone(),
        arrival: ArrivalProcess::Diurnal {
            base_rps,
            peak_rps,
            period_s,
        },
        seed: 29,
    }
    .generate();
    println!(
        "\ndiurnal trace: {} requests, trough {base_rps:.0} rps -> peak {peak_rps:.0} rps \
         over {period_s:.0} s",
        trace.requests.len()
    );

    // Step 3: the provisioning lower bound from the rate profile — a
    // piecewise-constant approximation of the sinusoid, each segment sized
    // independently (and cross-checked against static planning by
    // construction).
    let slo = mix.classes[0].slo;
    let capacity = CapacityOptions {
        max_replicas: 6,
        num_requests: (peak_rps * 4.0).ceil() as usize,
        profile: SequenceProfile::paper_default().with_decode_tokens(48),
        ..CapacityOptions::default()
    };
    let quarter = period_s / 4.0;
    let mid_rps = 0.5 * (base_rps + peak_rps);
    let profile = [
        RateSegment::new(quarter, base_rps),
        RateSegment::new(quarter, mid_rps),
        RateSegment::new(quarter, peak_rps),
        RateSegment::new(quarter, mid_rps),
    ];
    let planned = rago
        .plan_capacity_profile(&best.schedule, &slo, &profile, &capacity)
        .expect("every segment is plannable");
    println!("\ncapacity profile (piecewise plan):");
    for interval in &planned.intervals {
        println!(
            "  t = {:>5.1} s  rate {:>6.1} rps  -> {} replica(s), attainment {:.3}",
            interval.start_s, interval.rate_rps, interval.replicas, interval.attainment
        );
    }
    println!(
        "  peak {} replicas; following the profile saves {:.0}% replica-seconds \
         over static peak provisioning",
        planned.peak_replicas,
        planned.savings_fraction * 100.0
    );

    // Step 4: static peak fleet vs the reactive autoscaler on the same
    // trace.
    let static_replicas = planned.peak_replicas;
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
    let policy = AutoscalerPolicy::new(1, static_replicas)
        .with_evaluation_interval(0.25)
        .with_scale_out_queue_depth(2.0)
        .with_scale_in_outstanding(10.0)
        .with_cooldown(1.0)
        .with_warmup(0.5);
    let elastic = evaluate(ScaleDriver::Reactive(policy)).expect("autoscaled evaluation succeeds");

    println!("\nstatic fleet ({static_replicas} replicas):");
    for c in &fixed.per_class {
        println!(
            "  {:>7}: attainment {:.3}, goodput {:>6.1} rps (meets SLO: {})",
            c.name, c.attainment, c.goodput_rps, c.meets_slo
        );
    }
    println!("  chip-hours: {:.3}", fixed.chip_hours());

    println!(
        "\nautoscaled fleet (1..={static_replicas} replicas, {} scaling events):",
        elastic.chaos.events.len()
    );
    for c in &elastic.per_class {
        println!(
            "  {:>7}: attainment {:.3}, goodput {:>6.1} rps (meets SLO: {})",
            c.name, c.attainment, c.goodput_rps, c.meets_slo
        );
    }
    println!(
        "  chip-hours: {:.3} (mean {:.2} replicas provisioned, peak {})",
        elastic.chip_hours(),
        elastic.chaos.mean_provisioned(),
        elastic.chaos.peak_provisioned
    );
    println!(
        "\nautoscaler vs static: attainment {:.3} vs {:.3}, chip-hours saved {:.0}%",
        elastic.attainment,
        fixed.attainment,
        (1.0 - elastic.chip_seconds / fixed.chip_seconds) * 100.0
    );
    println!(
        "tenant goodput ranking: {}",
        elastic
            .tenants_by_goodput()
            .iter()
            .map(|c| c.name.clone())
            .collect::<Vec<_>>()
            .join(" > ")
    );
}
