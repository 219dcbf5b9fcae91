//! Fleet study: attainment versus replica count, router policy comparison,
//! and capacity-planning cross-checks, printed as JSON.
//!
//! Four studies over the case-1 (hyperscale retrieval) best-QPS/chip
//! schedule:
//!
//! 1. **Scaling** — SLO attainment across a shared offered-rate grid for
//!    fleets of 1..N replicas under least-outstanding routing, with the
//!    sustained-throughput knee per fleet size. Acceptance: the 2-replica
//!    knee is strictly above the 1-replica knee.
//! 2. **Routing** — every `RouterPolicy` at one fixed (replicas, rate)
//!    point: attainment, goodput, TTFT tail, and load imbalance.
//! 3. **Capacity planning** — `plan_capacity`'s gallop-and-bisect walk
//!    along the flat column of the replica lattice must agree with an
//!    exhaustive linear scan over the same replica grid, within
//!    `2·ceil(log2 max_replicas) + 2` DES runs.
//! 4. **Pool planning** — `plan_capacity_pools`' search of the
//!    prefill/decode grid, the same walk per prefill column, must agree
//!    with an exhaustive cross-product scan of the same splits on the same
//!    trace, in fewer DES runs than the scan's `max_replicas²`.
//!
//! Run with: `cargo run --release -p rago-bench --bin study_fleet`

use rago_core::{
    evaluate_fleet_dynamic_with, transfer_model_from_interconnect, CapacityOptions, MetricsMode,
    Rago, SearchOptions,
};
use rago_hardware::InterconnectSpec;
use rago_schema::presets::{self, LlmSize};
use rago_schema::{FleetConfig, RouterPolicy, SequenceProfile, SloTarget};
use rago_serving_sim::engine::sustained_throughput_knee;
use rago_workloads::{ArrivalProcess, TraceSpec};

struct ScalePoint {
    rate_rps: f64,
    attainment: f64,
    goodput_rps: f64,
}

struct ScaleSeries {
    replicas: u32,
    points: Vec<ScalePoint>,
    knee_rps: Option<f64>,
}

struct PolicyRow {
    policy: RouterPolicy,
    attainment: f64,
    goodput_rps: f64,
    ttft_p99_s: f64,
    imbalance_cv: f64,
    max_over_mean: f64,
}

/// Generates a Poisson trace spanning roughly `duration_s` of traffic at
/// `rate_rps`. Scaling the request count with the rate (instead of fixing
/// it) is what makes overload visible: a fixed-size trace at a high rate is
/// just a short burst the system drains within the SLO, whereas a
/// fixed-duration trace lets queueing accumulate at every overloaded rate.
fn trace_at(rate_rps: f64, duration_s: f64, profile: SequenceProfile) -> rago_workloads::Trace {
    TraceSpec {
        num_requests: (rate_rps * duration_s).ceil().max(1.0) as usize,
        profile,
        arrival: ArrivalProcess::Poisson { rate_rps },
        length_jitter: 0.2,
        seed: 17,
    }
    .generate()
}

fn main() {
    let slo = SloTarget::paper_default();
    let duration_s = 8.0;
    let profile = SequenceProfile::paper_default().with_decode_tokens(64);

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

    // Study 1: attainment vs replica count on a shared absolute rate grid
    // (so knees are directly comparable across fleet sizes).
    let fractions = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0];
    let mut series = Vec::new();
    for replicas in 1..=4 {
        let fleet = FleetConfig::new(replicas, RouterPolicy::LeastOutstanding);
        let mut points = Vec::new();
        for f in fractions {
            let rate = f * static_qps;
            let eval = evaluate_fleet_dynamic_with(
                rago.profiler(),
                &best.schedule,
                &fleet,
                &trace_at(rate, duration_s, profile),
                &slo,
                &MetricsMode::Exact,
            )
            .expect("fleet evaluation succeeds");
            points.push(ScalePoint {
                rate_rps: rate,
                attainment: eval.attainment,
                goodput_rps: eval.goodput_rps,
            });
        }
        let knee_rps = sustained_throughput_knee(
            &points
                .iter()
                .map(|p| (p.rate_rps, p.attainment))
                .collect::<Vec<_>>(),
            &slo,
        );
        series.push(ScaleSeries {
            replicas,
            points,
            knee_rps,
        });
    }

    // Acceptance: a 2-replica fleet under least-outstanding routing
    // sustains strictly higher SLO-attaining QPS than 1 replica.
    let knee_1 = series[0].knee_rps.expect("1-replica fleet has a knee");
    let knee_2 = series[1].knee_rps.expect("2-replica fleet has a knee");
    assert!(
        knee_2 > knee_1,
        "2-replica knee {knee_2:.2} rps must beat the 1-replica knee {knee_1:.2} rps"
    );

    // Study 2: router policies at a fixed operating point — enough load
    // that routing matters (beyond one replica's knee, below the fleet's).
    let policy_replicas: u32 = 3;
    let policy_rate = 0.8 * f64::from(policy_replicas) * static_qps;
    let policy_trace = trace_at(policy_rate, duration_s, profile);
    let mut policy_rows = Vec::new();
    for policy in RouterPolicy::ALL {
        let eval = evaluate_fleet_dynamic_with(
            rago.profiler(),
            &best.schedule,
            &FleetConfig::new(policy_replicas, policy),
            &policy_trace,
            &slo,
            &MetricsMode::Exact,
        )
        .expect("fleet evaluation succeeds");
        policy_rows.push(PolicyRow {
            policy,
            attainment: eval.attainment,
            goodput_rps: eval.goodput_rps,
            ttft_p99_s: eval.report.merged.metrics.ttft.p99_s,
            imbalance_cv: eval.report.imbalance.coefficient_of_variation,
            max_over_mean: eval.report.imbalance.max_over_mean,
        });
    }

    // Study 3: plan_capacity vs an exhaustive linear scan over the same
    // replica grid, trace, and router.
    let target_qps = 2.0 * static_qps;
    let capacity = CapacityOptions {
        max_replicas: 6,
        num_requests: (target_qps * duration_s).ceil() as usize,
        profile,
        ..CapacityOptions::default()
    };
    let plan = rago
        .plan_capacity(&best.schedule, &slo, target_qps, &capacity)
        .expect("the target rate is plannable within the replica bound");
    let scan_trace = TraceSpec {
        num_requests: capacity.num_requests,
        profile: capacity.profile,
        arrival: ArrivalProcess::Poisson {
            rate_rps: target_qps,
        },
        length_jitter: capacity.length_jitter,
        seed: capacity.seed,
    }
    .generate();
    let linear_scan = (1..=capacity.max_replicas)
        .find(|&n| {
            evaluate_fleet_dynamic_with(
                rago.profiler(),
                &best.schedule,
                &FleetConfig::new(n, capacity.router),
                &scan_trace,
                &slo,
                &MetricsMode::Exact,
            )
            .expect("fleet evaluation succeeds")
            .meets_slo
        })
        .expect("some count within the bound meets the SLO");
    assert_eq!(
        plan.replicas, linear_scan,
        "the capacity search disagrees with the exhaustive scan"
    );
    let run_bound = 2 * capacity.max_replicas.next_power_of_two().trailing_zeros() + 2;
    assert!(
        plan.des_runs <= run_bound,
        "the capacity search ran {} DES runs, over its bound of {run_bound}",
        plan.des_runs
    );

    // Study 4: plan_capacity_pools vs an exhaustive cross-product scan of
    // every split within the same bound, at a TTFT target tight enough
    // that the prefill pool needs more than one replica.
    let pool_slo = SloTarget::new(0.4, slo.tpot_s);
    let transfer =
        transfer_model_from_interconnect(rago.profiler().schema(), &InterconnectSpec::torus_3d());
    let pools = rago
        .plan_capacity_pools(&best.schedule, &pool_slo, target_qps, &transfer, &capacity)
        .expect("the target rate is plannable within the pool bound");
    let chips = |p: u32, d: u32| rago_core::disagg::split_xpus(&best.schedule, p, d);
    let max = capacity.max_replicas;
    let pool_scan = (1..=max)
        .flat_map(|p| (1..=max).map(move |d| (p, d)))
        .filter(|&(p, d)| {
            evaluate_fleet_dynamic_with(
                rago.profiler(),
                &best.schedule,
                &FleetConfig::split(p, d, capacity.router).with_transfer(transfer),
                &scan_trace,
                &pool_slo,
                &MetricsMode::Exact,
            )
            .expect("fleet evaluation succeeds")
            .meets_slo
        })
        .min_by_key(|&(p, d)| (chips(p, d), p + d, p))
        .expect("some split within the bound meets the SLO");
    assert_eq!(
        (pools.prefill_replicas, pools.decode_replicas),
        pool_scan,
        "the pool search disagrees with the exhaustive scan"
    );
    let scan_des_runs = max * max;
    assert!(
        pools.des_runs < scan_des_runs,
        "the pool search ran {} DES runs, not fewer than the scan's {scan_des_runs}",
        pools.des_runs
    );

    let series_json = series
        .iter()
        .map(|s| {
            let points = s
                .points
                .iter()
                .map(|p| {
                    format!(
                        "        {{\"rate_rps\": {:.3}, \"attainment\": {:.4}, \
                         \"goodput_rps\": {:.3}}}",
                        p.rate_rps, p.attainment, p.goodput_rps
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "    {{\"replicas\": {}, \"knee_rps\": {}, \"points\": [\n{}\n    ]}}",
                s.replicas,
                s.knee_rps
                    .map(|k| format!("{k:.3}"))
                    .unwrap_or_else(|| "null".into()),
                points
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let policies_json = policy_rows
        .iter()
        .map(|r| {
            format!(
                "      {{\"policy\": \"{}\", \"attainment\": {:.4}, \"goodput_rps\": {:.3}, \
                 \"ttft_p99_s\": {:.6}, \"imbalance_cv\": {:.4}, \"max_over_mean\": {:.4}}}",
                r.policy,
                r.attainment,
                r.goodput_rps,
                r.ttft_p99_s,
                r.imbalance_cv,
                r.max_over_mean
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let pool_agrees = (pools.prefill_replicas, pools.decode_replicas) == pool_scan;
    print!(
        "{{\n  \"bench\": \"fleet_scaling/cluster\",\n  \"trace_duration_s\": {duration_s:.1},\n  \
         \"slo\": {{\"ttft_s\": {:.3}, \"tpot_s\": {:.3}, \"attainment\": {:.2}}},\n  \
         \"schedule\": \"{}\",\n  \"static_qps\": {static_qps:.3},\n  \
         \"attainment_vs_replicas\": [\n{series_json}\n  ],\n  \
         \"router_comparison\": {{\n    \"replicas\": {policy_replicas}, \"rate_rps\": {policy_rate:.3},\n    \"policies\": [\n{policies_json}\n    ]\n  }},\n  \
         \"capacity_plan\": {{\"target_qps\": {target_qps:.3}, \"max_replicas\": {max}, \
         \"planned_replicas\": {}, \"linear_scan_replicas\": {linear_scan}, \"agrees\": {}, \
         \"attainment\": {:.4}, \"total_xpus\": {}, \"des_runs\": {}, \"des_runs_stopped\": {}, \
         \"des_events\": {}}},\n  \
         \"pool_plan\": {{\"ttft_s\": {:.3}, \"prefill_replicas\": {}, \"decode_replicas\": {}, \
         \"scan_prefill_replicas\": {}, \"scan_decode_replicas\": {}, \"agrees\": {pool_agrees}, \
         \"attainment\": {:.4}, \"total_xpus\": {}, \"des_runs\": {}, \"des_runs_stopped\": {}, \
         \"des_events\": {}, \"scan_des_runs\": {scan_des_runs}}},\n  \
         \"acceptance\": {{\"knee_1_replica_rps\": {knee_1:.3}, \"knee_2_replicas_rps\": {knee_2:.3}, \
         \"two_replicas_beat_one\": {}, \"pool_agrees\": {pool_agrees}}}\n}}\n",
        slo.ttft_s,
        slo.tpot_s,
        slo.attainment,
        best.schedule.describe(),
        plan.replicas,
        plan.replicas == linear_scan,
        plan.attainment,
        plan.total_xpus,
        plan.des_runs,
        plan.des_runs_stopped,
        plan.des_events,
        pool_slo.ttft_s,
        pools.prefill_replicas,
        pools.decode_replicas,
        pool_scan.0,
        pool_scan.1,
        pools.attainment,
        pools.total_xpus,
        pools.des_runs,
        pools.des_runs_stopped,
        pools.des_events,
        knee_2 > knee_1,
    );
}
