//! Size a fleet of replicas for a target traffic level under an SLO.
//!
//! The static search picks the best schedule for *one* pipeline; this
//! example answers the deployment question on top of it:
//!
//! 1. search the Case I (hyperscale retrieval) scheduling space and take
//!    the best QPS/chip schedule off the Pareto frontier;
//! 2. show how fleet SLO attainment scales with the replica count at a
//!    fixed offered rate, under least-outstanding routing;
//! 3. `plan_capacity`: search the minimum replica count that meets the SLO
//!    at a target rate, starting from the analytic estimate;
//! 4. `rank_frontier_by_cost_at_qps`: re-rank the whole frontier by the
//!    total chips each schedule's fleet needs at that rate — the
//!    fleet-level analogue of goodput ranking.
//!
//! ```sh
//! cargo run --release --example fleet_capacity
//! ```

use rago::core::{evaluate_fleet_dynamic_with, CapacityOptions, MetricsMode, Rago, SearchOptions};
use rago::hardware::ClusterSpec;
use rago::schema::{presets, FleetConfig, RouterPolicy, SequenceProfile, SloTarget};
use rago::workloads::{ArrivalProcess, TraceSpec};

fn main() {
    let schema = presets::case1_hyperscale(presets::LlmSize::B8, 1);
    let rago = Rago::new(schema, ClusterSpec::paper_default());

    // Step 1: the static search (Algorithm 1).
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("the fast grid has feasible schedules");
    let best = frontier
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();
    println!("schedule under test: {}", best.schedule.describe());
    println!(
        "static model: QPS {:.1}, {} XPUs per replica",
        best.performance.qps,
        best.schedule.allocation.total_xpus()
    );

    // Step 2: attainment vs replica count at double the static QPS — a
    // rate one replica cannot sustain. The trace spans a fixed duration so
    // overload shows up as accumulated queueing, not a drained burst.
    let slo = SloTarget::paper_default();
    let profile = SequenceProfile::paper_default().with_decode_tokens(64);
    let rate = 2.0 * best.performance.qps;
    let duration_s = 6.0;
    let trace = TraceSpec {
        num_requests: (rate * duration_s).ceil() as usize,
        profile,
        arrival: ArrivalProcess::Poisson { rate_rps: rate },
        length_jitter: 0.2,
        seed: 17,
    }
    .generate();
    println!(
        "\nfleet scaling at {rate:.1} rps offered ({} requests):",
        trace.requests.len()
    );
    for replicas in 1..=4u32 {
        let fleet = FleetConfig::new(replicas, RouterPolicy::LeastOutstanding);
        let eval = evaluate_fleet_dynamic_with(
            rago.profiler(),
            &best.schedule,
            &fleet,
            &trace,
            &slo,
            &MetricsMode::Exact,
        )
        .expect("the schedule is feasible");
        let m = &eval.report.merged.metrics;
        println!(
            "  {replicas} replica(s): attainment {:5.1} %, goodput {:6.1} rps, \
             TTFT p99 {:7.1} ms, imbalance max/mean {:.2}",
            eval.attainment * 100.0,
            eval.goodput_rps,
            m.ttft.p99_s * 1e3,
            eval.report.imbalance.max_over_mean
        );
    }

    // Step 3: the capacity planner finds the smallest count meeting the SLO.
    let options = CapacityOptions {
        max_replicas: 8,
        num_requests: (rate * duration_s).ceil() as usize,
        profile,
        ..CapacityOptions::default()
    };
    let plan = rago
        .plan_capacity(&best.schedule, &slo, rate, &options)
        .expect("the target rate is plannable");
    println!(
        "\nplan_capacity({rate:.1} rps): {} replicas -> {} XPUs + {} retrieval servers \
         (attainment {:.1} %, goodput {:.1} rps, drain tail {:.2} s)",
        plan.replicas,
        plan.total_xpus,
        plan.total_retrieval_servers,
        plan.attainment * 100.0,
        plan.goodput_rps,
        plan.drain_tail_s
    );

    // Step 4: re-rank the frontier by fleet cost at the target rate. The
    // per-chip winner is not always the cheapest fleet: replica granularity
    // can favour a smaller schedule replicated more times.
    println!("\nfrontier re-ranked by total chips to serve {rate:.1} rps:");
    let ranked = rago.rank_frontier_by_cost_at_qps(&frontier, &slo, rate, &options);
    for (point, plan) in ranked.iter().take(5) {
        println!(
            "  {:4} XPUs = {} x {:3} | attainment {:5.1} % | {}",
            plan.total_xpus,
            plan.replicas,
            point.schedule.allocation.total_xpus(),
            plan.attainment * 100.0,
            point.schedule.describe()
        );
    }
    if let Some((cheapest, plan)) = ranked.first() {
        println!(
            "\ncheapest fleet: {} x [{}] at {} total XPUs",
            plan.replicas,
            cheapest.schedule.describe(),
            plan.total_xpus
        );
    }
}
