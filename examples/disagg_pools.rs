//! Disaggregated prefill/decode pools: plan, simulate, compare.
//!
//! A monolithic replica carries the pre-decode accelerator groups *and* the
//! decode XPUs, so a prefill-bound workload pays for idle decode chips.
//! Splitwise and DistServe break that coupling: a *Prefill* pool sized for
//! TTFT feeds a *Decode* pool sized for TPOT, each request's KV state
//! crossing an interconnect between the phases. This example walks the
//! whole loop on a prefill-heavy workload (short decodes, tight SLO):
//!
//! 1. **plan** — price the KV handoff from the generative model and a 3D
//!    torus (`transfer_model_from_interconnect`), then jointly size the
//!    cheapest `(prefill, decode)` split for a target rate
//!    (`plan_capacity_pools`), next to the flat planner's answer;
//! 2. **simulate** — drive the same trace through collocated fleets and
//!    through the planned split (`evaluate_fleet_disagg`), watching the
//!    transfer counters;
//! 3. **compare** — rank (split × interconnect) candidates by goodput per
//!    chip (`rank_frontier_by_goodput_disagg`) and see disaggregation win
//!    at the tight SLO.
//!
//! ```sh
//! cargo run --release --example disagg_pools
//! ```

use rago::core::{
    evaluate_fleet_dynamic_with, transfer_model_from_interconnect, BatchingPolicy, CapacityOptions,
    MetricsMode, ParetoFrontier, ParetoPoint, PlacementPlan, Rago, ResourceAllocation, Schedule,
};
use rago::hardware::{ClusterSpec, InterconnectSpec};
use rago::schema::{presets, FleetConfig, RouterPolicy, SequenceProfile, SloTarget, Stage};
use rago::workloads::{ArrivalProcess, TraceSpec};

fn main() {
    let schema = presets::case1_hyperscale(presets::LlmSize::B8, 1);
    // Price the handoff before the schema moves into the optimizer: KV
    // bytes per token from the generative model, latency from the link.
    let torus = InterconnectSpec::torus_3d();
    let transfer = transfer_model_from_interconnect(&schema, &torus);
    let rago = Rago::new(schema, ClusterSpec::paper_default());

    // A prefill-bound shape: one prefix accelerator group and the decode
    // XPUs sized equally, so a monolithic replica costs 16 chips while a
    // pool replica costs 8.
    let schedule = Schedule {
        placement: PlacementPlan {
            predecode_groups: vec![vec![Stage::Prefix]],
        },
        allocation: ResourceAllocation {
            group_xpus: vec![8],
            decode_xpus: 8,
            retrieval_servers: 32,
        },
        batching: BatchingPolicy::new(8, 64),
    };
    println!("schedule under test: {}", schedule.describe());
    println!(
        "KV handoff over {}: {:.1} KiB/token, {:.0} us base latency",
        torus.name,
        transfer.kv_bytes_per_token / 1024.0,
        transfer.base_latency_s * 1e6
    );

    // Short decodes and a tight (TTFT, TPOT) target keep the workload
    // prefill-bound: past one replica's prefill knee, a second full
    // replica buys mostly idle decode chips.
    let slo = SloTarget::new(0.4, 0.05);
    let profile = SequenceProfile::paper_default().with_decode_tokens(4);
    let rate: f64 = 160.0;

    // Step 1: the joint pool-size search against the flat planner.
    let options = CapacityOptions {
        max_replicas: 4,
        num_requests: (rate * 1.5).ceil() as usize,
        profile,
        ..CapacityOptions::default()
    };
    let flat = rago
        .plan_capacity(&schedule, &slo, rate, &options)
        .expect("the flat plan is feasible");
    let pools = rago
        .plan_capacity_pools(&schedule, &slo, rate, &transfer, &options)
        .expect("the pool plan is feasible");
    println!(
        "\nplans for {rate:.0} rps within TTFT {:.1} s / TPOT {:.2} s:",
        slo.ttft_s, slo.tpot_s
    );
    println!(
        "  flat:  {} x monolithic            -> {:3} XPUs (attainment {:.1} %)",
        flat.replicas,
        flat.total_xpus,
        flat.attainment * 100.0
    );
    println!(
        "  pools: {} prefill + {} decode       -> {:3} XPUs (attainment {:.1} %)",
        pools.prefill_replicas,
        pools.decode_replicas,
        pools.total_xpus,
        pools.attainment * 100.0
    );

    // Step 2: simulate the same trace through both shapes.
    let trace = TraceSpec {
        num_requests: (rate * 1.5).ceil() as usize,
        profile,
        arrival: ArrivalProcess::Poisson { rate_rps: rate },
        length_jitter: 0.2,
        seed: 17,
    }
    .generate();
    println!("\ngoodput per chip at {rate:.0} rps offered:");
    for n in 1..=2u32 {
        let eval = evaluate_fleet_dynamic_with(
            rago.profiler(),
            &schedule,
            &FleetConfig::new(n, RouterPolicy::LeastOutstanding),
            &trace,
            &slo,
            &MetricsMode::Exact,
        )
        .expect("collocated evaluation succeeds");
        let chips = schedule.allocation.total_xpus() * n;
        println!(
            "  {n} x collocated : {:3} chips, attainment {:5.1} %, {:.2} goodput/chip",
            chips,
            eval.attainment * 100.0,
            eval.goodput_rps / f64::from(chips)
        );
    }
    let split = FleetConfig::split(
        pools.prefill_replicas,
        pools.decode_replicas,
        RouterPolicy::LeastOutstanding,
    )
    .with_transfer(transfer);
    let eval = rago
        .evaluate_fleet_disagg(&schedule, &split, &trace, &slo)
        .expect("disaggregated evaluation succeeds");
    let t = &eval.report.transfers;
    println!(
        "  {}p + {}d split : {:3} chips, attainment {:5.1} %, {:.2} goodput/chip",
        pools.prefill_replicas,
        pools.decode_replicas,
        eval.total_xpus,
        eval.attainment * 100.0,
        eval.goodput_per_chip
    );
    println!(
        "    {} KV transfers, {:.1} MiB total, mean hop {:.0} us, max {:.0} us",
        t.transfers,
        t.bytes_total / (1024.0 * 1024.0),
        t.latency_total_s / t.transfers.max(1) as f64 * 1e6,
        t.latency_max_s * 1e6
    );

    // Step 3: the joint (split, interconnect) ranking over the schedule.
    let frontier = ParetoFrontier {
        points: vec![ParetoPoint {
            schedule: schedule.clone(),
            performance: schedule
                .evaluate(rago.profiler())
                .expect("static model evaluates"),
        }],
        evaluated_schedules: 1,
        scored_schedules: 1,
    };
    let splits = [(1, 1), (2, 1), (2, 2), (3, 1)];
    let interconnects = [
        InterconnectSpec::torus_3d(),
        InterconnectSpec::datacenter_network(),
    ];
    let ranked =
        rago.rank_frontier_by_goodput_disagg(&frontier, &trace, &slo, &splits, &interconnects);
    println!("\njoint (split, interconnect) ranking by goodput per chip:");
    for (_, choice, eval) in ranked.iter().take(4) {
        println!(
            "  {}p + {}d over {:18}: {:3} chips, {:.2} goodput/chip",
            choice.prefill_replicas,
            choice.decode_replicas,
            choice.interconnect,
            eval.total_xpus,
            eval.goodput_per_chip
        );
    }
}
