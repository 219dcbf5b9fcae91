//! Disaggregation study: collocated versus prefill/decode-split fleets
//! across SLO tightness, printed as JSON.
//!
//! One fixed case-1 schedule is driven at several offered rates under three
//! (TTFT, TPOT) SLO levels. At each (SLO, rate) point the study reports the
//! best goodput-per-chip collocated fleet (1..=3 monolithic replicas, each
//! paying for prefill *and* decode chips) against the best disaggregated
//! split (prefill pool + decode pool, each paying only for its own chips,
//! linked by a 3D-torus KV handoff), plus the sustained-throughput knee of
//! the unit shapes (one collocated replica versus a 1+1 split).
//! A second sweep holds the winning split fixed and varies the
//! transfer link from free to a pathological 100 MB/s path, exposing the
//! handoff tax.
//!
//! Acceptance (asserted, and printed as the JSON's `acceptance` flags):
//!
//! * `disagg_beats_collocated_at_tight_slo` — at the tight SLO and the
//!   prefill-bound design rate, the best split beats the best collocated
//!   fleet on goodput per chip (the DistServe result).
//! * `transfer_cost_monotone` — goodput per chip never *improves* as the
//!   interconnect degrades from free to the slow link.
//!
//! Run with: `cargo run --release -p rago-bench --bin study_disagg`

use rago_core::disagg::transfer_model_from_interconnect;
use rago_core::{
    evaluate_fleet_dynamic_with, BatchingPolicy, MetricsMode, PlacementPlan, Rago,
    ResourceAllocation, Schedule,
};
use rago_hardware::InterconnectSpec;
use rago_schema::presets::{self, LlmSize};
use rago_schema::{FleetConfig, KvTransferModel, RouterPolicy, SequenceProfile, SloTarget, Stage};
use rago_serving_sim::engine::sustained_throughput_knee;
use rago_workloads::{ArrivalProcess, Trace, TraceSpec};

/// The empirically prefill-bound case-1 shape: one prefix accelerator group
/// and the decode XPUs sized equally, so a monolithic replica pays 16 chips
/// while the split prices each pool at 8.
fn schedule() -> Schedule {
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

/// Short decodes keep the workload prefill-bound: extra collocated
/// replicas buy mostly idle decode chips.
fn trace_at(rate_rps: f64, duration_s: f64) -> Trace {
    TraceSpec {
        num_requests: (rate_rps * duration_s).ceil().max(1.0) as usize,
        profile: SequenceProfile::paper_default().with_decode_tokens(4),
        arrival: ArrivalProcess::Poisson { rate_rps },
        length_jitter: 0.2,
        seed: 17,
    }
    .generate()
}

struct Best {
    label: String,
    goodput_per_chip: f64,
    attainment: f64,
}

fn main() {
    let schema = presets::case1_hyperscale(LlmSize::B8, 1);
    let torus = transfer_model_from_interconnect(&schema, &InterconnectSpec::torus_3d());
    let datacenter =
        transfer_model_from_interconnect(&schema, &InterconnectSpec::datacenter_network());
    let kv_bytes = schema.generative_llm.kv_cache_bytes_per_token();
    let rago = Rago::new(schema, rago_bench::default_cluster());
    let schedule = schedule();
    let chips_collocated = schedule.allocation.total_xpus();
    let chips_prefill: u32 = schedule.allocation.group_xpus.iter().sum();
    let chips_decode = schedule.allocation.decode_xpus;

    let rates = [80.0, 120.0, 160.0, 200.0];
    let duration_s = 15.0 / 8.0;
    let tight_rate = 160.0;
    let splits: &[(u32, u32)] = &[(1, 1), (2, 1), (2, 2), (3, 1)];
    let slos = [
        ("tight", SloTarget::new(0.4, 0.05)),
        ("medium", SloTarget::new(0.8, 0.1)),
        ("loose", SloTarget::new(2.0, 0.2)),
    ];

    let mut disagg_beats_collocated_at_tight_slo = false;
    let mut slo_rows = Vec::new();
    for (slo_name, slo) in &slos {
        let mut point_rows = Vec::new();
        let mut collocated_points = Vec::new();
        let mut disagg_points = Vec::new();
        for rate in rates {
            let trace = trace_at(rate, duration_s);

            // Best collocated fleet: n identical monolithic replicas, each
            // paying for the full schedule's chips.
            let mut collocated: Option<Best> = None;
            for n in 1..=3u32 {
                let eval = evaluate_fleet_dynamic_with(
                    rago.profiler(),
                    &schedule,
                    &FleetConfig::new(n, RouterPolicy::LeastOutstanding),
                    &trace,
                    slo,
                    &MetricsMode::Exact,
                )
                .expect("collocated evaluation succeeds");
                let per_chip = eval.goodput_rps / f64::from(chips_collocated * n);
                if n == 1 {
                    collocated_points.push((rate, eval.attainment));
                }
                if collocated
                    .as_ref()
                    .map_or(true, |b| per_chip > b.goodput_per_chip)
                {
                    collocated = Some(Best {
                        label: format!("{n}x collocated"),
                        goodput_per_chip: per_chip,
                        attainment: eval.attainment,
                    });
                }
            }
            let collocated = collocated.expect("at least one collocated fleet evaluated");

            // Best split: each pool pays only for its own phase's chips.
            let mut disagg: Option<Best> = None;
            for &(p, d) in splits {
                let fleet =
                    FleetConfig::split(p, d, RouterPolicy::LeastOutstanding).with_transfer(torus);
                let eval = rago
                    .evaluate_fleet_disagg(&schedule, &fleet, &trace, slo)
                    .expect("disaggregated evaluation succeeds");
                if (p, d) == (1, 1) {
                    disagg_points.push((rate, eval.attainment));
                }
                if disagg
                    .as_ref()
                    .map_or(true, |b| eval.goodput_per_chip > b.goodput_per_chip)
                {
                    disagg = Some(Best {
                        label: format!("{p}p+{d}d"),
                        goodput_per_chip: eval.goodput_per_chip,
                        attainment: eval.attainment,
                    });
                }
            }
            let disagg = disagg.expect("at least one split evaluated");

            if *slo_name == "tight"
                && (rate - tight_rate).abs() < 1e-9
                && disagg.goodput_per_chip > collocated.goodput_per_chip
            {
                disagg_beats_collocated_at_tight_slo = true;
            }
            point_rows.push(format!(
                "        {{\"rate_rps\": {rate:.1}, \
                 \"collocated\": {{\"fleet\": \"{}\", \"goodput_per_chip\": {:.6}, \"attainment\": {:.4}}}, \
                 \"disagg\": {{\"fleet\": \"{}\", \"goodput_per_chip\": {:.6}, \"attainment\": {:.4}}}}}",
                collocated.label,
                collocated.goodput_per_chip,
                collocated.attainment,
                disagg.label,
                disagg.goodput_per_chip,
                disagg.attainment,
            ));
        }
        let knee = |points: &[(f64, f64)]| {
            sustained_throughput_knee(points, slo)
                .map_or_else(|| "null".to_string(), |k| format!("{k:.3}"))
        };
        slo_rows.push(format!(
            "    {{\"slo\": \"{slo_name}\", \"ttft_slo_s\": {:.2}, \"tpot_slo_s\": {:.2},\n      \
             \"knee_collocated_1x_rps\": {}, \"knee_disagg_1p1d_rps\": {},\n      \"points\": [\n{}\n    ]}}",
            slo.ttft_s,
            slo.tpot_s,
            knee(&collocated_points),
            knee(&disagg_points),
            point_rows.join(",\n"),
        ));
    }
    assert!(
        disagg_beats_collocated_at_tight_slo,
        "the best split did not beat the best collocated fleet per chip at the tight SLO"
    );

    // ---- Transfer-cost sensitivity at the tight SLO's design point ----
    let (tight_name, tight_slo) = &slos[0];
    assert_eq!(*tight_name, "tight");
    let trace = trace_at(tight_rate, duration_s);
    let links = [
        ("zero", KvTransferModel::zero()),
        ("torus_3d", torus),
        ("datacenter_network", datacenter),
        ("slow_100MBps", KvTransferModel::new(kv_bytes, 1e8, 1e-3)),
    ];
    let mut transfer_cost_monotone = true;
    let mut previous = f64::INFINITY;
    let mut link_rows = Vec::new();
    for (name, transfer) in &links {
        let fleet =
            FleetConfig::split(2, 1, RouterPolicy::LeastOutstanding).with_transfer(*transfer);
        let eval = rago
            .evaluate_fleet_disagg(&schedule, &fleet, &trace, tight_slo)
            .expect("sensitivity evaluation succeeds");
        let t = &eval.report.transfers;
        let mean_latency_s = t.latency_total_s / t.transfers.max(1) as f64;
        if eval.goodput_per_chip > previous + 1e-9 {
            transfer_cost_monotone = false;
        }
        previous = eval.goodput_per_chip;
        link_rows.push(format!(
            "    {{\"link\": \"{name}\", \"goodput_per_chip\": {:.6}, \"attainment\": {:.4}, \
             \"transfer_latency_mean_s\": {:.9}, \"transfer_latency_max_s\": {:.9}}}",
            eval.goodput_per_chip, eval.attainment, mean_latency_s, t.latency_max_s,
        ));
    }
    assert!(
        transfer_cost_monotone,
        "goodput per chip improved while the interconnect degraded"
    );

    print!(
        "{{\n  \"bench\": \"disagg_split\",\n  \"schedule\": \"{}\",\n  \
         \"chips\": {{\"collocated_per_replica\": {chips_collocated}, \
         \"prefill_per_replica\": {chips_prefill}, \"decode_per_replica\": {chips_decode}}},\n  \
         \"trace\": {{\"decode_tokens\": 4, \"duration_s\": {duration_s:.4}, \"seed\": 17}},\n  \
         \"slo_sweep\": [\n{}\n  ],\n  \"transfer_sensitivity\": [\n{}\n  ],\n  \
         \"acceptance\": {{\"disagg_beats_collocated_at_tight_slo\": \
         {disagg_beats_collocated_at_tight_slo}, \
         \"transfer_cost_monotone\": {transfer_cost_monotone}}}\n}}\n",
        schedule.describe(),
        slo_rows.join(",\n"),
        link_rows.join(",\n"),
    );
}
