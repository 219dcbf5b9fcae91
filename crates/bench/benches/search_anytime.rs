//! Anytime-quality bench of the stochastic schedule search: on a grid far
//! too large to enumerate comfortably (≥100k candidates, heterogeneous
//! placements), how quickly does [`rago_core::Rago::optimize_stochastic`]
//! reach ≥99 % of the exhaustive frontier's hypervolume?
//!
//! Writes `BENCH_search.json` at the workspace root with the space size,
//! the exhaustive wall-clock + frontier, the stochastic time-to-0.99-HV,
//! and two CI-gated flags:
//!
//! - `recovers_exhaustive_small_grid`: on the paper's case-1 grid the
//!   stochastic search (given budget to exhaust it) returns the exhaustive
//!   Pareto frontier bit-identically;
//! - `beats_exhaustive_time_to_frontier`: on the large grid the stochastic
//!   search reached the 0.99-hypervolume frontier in less wall-clock time
//!   than the exhaustive enumeration took.
//!
//! `RAGO_BENCH_QUICK=1` shrinks the stochastic budget (same grid, same
//! JSON shape) for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rago_core::{Rago, SearchOptions, StochasticConfig};
use rago_hardware::ClusterSpec;
use rago_schema::presets::{self, LlmSize};
use rago_schema::RagSchema;
use std::time::Instant;

/// The large heterogeneous grid: case 4 (rewriter + reranker) has four
/// pre-decode stages, so its placement count — and with it the candidate
/// space — explodes combinatorially.
fn large_grid() -> SearchOptions {
    SearchOptions {
        xpu_steps: vec![1, 2, 4, 8, 16, 32, 64],
        server_steps: vec![32, 64],
        predecode_batch_steps: vec![1, 8, 32, 128],
        decode_batch_steps: vec![64, 512],
        iterative_batch_steps: vec![8],
        placements: None,
    }
}

fn large_schema() -> RagSchema {
    presets::case4_rewriter_reranker(LlmSize::B8)
}

fn fraction_reached(
    report: &rago_core::StochasticSearchReport,
    target_hv: f64,
    ttft_ref: f64,
) -> Option<&rago_core::AnytimeSample> {
    report
        .timeline
        .iter()
        .find(|s| s.frontier.hypervolume(ttft_ref, 0.0) >= target_hv)
}

fn headline(_c: &mut Criterion) {
    let cluster = ClusterSpec::paper_default();
    let options = large_grid();
    let quick = rago_bench::quick_mode();

    // -- Small-grid recovery flag: the paper case-1 grid, exhausted. --
    let small = Rago::new(presets::case1_hyperscale(LlmSize::B8, 1), cluster.clone());
    let small_options = SearchOptions::paper_default();
    let small_exhaustive = small
        .optimize(&small_options)
        .expect("case1 search succeeds");
    let small_report = small
        .optimize_stochastic(
            &small_options,
            &StochasticConfig::default().with_seed(17).with_budget(8192),
        )
        .expect("small-grid stochastic search succeeds");
    let recovers_exhaustive_small_grid =
        small_report.exhausted && small_report.frontier.points == small_exhaustive.points;

    // -- Large grid: exhaustive timing (cold memo cache). --
    let exhaustive_rago = Rago::new(large_schema(), cluster.clone());
    let space_size = exhaustive_rago.schedule_space(&options).size();
    assert!(
        space_size >= 100_000,
        "the bench grid shrank below 100k candidates ({space_size})"
    );
    let start = Instant::now();
    let exhaustive = exhaustive_rago
        .optimize(&options)
        .expect("case4 search succeeds");
    let exhaustive_seconds = start.elapsed().as_secs_f64();
    let ttft_ref = 2.0
        * exhaustive
            .points
            .iter()
            .map(|p| p.performance.ttft_s)
            .fold(0.0f64, f64::max);
    let exhaustive_hv = exhaustive.hypervolume(ttft_ref, 0.0);

    // -- Large grid: stochastic anytime run (fresh memo cache). --
    let stochastic_rago = Rago::new(large_schema(), cluster);
    let budget = if quick { 6_000 } else { 40_000 };
    let config = StochasticConfig::default()
        .with_seed(0x5EED)
        .with_budget(budget);
    let report = stochastic_rago
        .optimize_stochastic(&options, &config)
        .expect("case4 stochastic search succeeds");
    let target_hv = 0.99 * exhaustive_hv;
    let reached = fraction_reached(&report, target_hv, ttft_ref);
    let seconds_to_99 = reached.map(|s| s.elapsed_s);
    let evaluations_to_99 = reached.map(|s| s.evaluations);
    let final_hv_fraction = report.frontier.hypervolume(ttft_ref, 0.0) / exhaustive_hv;
    let beats_exhaustive_time_to_frontier = seconds_to_99.is_some_and(|s| s < exhaustive_seconds);

    let json = format!(
        "{{\n  \"bench\": \"search_anytime/case4_rewriter_reranker\",\n  \"space_size\": {space_size},\n  \"threads\": {},\n  \"quick_mode\": {quick},\n  \"exhaustive\": {{\n    \"seconds\": {exhaustive_seconds:.6},\n    \"evaluated_schedules\": {},\n    \"frontier_len\": {},\n    \"hypervolume\": {exhaustive_hv:.6}\n  }},\n  \"stochastic\": {{\n    \"budget\": {budget},\n    \"evaluations\": {},\n    \"feasible_evaluations\": {},\n    \"rounds\": {},\n    \"seconds_total\": {:.6},\n    \"seconds_to_99pct_hv\": {},\n    \"evaluations_to_99pct_hv\": {},\n    \"frontier_len\": {},\n    \"final_hv_fraction\": {final_hv_fraction:.6}\n  }},\n  \"recovers_exhaustive_small_grid\": {recovers_exhaustive_small_grid},\n  \"beats_exhaustive_time_to_frontier\": {beats_exhaustive_time_to_frontier}\n}}\n",
        rayon::current_num_threads(),
        exhaustive.evaluated_schedules,
        exhaustive.len(),
        report.evaluations,
        report.feasible_evaluations,
        report.rounds,
        report.elapsed_s,
        seconds_to_99.map_or("null".into(), |s| format!("{s:.6}")),
        evaluations_to_99.map_or("null".into(), |e| e.to_string()),
        report.frontier.len(),
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_search.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    println!(
        "search_anytime: {space_size} candidates; exhaustive {exhaustive_seconds:.2}s; \
         stochastic hit 99% HV at {} (exhaustive frontier recovered on small grid: \
         {recovers_exhaustive_small_grid})",
        seconds_to_99.map_or("never".into(), |s| format!("{s:.2}s")),
    );
}

/// Steady-state throughput entries for the two search modes on the paper's
/// small grid (where both complete in milliseconds).
fn bench_modes(c: &mut Criterion) {
    let rago = Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        ClusterSpec::paper_default(),
    );
    let options = SearchOptions::paper_default();
    c.bench_function("search_case1_paper_grid_exhaustive", |b| {
        b.iter(|| rago.optimize(&options).unwrap())
    });
    let config = StochasticConfig::default().with_seed(1).with_budget(2048);
    c.bench_function("search_case1_paper_grid_stochastic_2k", |b| {
        b.iter(|| rago.optimize_stochastic(&options, &config).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = headline, bench_modes
}
criterion_main!(benches);
