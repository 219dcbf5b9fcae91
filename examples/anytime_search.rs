//! Anytime stochastic schedule search on a grid too large to enumerate
//! comfortably.
//!
//! Builds the paper's Case-IV workload (query rewriter + reranker around an
//! 8B generative LLM — four pre-decode stages, so placements multiply) on a
//! ~200k-candidate grid, then compares:
//!
//! 1. the exhaustive search (exact frontier, pays for every candidate), and
//! 2. `Rago::optimize_stochastic` — seeded sampling → beam → coordinate
//!    descent → exchange — showing how the anytime timeline closes
//!    in on the exhaustive hypervolume after evaluating a fraction of the
//!    grid.
//!
//! Run with: `cargo run --release --example anytime_search`

use rago::core::{Rago, SearchOptions, StochasticConfig};
use rago::hardware::ClusterSpec;
use rago::schema::presets::{self, LlmSize};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = presets::case4_rewriter_reranker(LlmSize::B8);
    let cluster = ClusterSpec::paper_default();
    let options = SearchOptions {
        xpu_steps: vec![1, 2, 4, 8, 16, 32, 64],
        server_steps: vec![32, 64],
        predecode_batch_steps: vec![1, 8, 32, 128],
        decode_batch_steps: vec![64, 512],
        iterative_batch_steps: vec![8],
        placements: None,
    };

    let rago = Rago::new(schema, cluster);
    let space = rago.schedule_space(&options);
    println!("candidate space: {} schedules", space.size());

    // Ground truth: the exhaustive frontier (streaming, parallel, memoized —
    // still visits every candidate).
    let start = std::time::Instant::now();
    let exhaustive = rago.optimize(&options)?;
    let exhaustive_s = start.elapsed().as_secs_f64();
    let ttft_ref = 2.0
        * exhaustive
            .points
            .iter()
            .map(|p| p.performance.ttft_s)
            .fold(0.0f64, f64::max);
    let exhaustive_hv = exhaustive.hypervolume(ttft_ref, 0.0);
    println!(
        "exhaustive: {} evaluated, {} on the frontier, {:.3}s",
        exhaustive.evaluated_schedules,
        exhaustive.len(),
        exhaustive_s
    );

    // Anytime: a seeded stochastic run on a small fraction of the budget.
    // Same seed + budget => bit-identical result, for any thread count.
    let config = StochasticConfig::default()
        .with_seed(0x5EED)
        .with_budget(8_192);
    let report = rago.optimize_stochastic(&options, &config)?;
    println!(
        "\nstochastic: {} evaluations ({:.2}% of the space), {} rounds, {:.3}s",
        report.evaluations,
        100.0 * report.evaluations as f64 / space.size() as f64,
        report.rounds,
        report.elapsed_s
    );
    println!("\n  anytime timeline (hypervolume vs the exhaustive frontier):");
    println!(
        "{:>14} {:>12} {:>12}",
        "evaluations", "HV fraction", "frontier"
    );
    for sample in report
        .timeline
        .iter()
        .step_by(report.timeline.len().div_ceil(8).max(1))
        .chain(report.timeline.last())
    {
        println!(
            "{:>14} {:>12.4} {:>12}",
            sample.evaluations,
            sample.frontier.hypervolume(ttft_ref, 0.0) / exhaustive_hv,
            sample.frontier.len()
        );
    }

    let best = report
        .frontier
        .max_qps_per_chip()
        .expect("non-empty frontier");
    println!(
        "\nbest QPS/chip found: {:.3} ({})",
        best.performance.qps_per_chip,
        best.schedule.describe()
    );
    Ok(())
}
