//! Case II walk-through: answering questions over a long uploaded document.
//!
//! Shows the performance side of the paper's long-context study (§5.2):
//! RAGO's schedule for the 1M-token workload versus the LLM-extension
//! baseline, and the speedup over feeding the whole context to the LLM.
//!
//! Run with: `cargo run --release --example long_context_qa`

use rago::accel_sim::{AcceleratorGroup, InferenceSimulator};
use rago::core::{BaselineSystem, Rago, SearchOptions};
use rago::hardware::ClusterSpec;
use rago::schema::presets::{self, LlmSize};
use rago::schema::ModelConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- serving-performance side -----------------------------------------
    let cluster = ClusterSpec::paper_default();
    let schema = presets::case2_long_context(LlmSize::B70, 1_000_000);

    let rago = Rago::new(schema.clone(), cluster.clone());
    let frontier = rago.optimize(&SearchOptions::fast())?;
    let rago_best = frontier.max_qps_per_chip().expect("non-empty frontier");

    let baseline = BaselineSystem::new(schema, cluster.clone(), 128);
    let baseline_best = baseline
        .optimize(&[1, 2, 8, 32, 128], &[256, 1024])?
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();

    println!("== 1M-token long-context RAG serving (70B generator) ==");
    println!(
        "RAGO:     QPS/chip = {:.3}, TTFT = {:.2} s, schedule = {}",
        rago_best.performance.qps_per_chip,
        rago_best.performance.ttft_s,
        rago_best.schedule.describe()
    );
    println!(
        "baseline: QPS/chip = {:.3}, TTFT = {:.2} s, schedule = {}",
        baseline_best.performance.qps_per_chip,
        baseline_best.performance.ttft_s,
        baseline_best.schedule.describe()
    );
    println!(
        "RAGO speedup: {:.2}x QPS/chip",
        rago_best.performance.qps_per_chip / baseline_best.performance.qps_per_chip
    );

    // --- RAG versus a long-context LLM fed the full 1M tokens --------------
    let sim = InferenceSimulator::new();
    let group = AcceleratorGroup::new(cluster.xpu.clone(), 64);
    let model = ModelConfig::llama3_70b();
    let rag_prefix = sim.best_prefix_cost(&model, 512, 1, &group)?;
    let long_ctx = sim.long_context_prefix_cost(&model, 1_000_000, 1, &group, 4, 128)?;
    println!(
        "\nfeeding the full 1M-token context instead of retrieving: {:.0}x slower TTFT",
        long_ctx.latency_s / rag_prefix.latency_s
    );
    Ok(())
}
