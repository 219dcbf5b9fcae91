//! Case III walk-through: multi-hop ("agentic") generation with iterative
//! retrievals.
//!
//! Explores how the batching of decoder-initiated retrievals interacts with
//! the decode batch size (§5.3, Figures 9 and 10): for a 70B generator that
//! retrieves four times per answer, sweep both batch sizes and report the
//! achieved TPOT and the slowdown caused purely by waiting for retrieval
//! batches to fill.
//!
//! Run with: `cargo run --release --example iterative_agent`

use rago::accel_sim::{AcceleratorGroup, InferenceSimulator};
use rago::hardware::{ClusterSpec, XpuSpec};
use rago::retrieval_sim::RetrievalSimulator;
use rago::schema::presets::{self, LlmSize};
use rago::serving_sim::iterative::{simulate, IterativeDecodeParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::paper_default();
    let schema = presets::case3_iterative(LlmSize::B70, 4);
    let retrieval_cfg = schema.retrieval.as_ref().expect("case 3 retrieves");

    // Per-step decode cost and per-batch retrieval+prefix cost from the
    // analytical models.
    let sim = InferenceSimulator::new();
    let decode_group = AcceleratorGroup::new(XpuSpec::default(), 16);
    let prefix_group = AcceleratorGroup::new(XpuSpec::default(), 16);
    let retrieval = RetrievalSimulator::new(cluster.cpu.clone());

    println!("== achieved worst-case TPOT for 4 retrievals/sequence ==");
    println!(
        "{:>14} {:>12} {:>12} {:>12}",
        "decode batch", "iter batch", "TPOT (ms)", "slowdown"
    );
    for decode_batch in [16u32, 64, 256] {
        let decode = sim.best_decode_cost(
            &schema.generative_llm,
            schema.main_prefix_tokens(),
            schema.sequence.decode_tokens,
            decode_batch,
            &decode_group,
        )?;
        for iter_batch in [1u32, 4, 16, 64] {
            let retrieval_cost = retrieval.retrieval_cost(retrieval_cfg, iter_batch, 32)?;
            let reprefix = sim.best_prefix_cost(
                &schema.generative_llm,
                schema.main_prefix_tokens(),
                iter_batch,
                &prefix_group,
            )?;
            let result = simulate(IterativeDecodeParams {
                decode_batch,
                iterative_batch: iter_batch,
                decode_len: schema.sequence.decode_tokens,
                retrievals_per_sequence: 3, // one retrieval precedes decoding
                step_latency_s: decode.step_latency_s,
                retrieval_prefix_latency_s: retrieval_cost.latency_s + reprefix.latency_s,
                seed: 11,
            });
            println!(
                "{:>14} {:>12} {:>12.1} {:>11.2}x",
                decode_batch,
                iter_batch,
                result.tpot_worst_s * 1e3,
                result.normalized_decode_latency
            );
        }
    }
    println!("\nlower iterative batches keep decoding busy at small decode batches;");
    println!("large decode batches amortize the wait and prefer larger retrieval batches.");
    Ok(())
}
