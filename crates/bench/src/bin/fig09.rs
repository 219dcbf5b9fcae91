//! Figure 9: Case III — TPOT under iterative retrievals as a function of the
//! decode batch size (9a) and of the iterative retrieval batch size (9b).
//!
//! Run with: `cargo run --release -p rago-bench --bin fig09`

use rago_accel_sim::{AcceleratorGroup, InferenceSimulator};
use rago_bench::{default_cluster, fmt_f, print_header, print_row};
use rago_retrieval_sim::RetrievalSimulator;
use rago_schema::presets::{self, LlmSize};
use rago_serving_sim::iterative::{simulate, IterativeDecodeParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = default_cluster();
    let sim = InferenceSimulator::new();
    let retrieval = RetrievalSimulator::new(cluster.cpu.clone());
    let decode_group = AcceleratorGroup::new(cluster.xpu.clone(), 16);
    let prefix_group = AcceleratorGroup::new(cluster.xpu.clone(), 16);
    let schema = presets::case3_iterative(LlmSize::B70, 4);
    let cfg = schema.retrieval.as_ref().expect("case 3 retrieves");
    let model = &schema.generative_llm;
    let prefix_len = schema.main_prefix_tokens();
    let decode_len = schema.sequence.decode_tokens;

    // Shared helper: worst-case TPOT for one (decode batch, iterative batch,
    // retrieval frequency) combination.
    let tpot = |decode_batch: u32, iter_batch: u32, retrievals: u32| -> f64 {
        let decode = sim
            .best_decode_cost(model, prefix_len, decode_len, decode_batch, &decode_group)
            .expect("decode fits on 16 chips");
        let retrieval_cost = retrieval
            .retrieval_cost(cfg, iter_batch.max(1), 32)
            .expect("32 servers hold the database");
        let reprefix = sim
            .best_prefix_cost(model, prefix_len, iter_batch.max(1), &prefix_group)
            .expect("prefix fits on 16 chips");
        simulate(IterativeDecodeParams {
            decode_batch,
            iterative_batch: iter_batch,
            decode_len,
            retrievals_per_sequence: retrievals.saturating_sub(1),
            step_latency_s: decode.step_latency_s,
            retrieval_prefix_latency_s: retrieval_cost.latency_s + reprefix.latency_s,
            seed: 9,
        })
        .tpot_worst_s
    };

    println!("Figure 9a: TPOT (ms) vs decode batch size, 70B model, iterative batch = 16\n");
    let decode_batches = [1u32, 4, 16, 64, 256, 1024];
    let header: Vec<&str> = std::iter::once("retrievals")
        .chain(["b=1", "b=4", "b=16", "b=64", "b=256", "b=1024"])
        .collect();
    print_header(&header, 10);
    for retrievals in [1u32, 2, 4, 8] {
        let mut cells = vec![format!("{retrievals}")];
        for &b in &decode_batches {
            cells.push(fmt_f(tpot(b, 16, retrievals) * 1e3, 1));
        }
        print_row(&cells, 10);
    }

    println!("\nFigure 9b: TPOT (ms) vs iterative batch size, 70B model, 4 retrievals\n");
    let iter_batches = [1u32, 4, 16, 64];
    let header: Vec<&str> = std::iter::once("dec batch")
        .chain(["iter=1", "iter=4", "iter=16", "iter=64"])
        .collect();
    print_header(&header, 10);
    for decode_batch in [4u32, 16, 64, 256] {
        let mut cells = vec![decode_batch.to_string()];
        for &ib in &iter_batches {
            cells.push(fmt_f(tpot(decode_batch, ib, 4) * 1e3, 1));
        }
        print_row(&cells, 10);
    }
    println!("\nexpected shape: TPOT grows with retrieval frequency and decode batch;");
    println!("small decode batches prefer small iterative batches, large decode batches");
    println!("prefer larger iterative batches (the decode-batch-64 row has an interior optimum).");
    Ok(())
}
