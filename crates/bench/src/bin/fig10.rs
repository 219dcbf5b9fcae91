//! Figure 10: decode idleness caused purely by batching iterative retrieval
//! requests (retrieval + prefix latency set to zero).
//!
//! Run with: `cargo run --release -p rago-bench --bin fig10`

use rago_bench::{fmt_f, print_header, print_row};
use rago_serving_sim::iterative::{simulate, IterativeDecodeParams};

fn main() {
    println!("Figure 10b: normalized decoding latency from batching-induced idleness");
    println!("(retrieval + prefix latency = 0, 4 retrievals per 256-token sequence)\n");

    let decode_batches = [4u32, 8, 16, 64, 128, 256];
    let iterative_batches = [256u32, 128, 64, 16, 8, 4, 2, 1];

    let header: Vec<String> = std::iter::once("iter\\dec".to_string())
        .chain(decode_batches.iter().map(|b| b.to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_header(&header_refs, 8);

    for &iter_batch in &iterative_batches {
        let mut cells = vec![iter_batch.to_string()];
        for &decode_batch in &decode_batches {
            if iter_batch > decode_batch {
                // The batch can never fill; the paper leaves these cells empty.
                cells.push("-".to_string());
                continue;
            }
            let result = simulate(IterativeDecodeParams {
                decode_batch,
                iterative_batch: iter_batch,
                decode_len: 256,
                retrievals_per_sequence: 4,
                step_latency_s: 1e-3,
                retrieval_prefix_latency_s: 0.0,
                seed: 17,
            });
            cells.push(fmt_f(result.normalized_decode_latency, 2));
        }
        print_row(&cells, 8);
    }
    println!("\nexpected shape: ~1.0 along the bottom rows (tiny iterative batches),");
    println!("rising towards ~2-3x when the iterative batch matches the decode batch.");
}
