//! Figure 16: how different placement + allocation plans compose the overall
//! Pareto frontier (Cases II and IV).
//!
//! Run with: `cargo run --release -p rago-bench --bin fig16`

use rago_bench::{default_cluster, fmt_f, print_header, print_row};
use rago_core::{Rago, SearchOptions};
use rago_schema::presets::{self, LlmSize};

fn options() -> SearchOptions {
    SearchOptions {
        xpu_steps: vec![1, 4, 16, 32, 64],
        server_steps: vec![32],
        predecode_batch_steps: vec![1, 4, 16, 64],
        decode_batch_steps: vec![128, 512],
        iterative_batch_steps: vec![8],
        placements: None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = default_cluster();
    let cases = [
        (
            "Case II (1M tokens, 70B)",
            presets::case2_long_context(LlmSize::B70, 1_000_000),
        ),
        (
            "Case IV (rewriter+reranker, 70B)",
            presets::case4_rewriter_reranker(LlmSize::B70),
        ),
    ];

    for (name, schema) in cases {
        println!("== Figure 16: {name} ==\n");
        let rago = Rago::new(schema, cluster.clone());
        let opts = options();
        let per_plan = rago.frontiers_by_plan(&opts)?;
        let global = rago.optimize(&opts)?;

        println!(
            "{} distinct placement+allocation plans evaluated; top plans by max QPS/chip:\n",
            per_plan.len()
        );
        print_header(
            &[
                "placement",
                "group XPUs",
                "dec XPUs",
                "best QPS/chip",
                "TTFT@best (s)",
            ],
            22,
        );
        for (placement, allocation, frontier) in per_plan.iter().take(10) {
            let best = frontier
                .max_qps_per_chip()
                .expect("non-empty plan frontier");
            print_row(
                &[
                    placement.describe(),
                    format!("{:?}", allocation.group_xpus),
                    allocation.decode_xpus.to_string(),
                    fmt_f(best.performance.qps_per_chip, 3),
                    fmt_f(best.performance.ttft_s, 3),
                ],
                22,
            );
        }

        println!("\nglobal Pareto frontier (composed across plans):");
        print_header(&["TTFT (s)", "QPS/chip", "placement"], 22);
        for p in global.iter() {
            print_row(
                &[
                    fmt_f(p.performance.ttft_s, 3),
                    fmt_f(p.performance.qps_per_chip, 3),
                    p.schedule.placement.describe(),
                ],
                22,
            );
        }
        println!();
    }
    println!("expected shape: the global frontier is stitched from several different");
    println!("placement/allocation plans — no single plan dominates both objectives.");
    Ok(())
}
