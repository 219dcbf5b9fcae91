//! Figure 18: sensitivity to resource allocation (Case II) — the spread in
//! achievable QPS/chip across allocation plans under collocated and
//! disaggregated placements.
//!
//! Run with: `cargo run --release -p rago-bench --bin fig18`

use rago_bench::{default_cluster, fmt_f, print_header, print_row};
use rago_core::{PlacementPlan, Rago, SearchOptions};
use rago_schema::presets::{self, LlmSize};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = default_cluster();
    let schema = presets::case2_long_context(LlmSize::B70, 1_000_000);
    let rago = Rago::new(schema.clone(), cluster);

    let opts = SearchOptions {
        xpu_steps: vec![1, 2, 4, 8, 16, 32, 64],
        server_steps: vec![32],
        predecode_batch_steps: vec![1, 4, 16, 64],
        decode_batch_steps: vec![256, 1024],
        iterative_batch_steps: vec![8],
        placements: None,
    };

    for (label, placement) in [
        ("collocated", PlacementPlan::fully_collocated(&schema)),
        ("disaggregated", PlacementPlan::fully_disaggregated(&schema)),
    ] {
        let restricted = opts.clone().with_placements(vec![placement]);
        let per_plan = rago.frontiers_by_plan(&restricted)?;
        let mut best_list: Vec<(String, f64, f64)> = per_plan
            .iter()
            .filter_map(|(_, alloc, frontier)| {
                frontier.max_qps_per_chip().map(|p| {
                    (
                        format!("{:?}+{}dec", alloc.group_xpus, alloc.decode_xpus),
                        p.performance.qps_per_chip,
                        p.performance.ttft_s,
                    )
                })
            })
            .collect();
        best_list.sort_by(|a, b| b.1.total_cmp(&a.1));

        println!("== Figure 18 ({label} placement): QPS/chip across allocation plans ==\n");
        print_header(&["allocation", "max QPS/chip", "TTFT@max (s)"], 20);
        for (alloc, qpc, ttft) in best_list.iter().take(8) {
            print_row(&[alloc.clone(), fmt_f(*qpc, 3), fmt_f(*ttft, 3)], 20);
        }
        if best_list.len() > 8 {
            println!("... ({} more plans)", best_list.len() - 8);
        }
        if let (Some(best), Some(worst)) = (best_list.first(), best_list.last()) {
            println!(
                "\nbest/worst allocation QPS/chip ratio: {:.1}x (paper: up to 52.5x collocated, 64.1x disaggregated)\n",
                best.1 / worst.1.max(1e-12)
            );
        }
    }
    println!("expected shape: a large spread between balanced and imbalanced allocations,");
    println!("larger for disaggregated placements than for collocated ones.");
    Ok(())
}
