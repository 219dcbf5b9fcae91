//! Figure 19: TTFT reduction from splitting a burst of requests into
//! micro-batches, for Cases I, II, and IV.
//!
//! Run with: `cargo run --release -p rago-bench --bin fig19`

use rago_bench::{default_cluster, fmt_f, print_header, print_row};
use rago_core::StageProfiler;
use rago_schema::presets::{self, LlmSize};
use rago_schema::{RagSchema, RouterPolicy, Stage};
use rago_serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
use rago_serving_sim::{FleetEngine, MetricsMode, ScaleDriver};
use rago_telemetry::NullRecorder;

/// Mean TTFT of a burst pushed through the pre-decode stages, split into
/// micro-batches of `microbatch`: one replica runs every TTFT-affecting
/// stage on its own resource, with the whole burst arriving at t = 0.
/// Stage latencies come from the analytical profiler with fixed per-stage
/// resources (16 XPUs / 32 retrieval servers); `None` if a stage cannot
/// run a batch.
fn mean_ttft(
    profiler: &StageProfiler,
    schema: &RagSchema,
    burst: u32,
    microbatch: u32,
) -> Option<f64> {
    let mut stages = Vec::new();
    for stage in schema.pipeline().into_iter().filter(|s| s.affects_ttft()) {
        let resources = if stage == Stage::Retrieval { 32 } else { 16 };
        let mut table = Vec::with_capacity(microbatch as usize);
        for fill in 1..=microbatch {
            table.push(profiler.profile(stage, resources, fill).ok()?.latency_s);
        }
        stages.push(StageSpec::new(
            stage.to_string(),
            stages.len(),
            microbatch,
            LatencyTable::from_table(table),
        ));
    }
    // TTFT ends before decoding starts: one negligible step per request.
    let spec = PipelineSpec::new(
        stages,
        DecodeSpec::new(burst, LatencyTable::constant(burst, 1e-9)),
    );
    let requests = (0..burst).map(|i| EngineRequest {
        id: u64::from(i),
        arrival_s: 0.0,
        prefix_tokens: 0,
        decode_tokens: 1,
        class: 0,
        identity: None,
    });
    let one = ScaleDriver::Static { replicas: 1 };
    let engine = FleetEngine::new(spec, RouterPolicy::default(), one);
    let timelines = engine
        .run(requests, &MetricsMode::Exact, &mut NullRecorder)
        .fleet
        .merged
        .timelines;
    let total: f64 = timelines
        .iter()
        .map(|t| t.stages.ends().last().expect("every pipeline has a prefix") - t.arrival_s)
        .sum();
    Some(total / timelines.len() as f64)
}

/// The TTFT reduction (%) of micro-batching over one whole batch, or `-`
/// when either run is infeasible.
fn reduction_cell(whole: Option<f64>, micro: Option<f64>) -> String {
    match (whole, micro) {
        (Some(whole), Some(micro)) => fmt_f((1.0 - micro / whole).max(0.0) * 100.0, 1),
        _ => "-".to_string(),
    }
}

fn reduction_table(
    title: &str,
    rows: Vec<(String, RagSchema)>,
    bursts: &[u32],
    cluster: &rago_hardware::ClusterSpec,
) {
    println!("== {title} ==\n");
    let header: Vec<String> = std::iter::once("workload".to_string())
        .chain(bursts.iter().map(|b| format!("burst={b}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_header(&header_refs, 14);
    for (label, schema) in rows {
        let profiler = StageProfiler::new(schema.clone(), cluster.clone());
        let mut cells = vec![label];
        for &burst in bursts {
            let whole = mean_ttft(&profiler, &schema, burst, burst);
            let micro = mean_ttft(&profiler, &schema, burst, 2.max(burst / 8));
            cells.push(reduction_cell(whole, micro));
        }
        print_row(&cells, 14);
    }
    println!();
}

fn main() {
    let cluster = default_cluster();
    let bursts = [2u32, 4, 8, 16, 32];

    reduction_table(
        "Figure 19a: TTFT reduction (%) — Case I (70B), queries per retrieval",
        [1u32, 2, 4, 8]
            .into_iter()
            .map(|q| {
                (
                    format!("{q} queries"),
                    presets::case1_hyperscale(LlmSize::B70, q),
                )
            })
            .collect(),
        &bursts,
        &cluster,
    );
    reduction_table(
        "Figure 19b: TTFT reduction (%) — Case II (70B), context length",
        [100_000u64, 1_000_000, 10_000_000]
            .into_iter()
            .map(|ctx| {
                (
                    format!("{}K tokens", ctx / 1_000),
                    presets::case2_long_context(LlmSize::B70, ctx),
                )
            })
            .collect(),
        &bursts,
        &cluster,
    );
    reduction_table(
        "Figure 19c: TTFT reduction (%) — Case IV, generator size",
        [LlmSize::B8, LlmSize::B70]
            .into_iter()
            .map(|llm| (llm.to_string(), presets::case4_rewriter_reranker(llm)))
            .collect(),
        &bursts,
        &cluster,
    );
    println!("expected shape: compute-heavy pipelines (Case II) benefit even at small bursts;");
    println!("Case I only benefits once the burst exceeds the retrieval latency floor (~16);");
    println!("Case IV sees moderate reductions limited by the rewriter's decode.");
}

#[cfg(test)]
mod tests {
    use super::reduction_cell;

    #[test]
    fn a_feasible_cell_prints_the_reduction() {
        assert_eq!(reduction_cell(Some(2.0), Some(1.5)), "25.0");
        // Micro-batching that hurts prints no negative reduction.
        assert_eq!(reduction_cell(Some(1.0), Some(1.2)), "0.0");
    }

    #[test]
    fn an_infeasible_run_prints_a_dash() {
        assert_eq!(reduction_cell(None, Some(1.0)), "-");
        assert_eq!(reduction_cell(Some(1.0), None), "-");
        assert_eq!(reduction_cell(None, None), "-");
    }
}
