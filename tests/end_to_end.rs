//! Cross-crate integration tests: schema → cost models → optimizer.

use rago::core::{breakdown, BaselineSystem, Rago, SearchOptions, StageProfiler};
use rago::hardware::{ClusterSpec, XpuGeneration, XpuSpec};
use rago::schema::presets::{self, LlmSize};
use rago::schema::Stage;

fn fast() -> SearchOptions {
    SearchOptions {
        xpu_steps: vec![8, 32],
        server_steps: vec![32],
        predecode_batch_steps: vec![1, 16],
        decode_batch_steps: vec![128],
        iterative_batch_steps: vec![8],
        placements: None,
    }
}

#[test]
fn rago_beats_or_matches_the_baseline_in_case2() {
    // Headline claim: RAGO improves max QPS/chip over the LLM-extension
    // baseline for the long-context workload (the paper reports 1.7x).
    let cluster = ClusterSpec::paper_default();
    let schema = presets::case2_long_context(LlmSize::B70, 1_000_000);

    let baseline = BaselineSystem::new(schema.clone(), cluster.clone(), 128);
    let baseline_best = baseline
        .optimize(&[1, 2, 4, 8, 16, 32, 64, 128], &[128, 256, 512, 1024])
        .unwrap()
        .max_qps_per_chip()
        .unwrap()
        .performance;

    let rago = Rago::new(schema, cluster);
    let opts = SearchOptions {
        xpu_steps: vec![8, 16, 32, 64, 96],
        server_steps: vec![32],
        predecode_batch_steps: vec![1, 2, 8, 32, 128],
        decode_batch_steps: vec![256, 1024],
        iterative_batch_steps: vec![8],
        placements: None,
    };
    let rago_best = rago
        .optimize(&opts)
        .unwrap()
        .max_qps_per_chip()
        .unwrap()
        .performance;

    let speedup = rago_best.qps_per_chip / baseline_best.qps_per_chip;
    assert!(
        speedup >= 1.0,
        "RAGO ({:.4} QPS/chip) should not lose to the baseline ({:.4})",
        rago_best.qps_per_chip,
        baseline_best.qps_per_chip
    );
}

#[test]
fn rago_beats_or_matches_the_baseline_in_case4() {
    let cluster = ClusterSpec::paper_default();
    let schema = presets::case4_rewriter_reranker(LlmSize::B70);

    let baseline = BaselineSystem::new(schema.clone(), cluster.clone(), 64);
    let baseline_best = baseline
        .optimize(&[1, 4, 16, 64], &[128, 512])
        .unwrap()
        .max_qps_per_chip()
        .unwrap()
        .performance;

    let rago = Rago::new(schema, cluster);
    let opts = SearchOptions {
        xpu_steps: vec![1, 4, 16, 32],
        server_steps: vec![32],
        predecode_batch_steps: vec![1, 4, 16, 64],
        decode_batch_steps: vec![128, 512],
        iterative_batch_steps: vec![8],
        placements: None,
    };
    let rago_best = rago
        .optimize(&opts)
        .unwrap()
        .max_qps_per_chip()
        .unwrap()
        .performance;

    assert!(
        rago_best.qps_per_chip >= baseline_best.qps_per_chip,
        "RAGO {:.4} < baseline {:.4}",
        rago_best.qps_per_chip,
        baseline_best.qps_per_chip
    );
}

#[test]
fn bottleneck_shifts_from_retrieval_to_inference_with_model_size() {
    // §5.1 / Figure 7a: retrieval dominates small-model RAG and fades for the
    // 405B model.
    let cluster = ClusterSpec::paper_default();
    let mut shares = Vec::new();
    for llm in [LlmSize::B1, LlmSize::B8, LlmSize::B70, LlmSize::B405] {
        let profiler = StageProfiler::new(presets::case1_hyperscale(llm, 1), cluster.clone());
        let b = breakdown::stage_breakdown(&profiler, &[8, 16, 32, 64], &[1, 16, 64]).unwrap();
        shares.push(breakdown::share_of(&b, Stage::Retrieval));
    }
    for w in shares.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-9,
            "retrieval share should shrink with model size: {shares:?}"
        );
    }
    assert!(
        shares[0] > 0.5,
        "1B RAG should be retrieval bound: {shares:?}"
    );
    assert!(
        shares[3] < 0.3,
        "405B RAG should be inference bound: {shares:?}"
    );
}

#[test]
fn newer_xpus_increase_the_retrieval_share() {
    // Figure 7a: moving from XPU-A to XPU-C shifts more of the pipeline's
    // time x resource budget onto retrieval.
    let schema = presets::case1_hyperscale(LlmSize::B8, 1);
    let mut shares = Vec::new();
    for gen in [XpuGeneration::A, XpuGeneration::C] {
        let cluster = ClusterSpec::paper_default().with_xpu(XpuSpec::generation(gen));
        let profiler = StageProfiler::new(schema.clone(), cluster);
        let b = breakdown::stage_breakdown(&profiler, &[8, 16, 32, 64], &[1, 16, 64]).unwrap();
        shares.push(breakdown::share_of(&b, Stage::Retrieval));
    }
    assert!(
        shares[1] > shares[0],
        "XPU-C retrieval share {} should exceed XPU-A {}",
        shares[1],
        shares[0]
    );
}

#[test]
fn optimizer_works_for_every_default_case_study() {
    let cluster = ClusterSpec::paper_default();
    for case in rago::workloads::CaseStudy::ALL {
        let schema = case.default_schema();
        let rago = Rago::new(schema, cluster.clone());
        let frontier = rago.optimize(&fast()).unwrap();
        assert!(!frontier.is_empty(), "{case}: empty frontier");
        let best = frontier.max_qps_per_chip().unwrap();
        assert!(best.performance.qps > 0.0, "{case}: zero QPS");
        assert!(best.performance.ttft_s.is_finite(), "{case}: bad TTFT");
    }
}

#[test]
fn workload_trace_statistics_match_the_schema_profile() {
    // The workload generator and the schema must agree on sequence lengths,
    // since the cost models consume the latter.
    use rago::workloads::{ArrivalProcess, TraceSpec};
    let schema = presets::case1_hyperscale(LlmSize::B8, 1);
    let trace = TraceSpec {
        num_requests: 200,
        profile: schema.sequence,
        arrival: ArrivalProcess::Bursts {
            burst_size: 16,
            period_s: 0.5,
        },
        length_jitter: 0.1,
        seed: 5,
    }
    .generate();
    let mean_prefix = trace.mean_prefix_tokens();
    assert!((mean_prefix - f64::from(schema.main_prefix_tokens())).abs() < 40.0);
}

#[test]
fn retrieval_cost_model_and_substrate_agree_on_scan_volume() {
    // An IVF-PQ query probing `nprobe` of `nlist` leaf lists reads
    // `num_vectors * bytes_per_vector * nprobe / nlist` bytes of codes: the
    // leaf volume an IVF-PQ substrate scans, here in closed form.
    use rago::retrieval_sim::RetrievalSimulator;
    use rago::schema::RetrievalConfig;

    let (num_vectors, bytes_per_vector) = (4_096_u64, 8_u32);
    let (nprobe, nlist) = (8.0, 64.0);
    let leaf_bytes = num_vectors as f64 * f64::from(bytes_per_vector) * nprobe / nlist;
    assert_eq!(leaf_bytes, 4_096.0);

    let cfg = RetrievalConfig {
        num_vectors,
        dim: 32,
        bytes_per_vector,
        scan_fraction: nprobe / nlist,
        queries_per_retrieval: 1,
        retrievals_per_sequence: 1,
        top_k: 10,
        mode: rago::schema::SearchMode::IvfPq { tree_levels: 2 },
    };
    let sim = RetrievalSimulator::default();
    let cost = sim.retrieval_cost(&cfg, 1, 1).unwrap();
    // The model additionally scans intermediate-level centroids, so it should
    // be within 2x of the leaf-only volume but never below it.
    assert!(cost.scanned_bytes_per_query >= leaf_bytes * 0.99);
    assert!(cost.scanned_bytes_per_query < leaf_bytes * 3.0 + 1e5);
}
