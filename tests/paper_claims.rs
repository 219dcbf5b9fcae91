//! Integration tests asserting the qualitative claims of the paper's
//! characterization sections hold in this reproduction.

use rago::accel_sim::{AcceleratorGroup, InferenceSimulator};
use rago::core::{breakdown, StageProfiler};
use rago::hardware::{ClusterSpec, XpuSpec};
use rago::schema::presets::{self, LlmSize};
use rago::schema::{ModelConfig, Stage};
use rago::serving_sim::iterative::{simulate, IterativeDecodeParams};

#[test]
fn claim_5_1_retrieval_share_grows_with_scan_fraction() {
    // Figure 7b: scanning 1% of the database makes retrieval far more
    // dominant than scanning 0.01%.
    let cluster = ClusterSpec::paper_default();
    let mut shares = Vec::new();
    for scan in [0.0001, 0.001, 0.01] {
        let mut schema = presets::case1_hyperscale(LlmSize::B8, 1);
        schema.retrieval = schema.retrieval.map(|r| r.with_scan_fraction(scan));
        let profiler = StageProfiler::new(schema, cluster.clone());
        let b = breakdown::stage_breakdown(&profiler, &[8, 16, 32, 64], &[1, 16, 64]).unwrap();
        shares.push(breakdown::share_of(&b, Stage::Retrieval));
    }
    assert!(shares[0] < shares[1] && shares[1] < shares[2], "{shares:?}");
    assert!(shares[2] > 0.8, "1% scan should dominate: {shares:?}");
}

#[test]
fn claim_5_1_retrieval_share_shrinks_with_longer_sequences() {
    // Figure 7c: longer prefix/decode lengths reduce the retrieval share.
    let cluster = ClusterSpec::paper_default();
    let share_for = |prefix: u32, decode: u32| {
        let mut schema = presets::case1_hyperscale(LlmSize::B8, 1);
        schema.sequence = schema
            .sequence
            .with_prefix_tokens(prefix)
            .with_decode_tokens(decode);
        let profiler = StageProfiler::new(schema, cluster.clone());
        let b = breakdown::stage_breakdown(&profiler, &[8, 16, 32, 64], &[1, 16, 64]).unwrap();
        breakdown::share_of(&b, Stage::Retrieval)
    };
    let short = share_for(128, 128);
    let long = share_for(2048, 512);
    assert!(
        short > long,
        "retrieval share should fall with sequence length: short {short} vs long {long}"
    );
    // The paper reports 86% at 128/128 on its calibration; our substrate puts
    // the same point above 50% — the shape (retrieval-dominant and shrinking
    // with sequence length) is what we assert.
    assert!(
        short > 0.5,
        "short sequences should be retrieval bound: {short}"
    );
}

#[test]
fn claim_5_2_encoder_becomes_bottleneck_as_context_grows() {
    // Figure 8b: the encode share grows with context length even though the
    // encoder is ~600x smaller than the 70B generator.
    let cluster = ClusterSpec::paper_default();
    let mut encode_shares = Vec::new();
    for ctx in [100_000u64, 1_000_000, 10_000_000] {
        let profiler = StageProfiler::new(
            presets::case2_long_context(LlmSize::B70, ctx),
            cluster.clone(),
        );
        let b = breakdown::stage_breakdown(&profiler, &[8, 16, 32, 64], &[1, 16, 64]).unwrap();
        encode_shares.push(breakdown::share_of(&b, Stage::DatabaseEncode));
    }
    assert!(encode_shares[0] < encode_shares[2], "{encode_shares:?}");
    assert!(encode_shares[2] > 0.8, "{encode_shares:?}");
}

#[test]
fn claim_5_2_rag_is_orders_of_magnitude_cheaper_than_long_context_llm() {
    // §5.2 text: >100x TTFT advantage for RAG over an efficient long-context
    // LLM at 1M tokens (the paper reports 2852x on its hardware).
    let sim = InferenceSimulator::new();
    let group = AcceleratorGroup::new(XpuSpec::default(), 64);
    let model = ModelConfig::llama3_70b();
    let rag = sim.best_prefix_cost(&model, 512, 1, &group).unwrap();
    let long_ctx = sim
        .long_context_prefix_cost(&model, 1_000_000, 1, &group, 4, 128)
        .unwrap();
    assert!(long_ctx.latency_s / rag.latency_s > 100.0);
}

#[test]
fn claim_5_3_idleness_peaks_when_batches_match() {
    // Figure 10b: normalized decode latency is worst when the iterative batch
    // size approaches the decode batch size, and ~1.0 when the iterative
    // batch is 1.
    let run = |iterative_batch: u32| {
        simulate(IterativeDecodeParams {
            decode_batch: 64,
            iterative_batch,
            decode_len: 256,
            retrievals_per_sequence: 4,
            step_latency_s: 1e-3,
            retrieval_prefix_latency_s: 0.0,
            seed: 3,
        })
        .normalized_decode_latency
    };
    let small = run(1);
    let medium = run(16);
    let matched = run(64);
    assert!(small < 1.1, "batch-1 idleness {small}");
    assert!(matched > medium, "{matched} !> {medium}");
    assert!(matched > 1.5, "matched-batch idleness {matched}");
}

#[test]
fn claim_5_4_rewriter_hurts_ttft_but_not_throughput() {
    // §5.4: adding the 8B rewriter and 120M reranker leaves QPS/chip largely
    // unchanged but increases TTFT substantially (the paper reports 2.4x).
    let cluster = ClusterSpec::paper_default();
    let plain = StageProfiler::new(presets::case1_hyperscale(LlmSize::B70, 1), cluster.clone());
    let extended = StageProfiler::new(
        presets::case4_rewriter_reranker(LlmSize::B70),
        cluster.clone(),
    );

    // TTFT comparison at batch 1 on generous per-stage resources.
    let ttft = |profiler: &StageProfiler| -> f64 {
        profiler
            .schema()
            .pipeline()
            .into_iter()
            .filter(|s| s.affects_ttft())
            .map(|s| {
                let resources = if s == Stage::Retrieval { 32 } else { 16 };
                profiler.profile(s, resources, 1).unwrap().latency_s
            })
            .sum()
    };
    let ttft_plain = ttft(&plain);
    let ttft_ext = ttft(&extended);
    assert!(
        ttft_ext > ttft_plain * 1.5,
        "rewriter should add TTFT: {ttft_ext} vs {ttft_plain}"
    );

    // Throughput share of the added components stays small.
    let b = breakdown::stage_breakdown(&extended, &[8, 16, 32, 64], &[1, 16, 64]).unwrap();
    let added = breakdown::share_of(&b, Stage::RewritePrefix)
        + breakdown::share_of(&b, Stage::RewriteDecode)
        + breakdown::share_of(&b, Stage::Rerank);
    assert!(added < 0.35, "auxiliary components' share {added}");
}
