//! Replica-level cache semantics: prefix-suffix prefill charging, retrieval
//! stage skipping, replica-local cold caches, content-aware routing — and
//! the degenerate-case equivalences (identity-free traces and
//! zero-capacity caches reproduce the cache-less run bit-exactly).

use rago_cache::{CacheConfig, EvictionPolicy, PrefixKvCacheConfig, RetrievalCacheConfig};
use rago_schema::{RouterPolicy, SequenceProfile};
use rago_serving_sim::engine::{
    CachePlan, DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, ServingReport, StageSpec,
};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::MetricsMode;
use rago_telemetry::NullRecorder;
use rago_workloads::{
    ArrivalProcess, ContentIdentity, ContentSpec, PopularityModel, Trace, TraceSpec,
};

/// A fixed fleet of `replicas` copies of `spec`.
fn fixed(spec: PipelineSpec, replicas: u32, router: RouterPolicy) -> FleetEngine {
    FleetEngine::new(spec, router, ScaleDriver::Static { replicas })
}

/// Runs `requests` through one replica of `spec`: a one-replica fleet,
/// whose merged report is the replica's own.
fn run_alone(spec: PipelineSpec, requests: Vec<EngineRequest>) -> ServingReport {
    fixed(spec, 1, RouterPolicy::default())
        .run(requests, &MetricsMode::Exact, &mut NullRecorder)
        .fleet
        .merged
}

/// [`run_alone`] over a generated trace.
fn run_trace_alone(spec: PipelineSpec, trace: &Trace) -> ServingReport {
    fixed(spec, 1, RouterPolicy::default())
        .run_trace(trace)
        .fleet
        .merged
}

/// Retrieval (0.05 s) then prefix (0.2 s), each on its own resource.
fn two_stage_spec() -> PipelineSpec {
    PipelineSpec::new(
        vec![
            StageSpec::new("retrieval", 0, 4, LatencyTable::constant(4, 0.05)),
            StageSpec::new("prefix", 1, 4, LatencyTable::constant(4, 0.2)),
        ],
        DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)),
    )
}

fn plan(config: CacheConfig) -> CachePlan {
    CachePlan {
        config,
        prefix_stage: Some(1),
        retrieval_stages: vec![0],
    }
}

fn prefix_only(capacity_tokens: u64) -> CacheConfig {
    CacheConfig {
        prefix: Some(PrefixKvCacheConfig::new(
            capacity_tokens,
            EvictionPolicy::Lru,
        )),
        retrieval: None,
    }
}

fn retrieval_only(capacity_entries: u64) -> CacheConfig {
    CacheConfig {
        prefix: None,
        retrieval: Some(RetrievalCacheConfig::new(
            capacity_entries,
            EvictionPolicy::Lru,
        )),
    }
}

fn both(prefix_tokens: u64, retrieval_entries: u64) -> CacheConfig {
    CacheConfig {
        prefix: Some(PrefixKvCacheConfig::new(prefix_tokens, EvictionPolicy::Lru)),
        retrieval: Some(RetrievalCacheConfig::new(
            retrieval_entries,
            EvictionPolicy::Lru,
        )),
    }
}

fn req_with_identity(
    id: u64,
    arrival: f64,
    prefix_id: u64,
    shared: u32,
    doc_key: u64,
) -> EngineRequest {
    EngineRequest {
        id,
        arrival_s: arrival,
        prefix_tokens: 1000,
        decode_tokens: 4,
        class: 0,
        identity: Some(ContentIdentity {
            prefix_id,
            shared_prefix_tokens: shared,
            doc_key,
        }),
    }
}

/// A prefix-KV hit charges the prefix stage only for the uncached suffix:
/// with 800 of 1000 tokens shared, the second request's prefill costs
/// 0.2 × 200/1000 = 0.04 s instead of 0.2 s.
#[test]
fn prefix_hit_charges_only_the_uncached_suffix() {
    let spec = two_stage_spec().with_cache(plan(prefix_only(100_000)));
    // Distinct doc keys; arrivals far apart so every micro-batch is one
    // request.
    let report = run_alone(
        spec,
        vec![
            req_with_identity(0, 0.0, 7, 800, 100),
            req_with_identity(1, 1.0, 7, 800, 101),
        ],
    );
    let prefix_duration =
        |i: usize| report.timelines[i].stages.ends()[1] - report.timelines[i].stages.starts()[1];
    assert!(
        (prefix_duration(0) - 0.2).abs() < 1e-12,
        "cold miss pays full prefill"
    );
    assert!(
        (prefix_duration(1) - 0.04).abs() < 1e-12,
        "hit should pay the 20 % suffix, got {}",
        prefix_duration(1)
    );
    let usage = &report.cache;
    assert_eq!(usage.prefix.lookups, 2);
    assert_eq!(usage.prefix.hits, 1);
    assert_eq!(usage.prefix.tokens_saved, 800);
    assert_eq!(usage.retrieval.lookups, 0);
    // TTFT improves by exactly the saved prefill time.
    let ttft = |i: usize| report.timelines[i].ttft_s();
    assert!((ttft(0) - 0.25).abs() < 1e-12);
    assert!((ttft(1) - 0.09).abs() < 1e-12);
}

/// A retrieval-result hit skips the retrieve stage outright: the stage is
/// recorded as a zero-duration pass-through and the request goes straight
/// to prefill.
#[test]
fn retrieval_hit_skips_the_stage() {
    let spec = two_stage_spec().with_cache(plan(retrieval_only(64)));
    let report = run_alone(
        spec,
        vec![
            req_with_identity(0, 0.0, 1, 0, 42),
            req_with_identity(1, 1.0, 2, 0, 42), // same doc key
        ],
    );
    let t0 = &report.timelines[0];
    let t1 = &report.timelines[1];
    // First request executes retrieval for 0.05 s.
    assert!((t0.stages.ends()[0] - t0.stages.starts()[0] - 0.05).abs() < 1e-12);
    assert!((t0.ttft_s() - 0.25).abs() < 1e-12);
    // Second passes retrieval through at its arrival instant.
    assert_eq!(t1.stages.starts()[0], t1.stages.ends()[0]);
    assert!((t1.stages.starts()[0] - 1.0).abs() < 1e-12);
    assert!((t1.ttft_s() - 0.2).abs() < 1e-12, "only prefill remains");
    assert_eq!(report.cache.retrieval.hits, 1);
    assert_eq!(report.cache.retrieval.lookups, 2);
}

/// Identity-free traffic never touches configured caches: the run is
/// bit-identical to the cache-less engine, counters included.
#[test]
fn identity_free_runs_match_the_cacheless_engine_bit_exactly() {
    let trace = TraceSpec {
        num_requests: 120,
        profile: SequenceProfile::paper_default().with_decode_tokens(24),
        arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
        length_jitter: 0.2,
        seed: 11,
    }
    .generate();
    let plain = run_trace_alone(two_stage_spec(), &trace);
    let cached = run_trace_alone(two_stage_spec().with_cache(plan(both(50_000, 64))), &trace);
    assert_eq!(plain, cached);
    assert_eq!(cached.cache.prefix.lookups, 0);
    assert_eq!(cached.cache.retrieval.lookups, 0);
}

/// Zero-capacity caches look up, miss every time, and change nothing:
/// timelines, metrics, and per-class rows are bit-identical to the
/// cache-less run.
#[test]
fn zero_capacity_caches_match_the_cacheless_engine_bit_exactly() {
    let content = ContentSpec {
        prefixes: PopularityModel::zipf(6, 1.0),
        shared_prefix_fraction: 0.7,
        docs: PopularityModel::zipf(20, 1.0),
        seed: 5,
    };
    let trace = content.tag(
        &TraceSpec {
            num_requests: 120,
            profile: SequenceProfile::paper_default().with_decode_tokens(24),
            arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
            length_jitter: 0.2,
            seed: 11,
        }
        .generate(),
    );
    let plain = run_trace_alone(two_stage_spec(), &trace);
    let cached = run_trace_alone(two_stage_spec().with_cache(plan(both(0, 0))), &trace);
    assert_eq!(plain.timelines, cached.timelines);
    assert_eq!(plain.metrics, cached.metrics);
    assert_eq!(plain.per_class, cached.per_class);
    // The lookups all happened — and all missed.
    assert_eq!(cached.cache.prefix.lookups, 120);
    assert_eq!(cached.cache.prefix.hits, 0);
    assert_eq!(cached.cache.retrieval.hits, 0);
    assert_eq!(cached.cache.prefix.insertions, 0);
    // The same holds for a whole fleet.
    let fleet_plain = fixed(two_stage_spec(), 2, RouterPolicy::LeastOutstanding)
        .run_trace(&trace)
        .fleet;
    let fleet_cached = fixed(
        two_stage_spec().with_cache(plan(both(0, 0))),
        2,
        RouterPolicy::LeastOutstanding,
    )
    .run_trace(&trace)
    .fleet;
    assert_eq!(fleet_plain.merged.timelines, fleet_cached.merged.timelines);
    assert_eq!(fleet_plain.merged.metrics, fleet_cached.merged.metrics);
    assert_eq!(fleet_plain.assignments, fleet_cached.assignments);
}

/// Every replica owns its own cold cache: round-robin over two replicas
/// with one hot template pays one cold miss *per replica*.
#[test]
fn cluster_replicas_start_cold_and_warm_independently() {
    let spec = two_stage_spec().with_cache(plan(prefix_only(100_000)));
    let requests: Vec<EngineRequest> = (0..6)
        .map(|i| req_with_identity(i, i as f64, 7, 800, 100 + i))
        .collect();
    let fleet = fixed(spec, 2, RouterPolicy::RoundRobin)
        .run(requests, &MetricsMode::Exact, &mut NullRecorder)
        .fleet;
    let usage = &fleet.merged.cache;
    assert_eq!(usage.prefix.lookups, 6);
    assert_eq!(usage.prefix.insertions, 2, "one cold miss per replica");
    assert_eq!(usage.prefix.hits, 4);
    for replica in &fleet.per_replica {
        assert_eq!(replica.cache.prefix.insertions, 1);
        assert_eq!(replica.cache.prefix.hits, 2);
    }
}

/// Cache-affinity routing concentrates each template on one replica (so a
/// fleet pays one cold miss per template), while least-outstanding scatters
/// templates and pays more misses.
#[test]
fn cache_affinity_concentrates_templates() {
    let spec = two_stage_spec().with_cache(plan(prefix_only(100_000)));
    // Two templates, alternating arrivals, far enough apart that load-based
    // routing sees symmetric (empty) replicas.
    let requests: Vec<EngineRequest> = (0..12)
        .map(|i| req_with_identity(i, i as f64, i % 2, 800, 1000 + i))
        .collect();
    let affinity = fixed(spec.clone(), 3, RouterPolicy::CacheAffinity)
        .run(requests.clone(), &MetricsMode::Exact, &mut NullRecorder)
        .fleet;
    // One cold miss per template; everything else hits.
    assert_eq!(affinity.merged.cache.prefix.insertions, 2);
    assert_eq!(affinity.merged.cache.prefix.hits, 10);
    // Each template's requests all landed on a single replica.
    for template in 0..2u64 {
        let replicas: std::collections::BTreeSet<usize> = affinity
            .assignments
            .iter()
            .filter(|(id, _)| id % 2 == template)
            .map(|&(_, r)| r)
            .collect();
        assert_eq!(replicas.len(), 1, "template {template} was scattered");
    }
    // The hash router achieves the same concentration statically.
    let hashed = fixed(spec, 3, RouterPolicy::PrefixHash)
        .run(requests.clone(), &MetricsMode::Exact, &mut NullRecorder)
        .fleet;
    assert_eq!(hashed.merged.cache.prefix.insertions, 2);
    assert_eq!(hashed.merged.cache.prefix.hits, 10);
}

/// Skewed traffic through a cached pipeline beats the cache-less pipeline
/// on TTFT at identical arrivals — the end-to-end point of the subsystem.
#[test]
fn caches_improve_ttft_on_skewed_traffic() {
    let content = ContentSpec {
        prefixes: PopularityModel::zipf(4, 1.2),
        shared_prefix_fraction: 0.8,
        docs: PopularityModel::zipf(8, 1.2),
        seed: 41,
    };
    let trace = content.tag(
        &TraceSpec {
            num_requests: 150,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 12.0 },
            length_jitter: 0.1,
            seed: 9,
        }
        .generate(),
    );
    let plain = run_trace_alone(two_stage_spec(), &trace);
    let cached = run_trace_alone(two_stage_spec().with_cache(plan(both(200_000, 64))), &trace);
    assert!(cached.cache.prefix.hit_rate() > 0.6);
    assert!(cached.cache.retrieval.hit_rate() > 0.6);
    assert!(
        cached.metrics.ttft.mean_s < plain.metrics.ttft.mean_s,
        "cached {} vs plain {}",
        cached.metrics.ttft.mean_s,
        plain.metrics.ttft.mean_s
    );
}

#[test]
#[should_panic(expected = "prefix-KV cache needs a prefix stage")]
fn prefix_cache_without_a_prefix_stage_is_rejected() {
    let _ = two_stage_spec().with_cache(CachePlan {
        config: prefix_only(1000),
        prefix_stage: None,
        retrieval_stages: vec![0],
    });
}

#[test]
#[should_panic(expected = "retrieval stage to skip")]
fn retrieval_cache_without_retrieval_stages_is_rejected() {
    // A retrieval cache that skips nothing would report hits that save no
    // work — reject the plan outright.
    let _ = two_stage_spec().with_cache(CachePlan {
        config: retrieval_only(8),
        prefix_stage: None,
        retrieval_stages: vec![],
    });
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_cache_stages_are_rejected() {
    let _ = two_stage_spec().with_cache(CachePlan {
        config: retrieval_only(8),
        prefix_stage: None,
        retrieval_stages: vec![5],
    });
}
