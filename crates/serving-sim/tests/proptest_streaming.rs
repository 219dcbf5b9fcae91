//! Property-based and degenerate-case pins of the streaming metrics path
//! and the engine's canonical injection order:
//!
//! * On random traces, the streaming (histogram) report tracks the exact
//!   report within the sink's documented error bars — percentiles within
//!   one bucket width, maxima and makespan bit-equal, means up to
//!   summation order — and online SLO counts match post-hoc scoring.
//! * Injection order is canonical: shuffled or reversed request vectors
//!   produce reports identical to sorted input, for the single-replica
//!   engine and the autoscaled fleet alike (the `sort_by_arrival` fast path
//!   must never change what a run computes, only what it costs).
//! * Empty and single-request traces run in both modes without NaNs.

use proptest::prelude::*;
use rago_schema::{HistogramSpec, RouterPolicy, SloTarget};
use rago_serving_sim::autoscaler::AutoscalerPolicy;
use rago_serving_sim::engine::{
    DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, RequestTimeline, ServingEngine,
    StageSpec,
};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::{MetricsMode, StreamingConfig};

/// A two-stage pipeline plus continuous-batching decode, sized so random
/// traces exercise queueing, batching, and the decode drain tail.
fn pipeline(stage_batch: u32, decode_batch: u32) -> PipelineSpec {
    PipelineSpec::new(
        vec![
            StageSpec::new(
                "retrieval",
                0,
                stage_batch,
                LatencyTable::from_fn(stage_batch, |b| 0.002 + 0.0003 * f64::from(b)),
            ),
            StageSpec::new(
                "prefix",
                1,
                stage_batch,
                LatencyTable::from_fn(stage_batch, |b| 0.004 + 0.0006 * f64::from(b)),
            ),
        ],
        DecodeSpec::new(
            decode_batch,
            LatencyTable::from_fn(decode_batch, |b| 0.001 + 0.0001 * f64::from(b)),
        ),
    )
}

fn requests_from(raw: &[(f64, u32, u32)]) -> Vec<EngineRequest> {
    raw.iter()
        .enumerate()
        .map(|(i, &(arrival_s, decode_tokens, class))| EngineRequest {
            id: i as u64,
            arrival_s,
            prefix_tokens: 0,
            decode_tokens,
            class,
            identity: None,
        })
        .collect()
}

/// A deterministic non-trivial permutation: strided order by a prime
/// co-prime to most lengths, so neither sorted nor reversed.
fn shuffled<T: Clone>(items: &[T]) -> Vec<T> {
    let n = items.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (i.wrapping_mul(7919)) % n.max(1));
    order.into_iter().map(|i| items[i].clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming report tracks the exact report within the sink's
    /// documented error bars, and online SLO attainment matches post-hoc
    /// timeline scoring exactly.
    #[test]
    fn streaming_tracks_exact_within_one_bucket(
        raw in prop::collection::vec((0.0f64..20.0, 1u32..40, 0u32..3), 1..200),
        stage_batch in 1u32..16,
        decode_batch in 1u32..32,
    ) {
        let spec = pipeline(stage_batch, decode_batch);
        let requests = requests_from(&raw);
        let slo = SloTarget::new(0.5, 0.01);
        let config = StreamingConfig::new(HistogramSpec::default()).with_slo(slo);
        let engine = ServingEngine::new(spec, requests);

        let exact = engine.run();
        let streaming = engine.run_with_mode(&MetricsMode::Streaming(config));

        prop_assert_eq!(exact.metrics.requests, streaming.metrics.requests);
        prop_assert_eq!(exact.metrics.events_processed, streaming.metrics.events_processed);
        prop_assert_eq!(exact.metrics.makespan_s, streaming.metrics.makespan_s);
        prop_assert_eq!(exact.metrics.last_arrival_s, streaming.metrics.last_arrival_s);

        let width = HistogramSpec::default().bucket_width_s * (1.0 + 1e-9);
        for (e, s) in [
            (&exact.metrics.ttft, &streaming.metrics.ttft),
            (&exact.metrics.tpot, &streaming.metrics.tpot),
            (&exact.metrics.latency, &streaming.metrics.latency),
        ] {
            // Maxima are tracked exactly; means agree up to summation order
            // (the exact path averages sorted samples); percentiles within
            // one bucket width, never undershooting the exact value.
            prop_assert_eq!(e.max_s, s.max_s);
            prop_assert!((e.mean_s - s.mean_s).abs() <= 1e-9 * e.mean_s.abs().max(1.0));
            for (pe, ps) in [(e.p50_s, s.p50_s), (e.p95_s, s.p95_s), (e.p99_s, s.p99_s)] {
                prop_assert!(
                    (pe - ps).abs() <= width,
                    "percentile {ps} strayed beyond one bucket from exact {pe}"
                );
                prop_assert!(ps >= pe - 1e-12, "histogram upper edge undershot exact");
            }
        }

        // The sink counted the SLO online; the exact report scores the
        // retained timelines after the fact. Same rule, same count.
        prop_assert_eq!(exact.attainment(&slo), streaming.attainment(&slo));
        for class in 0..3 {
            prop_assert_eq!(
                exact.class_attainment(class, &slo),
                streaming.class_attainment(class, &slo)
            );
        }
    }

    /// Injection order is canonical: reversed and strided-shuffled request
    /// vectors produce byte-identical reports in both metrics modes.
    #[test]
    fn shuffled_traces_round_trip_to_identical_reports(
        raw in prop::collection::vec((0.0f64..10.0, 1u32..20, 0u32..2), 2..120),
        stage_batch in 1u32..8,
    ) {
        let spec = pipeline(stage_batch, 16);
        let sorted = requests_from(&raw);
        let mode = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));

        let reference = ServingEngine::new(spec.clone(), sorted.clone());
        let ref_exact = reference.run();
        let ref_streaming = reference.run_with_mode(&mode);

        let mut reversed = sorted.clone();
        reversed.reverse();
        for permuted in [reversed, shuffled(&sorted)] {
            let engine = ServingEngine::new(spec.clone(), permuted);
            prop_assert_eq!(&engine.run(), &ref_exact);
            prop_assert_eq!(&engine.run_with_mode(&mode), &ref_streaming);
        }
    }
}

/// An autoscaled fleet sorts injected requests into the same canonical
/// order as the single-replica engine: a reversed vector changes nothing in
/// the report, including the scaling timeline.
#[test]
fn autoscaler_report_is_invariant_to_injection_order() {
    let spec = pipeline(8, 16);
    let requests = requests_from(
        &(0..500)
            .map(|i| (f64::from(i) * 0.011, 4 + (i % 7) as u32, (i % 2) as u32))
            .collect::<Vec<_>>(),
    );
    let policy = AutoscalerPolicy::new(1, 4)
        .with_evaluation_interval(0.5)
        .with_scale_out_queue_depth(4.0)
        .with_scale_in_outstanding(1.0)
        .with_cooldown(1.0);
    let engine = FleetEngine::new(
        spec,
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Reactive(policy),
    );
    let mode = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));

    let mut reversed = requests.clone();
    reversed.reverse();
    let strided = shuffled(&requests);

    let sorted_exact = engine.run(requests.clone());
    let sorted_streaming = engine.run_with_mode(requests, &mode);
    for permuted in [reversed, strided] {
        assert_eq!(engine.run(permuted.clone()), sorted_exact);
        assert_eq!(engine.run_with_mode(permuted, &mode), sorted_streaming);
    }
}

/// An empty trace is the zero-duration run: both modes report all-zero
/// metrics with no NaNs and full (vacuous) SLO attainment.
#[test]
fn empty_trace_runs_cleanly_in_both_modes() {
    let spec = pipeline(4, 8);
    let slo = SloTarget::new(1.0, 0.1);
    let engine = ServingEngine::new(spec, Vec::new());
    let config = StreamingConfig::new(HistogramSpec::default()).with_slo(slo);

    for report in [
        engine.run(),
        engine.run_with_mode(&MetricsMode::Exact),
        engine.run_with_mode(&MetricsMode::Streaming(config)),
    ] {
        assert_eq!(report.metrics.requests, 0);
        assert_eq!(report.metrics.completed, 0);
        assert_eq!(report.metrics.makespan_s, 0.0);
        assert_eq!(report.metrics.serving_duration_s, 0.0);
        assert_eq!(report.metrics.throughput_rps, 0.0);
        assert_eq!(report.metrics.events_processed, 0);
        for stats in [
            &report.metrics.ttft,
            &report.metrics.tpot,
            &report.metrics.latency,
        ] {
            for v in [
                stats.mean_s,
                stats.p50_s,
                stats.p95_s,
                stats.p99_s,
                stats.max_s,
            ] {
                assert_eq!(v, 0.0);
            }
        }
        assert_eq!(report.attainment(&slo), 1.0);
        assert!(report.timelines.is_empty());
    }
}

/// A single instantaneous request exercises every degenerate denominator:
/// percentile ranks of one sample, a drain tail equal to the makespan, and
/// identical percentiles across all three quantiles.
#[test]
fn single_request_trace_is_degenerate_but_finite() {
    let spec = pipeline(4, 8);
    let engine = ServingEngine::new(
        spec,
        vec![EngineRequest {
            id: 0,
            arrival_s: 0.0,
            prefix_tokens: 0,
            decode_tokens: 1,
            class: 0,
            identity: None,
        }],
    );
    let exact = engine.run();
    let streaming = engine.run_with_mode(&MetricsMode::Streaming(StreamingConfig::new(
        HistogramSpec::default(),
    )));

    assert_eq!(exact.metrics.requests, 1);
    assert!(exact.metrics.makespan_s > 0.0);
    assert_eq!(exact.metrics.drain_tail_s, exact.metrics.makespan_s);
    // One sample: every rank selects it, so all percentiles equal the max.
    for stats in [&exact.metrics.ttft, &exact.metrics.latency] {
        assert_eq!(stats.p50_s, stats.max_s);
        assert_eq!(stats.p99_s, stats.max_s);
    }
    assert_eq!(exact.metrics.makespan_s, streaming.metrics.makespan_s);
    assert_eq!(exact.metrics.latency.max_s, streaming.metrics.latency.max_s);
}

/// `run_with_mode(Exact)` is the identity path: it must reproduce `run()`
/// byte for byte — timelines, metrics, per-class rows, everything the
/// report derives, on a workload big enough to exercise queue growth
/// and multi-class accounting.
#[test]
fn exact_mode_reproduces_run_byte_for_byte() {
    let spec = pipeline(8, 32);
    let requests = requests_from(
        &(0..5_000)
            .map(|i| (f64::from(i) * 0.0013, 1 + (i % 23) as u32, (i % 3) as u32))
            .collect::<Vec<_>>(),
    );
    let engine = ServingEngine::new(spec, requests);
    let plain = engine.run();
    let via_sink = engine.run_with_mode(&MetricsMode::Exact);
    assert_eq!(plain, via_sink);
    // And the timelines really are populated (this is not a vacuous check).
    assert_eq!(plain.timelines.len(), 5_000);
    assert!(plain
        .timelines
        .iter()
        .all(|t: &RequestTimeline| t.completion_s >= t.arrival_s));
}
