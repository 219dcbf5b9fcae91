//! Property-based and degenerate-case pins of the streaming metrics path
//! and the fleet's canonical injection order:
//!
//! * On random traces, the streaming (histogram) report tracks the exact
//!   report within the sink's documented error bars — percentiles within
//!   one bucket width, maxima and the fold's scalar fields (arrival
//!   window, makespan, throughput, queueing and service means) bit-equal,
//!   latency means up to summation order — and online SLO counts match
//!   post-hoc scoring.
//! * Injection order is canonical: shuffled or reversed traces, read
//!   through `fleet::arrivals`, produce reports identical to sorted input,
//!   for a one-replica fleet and the autoscaled fleet alike (reading a
//!   sorted trace in place must never change what a run computes, only
//!   what it costs).
//! * Empty and single-request traces run in both modes without NaNs.

use proptest::prelude::*;
use rago_schema::{HistogramSpec, RouterPolicy, SloTarget};
use rago_serving_sim::autoscaler::AutoscalerPolicy;
use rago_serving_sim::engine::{
    DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, RequestTimeline, ServingReport,
    StageSpec,
};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::{arrivals, FleetEngine};
use rago_serving_sim::{MetricsMode, StreamingConfig};
use rago_telemetry::NullRecorder;
use rago_workloads::{Request, Trace};

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

/// `spec` run alone: a one-replica static fleet.
fn alone(spec: PipelineSpec) -> FleetEngine {
    FleetEngine::new(
        spec,
        RouterPolicy::default(),
        ScaleDriver::Static { replicas: 1 },
    )
}

/// Runs `trace`, in injection order, through one replica of `spec` in
/// `mode`; the fleet's merged report is the replica's own.
fn run(spec: &PipelineSpec, trace: &Trace, mode: &MetricsMode) -> ServingReport {
    alone(spec.clone())
        .run(arrivals(trace), mode, &mut NullRecorder)
        .fleet
        .merged
}

/// A trace of `(arrival, decode tokens, class)` requests, in the order
/// given: ids follow positions, arrivals need not be sorted.
fn trace_from(raw: &[(f64, u32, u32)]) -> Trace {
    let requests = raw
        .iter()
        .enumerate()
        .map(|(i, &(arrival_s, decode_tokens, class))| Request {
            id: i as u64,
            arrival_s,
            question_tokens: 0,
            prefix_tokens: 0,
            decode_tokens,
            class,
            identity: None,
        });
    Trace {
        requests: requests.collect(),
    }
}

/// `trace` reversed and strided-shuffled: the permutations the
/// injection-order tests run.
fn permutations(trace: &Trace) -> [Trace; 2] {
    let reversed = trace.requests.iter().rev().cloned().collect();
    [
        Trace { requests: reversed },
        Trace {
            requests: shuffled(&trace.requests),
        },
    ]
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
        let trace = trace_from(&raw);
        let slo = SloTarget::new(0.5, 0.01);
        let config = StreamingConfig::new(HistogramSpec::default()).with_slo(slo);
        let exact = run(&spec, &trace, &MetricsMode::Exact);
        let streaming = run(&spec, &trace, &MetricsMode::Streaming(config));

        prop_assert_eq!(exact.metrics.requests, streaming.metrics.requests);
        prop_assert_eq!(exact.metrics.events_processed, streaming.metrics.events_processed);
        // One replica: both modes fold the same outcomes in the same order
        // into the same per-scope fold, so its scalar fields agree bit for
        // bit.
        for (e, s) in [
            (exact.metrics.makespan_s, streaming.metrics.makespan_s),
            (exact.metrics.first_arrival_s, streaming.metrics.first_arrival_s),
            (exact.metrics.last_arrival_s, streaming.metrics.last_arrival_s),
            (exact.metrics.serving_duration_s, streaming.metrics.serving_duration_s),
            (exact.metrics.drain_tail_s, streaming.metrics.drain_tail_s),
            (exact.metrics.throughput_rps, streaming.metrics.throughput_rps),
            (exact.metrics.queueing_mean_s, streaming.metrics.queueing_mean_s),
            (exact.metrics.service_mean_s, streaming.metrics.service_mean_s),
        ] {
            prop_assert_eq!(e.to_bits(), s.to_bits());
        }

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

    /// Injection order is canonical: reversed and strided-shuffled traces
    /// produce byte-identical reports in both metrics modes, and
    /// `arrivals` yields every permutation of a trace in one order.
    #[test]
    fn shuffled_traces_round_trip_to_identical_reports(
        raw in prop::collection::vec((0.0f64..10.0, 1u32..20, 0u32..2), 2..120),
        stage_batch in 1u32..8,
    ) {
        let spec = pipeline(stage_batch, 16);
        let trace = trace_from(&raw);
        let mode = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));

        let ref_exact = run(&spec, &trace, &MetricsMode::Exact);
        let ref_streaming = run(&spec, &trace, &mode);

        for other in permutations(&trace) {
            prop_assert!(arrivals(&other).eq(arrivals(&trace)));
            prop_assert_eq!(&run(&spec, &other, &MetricsMode::Exact), &ref_exact);
            prop_assert_eq!(&run(&spec, &other, &mode), &ref_streaming);
        }
    }
}

/// An autoscaled fleet takes a trace in the same canonical order as a
/// one-replica fleet: a reversed or shuffled trace changes nothing in the
/// report, including the scaling timeline.
#[test]
fn autoscaler_report_is_invariant_to_injection_order() {
    let spec = pipeline(8, 16);
    let trace = trace_from(
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

    let sorted_exact = engine.run_trace(&trace);
    let sorted_streaming = engine.run(arrivals(&trace), &mode, &mut NullRecorder);
    for other in permutations(&trace) {
        assert_eq!(engine.run_trace(&other), sorted_exact);
        assert_eq!(
            engine.run(arrivals(&other), &mode, &mut NullRecorder),
            sorted_streaming
        );
    }
}

/// An empty trace is the zero-duration run: both modes report all-zero
/// metrics with no NaNs and full (vacuous) SLO attainment.
#[test]
fn empty_trace_runs_cleanly_in_both_modes() {
    let spec = pipeline(4, 8);
    let slo = SloTarget::new(1.0, 0.1);
    let config = StreamingConfig::new(HistogramSpec::default()).with_slo(slo);

    for report in [
        alone(spec.clone())
            .run(Vec::new(), &MetricsMode::Exact, &mut NullRecorder)
            .fleet
            .merged,
        run(&spec, &trace_from(&[]), &MetricsMode::Exact),
        run(&spec, &trace_from(&[]), &MetricsMode::Streaming(config)),
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
    let trace = trace_from(&[(0.0, 1, 0)]);
    let exact = run(&spec, &trace, &MetricsMode::Exact);
    let streaming = run(
        &spec,
        &trace,
        &MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default())),
    );

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

/// Exact mode is the identity path: a run over a request vector must
/// reproduce `run_trace` of the same trace byte for byte — timelines,
/// metrics, per-class rows, everything the report derives, on a workload
/// big enough to exercise queue growth and multi-class accounting — and
/// merging a one-replica fleet's exact sink into the fleet report must
/// leave the replica's report equal to the merged one.
#[test]
fn exact_mode_reproduces_run_byte_for_byte() {
    let spec = pipeline(8, 32);
    let trace = trace_from(
        &(0..5_000)
            .map(|i| (f64::from(i) * 0.0013, 1 + (i % 23) as u32, (i % 3) as u32))
            .collect::<Vec<_>>(),
    );
    let requests: Vec<EngineRequest> = trace.requests.iter().map(EngineRequest::from).collect();
    let engine = alone(spec);
    let fleet = engine
        .run(requests, &MetricsMode::Exact, &mut NullRecorder)
        .fleet;
    assert_eq!(fleet, engine.run_trace(&trace).fleet);
    let replica = &fleet.per_replica[0];
    assert_eq!(fleet.merged.metrics, replica.metrics);
    assert_eq!(fleet.merged.per_class, replica.per_class);
    assert_eq!(fleet.merged.cache, replica.cache);
    assert_eq!(fleet.merged.streamed, replica.streamed);
    let plain = fleet.merged;
    // And the timelines really are populated (this is not a vacuous check).
    assert_eq!(plain.timelines.len(), 5_000);
    assert!(plain
        .timelines
        .iter()
        .all(|t: &RequestTimeline| t.completion_s >= t.arrival_s));
}
