//! Arrival-order slot retirement: a replica retires each request into its
//! run's sink as soon as that request and every one injected before it
//! have completed, instead of walking its whole arena after the run.
//!
//! * Retirement oracle: on flat, reactive-autoscaled, crash-requeue and
//!   iterative-pipeline fleets, every replica's streaming report equals,
//!   bit for bit, a [`HistogramSink`] fed the replica's exact-mode
//!   timelines in injection order (its dispatch order, read back from the
//!   exact run's merged log) — the sink sees exactly the sequence of
//!   outcomes a post-run walk would feed it.
//! * Bounded state: a streaming run pulled from a lazy trace generator
//!   holds no more live request slots at 50k requests than at 5k, and its
//!   report retains no more bytes.

use proptest::prelude::*;
use rago_schema::{HistogramSpec, RouterPolicy, SequenceProfile, SloTarget};
use rago_serving_sim::autoscaler::AutoscalerPolicy;
use rago_serving_sim::engine::{
    DecodeSpec, EngineRequest, IterativeSpec, LatencyTable, PipelineSpec, RequestTimeline,
    ServingReport, StageSpec,
};
use rago_serving_sim::faults::{FaultEvent, FaultSchedule, ScaleDriver};
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::sink::{HistogramSink, RequestOutcome};
use rago_serving_sim::{MetricsMode, ReplicaReport, StreamingConfig};
use rago_telemetry::NullRecorder;
use rago_workloads::{ArrivalProcess, TraceSpec};

mod replica_requests;
use replica_requests::replica_requests;

fn pipeline() -> PipelineSpec {
    PipelineSpec::new(
        vec![
            StageSpec::new(
                "retrieval",
                0,
                8,
                LatencyTable::from_fn(8, |b| 0.002 + 0.0003 * f64::from(b)),
            ),
            StageSpec::new(
                "prefix",
                1,
                8,
                LatencyTable::from_fn(8, |b| 0.004 + 0.0006 * f64::from(b)),
            ),
        ],
        DecodeSpec::new(
            16,
            LatencyTable::from_fn(16, |b| 0.001 + 0.0001 * f64::from(b)),
        ),
    )
}

/// The four fleet shapes the oracle covers.
fn fleet(kind: usize) -> FleetEngine {
    let router = RouterPolicy::LeastOutstanding;
    match kind {
        0 => FleetEngine::new(pipeline(), router, ScaleDriver::Static { replicas: 3 }),
        1 => FleetEngine::new(
            pipeline(),
            router,
            ScaleDriver::Reactive(
                AutoscalerPolicy::new(1, 4)
                    .with_evaluation_interval(0.2)
                    .with_scale_out_queue_depth(2.0)
                    .with_scale_in_outstanding(1.0)
                    .with_cooldown(0.5),
            ),
        ),
        2 => FleetEngine::new(pipeline(), router, ScaleDriver::Static { replicas: 2 }).with_faults(
            FaultSchedule::new(vec![FaultEvent::Crash {
                replica: 0,
                at_s: 0.4,
                restart_delay_s: 0.3,
            }]),
        ),
        _ => FleetEngine::new(
            pipeline().with_iterative(IterativeSpec {
                retrievals_per_sequence: 2,
                iterative_batch: 4,
                retrieval_prefix_latency_s: 0.01,
                seed: 11,
            }),
            router,
            ScaleDriver::Static { replicas: 2 },
        ),
    }
}

fn requests(raw: &[(f64, u32, u32)]) -> Vec<EngineRequest> {
    let mut t = 0.0;
    raw.iter()
        .enumerate()
        .map(|(i, &(gap_s, decode_tokens, class))| {
            t += gap_s;
            EngineRequest {
                id: i as u64,
                arrival_s: t,
                prefix_tokens: 0,
                decode_tokens,
                class,
                identity: None,
            }
        })
        .collect()
}

/// A fresh histogram sink fed an exact replica's timelines in order, with
/// the pipeline-level fields (decode fill, retrieval batching, events,
/// cache counters) — which the sink takes from the simulation, not from
/// the outcomes — copied from the `streamed` replica.
fn replayed(
    config: &StreamingConfig,
    exact: &[&RequestTimeline],
    streamed: &ReplicaReport,
) -> ServingReport {
    let mut sink = HistogramSink::new(config);
    for t in exact {
        sink.record(&RequestOutcome {
            id: t.id,
            class: t.class,
            arrival_s: t.arrival_s,
            stage_starts_s: t.stages.starts(),
            stage_ends_s: t.stages.ends(),
            decode_join_s: t.decode_join_s,
            first_token_s: t.first_token_s,
            completion_s: t.completion_s,
            queueing_s: t.queueing_s,
            decode_tokens: t.decode_tokens,
        });
    }
    let mut report = sink.into_report();
    let shared = |m: &mut rago_serving_sim::engine::ServingMetrics| {
        m.mean_decode_fill = streamed.metrics.mean_decode_fill;
        m.retrieval_batches = streamed.metrics.retrieval_batches;
        m.mean_retrieval_batch_fill = streamed.metrics.mean_retrieval_batch_fill;
        m.events_processed = streamed.metrics.events_processed;
        m.queue_pops = streamed.metrics.queue_pops;
    };
    shared(&mut report.metrics);
    for row in &mut report.per_class {
        shared(&mut row.metrics);
    }
    report.cache = streamed.cache.clone();
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every replica's streaming report is the sink fed its exact-mode
    /// timelines in order, and both modes hold the same live-slot peak.
    #[test]
    fn streaming_replicas_equal_their_replayed_exact_timelines(
        raw in prop::collection::vec((0.0f64..0.03, 1u32..24, 0u32..3), 1..160),
        kind in 0usize..4,
    ) {
        let slo = SloTarget::new(0.08, 0.004);
        let config = StreamingConfig::new(HistogramSpec::with_width(0.002))
            .with_slo(slo)
            .with_class_slo(2, SloTarget::new(0.2, 0.01));
        let engine = fleet(kind);
        let reqs = requests(&raw);
        let exact = engine.run(reqs.clone(), &MetricsMode::Exact, &mut NullRecorder);
        let streamed = engine.run(reqs, &MetricsMode::Streaming(config.clone()), &mut NullRecorder);
        prop_assert_eq!(exact.fleet.per_replica.len(), streamed.fleet.per_replica.len());
        // Each replica's requests in injection order: the order the router
        // dispatched them to it, less any a crash took back.
        let dispatched = replica_requests(&exact.fleet);
        for ((e, s), served) in exact.fleet.per_replica.iter().zip(&streamed.fleet.per_replica).zip(&dispatched) {
            prop_assert_eq!(e.metrics.completed, served.len());
            prop_assert_eq!(e.peak_live_requests, s.peak_live_requests);
            prop_assert!(e.peak_live_requests >= usize::from(e.assigned > 0));
            let replay = replayed(&config, served, s);
            prop_assert_eq!(
                (&s.metrics, &s.per_class, &s.cache, &s.streamed),
                (&replay.metrics, &replay.per_class, &replay.cache, &replay.streamed)
            );
        }
    }
}

/// The live-slot peak of a one-replica streaming fleet pulled from a lazy
/// fixed-rate trace of `n` requests, and the bytes its merged report
/// retains.
fn pulled(n: usize) -> (usize, usize) {
    let spec = TraceSpec {
        num_requests: n,
        profile: SequenceProfile::paper_default().with_decode_tokens(12),
        arrival: ArrivalProcess::Bursts {
            burst_size: 1,
            period_s: 1.0 / 400.0,
        },
        length_jitter: 0.0,
        seed: 1,
    };
    let mode = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));
    let report = FleetEngine::new(
        pipeline(),
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Static { replicas: 1 },
    )
    .run(
        spec.requests().map(|r| EngineRequest::from(&r)),
        &mode,
        &mut NullRecorder,
    );
    assert_eq!(report.fleet.merged.metrics.completed, n);
    (
        report.fleet.per_replica[0].peak_live_requests,
        report.fleet.merged.retained_bytes(),
    )
}

/// Per-request state is bounded by the in-flight load, not the trace
/// length: ten times the requests at the same rate hold no more slots.
#[test]
fn live_slots_do_not_grow_with_trace_length() {
    let (short, _) = pulled(5_000);
    let (long, _) = pulled(50_000);
    assert!(short > 0);
    assert!(
        long <= short,
        "50k requests held {long} slots, 5k held {short}"
    );
}

/// A streaming report keeps its metrics, class rows and scores, not its
/// requests' timelines: ten times the requests retain no more bytes.
#[test]
fn streaming_retained_bytes_do_not_grow_with_trace_length() {
    let (_, short) = pulled(5_000);
    let (_, long) = pulled(50_000);
    assert!(short > 0);
    assert!(
        long <= short,
        "50k requests retained {long} bytes, 5k retained {short}"
    );
}
