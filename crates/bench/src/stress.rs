//! The workload of the `scale_stress` bench: one synthetic open-loop
//! stream (deterministic arrivals at a fixed rate, two pre-decode stages,
//! continuous-batching decode) that the bench replays at increasing request
//! tiers. The bench and this module's tests share the one definition, so
//! the exact counters the tests pin are the ones the bench reports.

use rago_serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};

/// Offered rate of the open-loop workload, just under the pipeline's
/// bottleneck (the prefix stage) so queues stay bounded and the event count
/// scales linearly with the tier.
pub const RATE_RPS: f64 = 1000.0;

/// The stress pipeline: hyperscale-retrieval shape (retrieval + prefix +
/// decode) with latency tables cheap enough that the bench measures the
/// event loop, not the cost model.
pub fn stress_spec() -> PipelineSpec {
    PipelineSpec::new(
        vec![
            StageSpec::new(
                "retrieval",
                0,
                16,
                LatencyTable::from_fn(16, |b| 0.002 + 0.0002 * f64::from(b)),
            ),
            StageSpec::new(
                "prefix",
                1,
                16,
                LatencyTable::from_fn(16, |b| 0.005 + 0.0005 * f64::from(b)),
            ),
        ],
        DecodeSpec::new(
            128,
            LatencyTable::from_fn(128, |b| 0.001 + 0.00002 * f64::from(b)),
        ),
    )
}

/// Deterministic open-loop arrivals: request `i` arrives at `i / rate`,
/// with a small repeating spread of decode lengths. No RNG — every tier is
/// exactly reproducible, and the 10M tier costs no generation entropy.
pub fn open_loop_requests(n: u64, rate_rps: f64) -> Vec<EngineRequest> {
    (0..n)
        .map(|i| EngineRequest {
            id: i,
            arrival_s: i as f64 / rate_rps,
            prefix_tokens: 0,
            decode_tokens: 8 + (i % 5) as u32,
            class: 0,
            identity: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rago_schema::{HistogramSpec, RouterPolicy};
    use rago_serving_sim::faults::ScaleDriver;
    use rago_serving_sim::fleet::FleetEngine;
    use rago_serving_sim::{MetricsMode, StreamingConfig};
    use rago_telemetry::NullRecorder;

    /// The bench's 10k tier, as its streaming row runs it: a one-replica
    /// fleet in streaming mode. The event and queue-pop counts are exact,
    /// so they are pinned; the exact-mode run applies the same events.
    #[test]
    fn stress_workload_counters_at_10k() {
        let engine = FleetEngine::new(
            stress_spec(),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        );
        let requests = open_loop_requests(10_000, RATE_RPS);
        let streaming = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));
        let metrics = |mode: &MetricsMode| {
            engine
                .run(requests.iter().copied(), mode, &mut NullRecorder)
                .fleet
                .merged
                .metrics
        };
        let streamed = metrics(&streaming);
        assert_eq!(streamed.completed, 10_000);
        assert_eq!(streamed.events_processed, 23_022);
        assert_eq!(streamed.queue_pops, 20_010);
        let exact = metrics(&MetricsMode::Exact);
        assert_eq!(
            (exact.events_processed, exact.queue_pops),
            (streamed.events_processed, streamed.queue_pops)
        );
    }
}
