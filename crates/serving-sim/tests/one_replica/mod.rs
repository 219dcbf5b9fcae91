//! Runs on one replica of the engine: a one-replica static fleet, whose
//! merged report is the replica's own. The burst helpers push a burst of
//! requests, all arriving at t = 0, through affine pre-decode stages.

use rago_schema::RouterPolicy;
use rago_serving_sim::engine::{
    DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, ServingReport, StageSpec,
};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::MetricsMode;
use rago_telemetry::NullRecorder;

/// Runs `requests` through one replica of `spec`.
pub fn run_alone(spec: PipelineSpec, requests: Vec<EngineRequest>) -> ServingReport {
    let one = ScaleDriver::Static { replicas: 1 };
    FleetEngine::new(spec, RouterPolicy::default(), one)
        .run(requests, &MetricsMode::Exact, &mut NullRecorder)
        .fleet
        .merged
}

/// A stage latency of `base + per_item * batch`.
pub fn affine(base: f64, per_item: f64) -> impl Fn(u32) -> f64 {
    move |b: u32| base + per_item * f64::from(b)
}

/// Runs a burst through stages of affine cost `(base, per_item)` in
/// micro-batches of `microbatch`, one resource per stage (`disaggregated`)
/// or all on resource zero (collocated).
pub fn run_burst(
    stages: &[(f64, f64)],
    burst: u32,
    microbatch: u32,
    disaggregated: bool,
) -> ServingReport {
    let specs: Vec<StageSpec> = stages
        .iter()
        .enumerate()
        .map(|(s, &(base, per))| {
            StageSpec::new(
                format!("s{s}"),
                if disaggregated { s } else { 0 },
                microbatch,
                LatencyTable::from_fn(microbatch, affine(base, per)),
            )
        })
        .collect();
    // A trivially fast decode stage: TTFT is unaffected by decoding.
    let spec = PipelineSpec::new(
        specs,
        DecodeSpec::new(burst, LatencyTable::constant(burst, 1e-9)),
    );
    run_alone(spec, burst_requests(burst, 1))
}

/// `burst` requests arriving at t = 0, each decoding `decode_tokens`.
pub fn burst_requests(burst: u32, decode_tokens: u32) -> Vec<EngineRequest> {
    (0..burst)
        .map(|i| EngineRequest {
            id: u64::from(i),
            arrival_s: 0.0,
            prefix_tokens: 0,
            decode_tokens,
            class: 0,
            identity: None,
        })
        .collect()
}

/// The first, mean and last TTFT of a run.
pub fn ttft_first_mean_makespan(report: &ServingReport) -> (f64, f64, f64) {
    let ttfts: Vec<f64> = report.timelines.iter().map(|t| t.ttft_s()).collect();
    let first = ttfts.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let mean = ttfts.iter().sum::<f64>() / ttfts.len() as f64;
    let max = ttfts.iter().fold(0.0f64, |a, &b| a.max(b));
    (first, mean, max)
}

/// The number of micro-batches the first stage dispatched: its distinct
/// start times.
pub fn dispatches(report: &ServingReport) -> usize {
    let mut starts: Vec<f64> = report
        .timelines
        .iter()
        .map(|t| t.stages.starts()[0])
        .collect();
    starts.sort_by(f64::total_cmp);
    starts.dedup();
    starts.len()
}
