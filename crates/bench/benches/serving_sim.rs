//! Criterion benches of the discrete-event serving simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use rago_schema::RouterPolicy;
use rago_serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
use rago_serving_sim::iterative::{simulate, IterativeDecodeParams};
use rago_serving_sim::{FleetEngine, MetricsMode, ScaleDriver};
use rago_telemetry::NullRecorder;

fn bench_iterative_decode(c: &mut Criterion) {
    for (decode_batch, iterative_batch) in [(64u32, 16u32), (256, 64)] {
        let params = IterativeDecodeParams {
            decode_batch,
            iterative_batch,
            decode_len: 256,
            retrievals_per_sequence: 4,
            step_latency_s: 5e-3,
            retrieval_prefix_latency_s: 0.05,
            seed: 1,
        };
        c.bench_function(
            &format!("iterative_decode_d{decode_batch}_i{iterative_batch}"),
            |b| b.iter(|| simulate(params)),
        );
    }
}

/// A burst of 32 requests at t = 0 through three pipelined pre-decode
/// stages in micro-batches of 4, run as `bin/fig19` runs its bursts.
fn bench_microbatch_pipeline(c: &mut Criterion) {
    let (burst, microbatch) = (32u32, 4u32);
    let costs = [(0.001, 0.002), (0.003, 0.001), (0.010, 0.004)];
    let stages = costs
        .iter()
        .enumerate()
        .map(|(s, &(base, per))| {
            let latency = LatencyTable::from_fn(microbatch, |b| base + per * f64::from(b));
            StageSpec::new(format!("s{s}"), s, microbatch, latency)
        })
        .collect();
    let spec = PipelineSpec::new(
        stages,
        DecodeSpec::new(burst, LatencyTable::constant(burst, 1e-9)),
    );
    let engine = FleetEngine::new(
        spec,
        RouterPolicy::default(),
        ScaleDriver::Static { replicas: 1 },
    );
    let requests: Vec<EngineRequest> = (0..burst)
        .map(|i| EngineRequest {
            id: u64::from(i),
            arrival_s: 0.0,
            prefix_tokens: 0,
            decode_tokens: 1,
            class: 0,
            identity: None,
        })
        .collect();
    c.bench_function("microbatch_pipeline_burst32_mb4", |b| {
        b.iter(|| engine.run(requests.clone(), &MetricsMode::Exact, &mut NullRecorder))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_iterative_decode, bench_microbatch_pipeline
}
criterion_main!(benches);
