//! Criterion benches of the discrete-event serving simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use rago_serving_sim::iterative::{simulate, IterativeDecodeParams};
use rago_serving_sim::microbatch::simulate_pipelined_burst;

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

fn bench_microbatch_pipeline(c: &mut Criterion) {
    let s1 = |b: u32| 0.001 + 0.002 * f64::from(b);
    let s2 = |b: u32| 0.003 + 0.001 * f64::from(b);
    let s3 = |b: u32| 0.010 + 0.004 * f64::from(b);
    let stages: Vec<&dyn Fn(u32) -> f64> = vec![&s1, &s2, &s3];
    c.bench_function("microbatch_pipeline_burst32_mb4", |b| {
        b.iter(|| simulate_pipelined_burst(&stages, 32, 4))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_iterative_decode, bench_microbatch_pipeline
}
criterion_main!(benches);
