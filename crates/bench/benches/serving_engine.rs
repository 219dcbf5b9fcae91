//! Bench of the request-level discrete-event serving engine: one dynamic
//! evaluation of a Poisson stream through the best static schedule. The
//! system-level TTFT/TPOT study on the same engine is the `study_serving`
//! binary.

use criterion::{criterion_group, criterion_main, Criterion};
use rago_core::{Rago, SearchOptions};
use rago_schema::presets::{self, LlmSize};
use rago_schema::{SequenceProfile, SloTarget};
use rago_workloads::{ArrivalProcess, TraceSpec};

/// Raw engine throughput: events per second on a saturated Poisson stream.
fn bench_engine_throughput(c: &mut Criterion) {
    let rago = Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        rago_bench::default_cluster(),
    );
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("static search succeeds");
    let best = frontier
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();
    let slo = SloTarget::paper_default();
    let trace = TraceSpec {
        num_requests: 300,
        profile: SequenceProfile::paper_default().with_decode_tokens(64),
        arrival: ArrivalProcess::Poisson {
            rate_rps: 0.8 * best.performance.qps.max(1e-9),
        },
        length_jitter: 0.2,
        seed: 23,
    }
    .generate();
    c.bench_function("serving_engine_case1_poisson_300req", |b| {
        b.iter(|| {
            rago.evaluate_dynamic(&best.schedule, &trace, &slo, None)
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_throughput
}
criterion_main!(benches);
