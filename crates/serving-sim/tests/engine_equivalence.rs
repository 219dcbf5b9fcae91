//! Degenerate-case equivalence of the request-level replica simulation —
//! run as a one-replica fleet — against two independent models of the
//! cases it subsumes (the acceptance criterion of the engine):
//!
//! * With no pre-decode stages, all requests present at t = 0, and a decode
//!   batch equal to the request count, the replica **is** the step-by-step
//!   decode loop of `reference_loop` — same TPOT, same completion time,
//!   same retrieval-batch accounting.
//! * With a burst at t = 0 flowing through pre-decode stages only, the
//!   replica's TTFT distribution **is** the micro-batch burst model — the
//!   pipelined variant when every stage owns a resource, the collocated
//!   variant when all stages share one.

use rago_schema::RouterPolicy;
use rago_serving_sim::engine::{
    DecodeSpec, EngineRequest, IterativeSpec, LatencyTable, PipelineSpec, RequestTimeline,
    ServingReport, StageSpec,
};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::iterative::IterativeDecodeParams;
use rago_serving_sim::microbatch::{simulate_collocated_burst, simulate_pipelined_burst};
use rago_serving_sim::MetricsMode;
use rago_telemetry::NullRecorder;

mod reference_loop;
use reference_loop::reference_run;

const EPS: f64 = 1e-9;

/// Runs `requests` through one replica of `spec`: a one-replica static
/// fleet, whose merged report is the replica's own.
fn run_alone(spec: PipelineSpec, requests: Vec<EngineRequest>) -> ServingReport {
    let one = ScaleDriver::Static { replicas: 1 };
    FleetEngine::new(spec, RouterPolicy::default(), one)
        .run(requests, &MetricsMode::Exact, &mut NullRecorder)
        .fleet
        .merged
}

/// Runs the replica configuration that degenerates to one
/// [`reference_run`].
fn run_iterative_case(params: IterativeDecodeParams) -> ServingReport {
    let spec = PipelineSpec::new(
        Vec::new(),
        DecodeSpec::new(
            params.decode_batch,
            LatencyTable::constant(params.decode_batch, params.step_latency_s),
        ),
    )
    .with_iterative(IterativeSpec {
        retrievals_per_sequence: params.retrievals_per_sequence,
        iterative_batch: params.iterative_batch,
        retrieval_prefix_latency_s: params.retrieval_prefix_latency_s,
        seed: params.seed,
    });
    let requests = (0..params.decode_batch)
        .map(|i| EngineRequest {
            id: u64::from(i),
            arrival_s: 0.0,
            prefix_tokens: 0,
            decode_tokens: params.decode_len,
            class: 0,
            identity: None,
        })
        .collect();
    run_alone(spec, requests)
}

fn assert_matches_reference_loop(params: IterativeDecodeParams) {
    let reference = reference_run(params);
    let report = run_iterative_case(params);

    let tpots: Vec<f64> = report
        .timelines
        .iter()
        .map(RequestTimeline::tpot_s)
        .collect();
    let tpot_mean = tpots.iter().sum::<f64>() / tpots.len() as f64;
    let tpot_worst = tpots.iter().fold(0.0f64, |a, &b| a.max(b));

    assert!(
        (report.metrics.makespan_s - reference.total_time_s).abs() < EPS,
        "makespan {} != reference total time {}",
        report.metrics.makespan_s,
        reference.total_time_s
    );
    assert!(
        (tpot_mean - reference.tpot_mean_s).abs() < EPS,
        "mean TPOT {tpot_mean} != reference {}",
        reference.tpot_mean_s
    );
    assert!(
        (tpot_worst - reference.tpot_worst_s).abs() < EPS,
        "worst TPOT {tpot_worst} != reference {}",
        reference.tpot_worst_s
    );
    assert_eq!(
        report.metrics.retrieval_batches,
        reference.retrieval_batches
    );
    assert_eq!(
        report.metrics.mean_retrieval_batch_fill,
        reference.mean_retrieval_batch_fill
    );
}

#[test]
fn engine_reproduces_iterative_decode_sim_exactly() {
    assert_matches_reference_loop(IterativeDecodeParams {
        decode_batch: 64,
        iterative_batch: 16,
        decode_len: 256,
        retrievals_per_sequence: 4,
        step_latency_s: 5e-3,
        retrieval_prefix_latency_s: 0.05,
        seed: 42,
    });
}

#[test]
fn engine_reproduces_iterative_decode_sim_across_the_figure10_grid() {
    // The Figure 10 regimes: zero-latency retrieval isolates batching
    // idleness; the diagonal (iterative batch == decode batch) is the
    // pathological corner; small batches approach no-slowdown.
    for (decode_batch, iterative_batch, latency) in [
        (64u32, 64u32, 0.0f64),
        (64, 1, 0.0),
        (32, 8, 0.1),
        (16, 4, 0.02),
        (8, 8, 0.05),
    ] {
        for seed in [0u64, 7, 1234] {
            assert_matches_reference_loop(IterativeDecodeParams {
                decode_batch,
                iterative_batch,
                decode_len: 128,
                retrievals_per_sequence: 3,
                step_latency_s: 2e-3,
                retrieval_prefix_latency_s: latency,
                seed,
            });
        }
    }
}

#[test]
fn engine_without_retrievals_decodes_unobstructed() {
    assert_matches_reference_loop(IterativeDecodeParams {
        decode_batch: 48,
        iterative_batch: 8,
        decode_len: 200,
        retrievals_per_sequence: 0,
        step_latency_s: 3e-3,
        retrieval_prefix_latency_s: 0.05,
        seed: 1,
    });
}

/// Affine stage latencies shared by both burst models.
fn affine(base: f64, per_item: f64) -> impl Fn(u32) -> f64 {
    move |b: u32| base + per_item * f64::from(b)
}

/// Runs a burst over the given stage closures, one resource per stage
/// (`disaggregated`) or all on resource zero (`collocated`).
fn run_burst(
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
    let requests = (0..burst)
        .map(|i| EngineRequest {
            id: u64::from(i),
            arrival_s: 0.0,
            prefix_tokens: 0,
            decode_tokens: 1,
            class: 0,
            identity: None,
        })
        .collect();
    run_alone(spec, requests)
}

fn ttft_first_mean_makespan(report: &ServingReport) -> (f64, f64, f64) {
    let ttfts: Vec<f64> = report
        .timelines
        .iter()
        .map(RequestTimeline::ttft_s)
        .collect();
    let first = ttfts.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let mean = ttfts.iter().sum::<f64>() / ttfts.len() as f64;
    let max = ttfts.iter().fold(0.0f64, |a, &b| a.max(b));
    (first, mean, max)
}

#[test]
fn engine_reproduces_pipelined_burst_completion_times() {
    let stage_params = [(0.01, 0.001), (0.02, 0.002), (0.005, 0.004)];
    let s0 = affine(0.01, 0.001);
    let s1 = affine(0.02, 0.002);
    let s2 = affine(0.005, 0.004);
    let closures: Vec<&dyn Fn(u32) -> f64> = vec![&s0, &s1, &s2];
    for (burst, microbatch) in [(32u32, 4u32), (32, 32), (17, 5), (8, 1), (3, 16)] {
        let reference = simulate_pipelined_burst(&closures, burst, microbatch);
        let report = run_burst(&stage_params, burst, microbatch, true);
        let (first, mean, max) = ttft_first_mean_makespan(&report);
        assert!(
            (first - reference.first_completion_s).abs() < EPS,
            "burst={burst} mb={microbatch}: first {first} != {}",
            reference.first_completion_s
        );
        assert!(
            (mean - reference.mean_completion_s).abs() < EPS,
            "burst={burst} mb={microbatch}: mean {mean} != {}",
            reference.mean_completion_s
        );
        assert!(
            (max - reference.makespan_s).abs() < EPS,
            "burst={burst} mb={microbatch}: makespan {max} != {}",
            reference.makespan_s
        );
    }
}

#[test]
fn engine_reproduces_collocated_burst_completion_times() {
    let stage_params = [(0.0, 0.01), (0.0, 0.01)];
    let s0 = affine(0.0, 0.01);
    let s1 = affine(0.0, 0.01);
    let closures: Vec<&dyn Fn(u32) -> f64> = vec![&s0, &s1];
    for (burst, microbatch) in [(8u32, 4u32), (16, 4), (16, 16), (9, 2)] {
        let reference = simulate_collocated_burst(&closures, burst, microbatch);
        let report = run_burst(&stage_params, burst, microbatch, false);
        let (first, mean, max) = ttft_first_mean_makespan(&report);
        assert!(
            (first - reference.first_completion_s).abs() < EPS,
            "burst={burst} mb={microbatch}: first {first} != {}",
            reference.first_completion_s
        );
        assert!(
            (mean - reference.mean_completion_s).abs() < EPS,
            "burst={burst} mb={microbatch}: mean {mean} != {}",
            reference.mean_completion_s
        );
        assert!(
            (max - reference.makespan_s).abs() < EPS,
            "burst={burst} mb={microbatch}: makespan {max} != {}",
            reference.makespan_s
        );
    }
}

#[test]
fn engine_collocated_matches_heterogeneous_stage_costs_too() {
    let stage_params = [(0.01, 0.005), (0.02, 0.001), (0.005, 0.002)];
    let s0 = affine(0.01, 0.005);
    let s1 = affine(0.02, 0.001);
    let s2 = affine(0.005, 0.002);
    let closures: Vec<&dyn Fn(u32) -> f64> = vec![&s0, &s1, &s2];
    for mb in [1u32, 2, 4, 8, 16] {
        let reference = simulate_collocated_burst(&closures, 16, mb);
        let report = run_burst(&stage_params, 16, mb, false);
        let (_, mean, max) = ttft_first_mean_makespan(&report);
        assert!(
            (mean - reference.mean_completion_s).abs() < EPS,
            "mb={mb}: mean {mean} != {}",
            reference.mean_completion_s
        );
        assert!((max - reference.makespan_s).abs() < EPS);
    }
}
