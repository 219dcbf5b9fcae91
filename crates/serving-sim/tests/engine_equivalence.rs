//! Degenerate-case equivalence of the request-level replica simulation —
//! run as a one-replica fleet — against two independent models of the
//! cases it subsumes (the acceptance criterion of the engine):
//!
//! * With no pre-decode stages, all requests present at t = 0, and a decode
//!   batch equal to the request count, the replica **is** the step-by-step
//!   decode loop of `reference_loop` — same TPOT, same completion time,
//!   same retrieval-batch accounting.
//! * With a burst at t = 0 flowing through pre-decode stages only, the
//!   replica's TTFT distribution **is** the closed-form burst model of
//!   `reference_burst` — the pipelined variant when every stage owns a
//!   resource, the collocated variant when all stages share one.
//!
//! The burst tests after those pin the §6.1 micro-batching behaviours of
//! Figures 14 and 19 on the engine itself.

use rago_serving_sim::engine::{
    DecodeSpec, IterativeSpec, LatencyTable, PipelineSpec, RequestTimeline, ServingReport,
};
use rago_serving_sim::iterative::IterativeDecodeParams;

mod one_replica;
mod reference_burst;
mod reference_loop;
use one_replica::{
    affine, burst_requests, dispatches, run_alone, run_burst, ttft_first_mean_makespan,
};
use reference_burst::{collocated_burst, pipelined_burst, BurstResult};
use reference_loop::reference_run;

const EPS: f64 = 1e-9;

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
    run_alone(spec, burst_requests(params.decode_batch, params.decode_len))
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

/// Asserts that the engine's burst TTFTs match the closed form's
/// completion times.
fn assert_matches_reference(report: &ServingReport, reference: &BurstResult, case: &str) {
    let (first, mean, max) = ttft_first_mean_makespan(report);
    for (what, engine, closed_form) in [
        ("first", first, reference.first_completion_s),
        ("mean", mean, reference.mean_completion_s),
        ("makespan", max, reference.makespan_s),
    ] {
        assert!(
            (engine - closed_form).abs() < EPS,
            "{case}: {what} {engine} != {closed_form}"
        );
    }
}

#[test]
fn engine_reproduces_pipelined_burst_completion_times() {
    let stage_params = [(0.01, 0.001), (0.02, 0.002), (0.005, 0.004)];
    let stages: Vec<_> = stage_params.iter().map(|&(b, p)| affine(b, p)).collect();
    for (burst, microbatch) in [(32u32, 4u32), (32, 32), (17, 5), (8, 1), (3, 16)] {
        assert_matches_reference(
            &run_burst(&stage_params, burst, microbatch, true),
            &pipelined_burst(&stages, burst, microbatch),
            &format!("burst={burst} mb={microbatch}"),
        );
    }
}

#[test]
fn engine_reproduces_collocated_burst_completion_times() {
    let stage_params = [(0.0, 0.01), (0.0, 0.01)];
    let stages: Vec<_> = stage_params.iter().map(|&(b, p)| affine(b, p)).collect();
    for (burst, microbatch) in [(8u32, 4u32), (16, 4), (16, 16), (9, 2)] {
        assert_matches_reference(
            &run_burst(&stage_params, burst, microbatch, false),
            &collocated_burst(&stages, burst, microbatch),
            &format!("burst={burst} mb={microbatch}"),
        );
    }
}

#[test]
fn engine_collocated_matches_heterogeneous_stage_costs_too() {
    let stage_params = [(0.01, 0.005), (0.02, 0.001), (0.005, 0.002)];
    let stages: Vec<_> = stage_params.iter().map(|&(b, p)| affine(b, p)).collect();
    for mb in [1u32, 2, 4, 8, 16] {
        assert_matches_reference(
            &run_burst(&stage_params, 16, mb, false),
            &collocated_burst(&stages, 16, mb),
            &format!("mb={mb}"),
        );
    }
}

/// Asserts that a burst run as one micro-batch completes every request at
/// `serial`, the sum of the stage latencies.
fn assert_one_microbatch_at(report: &ServingReport, serial: f64) {
    let (first, mean, makespan) = ttft_first_mean_makespan(report);
    assert!((makespan - serial).abs() < EPS, "{makespan} != {serial}");
    assert!((first - makespan).abs() < EPS && (mean - makespan).abs() < EPS);
    assert_eq!(dispatches(report), 1);
}

#[test]
fn one_pipelined_microbatch_takes_the_sum_of_the_stage_latencies() {
    let report = run_burst(&[(0.01, 0.001), (0.02, 0.002)], 8, 8, true);
    assert_one_microbatch_at(&report, (0.01 + 0.008) + (0.02 + 0.016));
}

#[test]
fn one_collocated_microbatch_takes_the_sum_of_the_stage_latencies() {
    let report = run_burst(&[(0.01, 0.001), (0.03, 0.0)], 4, 4, false);
    assert_one_microbatch_at(&report, (0.01 + 0.004) + 0.03);
}

#[test]
fn two_microbatches_pipeline_across_two_constant_stages() {
    // 0.1 s per stage: 0.2 s for the first micro-batch of 4, then one more
    // 0.1 s slot for the second.
    let report = run_burst(&[(0.1, 0.0), (0.1, 0.0)], 8, 4, true);
    let (first, _, makespan) = ttft_first_mean_makespan(&report);
    assert_eq!(dispatches(&report), 2);
    assert!((first - 0.2).abs() < EPS && (makespan - 0.3).abs() < EPS);
}

#[test]
fn pipelining_is_no_slower_than_collocation() {
    let stages = [(0.01, 0.005), (0.02, 0.001), (0.005, 0.002)];
    for mb in [1u32, 2, 4, 8] {
        let (_, pipe_mean, pipe_max) = ttft_first_mean_makespan(&run_burst(&stages, 16, mb, true));
        let (_, col_mean, col_max) = ttft_first_mean_makespan(&run_burst(&stages, 16, mb, false));
        assert!(pipe_max <= col_max + EPS, "mb={mb}: {pipe_max} > {col_max}");
        assert!(
            pipe_mean <= col_mean + EPS,
            "mb={mb}: {pipe_mean} > {col_mean}"
        );
    }
}

#[test]
fn dedicated_stage_resources_overlap_what_collocation_serialises() {
    // Two micro-batches of 4 through two stages of 0.01 s per request: a
    // resource per stage overlaps micro-batch 2's first stage with
    // micro-batch 1's second (0.12 s); one shared resource runs the four
    // jobs back to back (0.16 s).
    let stages = [(0.0, 0.01), (0.0, 0.01)];
    let (_, _, pipelined) = ttft_first_mean_makespan(&run_burst(&stages, 8, 4, true));
    let (_, _, collocated) = ttft_first_mean_makespan(&run_burst(&stages, 8, 4, false));
    assert!((pipelined - 0.12).abs() < EPS && (collocated - 0.16).abs() < EPS);
}

#[test]
fn microbatching_cuts_first_and_mean_ttft_for_compute_heavy_stages() {
    // Stages with negligible fixed overhead: smaller batches finish the
    // first requests much earlier (the Figure 19b regime).
    let stages = [(1e-4, 0.01), (1e-4, 0.02)];
    let (whole_first, whole_mean, _) = ttft_first_mean_makespan(&run_burst(&stages, 32, 32, true));
    let micro = run_burst(&stages, 32, 4, true);
    let (micro_first, micro_mean, _) = ttft_first_mean_makespan(&micro);
    assert!(micro_first < whole_first * 0.5);
    assert!(micro_mean < whole_mean);
    assert_eq!(dispatches(&micro), 8);
}

#[test]
fn microbatching_does_not_help_a_latency_floor_stage() {
    // A stage dominated by a fixed per-batch cost (like the vector search
    // below batch 16 in Figure 19a) gains nothing from smaller batches, and
    // the mean gets worse because later micro-batches queue.
    let stages = [(0.05, 1e-5)];
    let (whole_first, whole_mean, _) = ttft_first_mean_makespan(&run_burst(&stages, 16, 16, true));
    let (micro_first, micro_mean, _) = ttft_first_mean_makespan(&run_burst(&stages, 16, 2, true));
    assert!(micro_first >= whole_first * 0.95);
    assert!(micro_mean > whole_mean);
}

#[test]
fn collocation_finishes_the_first_microbatch_before_starting_the_next() {
    // Two micro-batches of 4 through two stages on one resource: the
    // optimal order of Figure 14(b) runs micro-batch 1's second stage
    // before micro-batch 2's first, so the first completion is
    // s1(4) + s2(4) = 0.08 s, not 2·s1(4) + s2(4), and the makespan is all
    // four jobs back to back.
    let report = run_burst(&[(0.0, 0.01), (0.0, 0.01)], 8, 4, false);
    let (first, _, makespan) = ttft_first_mean_makespan(&report);
    assert!((first - 0.08).abs() < EPS, "{first}");
    assert!((makespan - 0.16).abs() < EPS, "{makespan}");
}

#[test]
fn a_burst_smaller_than_the_microbatch_is_one_dispatch() {
    let report = run_burst(&[(0.01, 0.001)], 3, 16, true);
    assert_eq!(dispatches(&report), 1);
    assert_eq!(report.metrics.completed, 3);
}

#[test]
#[should_panic(expected = "max_batch must be at least 1")]
fn a_zero_microbatch_burst_is_rejected() {
    // The stage's latency table, sized by the micro-batch, refuses it.
    let _ = run_burst(&[(0.01, 0.001)], 4, 0, true);
}
