//! Property-based tests for the discrete-event serving simulators.

use proptest::prelude::*;
use rago_schema::{HistogramSpec, RouterPolicy};
use rago_serving_sim::engine::{
    DecodeSpec, EngineRequest, IterativeSpec, LatencyTable, PipelineSpec, StageSpec,
};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::iterative::{
    simulate, simulate_with, IterativeDecodeParams, IterativeDecodeResult, TriggerTable,
};
use rago_serving_sim::{MetricsMode, StreamingConfig};
use rago_telemetry::NullRecorder;

mod one_replica;
mod reference_loop;
use one_replica::{burst_requests, dispatches, run_alone, run_burst, ttft_first_mean_makespan};
use reference_loop::reference_run;

/// Whether the four time fields agree within the 1e-9 tolerance of the
/// engine-versus-loop pins. The last bits may differ: when a retrieval
/// returns within the engine's event tolerance after a step boundary, the
/// engine starts the next step at the return, the loop at the boundary.
fn times_match(a: &IterativeDecodeResult, b: &IterativeDecodeResult) -> bool {
    [
        (a.total_time_s, b.total_time_s),
        (a.tpot_mean_s, b.tpot_mean_s),
        (a.tpot_worst_s, b.tpot_worst_s),
        (a.normalized_decode_latency, b.normalized_decode_latency),
    ]
    .iter()
    .all(|(x, y)| (x - y).abs() < 1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The engine's decode-stall simulation matches the step-by-step
    /// [`reference_run`], including zero latency, latency under one step,
    /// iterative batches larger than the decode batch, and one- and
    /// two-token generations.
    #[test]
    fn iterative_sim_matches_reference_loop(
        decode_batch in prop_oneof![Just(1u32), 2u32..16, 16u32..160],
        iterative_batch in prop_oneof![Just(1u32), 1u32..16, 16u32..256],
        retrievals in 0u32..6,
        decode_len in prop_oneof![Just(1u32), Just(2u32), 3u32..200],
        retrieval_latency in prop_oneof![Just(0.0f64), 0.0f64..2e-3, 2e-3f64..0.2],
        seed in 0u64..1_000,
    ) {
        let params = IterativeDecodeParams {
            decode_batch,
            iterative_batch,
            decode_len,
            retrievals_per_sequence: retrievals,
            step_latency_s: 2e-3,
            retrieval_prefix_latency_s: retrieval_latency,
            seed,
        };
        let engine = simulate(params);
        let reference = reference_run(params);
        prop_assert!(times_match(&engine, &reference), "{:?} vs {:?}", engine, reference);
        prop_assert_eq!(engine.retrieval_batches, reference.retrieval_batches);
        prop_assert_eq!(
            engine.mean_retrieval_batch_fill.to_bits(),
            reference.mean_retrieval_batch_fill.to_bits()
        );
    }
}

/// The six fields of a decode-stall result, the floats by bit pattern.
fn result_bits(r: &IterativeDecodeResult) -> [u64; 6] {
    [
        r.total_time_s.to_bits(),
        r.tpot_mean_s.to_bits(),
        r.tpot_worst_s.to_bits(),
        r.normalized_decode_latency.to_bits(),
        u64::from(r.retrieval_batches),
        r.mean_retrieval_batch_fill.to_bits(),
    ]
}

/// The decode-stall simulation of `params` on a one-replica fleet: the
/// replica draws each request's trigger positions itself, at injection.
fn drawn_at_injection(params: IterativeDecodeParams) -> IterativeDecodeResult {
    let spec = PipelineSpec::decode_only(
        DecodeSpec::new(
            params.decode_batch,
            LatencyTable::constant(params.decode_batch, params.step_latency_s),
        ),
        Some(IterativeSpec {
            retrievals_per_sequence: params.retrievals_per_sequence,
            iterative_batch: params.iterative_batch,
            retrieval_prefix_latency_s: params.retrieval_prefix_latency_s,
            seed: params.seed,
        }),
    );
    // The streaming sink `simulate_with` retires into; one bucket, since
    // the mean, the maximum and the makespan are tracked outside them.
    let mode = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec {
        bucket_width_s: 1.0,
        max_buckets: 1,
    }));
    let one = ScaleDriver::Static { replicas: 1 };
    let m = FleetEngine::new(spec, RouterPolicy::default(), one)
        .run(
            burst_requests(params.decode_batch, params.decode_len),
            &mode,
            &mut NullRecorder,
        )
        .fleet
        .merged
        .metrics;
    IterativeDecodeResult {
        total_time_s: m.makespan_s,
        tpot_mean_s: m.tpot.mean_s,
        tpot_worst_s: m.tpot.max_s,
        normalized_decode_latency: m.makespan_s
            / (f64::from(params.decode_len) * params.step_latency_s),
        retrieval_batches: m.retrieval_batches,
        mean_retrieval_batch_fill: m.mean_retrieval_batch_fill,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One trigger table serves every decode batch up to its rows: reading
    /// its prefix rows equals, bit for bit, a replica that draws each
    /// request's positions at injection. Covers one-token generations,
    /// zero retrievals and more retrievals than positions to trigger them
    /// at.
    #[test]
    fn trigger_table_reproduces_the_injection_draws(
        rows in 1u32..24,
        iterative_batch in 1u32..16,
        retrievals in 0u32..=8,
        decode_len in prop_oneof![Just(1u32), Just(2u32), 1u32..=8, 1u32..=300],
        retrieval_latency in prop_oneof![Just(0.0f64), 0.0f64..0.2],
        seed in any::<u64>(),
    ) {
        let params = |decode_batch| IterativeDecodeParams {
            decode_batch,
            iterative_batch,
            decode_len,
            retrievals_per_sequence: retrievals,
            step_latency_s: 2e-3,
            retrieval_prefix_latency_s: retrieval_latency,
            seed,
        };
        let table = TriggerTable::draw(seed, decode_len, retrievals, rows);
        for decode_batch in 1..=rows {
            let shared = simulate_with(params(decode_batch), &table);
            let drawn = drawn_at_injection(params(decode_batch));
            prop_assert_eq!(
                result_bits(&shared),
                result_bits(&drawn),
                "decode batch {}: {:?} vs {:?}",
                decode_batch,
                shared,
                drawn
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No simulation finishes before [`IterativeDecodeParams::min_total_time_s`],
    /// the bound the schedule search scores unsimulated stalls with. Covers
    /// one-sequence batches, iterative batches larger than the decode batch,
    /// zero latency and latencies within the engine's event tolerance, and
    /// more retrievals than positions to trigger them at.
    #[test]
    fn no_simulation_beats_its_total_time_bound(
        decode_batch in prop_oneof![Just(1u32), 1u32..16, 16u32..160],
        iterative_batch in prop_oneof![Just(1u32), 1u32..16, 16u32..256],
        retrievals in prop_oneof![0u32..6, 6u32..40],
        decode_len in prop_oneof![Just(1u32), Just(2u32), 1u32..=8, 3u32..200],
        step_latency in prop_oneof![Just(2e-3f64), 1e-6f64..0.05],
        retrieval_latency in prop_oneof![
            Just(0.0f64),
            Just(1e-12f64),
            0.0f64..1e-12,
            0.0f64..2e-3,
            2e-3f64..0.2,
        ],
        seed in any::<u64>(),
    ) {
        let params = IterativeDecodeParams {
            decode_batch,
            iterative_batch,
            decode_len,
            retrievals_per_sequence: retrievals,
            step_latency_s: step_latency,
            retrieval_prefix_latency_s: retrieval_latency,
            seed,
        };
        let table = TriggerTable::draw(seed, decode_len, retrievals, decode_batch);
        let result = simulate_with(params, &table);
        let bound = params.min_total_time_s();
        prop_assert!(
            result.total_time_s >= bound,
            "{:?}: simulated {} under the bound {}",
            params,
            result.total_time_s,
            bound
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The iterative decode simulation always finishes, its normalized latency
    /// is at least 1, and the worst TPOT bounds the mean.
    #[test]
    fn iterative_sim_basic_invariants(
        decode_batch in 1u32..128,
        iterative_batch in 1u32..128,
        retrievals in 0u32..8,
        decode_len in 8u32..256,
        retrieval_latency in 0.0f64..0.2,
        seed in 0u64..500,
    ) {
        let params = IterativeDecodeParams {
            decode_batch,
            iterative_batch,
            decode_len,
            retrievals_per_sequence: retrievals,
            step_latency_s: 2e-3,
            retrieval_prefix_latency_s: retrieval_latency,
            seed,
        };
        let r = simulate(params);
        prop_assert!(r.total_time_s >= f64::from(decode_len) * 2e-3 - 1e-12);
        prop_assert!(r.normalized_decode_latency >= 1.0 - 1e-9);
        prop_assert!(r.tpot_worst_s >= r.tpot_mean_s - 1e-12);
        if retrievals == 0 {
            prop_assert_eq!(r.retrieval_batches, 0);
            prop_assert!((r.normalized_decode_latency - 1.0).abs() < 1e-9);
        } else {
            // Every retrieval is eventually dispatched.
            prop_assert!(r.retrieval_batches >= 1);
            prop_assert!(r.mean_retrieval_batch_fill <= f64::from(iterative_batch) + 1e-9);
        }
    }

    /// Higher retrieval latency never speeds up the iterative simulation.
    #[test]
    fn iterative_sim_monotone_in_retrieval_latency(
        decode_batch in 2u32..64,
        seed in 0u64..200,
    ) {
        let base = IterativeDecodeParams {
            decode_batch,
            iterative_batch: (decode_batch / 2).max(1),
            decode_len: 64,
            retrievals_per_sequence: 2,
            step_latency_s: 1e-3,
            retrieval_prefix_latency_s: 0.0,
            seed,
        };
        let fast = simulate(base);
        let slow = simulate(IterativeDecodeParams {
            retrieval_prefix_latency_s: 0.05,
            ..base
        });
        prop_assert!(slow.total_time_s >= fast.total_time_s - 1e-12);
    }

    /// Pipelined execution never loses to collocated execution on the same
    /// stage costs, both preserve basic ordering invariants, and both
    /// dispatch ceil(burst / microbatch) micro-batches.
    #[test]
    fn pipelined_never_loses_to_collocated(
        burst in 1u32..64,
        microbatch in 1u32..64,
        base1 in 1e-4f64..0.05,
        per1 in 1e-5f64..0.01,
        base2 in 1e-4f64..0.05,
        per2 in 1e-5f64..0.01,
    ) {
        let stages = [(base1, per1), (base2, per2)];
        let pipe = run_burst(&stages, burst, microbatch, true);
        let col = run_burst(&stages, burst, microbatch, false);
        let (pipe_first, pipe_mean, pipe_max) = ttft_first_mean_makespan(&pipe);
        let (col_first, col_mean, col_max) = ttft_first_mean_makespan(&col);
        prop_assert!(pipe_max <= col_max + 1e-9);
        prop_assert!(pipe_first <= pipe_mean + 1e-9);
        prop_assert!(pipe_mean <= pipe_max + 1e-9);
        prop_assert!(col_first <= col_mean + 1e-9);
        let expected = burst.div_ceil(microbatch) as usize;
        prop_assert_eq!(dispatches(&pipe), expected);
        prop_assert_eq!(dispatches(&col), expected);
    }

    /// Engine timelines are causally ordered and every request completes,
    /// for random loads, stage shapes, and decode caps.
    #[test]
    fn engine_timelines_are_causal(
        requests in 1usize..80,
        stage_batch in 1u32..16,
        decode_batch in 1u32..32,
        stage_latency in 1e-4f64..0.05,
        step_latency in 1e-4f64..0.01,
        gap in 0.0f64..0.02,
    ) {
        let spec = PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                stage_batch,
                LatencyTable::constant(stage_batch, stage_latency),
            )],
            DecodeSpec::new(decode_batch, LatencyTable::constant(decode_batch, step_latency)),
        );
        let reqs: Vec<EngineRequest> = (0..requests)
            .map(|i| EngineRequest {
                id: i as u64,
                arrival_s: gap * i as f64,
                prefix_tokens: 0,
                decode_tokens: 1 + (i as u32 % 17),
                class: 0,
                identity: None,
            })
            .collect();
        let report = run_alone(spec, reqs);
        prop_assert_eq!(report.metrics.completed, requests);
        for t in &report.timelines {
            prop_assert!(t.first_token_s >= t.arrival_s - 1e-12);
            prop_assert!(t.decode_join_s >= t.arrival_s - 1e-12);
            prop_assert!(t.completion_s >= t.first_token_s - 1e-12);
            prop_assert!(t.queueing_s >= -1e-12);
            prop_assert!(t.queueing_s <= t.latency_s() + 1e-9);
            // Decode can't finish faster than one step per token.
            prop_assert!(
                t.completion_s - t.decode_join_s
                    >= step_latency * f64::from(t.decode_tokens) - 1e-9
            );
        }
        prop_assert!(report.metrics.ttft.p50_s <= report.metrics.ttft.p99_s + 1e-12);
        prop_assert!(report.metrics.throughput_rps > 0.0);
    }

    /// The makespan of a pipelined burst is at least the bottleneck stage's
    /// total work and at most the fully serial execution.
    #[test]
    fn pipelined_makespan_bounds(
        burst in 1u32..48,
        microbatch in 1u32..48,
        per1 in 1e-5f64..0.01,
        per2 in 1e-5f64..0.01,
    ) {
        let r = run_burst(&[(0.0, per1), (0.0, per2)], burst, microbatch, true);
        let (_, _, makespan) = ttft_first_mean_makespan(&r);
        let total1 = per1 * f64::from(burst);
        let total2 = per2 * f64::from(burst);
        let serial = total1 + total2;
        prop_assert!(makespan >= total1.max(total2) - 1e-12);
        prop_assert!(makespan <= serial + 1e-9);
        prop_assert_eq!(dispatches(&r), burst.div_ceil(microbatch) as usize);
    }
}
