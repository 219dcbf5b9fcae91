//! Property-based tests for the discrete-event serving simulators.

use proptest::prelude::*;
use rago_schema::RouterPolicy;
use rago_serving_sim::engine::{
    DecodeSpec, EngineRequest, IterativeSpec, LatencyTable, PipelineSpec, RequestTimeline,
    ServingReport, StageSpec,
};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::iterative::{
    IterativeDecodeParams, IterativeDecodeResult, IterativeDecodeSim, TriggerTable,
};
use rago_serving_sim::microbatch::{simulate_collocated_burst, simulate_pipelined_burst};
use rago_serving_sim::MetricsMode;
use rago_telemetry::NullRecorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Runs `requests` through one replica of `spec`: a one-replica static
/// fleet, whose merged report is the replica's own.
fn run_alone(spec: PipelineSpec, requests: Vec<EngineRequest>) -> ServingReport {
    let one = ScaleDriver::Static { replicas: 1 };
    FleetEngine::new(spec, RouterPolicy::default(), one)
        .run(requests, &MetricsMode::Exact, &mut NullRecorder)
        .fleet
        .merged
}

/// Per-sequence state of [`reference_run`].
struct Sequence {
    retrieval_positions: Vec<u32>,
    generated: u32,
    next_retrieval: usize,
    paused: bool,
    finish_time: Option<f64>,
    waited_steps: f64,
}

/// The trigger-position draw of the iterative simulator, kept here so the
/// oracle also pins the RNG stream the request-level engine shares.
fn reference_positions(rng: &mut StdRng, decode_len: u32, count: u32) -> Vec<u32> {
    if count == 0 || decode_len <= 1 {
        return Vec::new();
    }
    let mut candidates: Vec<u32> = (1..decode_len).collect();
    candidates.shuffle(rng);
    let take = (count as usize).min(candidates.len());
    let mut positions = candidates[..take].to_vec();
    positions.sort_unstable();
    positions
}

/// The straightforward form of `IterativeDecodeSim::run`: it rebuilds the
/// unfinished and active sets every iteration, scans the in-flight batches
/// for completions, and dispatches one retrieval batch per iteration. The
/// simulator's allocation-free loop must reproduce it bit for bit.
fn reference_run(p: IterativeDecodeParams) -> IterativeDecodeResult {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut sequences: Vec<Sequence> = (0..p.decode_batch)
        .map(|_| Sequence {
            retrieval_positions: reference_positions(
                &mut rng,
                p.decode_len,
                p.retrievals_per_sequence,
            ),
            generated: 0,
            next_retrieval: 0,
            paused: false,
            finish_time: None,
            waited_steps: 0.0,
        })
        .collect();

    let mut now = 0.0f64;
    let mut retrieval_queue: Vec<usize> = Vec::new();
    // (completion_time, sequence indices) of in-flight retrieval batches.
    let mut in_flight: Vec<(f64, Vec<usize>)> = Vec::new();
    let mut retrieval_batches = 0u32;
    let mut total_fill = 0u64;

    loop {
        // Resume sequences whose retrieval has completed by `now`.
        let mut resumed = Vec::new();
        in_flight.retain(|(done_at, seqs)| {
            if *done_at <= now + 1e-12 {
                resumed.extend(seqs.iter().copied());
                false
            } else {
                true
            }
        });
        for idx in resumed {
            sequences[idx].paused = false;
        }

        let unfinished: Vec<usize> = sequences
            .iter()
            .enumerate()
            .filter(|(_, s)| s.finish_time.is_none())
            .map(|(i, _)| i)
            .collect();
        if unfinished.is_empty() {
            break;
        }
        let active: Vec<usize> = unfinished
            .iter()
            .copied()
            .filter(|&i| !sequences[i].paused)
            .collect();

        // Dispatch the retrieval queue when it is full, or when nothing
        // can make progress otherwise (avoids deadlock at the tail).
        let should_dispatch = !retrieval_queue.is_empty()
            && (retrieval_queue.len() >= p.iterative_batch as usize
                || (active.is_empty() && in_flight.is_empty()));
        if should_dispatch {
            let batch: Vec<usize> = retrieval_queue
                .drain(..retrieval_queue.len().min(p.iterative_batch as usize))
                .collect();
            retrieval_batches += 1;
            total_fill += batch.len() as u64;
            in_flight.push((now + p.retrieval_prefix_latency_s, batch));
            continue;
        }

        if active.is_empty() {
            // Jump to the next retrieval completion.
            if let Some(next) = in_flight
                .iter()
                .map(|(t, _)| *t)
                .min_by(|a, b| a.total_cmp(b))
            {
                // Everything unfinished is paused for the whole jump.
                let skipped_steps = (next - now) / p.step_latency_s;
                for &i in &unfinished {
                    sequences[i].waited_steps += skipped_steps;
                }
                now = next;
                continue;
            }
            // No active sequences, nothing in flight, queue empty: done.
            break;
        }

        // Execute one decode step for the active sequences.
        now += p.step_latency_s;
        for &i in &unfinished {
            if sequences[i].paused {
                sequences[i].waited_steps += 1.0;
            }
        }
        for &i in &active {
            let seq = &mut sequences[i];
            seq.generated += 1;
            // Trigger a retrieval when the sequence reaches its next
            // retrieval position (and has not finished).
            if seq.next_retrieval < seq.retrieval_positions.len()
                && seq.generated == seq.retrieval_positions[seq.next_retrieval]
                && seq.generated < p.decode_len
            {
                seq.next_retrieval += 1;
                seq.paused = true;
                retrieval_queue.push(i);
            }
            if seq.generated >= p.decode_len {
                seq.finish_time = Some(now);
            }
        }
    }

    let total_time = sequences
        .iter()
        .map(|s| s.finish_time.unwrap_or(now))
        .fold(0.0f64, f64::max);
    let tpots: Vec<f64> = sequences
        .iter()
        .map(|s| s.finish_time.unwrap_or(now) / f64::from(p.decode_len))
        .collect();
    let tpot_mean = tpots.iter().sum::<f64>() / tpots.len() as f64;
    let tpot_worst = tpots.iter().fold(0.0f64, |a, &b| a.max(b));
    let baseline = f64::from(p.decode_len) * p.step_latency_s;
    let total_possible_steps = f64::from(p.decode_batch) * (total_time / p.step_latency_s).max(1.0);
    let waited: f64 = sequences.iter().map(|s| s.waited_steps).sum();

    IterativeDecodeResult {
        total_time_s: total_time,
        tpot_mean_s: tpot_mean,
        tpot_worst_s: tpot_worst,
        normalized_decode_latency: total_time / baseline,
        retrieval_batches,
        mean_retrieval_batch_fill: if retrieval_batches == 0 {
            0.0
        } else {
            total_fill as f64 / f64::from(retrieval_batches)
        },
        idle_fraction: (waited / total_possible_steps).clamp(0.0, 1.0),
    }
}

/// Every field of a result as its bit pattern: equality here is bit-for-bit
/// (`-0.0 != 0.0`, and NaN compares by payload).
fn result_bits(r: &IterativeDecodeResult) -> [u64; 7] {
    [
        r.total_time_s.to_bits(),
        r.tpot_mean_s.to_bits(),
        r.tpot_worst_s.to_bits(),
        r.normalized_decode_latency.to_bits(),
        u64::from(r.retrieval_batches),
        r.mean_retrieval_batch_fill.to_bits(),
        r.idle_fraction.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The simulator's loop is bit-identical to [`reference_run`], including
    /// zero latency, latency under one step, iterative batches larger than
    /// the decode batch, and one- and two-token generations.
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
        let fast = IterativeDecodeSim::new(params).run();
        let reference = reference_run(params);
        prop_assert_eq!(result_bits(&fast), result_bits(&reference), "{:?} vs {:?}", fast, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One trigger table serves every decode batch up to its rows: a run
    /// that reads the shared table equals, bit for bit, the run that draws
    /// its own positions. Covers one-token generations, zero retrievals and
    /// more retrievals than positions to trigger them at.
    #[test]
    fn shared_trigger_table_reproduces_every_prefix_run(
        rows in 1u32..24,
        iterative_batch in 1u32..16,
        retrievals in prop_oneof![Just(0u32), 1u32..6, 200u32..300],
        decode_len in prop_oneof![Just(1u32), Just(2u32), 3u32..200],
        retrieval_latency in prop_oneof![Just(0.0f64), 0.0f64..0.2],
        seed in 0u64..1_000,
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
        let table = TriggerTable::draw(&params(rows), rows);
        for decode_batch in 1..=rows {
            let sim = IterativeDecodeSim::new(params(decode_batch));
            let shared = sim.run_with(&table);
            let own = sim.run();
            prop_assert_eq!(result_bits(&shared), result_bits(&own), "decode batch {}", decode_batch);
        }
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
        let r = IterativeDecodeSim::new(params).run();
        prop_assert!(r.total_time_s >= f64::from(decode_len) * 2e-3 - 1e-12);
        prop_assert!(r.normalized_decode_latency >= 1.0 - 1e-9);
        prop_assert!(r.tpot_worst_s >= r.tpot_mean_s - 1e-12);
        prop_assert!(r.idle_fraction >= 0.0 && r.idle_fraction <= 1.0);
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
        let fast = IterativeDecodeSim::new(base).run();
        let slow = IterativeDecodeSim::new(IterativeDecodeParams {
            retrieval_prefix_latency_s: 0.05,
            ..base
        })
        .run();
        prop_assert!(slow.total_time_s >= fast.total_time_s - 1e-12);
    }

    /// Pipelined execution never loses to collocated execution on the same
    /// stage costs, and both preserve basic ordering invariants.
    #[test]
    fn pipelined_never_loses_to_collocated(
        burst in 1u32..64,
        microbatch in 1u32..64,
        base1 in 1e-4f64..0.05,
        per1 in 1e-5f64..0.01,
        base2 in 1e-4f64..0.05,
        per2 in 1e-5f64..0.01,
    ) {
        let s1 = move |b: u32| base1 + per1 * f64::from(b);
        let s2 = move |b: u32| base2 + per2 * f64::from(b);
        let stages: Vec<&dyn Fn(u32) -> f64> = vec![&s1, &s2];
        let pipe = simulate_pipelined_burst(&stages, burst, microbatch);
        let col = simulate_collocated_burst(&stages, burst, microbatch);
        prop_assert!(pipe.makespan_s <= col.makespan_s + 1e-9);
        prop_assert!(pipe.first_completion_s <= pipe.mean_completion_s + 1e-9);
        prop_assert!(pipe.mean_completion_s <= pipe.makespan_s + 1e-9);
        prop_assert!(col.first_completion_s <= col.mean_completion_s + 1e-9);
        prop_assert_eq!(pipe.num_microbatches, col.num_microbatches);
        // Number of micro-batches is ceil(burst / microbatch).
        prop_assert_eq!(pipe.num_microbatches, burst.div_ceil(microbatch));
    }

    /// The request-level engine reproduces `IterativeDecodeSim` for random
    /// degenerate configurations (no pre-decode stages, simultaneous
    /// arrivals, decode batch equal to the request count).
    #[test]
    fn engine_matches_iterative_sim_on_random_configs(
        decode_batch in 1u32..48,
        iterative_batch in 1u32..48,
        retrievals in 0u32..5,
        decode_len in 4u32..96,
        retrieval_latency in 0.0f64..0.1,
        seed in 0u64..300,
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
        let reference = IterativeDecodeSim::new(params).run();
        let spec = PipelineSpec::new(
            Vec::new(),
            DecodeSpec::new(decode_batch, LatencyTable::constant(decode_batch, 2e-3)),
        )
        .with_iterative(IterativeSpec {
            retrievals_per_sequence: retrievals,
            iterative_batch,
            retrieval_prefix_latency_s: retrieval_latency,
            seed,
        });
        let requests: Vec<EngineRequest> = (0..decode_batch)
            .map(|i| EngineRequest { id: u64::from(i), arrival_s: 0.0, prefix_tokens: 0, decode_tokens: decode_len, class: 0, identity: None })
            .collect();
        let report = run_alone(spec, requests);
        prop_assert!((report.metrics.makespan_s - reference.total_time_s).abs() < 1e-9);
        let tpot_worst = report
            .timelines
            .iter()
            .map(RequestTimeline::tpot_s)
            .fold(0.0f64, f64::max);
        prop_assert!((tpot_worst - reference.tpot_worst_s).abs() < 1e-9);
        prop_assert_eq!(report.metrics.retrieval_batches, reference.retrieval_batches);
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
        let s1 = move |b: u32| per1 * f64::from(b);
        let s2 = move |b: u32| per2 * f64::from(b);
        let stages: Vec<&dyn Fn(u32) -> f64> = vec![&s1, &s2];
        let r = simulate_pipelined_burst(&stages, burst, microbatch);
        let total1 = per1 * f64::from(burst);
        let total2 = per2 * f64::from(burst);
        let serial = total1 + total2;
        prop_assert!(r.makespan_s >= total1.max(total2) - 1e-12);
        prop_assert!(r.makespan_s <= serial + 1e-9);
    }
}
