//! The decode-stall memo: Case III scores every candidate with an
//! iterative-decode simulation, and the profiler runs each distinct
//! simulation input exactly once — whatever the pre-decode batch axis, and
//! however many search threads ask at the same time — without moving the
//! frontier. The search's workers share one table of trigger positions,
//! and each input's memoized result is the one it simulates alone.

use rago_core::{Rago, SearchOptions};
use rago_hardware::ClusterSpec;
use rago_schema::presets::{self, LlmSize};
use rago_serving_sim::iterative::{self, IterativeDecodeParams, IterativeDecodeResult};
use std::collections::{HashMap, HashSet};

fn case3() -> Rago {
    Rago::new(
        presets::case3_iterative(LlmSize::B8, 4),
        ClusterSpec::paper_default(),
    )
}

/// The distinct decode-stall inputs the search simulates: one per feasible
/// candidate (an infeasible one fails before reaching the simulator), with
/// the two latencies compared by bit pattern.
fn distinct_stall_inputs(rago: &Rago, options: &SearchOptions) -> u64 {
    let profiler = rago.profiler();
    let keys: HashSet<_> = rago
        .schedule_iter(options)
        .filter(|s| s.evaluate(profiler).is_ok())
        .map(|s| {
            let p = s
                .decode_stall_params(profiler)
                .expect("a feasible schedule has profiled stall inputs")
                .expect("Case III issues iterative retrievals");
            (
                p.decode_batch,
                p.iterative_batch,
                p.decode_len,
                p.retrievals_per_sequence,
                p.step_latency_s.to_bits(),
                p.retrieval_prefix_latency_s.to_bits(),
                p.seed,
            )
        })
        .collect();
    keys.len() as u64
}

#[test]
fn memoized_case3_frontier_matches_unmemoized() {
    let options = SearchOptions::fast();
    let memoized = case3();
    let frontier = memoized.optimize(&options).unwrap();
    let feasible = frontier.evaluated_schedules as u64;
    // Without the memo every feasible candidate runs its own simulation, on
    // the parallel path as on the serial reference.
    for parallel in [false, true] {
        let unmemoized = case3().with_memoization(false);
        let reference = if parallel {
            unmemoized.optimize(&options)
        } else {
            unmemoized.optimize_serial(&options)
        };
        assert_eq!(frontier, reference.unwrap(), "parallel: {parallel}");
        assert_eq!(unmemoized.profiler().decode_stall_stats(), (0, feasible));
    }
    // With it, the search simulates each distinct input once up front, and
    // scoring then finds every feasible candidate's input in the memo.
    let (hits, misses) = memoized.profiler().decode_stall_stats();
    assert_eq!(hits, feasible);
    assert_eq!(misses, distinct_stall_inputs(&memoized, &options));
    assert!(hits > misses, "{hits} hits for {misses} simulations");
}

#[test]
fn decode_stall_misses_count_distinct_inputs_whatever_the_predecode_axis() {
    let mut misses_by_axis = Vec::new();
    for predecode_batch_steps in [vec![1], vec![1, 8, 32]] {
        let options = SearchOptions {
            predecode_batch_steps,
            ..SearchOptions::fast()
        };
        let rago = case3();
        rago.optimize(&options).unwrap();
        let (_, misses) = rago.profiler().decode_stall_stats();
        assert_eq!(misses, distinct_stall_inputs(&rago, &options));
        misses_by_axis.push(misses);
    }
    assert_eq!(
        misses_by_axis[0], misses_by_axis[1],
        "the pre-decode batch reached the decode-stall simulator"
    );
}

#[test]
fn decode_stall_is_simulated_once_under_threads() {
    let options = SearchOptions::fast();
    let parallel = case3();
    let serial = case3();
    assert_eq!(
        parallel.optimize(&options).unwrap(),
        serial.optimize_serial(&options).unwrap()
    );
    let (_, parallel_misses) = parallel.profiler().decode_stall_stats();
    let (_, serial_misses) = serial.profiler().decode_stall_stats();
    assert_eq!(parallel_misses, serial_misses);
    assert_eq!(serial_misses, distinct_stall_inputs(&serial, &options));
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

#[test]
fn memoized_stalls_equal_their_own_simulations() {
    let options = SearchOptions::fast();
    let rago = case3();
    rago.optimize(&options).unwrap();
    let profiler = rago.profiler();
    // One simulation per distinct input and one hit per feasible
    // candidate of the fast grid.
    assert_eq!(profiler.decode_stall_stats(), (108, 36));
    // Every distinct input of a feasible candidate, keyed by bit pattern.
    let inputs: HashMap<_, IterativeDecodeParams> = rago
        .schedule_iter(&options)
        .filter(|s| s.evaluate(profiler).is_ok())
        .filter_map(|s| s.decode_stall_params(profiler).unwrap())
        .map(|p| {
            let key = (
                p.decode_batch,
                p.iterative_batch,
                p.decode_len,
                p.retrievals_per_sequence,
                p.step_latency_s.to_bits(),
                p.retrieval_prefix_latency_s.to_bits(),
                p.seed,
            );
            (key, p)
        })
        .collect();
    assert_eq!(inputs.len(), 36);
    let (hits, misses) = profiler.decode_stall_stats();
    for params in inputs.values() {
        let memoized = profiler.decode_stall(*params);
        let alone = iterative::simulate(*params);
        assert_eq!(result_bits(&memoized), result_bits(&alone), "{params:?}");
    }
    // Every read was answered by the memo: none simulated again.
    assert_eq!(
        profiler.decode_stall_stats(),
        (hits + inputs.len() as u64, misses)
    );
}
