//! The decode-stall memo: Case III scores every candidate with an
//! iterative-decode simulation, and the profiler runs each distinct
//! simulation input exactly once — whatever the pre-decode batch axis, and
//! however many search threads ask at the same time — without moving the
//! frontier.

use rago_core::{Rago, SearchOptions};
use rago_hardware::ClusterSpec;
use rago_schema::presets::{self, LlmSize};
use std::collections::HashSet;

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
