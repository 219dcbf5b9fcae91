//! The decode-stall memo: Case III scores its candidates with an
//! iterative-decode simulation, and the search simulates only the inputs
//! behind points it keeps, each exactly once — whatever the pre-decode
//! batch axis, and however many search threads run — without moving the
//! frontier. The search's workers share one table of trigger positions,
//! and each input's memoized result is the one it simulates alone.

use rago_core::{Rago, SearchOptions};
use rago_hardware::ClusterSpec;
use rago_schema::presets::{self, LlmSize};
use rago_serving_sim::iterative::{self, IterativeDecodeParams, IterativeDecodeResult};
use std::collections::HashMap;

fn case3() -> Rago {
    Rago::new(
        presets::case3_iterative(LlmSize::B8, 4),
        ClusterSpec::paper_default(),
    )
}

/// Every field of a decode-stall input, the two latencies by bit pattern.
type StallKey = (u32, u32, u32, u32, u64, u64, u64);

fn stall_key(p: &IterativeDecodeParams) -> StallKey {
    (
        p.decode_batch,
        p.iterative_batch,
        p.decode_len,
        p.retrievals_per_sequence,
        p.step_latency_s.to_bits(),
        p.retrieval_prefix_latency_s.to_bits(),
        p.seed,
    )
}

/// The distinct decode-stall inputs the feasible candidates of the grid
/// reach (an infeasible one fails before reaching the simulator). A fresh
/// optimizer evaluates them, so the counters of the searched one stay put.
fn distinct_stall_inputs(options: &SearchOptions) -> HashMap<StallKey, IterativeDecodeParams> {
    let rago = case3();
    let profiler = rago.profiler();
    rago.schedule_iter(options)
        .filter(|s| s.evaluate(profiler).is_ok())
        .map(|s| {
            let p = s
                .decode_stall_params(profiler)
                .expect("a feasible schedule has profiled stall inputs")
                .expect("Case III issues iterative retrievals");
            (stall_key(&p), p)
        })
        .collect()
}

/// Asks the profiler for every reached input after a search and checks
/// that none was simulated twice: the search's misses plus the misses of
/// the replay, which simulates exactly the inputs the search skipped, are
/// the distinct inputs. Returns the search's misses.
fn replay_simulates_only_the_skipped(rago: &Rago, options: &SearchOptions) -> u64 {
    let inputs = distinct_stall_inputs(options);
    let profiler = rago.profiler();
    let (_, before) = profiler.decode_stall_stats();
    for params in inputs.values() {
        profiler.decode_stall(*params);
    }
    let (_, after) = profiler.decode_stall_stats();
    assert_eq!(
        before,
        inputs.len() as u64 - (after - before),
        "an input was simulated twice"
    );
    before
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
    // With it, the search simulates at most each distinct input once, and
    // only those behind points it kept: fewer than the grid reaches.
    let (hits, misses) = memoized.profiler().decode_stall_stats();
    let distinct = distinct_stall_inputs(&options).len() as u64;
    assert!(
        misses <= distinct,
        "{misses} simulations for {distinct} inputs"
    );
    assert!(misses < distinct, "the bound pruned no simulation");
    assert!(hits <= feasible, "{hits} hits for {feasible} candidates");
}

#[test]
fn decode_stall_misses_count_distinct_inputs_whatever_the_predecode_axis() {
    let rago = case3();
    let profiler = rago.profiler();
    let options = SearchOptions {
        predecode_batch_steps: vec![1, 8, 32],
        ..SearchOptions::fast()
    };
    // Schedules that differ only in their pre-decode batch share one
    // stall input.
    let mut checked = 0;
    for schedule in rago.schedule_iter(&options) {
        let Ok(params) = schedule.decode_stall_params(profiler) else {
            continue;
        };
        let mut first = schedule.clone();
        first.batching.predecode_batch = 1;
        assert_eq!(
            params,
            first.decode_stall_params(profiler).unwrap(),
            "the pre-decode batch reached the decode-stall simulator: {}",
            schedule.describe()
        );
        checked += 1;
    }
    assert!(checked > 0);
    // So every pre-decode axis reaches the same inputs, and the search
    // simulates none of them twice.
    let mut distinct_by_axis = Vec::new();
    for predecode_batch_steps in [vec![1], vec![1, 8, 32]] {
        let options = SearchOptions {
            predecode_batch_steps,
            ..SearchOptions::fast()
        };
        let rago = case3();
        rago.optimize(&options).unwrap();
        let misses = replay_simulates_only_the_skipped(&rago, &options);
        let distinct = distinct_stall_inputs(&options);
        assert!(misses <= distinct.len() as u64);
        let mut keys: Vec<StallKey> = distinct.into_keys().collect();
        keys.sort_unstable();
        distinct_by_axis.push(keys);
    }
    assert_eq!(distinct_by_axis[0], distinct_by_axis[1]);
}

/// CI runs this file at `RAYON_NUM_THREADS=1` as well as at the default,
/// so the pinned count holds at both: the inputs a round simulates depend
/// only on the points it keeps, never on the threads.
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
    assert_eq!(parallel_misses, 5);
    assert_eq!(replay_simulates_only_the_skipped(&parallel, &options), 5);
    // The serial reference simulates every distinct input once.
    let (_, serial_misses) = serial.profiler().decode_stall_stats();
    assert_eq!(serial_misses, distinct_stall_inputs(&options).len() as u64);
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
    // Five simulations, and one hit per candidate of the last round whose
    // input was simulated, on the fast grid.
    assert_eq!(profiler.decode_stall_stats(), (15, 5));
    let inputs = distinct_stall_inputs(&options);
    assert_eq!(inputs.len(), 36);
    for params in inputs.values() {
        let memoized = profiler.decode_stall(*params);
        let alone = iterative::simulate(*params);
        assert_eq!(result_bits(&memoized), result_bits(&alone), "{params:?}");
    }
    // The replay simulated exactly the 31 inputs the search skipped, and
    // answered the other five from the memo.
    assert_eq!(profiler.decode_stall_stats(), (15 + 5, 5 + 31));
}
