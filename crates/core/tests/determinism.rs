//! The streaming, parallel, memoized search must be *frontier-identical* to
//! the serial batch reference: same points (schedules included), same order,
//! same `evaluated_schedules` count — independent of thread interleaving.

use rago_core::{
    ParetoFrontier, ParetoPoint, PlacementPlan, Rago, ResourceAllocation, SearchOptions,
};
use rago_hardware::ClusterSpec;
use rago_schema::presets::{self, LlmSize};
use rago_schema::RagSchema;
use std::collections::HashMap;

fn fresh(schema: &RagSchema) -> Rago {
    Rago::new(schema.clone(), ClusterSpec::paper_default())
}

fn assert_parallel_matches_serial(schema: &RagSchema, options: &SearchOptions, label: &str) {
    let serial = fresh(schema)
        .optimize_serial(options)
        .unwrap_or_else(|e| panic!("{label}: serial search failed: {e}"));
    // Run the parallel path several times, each on a cold profiler so the
    // search fills its profile table from scratch: a race in the fill or in
    // the fold/merge would show up as run-to-run variation.
    for run in 0..3 {
        let parallel = fresh(schema)
            .optimize(options)
            .unwrap_or_else(|e| panic!("{label}: parallel search failed: {e}"));
        assert_eq!(
            parallel.evaluated_schedules, serial.evaluated_schedules,
            "{label} run {run}: evaluated_schedules diverged"
        );
        assert_eq!(
            parallel, serial,
            "{label} run {run}: frontier diverged from the serial reference"
        );
    }
}

#[test]
fn streaming_matches_serial_reference_case1() {
    assert_parallel_matches_serial(
        &presets::case1_hyperscale(LlmSize::B8, 1),
        &SearchOptions::fast(),
        "case1/fast",
    );
}

#[test]
fn streaming_matches_serial_reference_case2_with_infeasible_candidates() {
    // A 70B model does not fit one chip, so with a one-chip step some
    // Case II candidates are infeasible and the profile table holds errors
    // next to profiles.
    let schema = presets::case2_long_context(LlmSize::B70, 1_000_000);
    let options = SearchOptions {
        xpu_steps: vec![1, 4, 16, 64],
        ..SearchOptions::fast()
    };
    let rago = fresh(&schema);
    let feasible = rago.evaluate_all(&options).unwrap().len();
    assert!(
        feasible < rago.schedule_iter(&options).count(),
        "every case II candidate is feasible; the table's error entries go untested"
    );
    assert_parallel_matches_serial(&schema, &options, "case2/fast");
}

#[test]
fn streaming_matches_serial_reference_case4() {
    // Case IV exercises multiple placements and multi-group allocations.
    assert_parallel_matches_serial(
        &presets::case4_rewriter_reranker(LlmSize::B8),
        &SearchOptions::fast(),
        "case4/fast",
    );
}

#[test]
fn streaming_matches_serial_reference_case3_iterative() {
    // Iterative workloads spin the extra batching axis and the decode-stall
    // simulator.
    assert_parallel_matches_serial(
        &presets::case3_iterative(LlmSize::B8, 4),
        &SearchOptions::fast(),
        "case3/fast",
    );
}

/// The paper grid's Case IV frontier, against the serial reference, which
/// scores all of its 1,143,744 candidates one by one: most of a minute in
/// a debug build.
#[test]
#[ignore = "slow proptest tier (run with --ignored)"]
fn streaming_matches_serial_reference_case4_paper_grid() {
    assert_parallel_matches_serial(
        &presets::case4_rewriter_reranker(LlmSize::B8),
        &SearchOptions::paper_default(),
        "case4/paper",
    );
}

#[test]
fn memoization_does_not_change_the_frontier() {
    let options = SearchOptions::fast();
    let schema = presets::case1_hyperscale(LlmSize::B8, 1);
    let unmemoized = fresh(&schema).with_memoization(false);
    assert_eq!(
        fresh(&schema).optimize(&options).unwrap(),
        unmemoized.optimize_serial(&options).unwrap(),
    );
    assert_eq!(unmemoized.profiler().cached_profiles(), 0);
}

#[test]
fn frontiers_by_plan_match_the_serial_reference_grouped_by_plan() {
    let options = SearchOptions::fast();
    for schema in [
        presets::case3_iterative(LlmSize::B8, 4),
        presets::case4_rewriter_reranker(LlmSize::B8),
    ] {
        let mut by_plan: HashMap<(PlacementPlan, ResourceAllocation), Vec<ParetoPoint>> =
            HashMap::new();
        for point in fresh(&schema).evaluate_all(&options).unwrap() {
            by_plan
                .entry((
                    point.schedule.placement.clone(),
                    point.schedule.allocation.clone(),
                ))
                .or_default()
                .push(point);
        }
        let plans = fresh(&schema).frontiers_by_plan(&options).unwrap();
        assert_eq!(plans.len(), by_plan.len(), "{}", schema.name);
        for (placement, allocation, frontier) in plans {
            let points = by_plan
                .remove(&(placement, allocation))
                .expect("a plan the serial reference never evaluated");
            assert_eq!(
                frontier,
                ParetoFrontier::from_points(points),
                "{}",
                schema.name
            );
        }
    }
}

#[test]
fn cold_searches_compute_each_stage_profile_once() {
    let options = SearchOptions::fast();
    for schema in [
        presets::case3_iterative(LlmSize::B8, 4),
        presets::case4_rewriter_reranker(LlmSize::B8),
    ] {
        let cold_stats = |search: fn(&Rago, &SearchOptions)| {
            let rago = fresh(&schema);
            search(&rago, &options);
            let (hits, misses) = rago.profiler().memo_stats();
            (hits, misses, rago.profiler().cached_profiles() as u64)
        };
        let parallel = cold_stats(|rago, options| {
            rago.optimize(options).unwrap();
        });
        let (_, misses, cached) = parallel;
        assert_eq!(misses, cached, "{}", schema.name);
        let again = cold_stats(|rago, options| {
            rago.optimize(options).unwrap();
        });
        assert_eq!(parallel, again, "{}: cold searches disagree", schema.name);
        // Every profile of the fast grid's table is asked for by some
        // candidate, so the search computes the profiles the serial
        // reference does. It looks each pre-decode half up once per
        // pre-decode choice, not once per candidate, so it makes fewer
        // lookups: fewer memo hits.
        let serial = cold_stats(|rago, options| {
            rago.optimize_serial(options).unwrap();
        });
        assert_eq!(
            (parallel.1, parallel.2),
            (serial.1, serial.2),
            "{}",
            schema.name
        );
        assert!(
            parallel.0 < serial.0,
            "{}: {} hits, the serial reference {}",
            schema.name,
            parallel.0,
            serial.0
        );
    }
    // On the paper grid too, a cold Case IV search computes each of its
    // stage profiles once; its decode cut scores about a ninth of the
    // candidates it covers.
    let rago = fresh(&presets::case4_rewriter_reranker(LlmSize::B8));
    let frontier = rago.optimize(&SearchOptions::paper_default()).unwrap();
    let (_, misses) = rago.profiler().memo_stats();
    assert_eq!((misses, rago.profiler().cached_profiles()), (281, 281));
    assert_eq!(
        (frontier.scored_schedules, frontier.evaluated_schedules),
        (127_112, 1_143_744)
    );
}
