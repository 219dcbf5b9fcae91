//! Property test: the exhaustive search, which scores each pre-decode
//! choice once and drops the decode choices another one beats, returns the
//! frontier of the full enumeration ([`Rago::optimize_serial`]) on random
//! small grids of all four case studies: the same points, performance bit
//! for bit, and the same count of feasible candidates covered. The steps
//! come unsorted and repeated, and the XPU budget often leaves only part of
//! the decode axis beside a pre-decode allocation. The per-plan frontiers
//! of [`Rago::frontiers_by_plan`] cover the same candidates, and
//! [`Rago::schedule_iter`] yields a plain nested-loop cross product of the
//! axes, filtered by the budget.

use proptest::prelude::*;
use rago_core::{
    BatchingPolicy, ParetoFrontier, PlacementPlan, Rago, ResourceAllocation, Schedule,
    SearchOptions,
};
use rago_hardware::{ClusterSpec, ResourceBudget};
use rago_schema::presets::{self, LlmSize};

/// The steps of `picks`, each an index into `menu`: repeats and any order.
fn steps(menu: &[u32], picks: &[usize]) -> Vec<u32> {
    picks.iter().map(|&i| menu[i % menu.len()]).collect()
}

/// The steps of `steps` without repeats, in first-seen order.
fn distinct(steps: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    for &step in steps {
        if !out.contains(&step) {
            out.push(step);
        }
    }
    out
}

/// Every candidate of `options` within `rago`'s budget, by nested loops
/// over the distinct steps: placements × group XPUs (first group fastest),
/// then servers, pre-decode batch, decode XPUs, decode batch and
/// iterative batch. The menus hold no zero step.
fn cross_product(rago: &Rago, options: &SearchOptions) -> Vec<Schedule> {
    let schema = rago.profiler().schema();
    let budget = rago.budget();
    let xpus: Vec<u32> = distinct(&options.xpu_steps)
        .into_iter()
        .filter(|&x| x <= budget.max_xpus)
        .collect();
    let servers: Vec<u32> = distinct(&options.server_steps)
        .into_iter()
        .filter(|&s| s <= budget.max_cpu_servers)
        .collect();
    let iterative: Vec<Option<u32>> = if schema.is_iterative() {
        distinct(&options.iterative_batch_steps)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        vec![None]
    };
    let mut out = Vec::new();
    for placement in PlacementPlan::enumerate(schema) {
        let mut settings = vec![Vec::new()];
        for _ in 0..placement.num_groups() {
            settings = xpus
                .iter()
                .flat_map(|&x| settings.iter().map(move |s| [s.as_slice(), &[x]].concat()))
                .collect();
        }
        for group_xpus in settings {
            for &retrieval_servers in &servers {
                for predecode in distinct(&options.predecode_batch_steps) {
                    for &decode_xpus in &xpus {
                        for decode in distinct(&options.decode_batch_steps) {
                            for &iterative_batch in &iterative {
                                let allocation = ResourceAllocation {
                                    group_xpus: group_xpus.clone(),
                                    decode_xpus,
                                    retrieval_servers,
                                };
                                if allocation.total_xpus() > budget.max_xpus {
                                    continue;
                                }
                                let mut batching = BatchingPolicy::new(predecode, decode);
                                batching.iterative_batch = iterative_batch;
                                out.push(Schedule {
                                    placement: placement.clone(),
                                    allocation,
                                    batching,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Every point's schedule and performance, the floats by bit pattern.
fn bits(frontier: &ParetoFrontier) -> Vec<(String, [u64; 4], u32)> {
    frontier
        .iter()
        .map(|p| {
            let perf = &p.performance;
            (
                p.schedule.identity_key(),
                [
                    perf.ttft_s.to_bits(),
                    perf.tpot_s.to_bits(),
                    perf.qps.to_bits(),
                    perf.qps_per_chip.to_bits(),
                ],
                perf.total_xpus,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_decode_cut_search_equals_the_full_enumeration(
        case in 0usize..4,
        xpus in prop::collection::vec(0usize..7, 1..5),
        servers in prop::collection::vec(0usize..3, 1..3),
        predecode in prop::collection::vec(0usize..8, 1..4),
        decode in prop::collection::vec(0usize..5, 1..4),
        iterative in prop::collection::vec(0usize..3, 1..3),
        max_xpus in 8u32..160,
    ) {
        let schema = match case {
            0 => presets::case1_hyperscale(LlmSize::B8, 1),
            1 => presets::case2_long_context(LlmSize::B70, 1_000_000),
            2 => presets::case3_iterative(LlmSize::B8, 4),
            _ => presets::case4_rewriter_reranker(LlmSize::B8),
        };
        let options = SearchOptions {
            xpu_steps: steps(&[1, 2, 4, 8, 16, 32, 64], &xpus),
            server_steps: steps(&[16, 32, 64], &servers),
            predecode_batch_steps: steps(&[1, 2, 4, 8, 16, 32, 64, 128], &predecode),
            decode_batch_steps: steps(&[16, 64, 128, 256, 1024], &decode),
            iterative_batch_steps: steps(&[1, 4, 16], &iterative),
            placements: None,
        };
        let rago = || {
            Rago::new(schema.clone(), ClusterSpec::paper_default())
                .with_budget(ResourceBudget::new(max_xpus, 64))
        };
        let streamed: Vec<Schedule> = rago().schedule_iter(&options).collect();
        prop_assert_eq!(streamed, cross_product(&rago(), &options));
        let serial = rago().optimize_serial(&options);
        let search = rago().optimize(&options);
        match (&search, &serial) {
            (Ok(search), Ok(serial)) => {
                prop_assert_eq!(bits(search), bits(serial));
                prop_assert_eq!(search, serial);
                prop_assert_eq!(search.evaluated_schedules, serial.evaluated_schedules);
                prop_assert!(search.scored_schedules <= search.evaluated_schedules);
                let plans = rago().frontiers_by_plan(&options).unwrap();
                let covered: usize = plans.iter().map(|(_, _, f)| f.evaluated_schedules).sum();
                prop_assert_eq!(covered, serial.evaluated_schedules);
            }
            _ => prop_assert_eq!(search.is_err(), serial.is_err()),
        }
    }
}
