//! Property test: the exhaustive search, which scores each pre-decode
//! choice once and drops the decode choices another one beats, returns the
//! frontier of the full enumeration ([`Rago::optimize_serial`]) on random
//! small grids of all four case studies: the same points, performance bit
//! for bit, and the same count of feasible candidates covered. The steps
//! come unsorted and repeated, and the XPU budget often leaves only part of
//! the decode axis beside a pre-decode allocation. The per-plan frontiers
//! of [`Rago::frontiers_by_plan`] cover the same candidates.

use proptest::prelude::*;
use rago_core::{ParetoFrontier, Rago, SearchOptions};
use rago_hardware::{ClusterSpec, ResourceBudget};
use rago_schema::presets::{self, LlmSize};

/// The steps of `picks`, each an index into `menu`: repeats and any order.
fn steps(menu: &[u32], picks: &[usize]) -> Vec<u32> {
    picks.iter().map(|&i| menu[i % menu.len()]).collect()
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
