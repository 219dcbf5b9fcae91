//! Property test: the incremental frontier fold ([`ParetoAccumulator`])
//! equals the batch extraction ([`ParetoFrontier::from_points`]) on random
//! point sets — including exact performance ties between *distinct*
//! schedules — for any split of the stream across accumulators, any merge
//! order, and any shuffle of the insertion order. This pins the
//! schedule-identity tie-break: the old enumeration-index tie-break made the
//! surviving schedule of a tie depend on where the point sat in the stream.

use proptest::prelude::*;
use rago_core::{ParetoAccumulator, ParetoFrontier, ParetoPoint, RagPerformance, Schedule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn point(id: u32, ttft_grid: u32, qps_grid: u32) -> ParetoPoint {
    // A coarse grid makes exact ties common, which is precisely the case the
    // identity tie-break must get right. Values stay NaN-free and finite.
    // Each point carries a distinct schedule (distinct `identity_key`) so a
    // tie actually has two different schedules to choose between.
    let ttft_s = 0.01 * f64::from(ttft_grid);
    let qps_per_chip = 0.5 * f64::from(qps_grid);
    let mut schedule = Schedule::test_dummy();
    schedule.allocation.decode_xpus = id + 1;
    ParetoPoint {
        schedule,
        performance: RagPerformance {
            ttft_s,
            tpot_s: 0.01,
            qps: qps_per_chip * 64.0,
            qps_per_chip,
            total_xpus: 64,
            retrieval_servers: 16,
        },
    }
}

fn accumulate(points: &[ParetoPoint]) -> ParetoFrontier {
    let mut acc = ParetoAccumulator::new();
    for p in points {
        acc.push(p.clone());
    }
    acc.into_frontier()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_fold_equals_batch_extraction_under_shuffle(
        grid in prop::collection::vec((0u32..12, 0u32..12), 0..120),
        split_at in 0usize..120,
        merge_reversed in any::<bool>(),
        shuffle_seed in any::<u64>(),
    ) {
        let points: Vec<ParetoPoint> = grid
            .iter()
            .enumerate()
            .map(|(i, &(t, q))| point(i as u32, t, q))
            .collect();
        let batch = ParetoFrontier::from_points(points.clone());

        // Single accumulator, stream order.
        let whole = accumulate(&points);
        prop_assert_eq!(&whole, &batch);
        prop_assert_eq!(whole.evaluated_schedules, points.len());

        // The same points in a shuffled order — a sampler delivers points in
        // whatever order it finds them, and the frontier (including which
        // schedule survives an exact tie) must not change.
        let mut shuffled = points.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        prop_assert_eq!(&accumulate(&shuffled), &batch);
        prop_assert_eq!(&ParetoFrontier::from_points(shuffled.clone()), &batch);

        // Two accumulators over an arbitrary split of the shuffled stream,
        // merged in either order — models the per-thread fold + reduce.
        let split = split_at.min(shuffled.len());
        let mut left = ParetoAccumulator::new();
        let mut right = ParetoAccumulator::new();
        for (i, p) in shuffled.iter().enumerate() {
            if i < split {
                left.push(p.clone());
            } else {
                right.push(p.clone());
            }
        }
        let merged = if merge_reversed {
            right.merge(left)
        } else {
            left.merge(right)
        };
        prop_assert_eq!(merged.into_frontier(), batch);
    }

    #[test]
    fn frontier_points_are_strictly_improving(
        grid in prop::collection::vec((0u32..40, 0u32..40), 1..150),
    ) {
        let points: Vec<ParetoPoint> = grid
            .iter()
            .enumerate()
            .map(|(i, &(t, q))| point(i as u32, t, q))
            .collect();
        let frontier = accumulate(&points);
        prop_assert!(!frontier.is_empty());
        for w in frontier.points.windows(2) {
            // Strictly increasing in both objectives: any tie would mean one
            // point dominates (or duplicates) the other.
            prop_assert!(w[0].performance.ttft_s < w[1].performance.ttft_s);
            prop_assert!(w[0].performance.qps_per_chip < w[1].performance.qps_per_chip);
        }
        // No retained point is dominated by any evaluated point.
        for kept in frontier.iter() {
            for p in &points {
                prop_assert!(!p.performance.dominates(&kept.performance));
            }
        }
    }
}
