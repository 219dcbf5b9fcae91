//! Pareto-frontier extraction over (TTFT, QPS/chip).
//!
//! Two construction paths produce identical frontiers:
//!
//! * [`ParetoFrontier::from_points`] — the batch path: sort every evaluated
//!   point, then sweep. Simple, but requires holding all points in memory.
//! * [`ParetoAccumulator`] — the streaming path: points are folded in one at
//!   a time with online dominance pruning, so memory stays proportional to
//!   the frontier itself. Accumulators merge associatively, which is what
//!   lets the optimizer fold per-thread frontiers and combine them at the
//!   end.
//!
//! Ties (two schedules with bit-identical TTFT *and* QPS/chip) are broken by
//! the schedule's own identity ([`Schedule::identity_key`]) — the
//! lexicographically smallest schedule wins. Both paths compare the keys
//! through one reusable pair of buffers (`IdentityOrder`), never a `String`
//! per comparison. The result therefore depends only on the *set* of
//! evaluated points: not on thread interleaving, not on insertion order, and
//! not on any enumeration index.
//!
//! The search offers the accumulator a borrowed schedule
//! (`ParetoAccumulator::offer`); the accumulator clones it only when the
//! point survives, so a candidate beaten on arrival costs no allocation.

use crate::metrics::RagPerformance;
use crate::schedule::{IdentityOrder, Schedule};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;

/// One point of the performance Pareto frontier: a schedule and the
/// performance it achieves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// The schedule (placement, allocation, batching) achieving this point.
    pub schedule: Schedule,
    /// The end-to-end performance of that schedule.
    pub performance: RagPerformance,
}

/// The Pareto frontier of evaluated schedules, sorted by increasing TTFT.
///
/// Two frontiers are equal when their points and their
/// `evaluated_schedules` are: `scored_schedules` counts the work a search
/// spent, not what it found, so a search that covers candidates without
/// scoring them still equals the full enumeration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParetoFrontier {
    /// Non-dominated points, sorted by increasing TTFT (and therefore
    /// increasing QPS/chip).
    pub points: Vec<ParetoPoint>,
    /// Total number of feasible schedules the frontier covers: every one is
    /// on it or beaten by a schedule that was scored.
    pub evaluated_schedules: usize,
    /// How many of them were scored; the rest were beaten, by construction,
    /// by a scored schedule of the same search. At most
    /// `evaluated_schedules`.
    pub scored_schedules: usize,
}

impl PartialEq for ParetoFrontier {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points && self.evaluated_schedules == other.evaluated_schedules
    }
}

impl ParetoFrontier {
    /// Builds the frontier from an arbitrary collection of evaluated points.
    pub fn from_points(mut candidates: Vec<ParetoPoint>) -> Self {
        let evaluated = candidates.len();
        // Sort by TTFT ascending, then QPS/chip descending, breaking exact
        // performance ties by schedule identity so a single sweep keeps
        // exactly the non-dominated points and the survivor of a tie does
        // not depend on input order.
        let mut identity = IdentityOrder::default();
        candidates.sort_by(|a, b| {
            a.performance
                .ttft_s
                .total_cmp(&b.performance.ttft_s)
                .then(
                    b.performance
                        .qps_per_chip
                        .total_cmp(&a.performance.qps_per_chip),
                )
                .then_with(|| identity.cmp(&a.schedule, &b.schedule))
        });
        let mut points: Vec<ParetoPoint> = Vec::new();
        let mut best_qps = f64::NEG_INFINITY;
        for cand in candidates {
            if cand.performance.qps_per_chip > best_qps {
                best_qps = cand.performance.qps_per_chip;
                points.push(cand);
            }
        }
        Self {
            points,
            evaluated_schedules: evaluated,
            scored_schedules: evaluated,
        }
    }

    /// The point with the highest QPS/chip (throughput-optimal schedule).
    pub fn max_qps_per_chip(&self) -> Option<&ParetoPoint> {
        self.points.last()
    }

    /// The point with the lowest TTFT (latency-optimal schedule).
    pub fn min_ttft(&self) -> Option<&ParetoPoint> {
        self.points.first()
    }

    /// Number of points on the frontier.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the frontier points in increasing-TTFT order.
    pub fn iter(&self) -> std::slice::Iter<'_, ParetoPoint> {
        self.points.iter()
    }
}

/// Streaming Pareto-frontier builder with online dominance pruning.
///
/// Feed evaluated points in with [`ParetoAccumulator::push`]; only the
/// current non-dominated set is retained (a dominated point is dropped on
/// arrival, and an arriving point evicts every point it dominates).
/// Accumulators built on different threads over disjoint slices of the
/// candidate stream [`merge`](ParetoAccumulator::merge) into the same
/// frontier [`ParetoFrontier::from_points`] would produce over the union —
/// including `evaluated_schedules` — regardless of how the stream was split.
#[derive(Debug, Clone, Default)]
pub struct ParetoAccumulator {
    /// Non-dominated points, sorted by strictly increasing TTFT and
    /// (equivalently) strictly increasing QPS/chip.
    entries: Vec<ParetoPoint>,
    /// Number of points pushed or covered (the `evaluated_schedules` of the
    /// result).
    evaluated: usize,
    /// Number of points pushed (the `scored_schedules` of the result).
    scored: usize,
    /// The buffers exact ties compare identity keys in.
    identity: IdentityOrder,
}

impl ParetoAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of non-dominated points currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no point has survived pruning (true before any push).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of points pushed or covered so far (across merges).
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// The non-dominated points held so far, by increasing TTFT.
    pub(crate) fn points(&self) -> &[ParetoPoint] {
        &self.entries
    }

    /// Counts `candidates` feasible schedules the caller covered without
    /// pushing them, each beaten by a point it did push: they count towards
    /// `evaluated_schedules` but not `scored_schedules`.
    pub(crate) fn cover(&mut self, candidates: usize) {
        self.evaluated += candidates;
    }

    /// Folds one evaluated candidate into the frontier. Exact performance
    /// ties are resolved by [`Schedule::identity_key`], so the outcome is
    /// independent of the order points arrive in.
    pub fn push(&mut self, point: ParetoPoint) {
        self.evaluated += 1;
        self.scored += 1;
        self.insert(Cow::Owned(point.schedule), point.performance);
    }

    /// [`Self::push`] of a borrowed schedule, cloned only if the point
    /// survives.
    pub(crate) fn offer(&mut self, schedule: &Schedule, performance: RagPerformance) {
        self.evaluated += 1;
        self.scored += 1;
        self.insert(Cow::Borrowed(schedule), performance);
    }

    /// Merges two accumulators (associative and — thanks to the identity
    /// tie-break — order-insensitive).
    pub fn merge(mut self, other: Self) -> Self {
        self.evaluated += other.evaluated;
        self.scored += other.scored;
        for point in other.entries {
            self.insert(Cow::Owned(point.schedule), point.performance);
        }
        self
    }

    /// Finalizes into a [`ParetoFrontier`].
    pub fn into_frontier(self) -> ParetoFrontier {
        ParetoFrontier {
            points: self.entries,
            evaluated_schedules: self.evaluated,
            scored_schedules: self.scored,
        }
    }

    /// The one insert routine behind [`Self::push`], [`Self::offer`] and
    /// [`Self::merge`]: a borrowed schedule is cloned only when the point
    /// is kept.
    fn insert(&mut self, schedule: Cow<'_, Schedule>, performance: RagPerformance) {
        let ttft = performance.ttft_s;
        let qps = performance.qps_per_chip;
        // First entry whose TTFT is not below the candidate's.
        let pos = self
            .entries
            .partition_point(|e| e.performance.ttft_s.total_cmp(&ttft) == Ordering::Less);

        // A strictly-faster predecessor with at-least-equal QPS/chip
        // dominates the candidate.
        if pos > 0
            && self.entries[pos - 1]
                .performance
                .qps_per_chip
                .total_cmp(&qps)
                != Ordering::Less
        {
            return;
        }

        // An entry with exactly the candidate's TTFT: resolve by QPS/chip,
        // then by schedule identity (keys are written only for exact ties).
        if let Some(existing) = self.entries.get_mut(pos) {
            if existing.performance.ttft_s.total_cmp(&ttft) == Ordering::Equal {
                match existing.performance.qps_per_chip.total_cmp(&qps) {
                    Ordering::Greater => return,
                    Ordering::Equal => {
                        if self.identity.cmp(&schedule, &existing.schedule) == Ordering::Less {
                            *existing = ParetoPoint {
                                schedule: schedule.into_owned(),
                                performance,
                            };
                        }
                        return;
                    }
                    Ordering::Less => {}
                }
            }
        }

        // The candidate survives: evict the contiguous run of now-dominated
        // entries (TTFT at or above the candidate's, QPS/chip at or below).
        let end = pos
            + self.entries[pos..].partition_point(|e| {
                e.performance.qps_per_chip.total_cmp(&qps) != Ordering::Greater
            });
        let point = ParetoPoint {
            schedule: schedule.into_owned(),
            performance,
        };
        self.entries.splice(pos..end, std::iter::once(point));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn point(ttft: f64, qpc: f64) -> ParetoPoint {
        ParetoPoint {
            schedule: Schedule::test_dummy(),
            performance: RagPerformance {
                ttft_s: ttft,
                tpot_s: 0.01,
                qps: qpc * 10.0,
                qps_per_chip: qpc,
                total_xpus: 10,
                retrieval_servers: 4,
            },
        }
    }

    /// Like [`point`], but with a distinguishable schedule so identity
    /// tie-breaks have something to choose between.
    fn point_on(decode_xpus: u32, ttft: f64, qpc: f64) -> ParetoPoint {
        let mut p = point(ttft, qpc);
        p.schedule.allocation.decode_xpus = decode_xpus;
        p
    }

    #[test]
    fn frontier_keeps_only_non_dominated_points() {
        let frontier = ParetoFrontier::from_points(vec![
            point(0.1, 1.0),
            point(0.2, 2.0),
            point(0.15, 0.5), // dominated by (0.1, 1.0)
            point(0.3, 1.5),  // dominated by (0.2, 2.0)
            point(0.4, 3.0),
        ]);
        assert_eq!(frontier.len(), 3);
        assert_eq!(frontier.evaluated_schedules, 5);
        assert!((frontier.min_ttft().unwrap().performance.ttft_s - 0.1).abs() < 1e-12);
        assert!(
            (frontier
                .max_qps_per_chip()
                .unwrap()
                .performance
                .qps_per_chip
                - 3.0)
                .abs()
                < 1e-12
        );
        // Sorted by increasing TTFT and increasing QPS/chip.
        for w in frontier.points.windows(2) {
            assert!(w[0].performance.ttft_s <= w[1].performance.ttft_s);
            assert!(w[0].performance.qps_per_chip <= w[1].performance.qps_per_chip);
        }
    }

    #[test]
    fn duplicate_points_collapse() {
        let frontier = ParetoFrontier::from_points(vec![point(0.1, 1.0), point(0.1, 1.0)]);
        assert_eq!(frontier.len(), 1);
    }

    #[test]
    fn empty_input_gives_empty_frontier() {
        let frontier = ParetoFrontier::from_points(vec![]);
        assert!(frontier.is_empty());
        assert!(frontier.min_ttft().is_none());
        assert!(frontier.max_qps_per_chip().is_none());
        assert_eq!(frontier.iter().count(), 0);
    }

    fn accumulate(points: &[ParetoPoint]) -> ParetoFrontier {
        let mut acc = ParetoAccumulator::new();
        for p in points {
            acc.push(p.clone());
        }
        acc.into_frontier()
    }

    #[test]
    fn accumulator_matches_batch_extraction() {
        let points = vec![
            point(0.1, 1.0),
            point(0.2, 2.0),
            point(0.15, 0.5),
            point(0.3, 1.5),
            point(0.4, 3.0),
            point(0.1, 1.0), // exact duplicate
            point(0.4, 3.0),
        ];
        let batch = ParetoFrontier::from_points(points.clone());
        let streamed = accumulate(&points);
        assert_eq!(batch, streamed);
        assert_eq!(streamed.evaluated_schedules, points.len());
    }

    #[test]
    fn accumulator_merge_is_split_invariant() {
        let points: Vec<ParetoPoint> = (0..40)
            .map(|i| {
                point_on(
                    i + 1,
                    0.05 * f64::from((i * 7) % 13),
                    0.3 * f64::from((i * 11) % 17),
                )
            })
            .collect();
        let whole = accumulate(&points);
        for split in [1usize, 7, 20, 39] {
            let mut left = ParetoAccumulator::new();
            let mut right = ParetoAccumulator::new();
            for (i, p) in points.iter().enumerate() {
                if i < split {
                    left.push(p.clone());
                } else {
                    right.push(p.clone());
                }
            }
            // Merge in both orders: the identity tie-break makes the result
            // independent of which thread's accumulator comes first.
            let ab = left.clone().merge(right.clone()).into_frontier();
            let ba = right.merge(left).into_frontier();
            assert_eq!(whole, ab, "split at {split}");
            assert_eq!(whole, ba, "split at {split} (reversed)");
        }
    }

    #[test]
    fn accumulator_prunes_dominated_points_online() {
        let mut acc = ParetoAccumulator::new();
        acc.push(point(0.2, 1.0));
        acc.push(point(0.3, 0.5)); // dominated on arrival
        assert_eq!(acc.len(), 1);
        acc.push(point(0.1, 2.0)); // dominates the survivor
        assert_eq!(acc.len(), 1);
        assert_eq!(acc.evaluated(), 3);
        let frontier = acc.into_frontier();
        assert_eq!(frontier.len(), 1);
        assert!((frontier.points[0].performance.qps_per_chip - 2.0).abs() < 1e-12);
        assert_eq!(frontier.evaluated_schedules, 3);
    }

    /// The frontier, `evaluated_schedules` and `scored_schedules` of an
    /// accumulator.
    fn parts(acc: ParetoAccumulator) -> (Vec<ParetoPoint>, usize, usize) {
        let frontier = acc.into_frontier();
        (
            frontier.points,
            frontier.evaluated_schedules,
            frontier.scored_schedules,
        )
    }

    fn pushed(points: &[ParetoPoint]) -> ParetoAccumulator {
        let mut acc = ParetoAccumulator::new();
        for p in points {
            acc.push(p.clone());
        }
        acc
    }

    fn offered(points: &[ParetoPoint]) -> ParetoAccumulator {
        let mut acc = ParetoAccumulator::new();
        for p in points {
            acc.offer(&p.schedule, p.performance);
        }
        acc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On a coarse grid that makes exact ties common, with decode XPUs
        /// of one to three digits (repeats make identical schedules too).
        #[test]
        fn offered_points_accumulate_as_pushed_clones(
            grid in prop::collection::vec((0u32..6, 0u32..6, 0u32..40), 0..80),
            split_at in 0usize..80,
            cover in 0usize..5,
            shuffle_seed in any::<u64>(),
        ) {
            let points: Vec<ParetoPoint> = grid
                .iter()
                .map(|&(t, q, id)| point_on(1 + 3 * id, 0.01 * f64::from(t), 0.5 * f64::from(q)))
                .collect();
            let mut shuffled = points.clone();
            shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
            for stream in [&points, &shuffled] {
                let whole = parts(pushed(stream));
                prop_assert_eq!(&parts(offered(stream)), &whole);
                let (left, right) = stream.split_at(split_at.min(stream.len()));
                prop_assert_eq!(&parts(offered(left).merge(offered(right))), &whole);
                prop_assert_eq!(&parts(offered(right).merge(pushed(left))), &whole);
                prop_assert_eq!(&parts(pushed(left).merge(offered(right))), &whole);
                let (mut a, mut b) = (pushed(stream), offered(stream));
                a.cover(cover);
                b.cover(cover);
                prop_assert_eq!(parts(a), parts(b));
            }
        }
    }

    #[test]
    fn tie_break_is_insertion_order_independent() {
        // Two distinct schedules with bit-identical performance: whichever
        // order they arrive in — and whichever path builds the frontier —
        // the schedule with the smaller identity key survives.
        let a = point_on(2, 0.1, 1.0);
        let b = point_on(16, 0.1, 1.0);
        assert_ne!(a.schedule.identity_key(), b.schedule.identity_key());
        let winner = if a.schedule.identity_key() < b.schedule.identity_key() {
            &a.schedule
        } else {
            &b.schedule
        };

        let streamed_ab = accumulate(&[a.clone(), b.clone()]);
        let streamed_ba = accumulate(&[b.clone(), a.clone()]);
        let batch_ab = ParetoFrontier::from_points(vec![a.clone(), b.clone()]);
        let batch_ba = ParetoFrontier::from_points(vec![b.clone(), a.clone()]);
        for frontier in [&streamed_ab, &streamed_ba, &batch_ab, &batch_ba] {
            assert_eq!(frontier.len(), 1);
            assert_eq!(&frontier.points[0].schedule, winner);
        }
    }
}
