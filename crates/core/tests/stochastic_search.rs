//! Equivalence and reproducibility suite for the anytime stochastic search.
//!
//! On a grid the budget can exhaust, the stochastic search must recover the
//! exhaustive Pareto frontier **bit-identically** — same points, same
//! schedules, same tie representatives — for any seed (the deterministic
//! fallback scan guarantees full coverage; the identity-key tie-break makes
//! the frontier a function of the candidate *set* alone). And for one seed,
//! two runs must produce bit-identical reports regardless of thread timing.
//! The thread count is the rayon pool's: CI runs this suite both at its
//! default and with `RAYON_NUM_THREADS=1`, against the same pinned counts.

use rago_core::{Rago, SearchOptions, StochasticConfig, StochasticSearchReport};
use rago_hardware::ClusterSpec;
use rago_schema::presets::{self, LlmSize};

fn paper_rago() -> Rago {
    Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        ClusterSpec::paper_default(),
    )
}

/// The paper's case-1 grid (`SearchOptions::paper_default()`) is small
/// enough to exhaust in tests.
fn paper_grid_config(seed: u64) -> StochasticConfig {
    StochasticConfig::default()
        .with_seed(seed)
        .with_budget(8192)
}

/// Everything in a report except the wall-clock fields, so two runs can be
/// compared bit-for-bit on the reproducible surface.
type ReproducibleSurface<'a> = (
    &'a rago_core::ParetoFrontier,
    usize,
    usize,
    usize,
    u128,
    bool,
    Vec<(usize, &'a rago_core::ParetoFrontier)>,
);

fn reproducible_surface(report: &StochasticSearchReport) -> ReproducibleSurface<'_> {
    (
        &report.frontier,
        report.evaluations,
        report.feasible_evaluations,
        report.rounds,
        report.space_size,
        report.exhausted,
        report
            .timeline
            .iter()
            .map(|s| (s.evaluations, &s.frontier))
            .collect(),
    )
}

#[test]
fn recovers_exhaustive_frontier_across_workers_and_seeds() {
    let rago = paper_rago();
    let options = SearchOptions::paper_default();
    let exhaustive = rago.optimize(&options).unwrap();
    let space = rago.schedule_space(&options);
    assert!(
        space.size() <= 8192,
        "budget must cover the grid for the exhaustion guarantee ({})",
        space.size()
    );
    for seed in [1u64, 2, 3] {
        let report = rago
            .optimize_stochastic(&options, &paper_grid_config(seed))
            .unwrap();
        assert!(
            report.exhausted,
            "seed {seed}: grid not exhausted after {} evaluations",
            report.evaluations
        );
        // Bit-identical frontier: same (ttft, qps) points AND the same
        // schedule representing every exact performance tie.
        assert_eq!(
            report.frontier.points, exhaustive.points,
            "seed {seed} diverged from the exhaustive frontier"
        );
    }
}

#[test]
fn same_seed_is_bit_reproducible_for_any_worker_count() {
    let rago = paper_rago();
    let options = SearchOptions::paper_default();
    let run = |seed| {
        rago.optimize_stochastic(&options, &paper_grid_config(seed))
            .unwrap()
    };
    for seed in [1, 42] {
        assert_eq!(
            reproducible_surface(&run(seed)),
            reproducible_surface(&run(seed)),
            "seed {seed} changed its reproducible surface between runs"
        );
    }
    // The seed-42 run itself, as recorded on one thread: neither the thread
    // count nor a change to the search's parallel plumbing may move it.
    let baseline = run(42);
    assert_eq!(baseline.evaluations, 2744);
    assert_eq!(baseline.rounds, 15);
    // Each round's evaluations, as the differences of the timeline's
    // running totals.
    let per_round: Vec<usize> = baseline
        .timeline
        .iter()
        .scan(0, |spent, sample| {
            let round = sample.evaluations - *spent;
            *spent = sample.evaluations;
            Some(round)
        })
        .collect();
    assert_eq!(
        per_round,
        [256, 277, 254, 241, 220, 205, 180, 196, 176, 162, 165, 138, 139, 128, 7]
    );
    assert_eq!(baseline.feasible_evaluations, 2744);
    assert_eq!(baseline.frontier.len(), 4);
}

#[test]
fn truncated_budgets_are_anytime_and_monotone() {
    let rago = paper_rago();
    let options = SearchOptions::paper_default();
    let exhaustive = rago.optimize(&options).unwrap();
    // A budget far below the grid still yields a usable frontier and a
    // monotone anytime timeline.
    let config = StochasticConfig::default().with_seed(9).with_budget(600);
    let report = rago.optimize_stochastic(&options, &config).unwrap();
    assert!(!report.exhausted);
    assert!(
        report.evaluations
            <= 600 + StochasticConfig::BEAM_WIDTH * StochasticConfig::DESCENT_EVALUATIONS
    );
    assert!(!report.frontier.points.is_empty());
    assert!(!report.timeline.is_empty());
    // The last checkpoint is the returned frontier.
    assert_eq!(
        report.timeline.last().unwrap().frontier.points,
        report.frontier.points
    );
    // Hypervolume against a fixed reference never decreases along the
    // timeline: later checkpoints know a superset of the candidates.
    let ttft_ref = 2.0
        * exhaustive
            .points
            .iter()
            .map(|p| p.performance.ttft_s)
            .fold(0.0f64, f64::max);
    let mut last_hv = 0.0;
    for sample in &report.timeline {
        let hv = sample.frontier.hypervolume(ttft_ref, 0.0);
        assert!(
            hv >= last_hv - 1e-12,
            "hypervolume regressed along the timeline: {hv} < {last_hv}"
        );
        last_hv = hv;
    }
    // And the exhausted run's hypervolume is the ceiling.
    assert!(last_hv <= exhaustive.hypervolume(ttft_ref, 0.0) + 1e-12);
}
