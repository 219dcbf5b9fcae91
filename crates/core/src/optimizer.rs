//! The RAGO optimizer: exhaustive search over placement × allocation ×
//! batching (Algorithm 1).
//!
//! # Search space and complexity
//!
//! For a workload with `k` collocatable pre-decode stages the search covers
//!
//! ```text
//! Σ_placements |xpu_steps|^groups(p)            (per-group allocations)
//!   × |xpu_steps|                               (decode allocation)
//!   × |server_steps|                            (retrieval allocation)
//!   × |predecode_batch| × |decode_batch|        (batching policy)
//!   × |iterative_batch|                         (iterative workloads only)
//! ```
//!
//! candidates — `Σ_p |xpu_steps|^groups(p)` is `Σ_{g=1..k} C(k-1, g-1) ·
//! |xpu_steps|^g` over the `2^(k-1)` contiguous-partition placements. At the
//! paper's grid ([`SearchOptions::paper_default`]) this reaches millions of
//! schedules for Case IV. The search covers every one of them but evaluates
//! far fewer: a schedule is a *pre-decode choice* (placement, group XPUs,
//! retrieval servers, pre-decode batch) beside a *decode choice* (decode
//! XPUs, decode batch, iterative batch), and without iterative retrievals
//! the two sides meet only through their rates and their chips. So the
//! search evaluates the pre-decode half of each of the
//!
//! ```text
//! Σ_placements |xpu_steps|^groups(p) × |server_steps| × |predecode_batch|
//! ```
//!
//! pre-decode choices once, the decode half of each of the
//! `|xpu_steps| × |decode_batch|` decode choices once, and scores only the
//! pairs whose decode choice no other decode choice beats. Nor does it
//! touch memory in proportion to the grid:
//!
//! * **Streaming** — [`Rago::schedule_iter`] walks the grid one way
//!   ([`ScheduleIter`]), building each candidate on demand; nothing is
//!   materialized. The stream is the in-order concatenation of one work
//!   unit per pre-decode allocation (placement × group XPUs), each yielding
//!   its pre-decode choices (servers × pre-decode batch) beside every
//!   decode setting that fits the XPU budget.
//!
//! [`Rago::optimize`] and [`Rago::frontiers_by_plan`] then run Algorithm 1
//! in three phases, the last two repeated for iterative workloads until
//! the frontier they find is exact:
//!
//! 1. **Profile once.** Candidate evaluation decomposes into per-stage
//!    profiles keyed by `(stage, resources, batch)`. The grid is a cross
//!    product, so thousands of schedules share each profile. Before any
//!    candidate is scored, every stage is profiled serially at each of its
//!    resource steps and at each batch of its own axis, through
//!    [`StageProfiler::profile`], into an immutable table. Each profile is
//!    computed exactly once, and the profiler's memo ends up warm.
//! 2. **Score each pre-decode choice once, lock-free.** The decode choices
//!    are listed once, from the table. Without iterative retrievals each
//!    one's decode half is evaluated there, and [`Rago::optimize`] drops
//!    every choice that another one beats, which can never reach the
//!    frontier. The pre-decode units are bridged across rayon worker
//!    threads. A worker evaluates each pre-decode choice's half once
//!    against the table, with no lock and no shared counter per lookup,
//!    and combines it with each listed decode choice that fits the XPU
//!    budget; Case III evaluates the decode half, stall included, per
//!    candidate. It folds the points into a thread-local incremental
//!    [`ParetoAccumulator`] (online dominance pruning). The per-thread
//!    frontiers merge at the end, and the workers' lookup tallies are added
//!    to the profiler's memo hits once. Peak candidate storage is
//!    O(frontier + threads), never O(grid).
//! 3. **Refine the optimistic points (iterative workloads).** Case III
//!    scores each candidate with a decode-stall simulation, and only a
//!    few of the distinct inputs its candidates reach sit behind a
//!    frontier point. So phase 2 scores an input not yet in the memo of
//!    [`StageProfiler::decode_stall`] optimistically, with the lower bound
//!    [`IterativeDecodeParams::min_total_time_s`] on its total time: the
//!    candidate gets its true TTFT and a QPS/chip no lower than its true
//!    one. The inputs behind the kept points that were scored this way are
//!    then simulated, in parallel, and phase 2 runs again. When no kept
//!    point is optimistic the kept points are the true frontier, since
//!    every other candidate's optimistic point, at least as good as its
//!    true one, lost to them. The pre-decode batch is not a stall input, so
//!    all `|predecode_batch|` steps share one simulation (see the profiler
//!    module docs). On the `bench_e2e` paper grid the search simulates 7 of
//!    the 1,220 inputs, in 4 rounds.
//!
//! With memoization disabled ([`Rago::with_memoization`]) the table stays
//! empty, every lookup goes straight to the profiler, and every feasible
//! Case III candidate simulates its own stall in one round.
//!
//! The parallel path is frontier-identical to the serial reference
//! ([`Rago::optimize_serial`]), which evaluates every candidate in full,
//! and covers the same `evaluated_schedules`. Both evaluate through the
//! same two halves and the same combining step, so a candidate's
//! performance is the same float operations in the same order. Performance
//! ties between schedules are broken by the schedule's identity key
//! ([`crate::Schedule::identity_key`]), making the result independent of
//! thread scheduling and of the order candidates arrive in. This is covered
//! by the `streaming_matches_serial_reference` tests in
//! `tests/determinism.rs` and by the property in `tests/proptest_search.rs`.

use crate::error::RagoError;
use crate::pareto::{ParetoAccumulator, ParetoFrontier, ParetoPoint};
use crate::placement::PlacementPlan;
use crate::profiler::{CostSource, Lookups, ProfileTable, StageProfiler};
use crate::schedule::{DecodeRates, ResourceAllocation, Schedule};
use crate::search::{DecodeSetting, PredecodeAllocation, ScheduleIter, ScheduleSpace};
use rago_hardware::{power_of_two_steps, ClusterSpec, ResourceBudget};
use rago_schema::RagSchema;
#[cfg(doc)]
use rago_serving_sim::iterative::IterativeDecodeParams;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Granularity of the schedule search. The paper searches powers of two for
/// accelerator counts and batch sizes; these options let callers trade search
/// time for schedule quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOptions {
    /// Candidate XPU counts per accelerator group (pre-decode groups and the
    /// decode partition).
    pub xpu_steps: Vec<u32>,
    /// Candidate CPU-server counts for retrieval. When empty, the smallest
    /// power-of-two count that holds the database (and every power of two up
    /// to the budget) is used.
    pub server_steps: Vec<u32>,
    /// Candidate batch sizes for the stages before decoding (shared
    /// micro-batch, including retrieval).
    pub predecode_batch_steps: Vec<u32>,
    /// Candidate batch sizes for the decode stage (continuous batching).
    pub decode_batch_steps: Vec<u32>,
    /// Candidate batch sizes for decoder-initiated iterative retrievals;
    /// only used for iterative workloads.
    pub iterative_batch_steps: Vec<u32>,
    /// Restrict the search to these placements (all legal placements when
    /// `None`).
    pub placements: Option<Vec<PlacementPlan>>,
}

impl SearchOptions {
    /// A coarse grid suitable for unit tests and quick exploration.
    pub fn fast() -> Self {
        Self {
            xpu_steps: vec![4, 16, 64],
            server_steps: Vec::new(),
            predecode_batch_steps: vec![1, 8, 32],
            decode_batch_steps: vec![64, 256],
            iterative_batch_steps: vec![4, 16],
            placements: None,
        }
    }

    /// The paper's default powers-of-two grid (heavier; intended for release
    /// builds and the benchmark harness).
    pub fn paper_default() -> Self {
        Self {
            xpu_steps: vec![1, 2, 4, 8, 16, 32, 64],
            server_steps: Vec::new(),
            predecode_batch_steps: vec![1, 2, 4, 8, 16, 32, 64, 128],
            decode_batch_steps: vec![16, 32, 64, 128, 256, 512, 1024],
            iterative_batch_steps: vec![1, 2, 4, 8, 16, 32, 64],
            placements: None,
        }
    }

    /// Restricts the search to the given placements.
    pub fn with_placements(mut self, placements: Vec<PlacementPlan>) -> Self {
        self.placements = Some(placements);
        self
    }

    /// Checks that every axis a search of `schema` spins holds a step.
    /// Zero steps are dropped as unusable, so an axis that is empty or
    /// holds only zeros leaves the search nothing to enumerate. The
    /// iterative batch axis counts only for iterative workloads, and an
    /// empty `server_steps` asks for the default server steps. Steps that
    /// are all over the budget are not malformed: the search then finds
    /// no feasible schedule.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] naming the first such axis, or
    /// naming `placements` when it restricts the search to no placement.
    pub fn validate(&self, schema: &RagSchema) -> Result<(), RagoError> {
        let mut axes = vec![
            ("xpu_steps", &self.xpu_steps),
            ("predecode_batch_steps", &self.predecode_batch_steps),
            ("decode_batch_steps", &self.decode_batch_steps),
        ];
        if !self.server_steps.is_empty() {
            axes.push(("server_steps", &self.server_steps));
        }
        if schema.is_iterative() {
            axes.push(("iterative_batch_steps", &self.iterative_batch_steps));
        }
        if let Some((axis, steps)) = axes
            .into_iter()
            .find(|(_, steps)| steps.iter().all(|&step| step == 0))
        {
            return Err(RagoError::InvalidConfig {
                reason: format!("search axis `{axis}` has no step above zero: {steps:?}"),
            });
        }
        if self.placements.as_ref().is_some_and(Vec::is_empty) {
            return Err(RagoError::InvalidConfig {
                reason: "search option `placements` lists no placement".into(),
            });
        }
        Ok(())
    }
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions::fast()
    }
}

/// The RAGO optimizer (Figure 2): holds the workload, the cluster, and the
/// per-stage profiler, and searches the scheduling space for the performance
/// Pareto frontier.
///
/// Every evaluation, planning and ranking question is a method of it. This
/// module holds construction and the schedule search; the other methods
/// live with their layers: dynamic evaluation and goodput ranking in
/// [`crate::dynamic`], capacity planning and cost ranking in
/// [`crate::capacity`], cached evaluation and planning in [`crate::cached`],
/// disaggregated evaluation and ranking in [`crate::disagg`], and faulted
/// evaluation in [`crate::faulted`].
#[derive(Debug, Clone)]
pub struct Rago {
    profiler: StageProfiler,
    budget: ResourceBudget,
}

impl Rago {
    /// Creates an optimizer for `schema` on `cluster`, using the cluster's
    /// full capacity as the resource budget.
    pub fn new(schema: RagSchema, cluster: ClusterSpec) -> Self {
        let budget = cluster.budget();
        Self {
            profiler: StageProfiler::new(schema, cluster),
            budget,
        }
    }

    /// Overrides the resource budget (e.g. to study smaller deployments).
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables or disables stage-profile memoization (enabled by default;
    /// disabling exists to benchmark the unmemoized search).
    pub fn with_memoization(mut self, enabled: bool) -> Self {
        self.profiler = self.profiler.with_memoization(enabled);
        self
    }

    /// The per-stage profiler (useful for breakdowns and custom studies).
    pub fn profiler(&self) -> &StageProfiler {
        &self.profiler
    }

    /// The resource budget constraining the search.
    pub fn budget(&self) -> ResourceBudget {
        self.budget
    }

    /// Streams the candidate schedules implied by `options` (Step 2 of
    /// Algorithm 1): every placement × allocation within the budget ×
    /// batching policy, yielded lazily in the search's walk order (see
    /// [`ScheduleIter`]).
    pub fn schedule_iter(&self, options: &SearchOptions) -> ScheduleIter {
        Arc::new(ScheduleSpace::new(self, options)).candidates()
    }

    /// Evaluates every candidate schedule and returns all feasible points
    /// (infeasible ones — e.g. out-of-memory allocations — are skipped), in
    /// the order [`Rago::schedule_iter`] yields them.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] when `options` fails
    /// [`SearchOptions::validate`] or one of its placements fails
    /// [`PlacementPlan::validate`].
    pub fn evaluate_all(&self, options: &SearchOptions) -> Result<Vec<ParetoPoint>, RagoError> {
        Ok(self
            .searched_space(options)?
            .candidates()
            .filter_map(move |schedule| {
                schedule
                    .evaluate(&self.profiler)
                    .ok()
                    .map(|performance| ParetoPoint {
                        schedule,
                        performance,
                    })
            })
            .collect())
    }

    /// Runs the full search (Algorithm 1) and returns the performance Pareto
    /// frontier over (TTFT, QPS/chip) with the schedules achieving it.
    ///
    /// The grid's stage profiles are computed first; candidates are then
    /// streamed across rayon worker threads, each folding into an
    /// incremental [`ParetoAccumulator`], and the per-thread frontiers merge
    /// at the end. An iterative workload repeats the stream until every
    /// kept point's decode stall is simulated. The result is bit-identical
    /// to [`Rago::optimize_serial`] — see the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] when `options` fails
    /// [`SearchOptions::validate`] or one of its placements fails
    /// [`PlacementPlan::validate`], and
    /// [`RagoError::NoFeasibleSchedule`] when no candidate schedule is
    /// feasible within the budget.
    pub fn optimize(&self, options: &SearchOptions) -> Result<ParetoFrontier, RagoError> {
        let (mut accumulator, unscored) = self.search_exhaustive(
            options,
            true,
            ParetoAccumulator::new,
            ParetoAccumulator::push,
            ParetoAccumulator::merge,
            |accumulator| accumulator.points().iter().collect(),
        )?;
        accumulator.cover(unscored);
        if accumulator.is_empty() {
            return Err(self.no_feasible_schedule());
        }
        Ok(accumulator.into_frontier())
    }

    /// The serial reference implementation of [`Rago::optimize`]: evaluate
    /// every candidate on the calling thread, then extract the frontier in
    /// one batch. Kept as the ground truth the streaming/parallel path is
    /// tested against (and benchmarked against; it materializes every
    /// feasible point, so it is also the memory-hungry path).
    ///
    /// # Errors
    ///
    /// As [`Rago::optimize`].
    pub fn optimize_serial(&self, options: &SearchOptions) -> Result<ParetoFrontier, RagoError> {
        let points = self.evaluate_all(options)?;
        if points.is_empty() {
            return Err(self.no_feasible_schedule());
        }
        Ok(ParetoFrontier::from_points(points))
    }

    /// The space a search of `options` walks, once `options` passes
    /// [`SearchOptions::validate`] and its placements pass
    /// [`PlacementPlan::validate`].
    fn searched_space(&self, options: &SearchOptions) -> Result<Arc<ScheduleSpace>, RagoError> {
        let schema = self.profiler.schema();
        options.validate(schema)?;
        let space = ScheduleSpace::new(self, options);
        space.validate_placements(schema)?;
        Ok(Arc::new(space))
    }

    fn no_feasible_schedule(&self) -> RagoError {
        RagoError::NoFeasibleSchedule {
            reason: format!(
                "no feasible schedule for workload `{}` within {} XPUs / {} servers",
                self.profiler.schema().name,
                self.budget.max_xpus,
                self.budget.max_cpu_servers
            ),
        }
    }

    /// Algorithm 1 over every candidate of `options`, once the options and
    /// their placements are valid. First, profile the grid once into a
    /// table. Then score the candidates across rayon workers against the
    /// table, without a lock: each worker evaluates the pre-decode half of
    /// each of its units' pre-decode choices once, and combines it with
    /// every [`DecodeChoices`] entry that fits the XPU budget beside it. It
    /// folds the feasible points into an accumulator from `init` with
    /// `push`, and `merge` joins the workers' accumulators.
    ///
    /// A Case III candidate whose decode stall the memo lacks scores
    /// optimistically (see [`crate::profiler::TableReader`]). While any
    /// point `kept` lists of the merged accumulator is such a candidate, the
    /// stalls behind those points are simulated and the candidates scored
    /// again, into fresh accumulators. An optimistic point has its true
    /// TTFT and a QPS/chip no lower than its true one, so once every kept
    /// point is exact no other candidate can beat one of them: the kept
    /// points are those of the full simulation. Only the last round's
    /// lookups are counted: it makes every lookup a one-round search
    /// would.
    ///
    /// With `cut`, decode choices that another choice beats are not scored
    /// (see [`DecodeChoices::new`]); the second value returned counts the
    /// feasible candidates they would have made. Without it, that count is
    /// zero.
    fn search_exhaustive<A: Send>(
        &self,
        options: &SearchOptions,
        cut: bool,
        init: impl Fn() -> A + Sync,
        push: impl Fn(&mut A, ParetoPoint) + Sync,
        merge: impl Fn(A, A) -> A,
        kept: fn(&A) -> Vec<&ParetoPoint>,
    ) -> Result<(A, usize), RagoError> {
        let space = self.searched_space(options)?;
        let table = ProfileTable::fill(&self.profiler, &space);
        let reader = table.reader();
        let decode = DecodeChoices::new(&space, &reader, cut);
        loop {
            let (accumulator, unscored, lookups) = Arc::clone(&space)
                .predecode_allocations()
                .par_bridge()
                .fold(
                    || (init(), 0, Lookups::default()),
                    |(mut acc, unscored, lookups), unit| {
                        let reader = table.reader();
                        let cut = decode.score(&unit, &reader, |point| push(&mut acc, point));
                        (acc, unscored + cut, lookups + reader.lookups())
                    },
                )
                .reduce(
                    || (init(), 0, Lookups::default()),
                    |(a, x, m), (b, y, n)| (merge(a, b), x + y, m + n),
                );
            let points = kept(&accumulator);
            if !table.simulate_stalls(points.into_iter().map(|point| &point.schedule)) {
                table.count_hits(reader.lookups() + lookups);
                return Ok((accumulator, unscored));
            }
        }
    }

    /// Groups all evaluated points by (placement, allocation) and returns the
    /// per-plan Pareto frontiers (each point on a per-plan frontier is a
    /// batching policy), as plotted in Figures 16 and 18 of the paper.
    ///
    /// Uses the same streaming/parallel pipeline as [`Rago::optimize`], with
    /// one incremental accumulator per plan: memory is proportional to the
    /// number of plans and their frontiers, not to the grid. It scores every
    /// feasible decode choice: a choice another beats on the whole frontier
    /// may still lead its own plan.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] when `options` fails
    /// [`SearchOptions::validate`] or one of its placements fails
    /// [`PlacementPlan::validate`].
    pub fn frontiers_by_plan(
        &self,
        options: &SearchOptions,
    ) -> Result<Vec<(PlacementPlan, ResourceAllocation, ParetoFrontier)>, RagoError> {
        type PlanKey = (PlacementPlan, ResourceAllocation);
        let (by_plan, _): (HashMap<PlanKey, ParetoAccumulator>, _) = self.search_exhaustive(
            options,
            false,
            HashMap::new,
            |map: &mut HashMap<PlanKey, ParetoAccumulator>, point| {
                map.entry((
                    point.schedule.placement.clone(),
                    point.schedule.allocation.clone(),
                ))
                .or_default()
                .push(point)
            },
            |mut merged, map| {
                for (key, acc) in map {
                    match merged.entry(key) {
                        std::collections::hash_map::Entry::Occupied(mut existing) => {
                            let prior = std::mem::take(existing.get_mut());
                            *existing.get_mut() = prior.merge(acc);
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            slot.insert(acc);
                        }
                    }
                }
                merged
            },
            |map| map.values().flat_map(|acc| acc.points()).collect(),
        )?;

        let mut out: Vec<(PlacementPlan, ResourceAllocation, ParetoFrontier)> = by_plan
            .into_iter()
            .map(|((placement, allocation), acc)| (placement, allocation, acc.into_frontier()))
            .collect();
        // Best QPS/chip first; exact ties fall back to the plan identity so
        // the order never depends on hash-map iteration.
        out.sort_by(|a, b| {
            let qps = |f: &ParetoFrontier| {
                f.max_qps_per_chip()
                    .map(|p| p.performance.qps_per_chip)
                    .unwrap_or(f64::NEG_INFINITY)
            };
            qps(&b.2).total_cmp(&qps(&a.2)).then_with(|| {
                (
                    a.0.describe(),
                    &a.1.group_xpus,
                    a.1.decode_xpus,
                    a.1.retrieval_servers,
                )
                    .cmp(&(
                        b.0.describe(),
                        &b.1.group_xpus,
                        b.1.decode_xpus,
                        b.1.retrieval_servers,
                    ))
            })
        });
        Ok(out)
    }

    /// The retrieval server counts `options` asks for; by default, the
    /// least that holds the database and every larger power of two.
    pub(crate) fn server_steps(&self, options: &SearchOptions) -> Vec<u32> {
        if !options.server_steps.is_empty() {
            return options.server_steps.clone();
        }
        if !self.profiler.schema().has_retrieval() {
            return vec![1];
        }
        let min = self.profiler.min_retrieval_servers();
        power_of_two_steps(self.budget.max_cpu_servers)
            .into_iter()
            .filter(|&s| s >= min)
            .chain(std::iter::once(min))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    }
}

/// One decode choice of the exhaustive search: a setting of the decode
/// axes and, when it alone sets a schedule's decode side, that side's
/// rates.
#[derive(Debug, Clone, Copy)]
struct DecodeChoice {
    setting: DecodeSetting,
    /// `None` for workloads with iterative retrievals, whose decode side
    /// also reads the pre-decode choice: it is evaluated per candidate.
    rates: Option<DecodeRates>,
}

/// The decode choices the exhaustive search combines with each pre-decode
/// choice, built once per search.
#[derive(Debug, Default)]
struct DecodeChoices {
    /// Scored beside every pre-decode choice whose budget they fit.
    scored: Vec<DecodeChoice>,
    /// The decode XPUs of every feasible choice the cut drops.
    cut_xpus: Vec<u32>,
}

impl DecodeChoices {
    /// Every setting of `space`'s decode axes. Without iterative
    /// retrievals a choice's decode side reaches a schedule's performance
    /// only through its decode XPUs and decode QPS, so it is evaluated
    /// here, once, and an infeasible choice is dropped.
    ///
    /// With `cut` too, a choice D is dropped when another choice E has no
    /// more XPUs, at least D's decode QPS, and comes first in
    /// [`Schedule::identity_key`] order. Beside any pre-decode choice E then
    /// fits wherever D does, has D's TTFT and at least its QPS/chip, and
    /// wins an exact tie, so D is never on the frontier and the cut is
    /// exact. Iterative workloads keep every choice: their decode rate also
    /// reads the retrieval servers and the prefix group's chips. So does
    /// [`Rago::frontiers_by_plan`], whose plan key holds the decode XPUs.
    fn new(space: &Arc<ScheduleSpace>, costs: &impl CostSource, cut: bool) -> Self {
        let first_unit = Arc::clone(space).predecode_allocations().next();
        let Some(mut template) = first_unit.and_then(|unit| unit.predecode_choices().next()) else {
            return Self::default();
        };
        let iterative = costs.profiler().schema().is_iterative();
        let mut choices = Vec::new();
        for setting in space.decode_settings() {
            let rates = if iterative {
                None
            } else {
                setting.apply(&mut template);
                let Ok(rates) = template.decode_rates(costs) else {
                    continue;
                };
                Some(rates)
            };
            choices.push(DecodeChoice { setting, rates });
        }
        if !cut || iterative {
            return Self {
                scored: choices,
                cut_xpus: Vec::new(),
            };
        }
        let rank = decode_key_ranks(&template, &choices);
        let qps = |i: usize| choices[i].rates.expect("evaluated above").decode_qps;
        let beats = |e: usize, d: usize| {
            choices[e].setting.xpus <= choices[d].setting.xpus
                && qps(e) >= qps(d)
                && rank[e] < rank[d]
        };
        let mut out = Self::default();
        for d in 0..choices.len() {
            if (0..choices.len()).any(|e| beats(e, d)) {
                out.cut_xpus.push(choices[d].setting.xpus);
            } else {
                out.scored.push(choices[d]);
            }
        }
        out
    }

    /// Scores `unit`'s candidates: the pre-decode half of each of its
    /// pre-decode choices once, then, unless it is infeasible, every listed
    /// decode choice that fits the XPU budget beside it. Returns how many
    /// feasible candidates the cut covered without scoring.
    fn score(
        &self,
        unit: &PredecodeAllocation,
        costs: &impl CostSource,
        mut push: impl FnMut(ParetoPoint),
    ) -> usize {
        let room = unit.decode_room().unwrap_or(0);
        if !self.scored.iter().any(|choice| choice.setting.xpus <= room) {
            return 0;
        }
        let cut = self.cut_xpus.iter().filter(|&&xpus| xpus <= room).count();
        let mut unscored = 0;
        for mut schedule in unit.predecode_choices() {
            let Ok(predecode) = schedule.predecode_rates(costs) else {
                continue;
            };
            for choice in self.scored.iter().filter(|c| c.setting.xpus <= room) {
                choice.setting.apply(&mut schedule);
                let rates = match choice.rates {
                    Some(rates) => rates,
                    None => match schedule.decode_rates(costs) {
                        Ok(rates) => rates,
                        Err(_) => continue,
                    },
                };
                let performance = schedule.combine(costs.profiler(), predecode, rates);
                push(ParetoPoint {
                    schedule: schedule.clone(),
                    performance,
                });
            }
            unscored += cut;
        }
        unscored
    }
}

/// Each choice's position in the [`Schedule::identity_key`] order of
/// `template` with that choice's decode fields. Two schedules that differ
/// only in their decode fields order by those fields alone, so every
/// template gives the same positions.
fn decode_key_ranks(template: &Schedule, choices: &[DecodeChoice]) -> Vec<usize> {
    let mut schedule = template.clone();
    let keys: Vec<String> = choices
        .iter()
        .map(|choice| {
            choice.setting.apply(&mut schedule);
            schedule.identity_key()
        })
        .collect();
    let mut order: Vec<usize> = (0..choices.len()).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
    let mut rank = vec![0; choices.len()];
    for (position, &choice) in order.iter().enumerate() {
        rank[choice] = position;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::Stage;

    fn tiny_options() -> SearchOptions {
        SearchOptions {
            xpu_steps: vec![8, 32],
            server_steps: vec![32],
            predecode_batch_steps: vec![1, 16],
            decode_batch_steps: vec![128],
            iterative_batch_steps: vec![8],
            placements: None,
        }
    }

    #[test]
    fn case1_search_finds_a_frontier() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let frontier = rago.optimize(&tiny_options()).unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier.evaluated_schedules >= frontier.len());
        // Frontier extremes behave as expected.
        let min_ttft = frontier.min_ttft().unwrap();
        let max_qps = frontier.max_qps_per_chip().unwrap();
        assert!(min_ttft.performance.ttft_s <= max_qps.performance.ttft_s);
        assert!(min_ttft.performance.qps_per_chip <= max_qps.performance.qps_per_chip);
    }

    #[test]
    fn budget_is_respected() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        for schedule in rago.schedule_iter(&tiny_options()) {
            assert!(schedule.allocation.total_xpus() <= 128);
            assert!(schedule.allocation.retrieval_servers <= 32);
        }
    }

    #[test]
    fn infeasible_budget_reports_no_schedule() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B405, 1),
            ClusterSpec::paper_default(),
        )
        .with_budget(ResourceBudget::new(2, 32));
        // A 405B model cannot fit on 2 chips, and the budget excludes more.
        let err = rago
            .optimize(&SearchOptions {
                xpu_steps: vec![1],
                ..tiny_options()
            })
            .unwrap_err();
        assert!(matches!(err, RagoError::NoFeasibleSchedule { .. }));
    }

    #[test]
    fn malformed_search_options_are_rejected_by_every_search() {
        let rago = Rago::new(
            presets::case3_iterative(LlmSize::B8, 4),
            ClusterSpec::paper_default(),
        );
        type Malform = fn(&mut SearchOptions);
        let malformed: [(&str, Malform); 7] = [
            ("iterative_batch_steps", |o| {
                o.iterative_batch_steps = vec![]
            }),
            ("iterative_batch_steps", |o| {
                o.iterative_batch_steps = vec![0]
            }),
            ("decode_batch_steps", |o| o.decode_batch_steps = vec![0]),
            ("predecode_batch_steps", |o| {
                o.predecode_batch_steps = vec![0, 0]
            }),
            ("xpu_steps", |o| o.xpu_steps = vec![]),
            ("server_steps", |o| o.server_steps = vec![0]),
            ("placements", |o| o.placements = Some(Vec::new())),
        ];
        for (axis, malform) in malformed {
            let mut options = tiny_options();
            malform(&mut options);
            for result in [
                rago.optimize(&options).map(drop),
                rago.optimize_serial(&options).map(drop),
                rago.frontiers_by_plan(&options).map(drop),
                rago.evaluate_all(&options).map(drop),
            ] {
                assert!(
                    matches!(result, Err(RagoError::InvalidConfig { ref reason }) if reason.contains(axis)),
                    "{axis}: {result:?}"
                );
            }
        }
        // The iterative axis counts only for iterative workloads.
        let single = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let no_iterative = SearchOptions {
            iterative_batch_steps: vec![],
            ..tiny_options()
        };
        assert!(single.optimize(&no_iterative).is_ok());
        // Steps that are all over the budget are not malformed.
        let over_budget = SearchOptions {
            xpu_steps: vec![256],
            ..tiny_options()
        };
        assert!(matches!(
            rago.optimize(&over_budget),
            Err(RagoError::NoFeasibleSchedule { .. })
        ));
    }

    #[test]
    fn case4_search_covers_multiple_placements() {
        let rago = Rago::new(
            presets::case4_rewriter_reranker(LlmSize::B8),
            ClusterSpec::paper_default(),
        );
        let opts = SearchOptions {
            xpu_steps: vec![4, 16],
            server_steps: vec![32],
            predecode_batch_steps: vec![4],
            decode_batch_steps: vec![128],
            iterative_batch_steps: vec![8],
            placements: None,
        };
        let placements: std::collections::HashSet<String> = rago
            .schedule_iter(&opts)
            .map(|s| s.placement.describe())
            .collect();
        assert_eq!(placements.len(), 8, "expected all 8 case-IV placements");
        let frontier = rago.optimize(&opts).unwrap();
        assert!(!frontier.is_empty());
    }

    #[test]
    fn frontiers_by_plan_partition_the_search() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let plans = rago.frontiers_by_plan(&tiny_options()).unwrap();
        assert!(!plans.is_empty());
        let total: usize = plans.iter().map(|(_, _, f)| f.evaluated_schedules).sum();
        assert_eq!(total, rago.evaluate_all(&tiny_options()).unwrap().len());
        // Plans are sorted by best QPS/chip, descending.
        let best: Vec<f64> = plans
            .iter()
            .filter_map(|(_, _, f)| f.max_qps_per_chip().map(|p| p.performance.qps_per_chip))
            .collect();
        for w in best.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn placement_restriction_is_honoured() {
        let schema = presets::case2_long_context(LlmSize::B70, 1_000_000);
        let rago = Rago::new(schema.clone(), ClusterSpec::paper_default());
        let collocated = PlacementPlan::fully_collocated(&schema);
        let opts = tiny_options().with_placements(vec![collocated.clone()]);
        for schedule in rago.schedule_iter(&opts) {
            assert_eq!(schedule.placement, collocated);
        }
    }

    #[test]
    fn schedule_iter_is_lazy() {
        let rago = Rago::new(
            presets::case4_rewriter_reranker(LlmSize::B8),
            ClusterSpec::paper_default(),
        );
        let opts = tiny_options();
        let streamed: Vec<Schedule> = rago.schedule_iter(&opts).collect();
        // Pulling a prefix does not require enumerating the rest.
        let first_three: Vec<Schedule> = rago.schedule_iter(&opts).take(3).collect();
        assert_eq!(&streamed[..3], &first_three[..]);
    }

    #[test]
    fn zero_group_placement_yields_cross_product_exactly_once() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let empty_placement = PlacementPlan {
            predecode_groups: Vec::new(),
        };
        let opts = SearchOptions {
            xpu_steps: vec![8, 32],
            server_steps: vec![16, 32],
            predecode_batch_steps: vec![1, 16],
            decode_batch_steps: vec![128, 256],
            iterative_batch_steps: vec![8],
            placements: Some(vec![empty_placement.clone()]),
        };
        let schedules: Vec<Schedule> = rago.schedule_iter(&opts).collect();
        // decode(2) × servers(2) × pre-batch(2) × decode-batch(2) = 16, once.
        assert_eq!(schedules.len(), 16);
        for s in &schedules {
            assert_eq!(s.placement, empty_placement);
            assert!(s.allocation.group_xpus.is_empty());
        }
        let distinct: std::collections::HashSet<String> =
            schedules.iter().map(Schedule::describe).collect();
        assert_eq!(distinct.len(), 16, "no duplicate candidates");
    }

    #[test]
    fn budget_prunes_steps_before_enumeration() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        )
        .with_budget(ResourceBudget::new(16, 32));
        let opts = SearchOptions {
            // 64 and the duplicate 8 can never appear: the iterator's axes
            // are budget-filtered up front.
            xpu_steps: vec![8, 8, 64, 4],
            ..tiny_options()
        };
        let schedules: Vec<Schedule> = rago.schedule_iter(&opts).collect();
        assert!(!schedules.is_empty());
        for s in &schedules {
            assert!(s.allocation.total_xpus() <= 16);
            assert!(s.allocation.group_xpus.iter().all(|&x| x == 8 || x == 4));
        }
    }

    #[test]
    fn zero_and_repeated_batch_steps_are_dropped() {
        let rago = Rago::new(
            presets::case3_iterative(LlmSize::B8, 4),
            ClusterSpec::paper_default(),
        );
        let clean = SearchOptions::fast();
        // Every placement, listed twice.
        let placements = PlacementPlan::enumerate(rago.profiler().schema());
        let noisy = SearchOptions {
            predecode_batch_steps: vec![1, 8, 8, 32],
            decode_batch_steps: vec![64, 0, 256],
            iterative_batch_steps: vec![4, 16, 16],
            placements: Some([placements.clone(), placements].concat()),
            ..SearchOptions::fast()
        };
        assert_eq!(rago.schedule_iter(&clean).count(), 108);
        assert_eq!(
            rago.schedule_iter(&noisy).count(),
            rago.schedule_iter(&clean).count()
        );
        assert_eq!(
            rago.optimize(&noisy).unwrap(),
            rago.optimize(&clean).unwrap()
        );
    }

    #[test]
    fn iterative_axis_only_spins_for_iterative_workloads() {
        let cluster = ClusterSpec::paper_default();
        let single = Rago::new(presets::case1_hyperscale(LlmSize::B8, 1), cluster.clone());
        let iterative = Rago::new(presets::case3_iterative(LlmSize::B8, 4), cluster);
        let opts = SearchOptions {
            iterative_batch_steps: vec![4, 8, 16],
            ..tiny_options()
        };
        let n_single = single.schedule_iter(&opts).count();
        let n_iter = iterative.schedule_iter(&opts).count();
        assert_eq!(n_iter, n_single * 3);
        assert!(single
            .schedule_iter(&opts)
            .all(|s| s.batching.iterative_batch.is_none()));
        assert!(iterative
            .schedule_iter(&opts)
            .all(|s| s.batching.iterative_batch.is_some()));
    }

    #[test]
    fn parallel_and_serial_agree_on_case1() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let parallel = rago.optimize(&tiny_options()).unwrap();
        let serial = rago.optimize_serial(&tiny_options()).unwrap();
        assert_eq!(parallel, serial);
    }

    /// Case I's 8B decode stage runs a little faster on 4 chips than on 16,
    /// and at pre-decode batch 1 the pre-decode side is the bottleneck, so
    /// the two choices tie on QPS/chip: the retrieval servers set the chip
    /// count. `16dec` comes first by identity key, so the frontier keeps it,
    /// and a cut that drops the choice with more XPUs would move it.
    #[test]
    fn a_tied_decode_choice_first_by_key_stays_on_the_frontier() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let options = SearchOptions {
            xpu_steps: vec![4, 16],
            server_steps: vec![32],
            predecode_batch_steps: vec![1, 8, 32],
            decode_batch_steps: vec![64, 128],
            iterative_batch_steps: vec![8],
            placements: None,
        };
        let profiler = rago.profiler();
        let decode_qps = |xpus| {
            profiler
                .profile(Stage::Decode, xpus, 128)
                .unwrap()
                .throughput_rps
        };
        assert!(decode_qps(4) >= decode_qps(16));
        let frontier = rago.optimize(&options).unwrap();
        assert_eq!(frontier, rago.optimize_serial(&options).unwrap());
        assert!(frontier.scored_schedules < frontier.evaluated_schedules);
        let fastest = frontier.min_ttft().unwrap();
        assert_eq!(fastest.schedule.allocation.decode_xpus, 16);
        let mut twin = fastest.schedule.clone();
        twin.allocation.decode_xpus = 4;
        let tied = twin.evaluate(profiler).unwrap();
        assert_eq!(tied.ttft_s.to_bits(), fastest.performance.ttft_s.to_bits());
        assert_eq!(
            tied.qps_per_chip.to_bits(),
            fastest.performance.qps_per_chip.to_bits()
        );
        assert!(fastest.schedule.identity_key() < twin.identity_key());
    }

    #[test]
    fn decode_key_order_is_the_same_under_any_template() {
        let choices: Vec<DecodeChoice> = [1, 2, 4, 16, 64, 128]
            .into_iter()
            .flat_map(|xpus| {
                [16, 64, 128, 1024].map(|batch| DecodeChoice {
                    setting: DecodeSetting {
                        xpus,
                        batch,
                        iterative_batch: None,
                    },
                    rates: None,
                })
            })
            .collect();
        let template = |group_xpus: u32, retrieval_servers: u32| {
            let mut schedule = Schedule::test_dummy();
            schedule.allocation.group_xpus = vec![group_xpus];
            schedule.allocation.retrieval_servers = retrieval_servers;
            schedule
        };
        let ranks = decode_key_ranks(&template(1, 32), &choices);
        assert_eq!(ranks, decode_key_ranks(&template(128, 64), &choices));
        let rank = |xpus: u32, batch: u32| {
            ranks[choices
                .iter()
                .position(|c| (c.setting.xpus, c.setting.batch) == (xpus, batch))
                .unwrap()]
        };
        // Keys compare as strings: `16dec` before `4dec`, `/1024` before
        // `/16`.
        assert!(rank(16, 16) < rank(4, 16));
        assert!(rank(4, 1024) < rank(4, 16));
    }

    /// The benchmark's paper grid for Case III (8B, four retrievals): the
    /// search simulates the stalls behind 7 of the 1,220 distinct inputs
    /// its 9,760 feasible candidates reach, and still finds the frontier
    /// that simulating every one finds.
    #[test]
    fn case3_paper_grid_simulates_only_the_stalls_the_frontier_needs() {
        let options = SearchOptions {
            xpu_steps: vec![1, 2, 4, 8, 16, 32, 64, 96, 128],
            server_steps: vec![32, 64],
            predecode_batch_steps: vec![1, 2, 4, 8, 16, 32, 64, 128],
            decode_batch_steps: vec![64, 128, 256, 512, 1024],
            iterative_batch_steps: vec![1, 4, 16, 64],
            placements: None,
        };
        let case3 = || {
            Rago::new(
                presets::case3_iterative(LlmSize::B8, 4),
                ClusterSpec::paper_default(),
            )
        };
        let rago = case3();
        let frontier = rago.optimize(&options).unwrap();
        assert_eq!(frontier.evaluated_schedules, 9_760);
        let (_, misses) = rago.profiler().decode_stall_stats();
        assert_eq!(misses, 7);
        let serial = case3();
        assert_eq!(frontier, serial.optimize_serial(&options).unwrap());
        assert_eq!(serial.profiler().decode_stall_stats().1, 1_220);
    }

    #[test]
    fn memoization_shares_profiles_across_candidates() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let opts = SearchOptions::fast();
        let frontier = rago.optimize(&opts).unwrap();
        let profiles = rago.profiler().cached_profiles();
        assert!(
            profiles * 2 < frontier.evaluated_schedules,
            "expected profile reuse: {} profiles for {} schedules",
            profiles,
            frontier.evaluated_schedules
        );
        // Case 1 has three profiled stages (retrieval, prefix, decode); the
        // distinct profile count is bounded by the per-stage grids.
        let bound = 3
            * (opts.xpu_steps.len() + 8)
            * (opts.predecode_batch_steps.len()
                + opts.decode_batch_steps.len()
                + opts.iterative_batch_steps.len());
        assert!(profiles <= bound, "{profiles} > {bound}");
    }

    #[test]
    fn zero_collocatable_stage_guard_terminates() {
        // A schema whose placement list contains only zero-group plans must
        // terminate and still cover decode-only schedules: a zero-group
        // placement has no group XPUs to step through.
        let rago = Rago::new(presets::llm_only(LlmSize::B8), ClusterSpec::paper_default());
        let opts = SearchOptions {
            placements: Some(vec![PlacementPlan {
                predecode_groups: Vec::new(),
            }]),
            ..tiny_options()
        };
        let schedules: Vec<Schedule> = rago.schedule_iter(&opts).collect();
        assert!(!schedules.is_empty());
        assert!(schedules.iter().all(|s| s.placement.num_groups() == 0));
        // And the normal pipeline still carries the prefix stage.
        assert!(rago
            .schedule_iter(&tiny_options())
            .all(|s| s.placement.group_of(Stage::Prefix).is_some()));
        // With every XPU step over the budget nothing is yielded, whatever
        // the order of the placements.
        let mut placements = PlacementPlan::enumerate(rago.profiler().schema());
        placements.extend(opts.placements.clone().unwrap());
        let over_budget = SearchOptions {
            xpu_steps: vec![4096],
            placements: Some(placements),
            ..tiny_options()
        };
        assert_eq!(rago.schedule_iter(&over_budget).count(), 0);
    }

    #[test]
    fn searches_reject_a_placement_that_omits_a_stage() {
        // Case IV's `[prefix]` alone leaves the rewriter and the reranker
        // unplaced; searching it used to price them at zero and return a
        // frontier faster than any real placement.
        let rago = Rago::new(
            presets::case4_rewriter_reranker(LlmSize::B8),
            ClusterSpec::paper_default(),
        );
        let prefix_only = PlacementPlan {
            predecode_groups: vec![vec![Stage::Prefix]],
        };
        let opts = SearchOptions::fast().with_placements(vec![prefix_only]);
        let invalid = |r: Result<(), RagoError>| matches!(r, Err(RagoError::InvalidConfig { reason }) if reason.contains("`rerank`"));
        assert!(invalid(rago.optimize(&opts).map(drop)));
        assert!(invalid(rago.optimize_serial(&opts).map(drop)));
        assert!(invalid(rago.evaluate_all(&opts).map(drop)));
        // One bad entry spoils the list, wherever it sits.
        let mut mixed = PlacementPlan::enumerate(rago.profiler().schema());
        mixed.push(PlacementPlan {
            predecode_groups: vec![vec![Stage::Prefix], vec![Stage::Rerank]],
        });
        assert!(invalid(
            rago.optimize(&SearchOptions::fast().with_placements(mixed))
                .map(drop)
        ));
    }
}
