//! The schedule space and its anytime stochastic search: sample → beam →
//! coordinate descent → exchange.
//!
//! [`ScheduleSpace`] is the one description of a search grid, shared by
//! both searches. The exhaustive search streams it in index order through
//! [`ScheduleIter`], which is the right tool for paper-sized grids. The
//! spaces the repo now models — disaggregated pools × chip types × cache
//! configs — are combinatorially large, and the stochastic search samples
//! the *same* space without enumerating it:
//!
//! 1. **Sample.** Each round draws a deterministic batch of novel
//!    candidates: *uniform* draws over the whole space (via the
//!    [`ScheduleSpace`] mixed-radix codec, which decodes any index to its
//!    schedule in O(axes)), and *focussed* draws that perturb one axis of a
//!    current beam survivor. When uniform draws keep hitting already-seen
//!    candidates, generation falls back to a deterministic cursor scan of
//!    the remaining unseen indices — so with enough budget the search
//!    provably visits **every** candidate and the frontier equals the
//!    exhaustive one exactly.
//! 2. **Beam.** Every feasible evaluation reports into a deduplicated
//!    [`BestSamples`] beam keyed on [`Schedule::identity_key`] — *not* on an
//!    enumeration index, which sampled candidates don't have — scored by
//!    QPS/chip (the goodput-per-chip objective the exhaustive path also
//!    optimizes), while a [`ParetoAccumulator`] collects the full
//!    (TTFT, QPS/chip) frontier from every evaluation.
//! 3. **Coordinate descent.** Beam survivors are refined by hill-climbing
//!    along one placement/parallelism axis at a time (each group's XPU
//!    count, the decode allocation, the server count, each batch axis),
//!    against a snapshot of the scores known at the round start.
//! 4. **Exchange.** Within a round, the batch and then the survivors'
//!    descents run on the crate's one parallel loop (`par_bridge().fold()
//!    .reduce()`, as wide as the rayon pool), which hands the results back
//!    in work-list order. They merge at the round boundary — a fixed
//!    evaluation-count checkpoint — into the shared beam and frontier, which
//!    the next round's sampling and descent read. Because the work list is
//!    generated sequentially up front, every merge is order-insensitive
//!    (identity tie-breaks), and descent only consults the frozen snapshot,
//!    **seeded runs are bit-reproducible regardless of thread count or
//!    thread timing.**
//!
//! A run has two knobs, the seed and the evaluation budget
//! ([`StochasticConfig`]). The beam width, the round size, the uniform
//! share and the descent limits are fixed as its associated constants, and
//! no wall clock stops a run, so every seeded run is reproducible.
//!
//! The design follows the sparrow placement-search exemplars (SNIPPETS.md
//! 1–2): a capacity-bounded deduplicated best-sample set, focussed + uniform
//! samplers, coordinate-descent refinement, and parallel evaluation with
//! periodic best-solution exchange under a strict budget.

use crate::error::RagoError;
use crate::metrics::RagPerformance;
use crate::optimizer::{Rago, SearchOptions};
use crate::pareto::{ParetoAccumulator, ParetoFrontier, ParetoPoint};
use crate::placement::PlacementPlan;
use crate::profiler::StageProfiler;
use crate::schedule::{BatchingPolicy, ResourceAllocation, Schedule};
use rago_hardware::ResourceBudget;
use rago_schema::RagSchema;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// The stochastic search's two knobs: the seed and the evaluation budget.
/// The search's tuning is fixed as associated constants, so a seed and a
/// budget on one grid name exactly one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StochasticConfig {
    /// RNG seed. Two runs with the same seed, budget, and grid produce
    /// bit-identical reports (modulo wall-clock fields).
    pub seed: u64,
    /// Budget: total novel candidate evaluations across all rounds. The
    /// search stops at the first round boundary at or beyond it (a round's
    /// coordinate-descent phase may overshoot by at most
    /// [`StochasticConfig::BEAM_WIDTH`] ×
    /// [`StochasticConfig::DESCENT_EVALUATIONS`]).
    pub max_evaluations: usize,
}

impl Default for StochasticConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            max_evaluations: 4096,
        }
    }
}

impl StochasticConfig {
    /// Best-sample beam capacity (survivors refined and exchanged).
    pub const BEAM_WIDTH: usize = 8;
    /// Novel evaluations per sampling round (the exchange checkpoint
    /// interval).
    pub const ROUND_EVALUATIONS: usize = 256;
    /// Fraction of each round's samples drawn uniformly from the whole
    /// space; the rest focus around beam survivors.
    pub const UNIFORM_FRACTION: f64 = 0.5;
    /// Maximum full axis sweeps per survivor in one descent phase.
    pub const DESCENT_SWEEPS: usize = 4;
    /// Maximum novel evaluations one survivor's descent may spend per round.
    pub const DESCENT_EVALUATIONS: usize = 96;

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the evaluation budget.
    pub fn with_budget(mut self, max_evaluations: usize) -> Self {
        self.max_evaluations = max_evaluations;
        self
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] on a zero budget.
    pub fn validate(&self) -> Result<(), RagoError> {
        if self.max_evaluations == 0 {
            return Err(RagoError::InvalidConfig {
                reason: "stochastic search needs a non-zero evaluation budget".into(),
            });
        }
        Ok(())
    }
}

/// One placement's block of the candidate space: a contiguous index range,
/// from `offset` up to the next block's, whose digits are the per-group XPU
/// steps, the decode step, the server step, and the batch steps.
#[derive(Debug, Clone)]
struct PlacementBlock {
    placement: PlacementPlan,
    offset: u128,
}

/// The one description of a search grid: placements × budget-filtered
/// allocation steps × batching axes, as a mixed-radix codec from a dense
/// index in `0..size()` to its schedule. Decoding is O(axes); no candidate
/// is ever materialized eagerly.
///
/// Each placement owns a contiguous block of indices. Within a block the
/// iterative batch is the least significant digit, then the decode batch,
/// the pre-decode batch, the server count, the decode allocation, and the
/// groups' XPU counts, first group fastest. An *allocation* is one setting
/// of the placement, group and decode digits; the server and batch digits
/// below it span its sub-space. Indices cover allocations over the XPU
/// budget too: [`ScheduleSpace::feasible`] rejects them, and the exhaustive
/// stream ([`ScheduleIter`], from `into_iter`) skips them.
#[derive(Debug, Clone)]
pub struct ScheduleSpace {
    blocks: Vec<PlacementBlock>,
    pub(crate) xpu_steps: Vec<u32>,
    pub(crate) server_steps: Vec<u32>,
    pub(crate) predecode_batches: Vec<u32>,
    pub(crate) decode_batches: Vec<u32>,
    pub(crate) iterative_batches: Vec<Option<u32>>,
    max_total_xpus: u32,
    size: u128,
}

/// The digit vector of one candidate: its placement block and one index
/// into every axis. The coordinate-descent refinement steps these digits
/// one at a time, and the exhaustive search's [`PredecodeAllocation`]
/// units carry through them in index order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digits {
    block: usize,
    groups: Vec<usize>,
    decode: usize,
    server: usize,
    predecode: usize,
    decode_batch: usize,
    iterative: usize,
}

/// The rank of the decode-allocation digit, counting from the least
/// significant: the server and three batch digits below it span one
/// allocation's sub-space.
const ALLOCATION_RANK: usize = 4;

/// The rank of the first group digit: the decode-allocation digit and every
/// digit below it span one pre-decode allocation's sub-space.
const PREDECODE_ALLOCATION_RANK: usize = ALLOCATION_RANK + 1;

impl ScheduleSpace {
    /// The space `options` spans for `rago`'s workload and budget. Steps
    /// that can never yield a valid candidate are dropped up front: zero,
    /// duplicate and above-budget steps ([`ResourceBudget`]'s
    /// `admissible_*_steps`). Only iterative workloads spin the iterative
    /// axis; elsewhere it is the single step `None`.
    pub(crate) fn new(rago: &Rago, options: &SearchOptions) -> Self {
        let schema = rago.profiler().schema();
        let budget = rago.budget();
        let placements = options
            .placements
            .clone()
            .unwrap_or_else(|| PlacementPlan::enumerate(schema));
        let iterative_batches = if schema.is_iterative() {
            admissible_batches(&options.iterative_batch_steps)
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None]
        };
        let mut space = Self {
            blocks: Vec::with_capacity(placements.len()),
            xpu_steps: budget.admissible_xpu_steps(&options.xpu_steps),
            server_steps: budget.admissible_server_steps(&rago.server_steps(options)),
            predecode_batches: admissible_batches(&options.predecode_batch_steps),
            decode_batches: admissible_batches(&options.decode_batch_steps),
            iterative_batches,
            max_total_xpus: budget.max_xpus,
            size: 0,
        };
        // Every axis but the groups; an empty axis empties the space.
        let inner = (space.xpu_steps.len()
            * space.server_steps.len()
            * space.predecode_batches.len()
            * space.decode_batches.len()
            * space.iterative_batches.len()) as u128;
        for placement in placements {
            let groups = placement.num_groups() as u32;
            space.blocks.push(PlacementBlock {
                placement,
                offset: space.size,
            });
            space.size += inner * (space.xpu_steps.len() as u128).pow(groups);
        }
        space
    }

    /// Checks every placement of the space with [`PlacementPlan::validate`].
    /// The searches call it once, up front, so no candidate pays for it.
    pub(crate) fn validate_placements(&self, schema: &RagSchema) -> Result<(), RagoError> {
        self.blocks
            .iter()
            .try_for_each(|block| block.placement.validate(schema))
    }

    /// Total number of addressable candidates (including allocations over
    /// the XPU budget, which [`ScheduleSpace::feasible`] rejects).
    pub fn size(&self) -> u128 {
        self.size
    }

    /// The schedule at `index`, or `None` past the end of the space.
    pub fn decode(&self, index: u128) -> Option<Schedule> {
        self.digits_of(index).map(|d| self.schedule_at(&d))
    }

    /// Whether the candidate at `index` fits the XPU budget. (Budget-wise
    /// inadmissible *steps* were already filtered from the axes; this
    /// rejects admissible steps whose *sum* exceeds the budget.)
    pub fn feasible(&self, index: u128) -> bool {
        self.digits_of(index)
            .is_some_and(|d| self.digits_feasible(&d))
    }

    /// The candidates in one allocation's sub-space: servers × batching.
    fn allocation_size(&self) -> usize {
        self.server_steps.len()
            * self.predecode_batches.len()
            * self.decode_batches.len()
            * self.iterative_batches.len()
    }

    /// Every candidate within the XPU budget, in index order: the stream
    /// `into_iter` gives.
    pub(crate) fn candidates(self: Arc<Self>) -> ScheduleIter {
        ScheduleIter {
            units: self
                .predecode_allocations()
                .flat_map(PredecodeAllocation::candidates as fn(_) -> _),
        }
    }

    /// The exhaustive search's work units: one [`PredecodeAllocation`]
    /// per placement and group XPUs of the space, in index order.
    pub(crate) fn predecode_allocations(self: Arc<Self>) -> PredecodeAllocations {
        let cursor = self.digits_of(0);
        let remaining = match self.allocation_size() * self.xpu_steps.len() {
            0 => 0,
            size => usize::try_from(self.size / size as u128).unwrap_or(usize::MAX),
        };
        PredecodeAllocations {
            space: self,
            cursor,
            remaining,
        }
    }

    /// The XPUs of every pre-decode group of `d`, summed.
    fn group_xpus(&self, d: &Digits) -> u32 {
        d.groups.iter().map(|&i| self.xpu_steps[i]).sum()
    }

    fn digits_feasible(&self, d: &Digits) -> bool {
        self.group_xpus(d) + self.xpu_steps[d.decode] <= self.max_total_xpus
    }

    fn digits_of(&self, index: u128) -> Option<Digits> {
        if index >= self.size {
            return None;
        }
        // Blocks are never empty in a non-empty space, so offsets rise.
        let block = self.blocks.partition_point(|b| b.offset <= index) - 1;
        let mut rem = index - self.blocks[block].offset;
        let mut take = |len: usize| {
            let digit = (rem % len as u128) as usize;
            rem /= len as u128;
            digit
        };
        let iterative = take(self.iterative_batches.len());
        let decode_batch = take(self.decode_batches.len());
        let predecode = take(self.predecode_batches.len());
        let server = take(self.server_steps.len());
        let decode = take(self.xpu_steps.len());
        let groups: Vec<usize> = (0..self.blocks[block].placement.num_groups())
            .map(|_| take(self.xpu_steps.len()))
            .collect();
        Some(Digits {
            block,
            groups,
            decode,
            server,
            predecode,
            decode_batch,
            iterative,
        })
    }

    fn encode(&self, d: &Digits) -> u128 {
        let mut v: u128 = 0;
        for &g in d.groups.iter().rev() {
            v = v * self.xpu_steps.len() as u128 + g as u128;
        }
        v = v * self.xpu_steps.len() as u128 + d.decode as u128;
        v = v * self.server_steps.len() as u128 + d.server as u128;
        v = v * self.predecode_batches.len() as u128 + d.predecode as u128;
        v = v * self.decode_batches.len() as u128 + d.decode_batch as u128;
        v = v * self.iterative_batches.len() as u128 + d.iterative as u128;
        self.blocks[d.block].offset + v
    }

    /// Steps `d` to a later index, carrying like an odometer: the digit of
    /// rank `from` (counting from the least significant) goes up by one and
    /// every digit below it resets to zero. Rank 0 steps to the next index;
    /// [`ALLOCATION_RANK`] steps past the current allocation's sub-space.
    /// Returns `false` past the end of the space.
    fn carry(&self, d: &mut Digits, from: usize) -> bool {
        let xpus = self.xpu_steps.len();
        let inner = [
            (&mut d.iterative, self.iterative_batches.len()),
            (&mut d.decode_batch, self.decode_batches.len()),
            (&mut d.predecode, self.predecode_batches.len()),
            (&mut d.server, self.server_steps.len()),
            (&mut d.decode, xpus),
        ];
        let groups = d.groups.iter_mut().map(|g| (g, xpus));
        for (rank, (digit, len)) in inner.into_iter().chain(groups).enumerate() {
            if rank >= from {
                *digit += 1;
                if *digit < len {
                    return true;
                }
            }
            *digit = 0;
        }
        d.block += 1;
        match self.blocks.get(d.block) {
            Some(block) => {
                d.groups = vec![0; block.placement.num_groups()];
                true
            }
            None => false,
        }
    }

    fn schedule_at(&self, d: &Digits) -> Schedule {
        let placement = self.blocks[d.block].placement.clone();
        let group_xpus: Vec<u32> = d.groups.iter().map(|&i| self.xpu_steps[i]).collect();
        let mut batching = BatchingPolicy::new(
            self.predecode_batches[d.predecode],
            self.decode_batches[d.decode_batch],
        );
        batching.iterative_batch = self.iterative_batches[d.iterative];
        Schedule {
            placement,
            allocation: ResourceAllocation {
                group_xpus,
                decode_xpus: self.xpu_steps[d.decode],
                retrieval_servers: self.server_steps[d.server],
            },
            batching,
        }
    }

    /// Number of steppable axes for a candidate in `block`: one per
    /// placement group, plus decode allocation, server count, pre-decode
    /// batch, decode batch, and iterative batch.
    fn num_axes(&self, block: usize) -> usize {
        self.blocks[block].placement.num_groups() + 5
    }

    fn axis_len(&self, block: usize, axis: usize) -> usize {
        let groups = self.blocks[block].placement.num_groups();
        if axis < groups {
            return self.xpu_steps.len();
        }
        match axis - groups {
            0 => self.xpu_steps.len(),
            1 => self.server_steps.len(),
            2 => self.predecode_batches.len(),
            3 => self.decode_batches.len(),
            _ => self.iterative_batches.len(),
        }
    }

    /// The digit of `axis`, in [`ScheduleSpace::num_axes`]' order.
    fn axis_mut(d: &mut Digits, axis: usize) -> &mut usize {
        let groups = d.groups.len();
        if axis < groups {
            return &mut d.groups[axis];
        }
        match axis - groups {
            0 => &mut d.decode,
            1 => &mut d.server,
            2 => &mut d.predecode,
            3 => &mut d.decode_batch,
            _ => &mut d.iterative,
        }
    }

    /// One coordinate step: the neighbour of `d` along `axis` in direction
    /// `dir` (±1), or `None` at the axis boundary.
    fn step(&self, d: &Digits, axis: usize, dir: isize) -> Option<Digits> {
        let len = self.axis_len(d.block, axis);
        let mut out = d.clone();
        let digit = Self::axis_mut(&mut out, axis);
        *digit = digit.checked_add_signed(dir).filter(|&next| next < len)?;
        Some(out)
    }
}

impl IntoIterator for ScheduleSpace {
    type Item = Schedule;
    type IntoIter = ScheduleIter;

    fn into_iter(self) -> ScheduleIter {
        Arc::new(self).candidates()
    }
}

/// The pre-decode allocations of a [`ScheduleSpace`] in index order, each
/// yielded as a [`PredecodeAllocation`] work unit. The source reports its
/// exact length, so a parallel consumer can split even a short list across
/// its workers.
#[derive(Debug, Clone)]
pub(crate) struct PredecodeAllocations {
    space: Arc<ScheduleSpace>,
    /// The digits of the next unit's first candidate; `None` past the end.
    cursor: Option<Digits>,
    /// Units not yet yielded.
    remaining: usize,
}

impl Iterator for PredecodeAllocations {
    type Item = PredecodeAllocation;

    fn next(&mut self) -> Option<PredecodeAllocation> {
        let digits = self.cursor.as_mut()?;
        let unit = PredecodeAllocation {
            space: Arc::clone(&self.space),
            digits: digits.clone(),
        };
        if !self.space.carry(digits, PREDECODE_ALLOCATION_RANK) {
            self.cursor = None;
        }
        self.remaining = self.remaining.saturating_sub(1);
        Some(unit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// One placement with one XPU count per group: the sub-space of every
/// decode allocation × server × batching setting beside it.
#[derive(Debug, Clone)]
pub(crate) struct PredecodeAllocation {
    space: Arc<ScheduleSpace>,
    /// The digits of the unit's first candidate.
    digits: Digits,
}

impl PredecodeAllocation {
    /// The XPUs the budget leaves for the decode stage, or `None` when the
    /// groups alone exceed it.
    pub(crate) fn decode_room(&self) -> Option<u32> {
        let groups = self.space.group_xpus(&self.digits);
        self.space.max_total_xpus.checked_sub(groups)
    }

    /// One schedule per server × pre-decode batch of the unit, in index
    /// order. Its decode fields are the first step of each decode axis.
    pub(crate) fn predecode_choices(&self) -> impl Iterator<Item = Schedule> + '_ {
        let servers = 0..self.space.server_steps.len();
        servers.flat_map(move |server| {
            (0..self.space.predecode_batches.len()).map(move |predecode| {
                self.space.schedule_at(&Digits {
                    server,
                    predecode,
                    ..self.digits.clone()
                })
            })
        })
    }

    /// The unit's candidates within the XPU budget, in index order, built
    /// on demand.
    pub(crate) fn candidates(self) -> Candidates {
        let remaining = self.space.xpu_steps.len() * self.space.allocation_size();
        Candidates {
            space: self.space,
            digits: self.digits,
            remaining,
        }
    }
}

/// One pre-decode allocation's candidates, every decode allocation within
/// the XPU budget × server × batching setting in index order, built on
/// demand.
#[derive(Debug, Clone)]
pub(crate) struct Candidates {
    space: Arc<ScheduleSpace>,
    /// The digits of the next candidate.
    digits: Digits,
    /// Candidates of the unit not yet passed, over the budget or not.
    remaining: usize,
}

impl Iterator for Candidates {
    type Item = Schedule;

    fn next(&mut self) -> Option<Schedule> {
        while self.remaining > 0 {
            if !self.space.digits_feasible(&self.digits) {
                // A decode allocation over the budget: pass over its whole
                // server × batching sub-space.
                self.remaining -= self.space.allocation_size();
                if self.remaining > 0 {
                    self.space.carry(&mut self.digits, ALLOCATION_RANK);
                }
                continue;
            }
            let schedule = self.space.schedule_at(&self.digits);
            self.remaining -= 1;
            if self.remaining > 0 {
                self.space.carry(&mut self.digits, 0);
            }
            return Some(schedule);
        }
        None
    }
}

/// The exhaustive stream over a [`ScheduleSpace`]: every candidate within
/// the XPU budget, in index order, built on demand. It is the in-order
/// concatenation of the candidates of the exhaustive search's work units,
/// one per pre-decode allocation; an allocation over the budget is passed
/// over with its whole server × batching sub-space.
#[derive(Debug, Clone)]
pub struct ScheduleIter {
    units:
        std::iter::FlatMap<PredecodeAllocations, Candidates, fn(PredecodeAllocation) -> Candidates>,
}

impl Iterator for ScheduleIter {
    type Item = Schedule;

    fn next(&mut self) -> Option<Schedule> {
        self.units.next()
    }
}

/// The batch sizes of `steps` a candidate can use: positive and unique, in
/// the caller's order — the resource axes' filter without a budget.
fn admissible_batches(steps: &[u32]) -> Vec<u32> {
    ResourceBudget::new(u32::MAX, u32::MAX).admissible_xpu_steps(steps)
}

/// One survivor of the [`BestSamples`] beam.
#[derive(Debug, Clone)]
pub struct BeamEntry {
    /// The candidate's index in its [`ScheduleSpace`].
    pub index: u128,
    /// The beam objective: QPS/chip.
    pub score: f64,
    /// The schedule itself.
    pub schedule: Schedule,
    /// Cached [`Schedule::identity_key`] (the dedup/tie-break key).
    key: String,
}

/// A capacity-bounded, deduplicated set of the best samples seen so far,
/// ordered by score (QPS/chip) descending. Dedup and tie-breaks use
/// [`Schedule::identity_key`], so reporting the same candidates in any
/// order — from any number of workers — yields the same beam.
#[derive(Debug, Clone)]
pub struct BestSamples {
    capacity: usize,
    entries: Vec<BeamEntry>,
}

impl BestSamples {
    /// Creates an empty beam holding at most `capacity` survivors.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Number of survivors currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the beam holds no survivor yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The survivors, best score first (ties by identity key ascending).
    pub fn entries(&self) -> &[BeamEntry] {
        &self.entries
    }

    /// Reports one scored sample. Returns `true` if it entered the beam.
    pub fn report(&mut self, index: u128, score: f64, schedule: Schedule) -> bool {
        let key = schedule.identity_key();
        if self.entries.iter().any(|e| e.key == key) {
            // A candidate's score is a pure function of its schedule, so a
            // duplicate can neither improve nor displace anything.
            return false;
        }
        let pos = self.entries.partition_point(|e| {
            e.score.total_cmp(&score) == std::cmp::Ordering::Greater
                || (e.score.total_cmp(&score) == std::cmp::Ordering::Equal && e.key < key)
        });
        if pos >= self.capacity {
            return false;
        }
        self.entries.insert(
            pos,
            BeamEntry {
                index,
                score,
                schedule,
                key,
            },
        );
        self.entries.truncate(self.capacity);
        true
    }
}

/// One anytime checkpoint: the frontier as of a round boundary.
#[derive(Debug, Clone)]
pub struct AnytimeSample {
    /// Novel evaluations spent up to this checkpoint.
    pub evaluations: usize,
    /// Wall-clock seconds elapsed at this checkpoint (informational; not
    /// part of the reproducible surface).
    pub elapsed_s: f64,
    /// The frontier over everything evaluated so far.
    pub frontier: ParetoFrontier,
}

/// The result of one stochastic search run.
#[derive(Debug, Clone)]
pub struct StochasticSearchReport {
    /// The Pareto frontier over every evaluated candidate.
    pub frontier: ParetoFrontier,
    /// Novel candidate evaluations spent (feasible or not).
    pub evaluations: usize,
    /// How many of those evaluated successfully (structurally feasible and
    /// within every stage's cost model).
    pub feasible_evaluations: usize,
    /// Sampling rounds completed (= exchange checkpoints).
    pub rounds: usize,
    /// Total addressable candidates in the space.
    pub space_size: u128,
    /// Whether the search visited every candidate (at which point the
    /// frontier is exactly the exhaustive one).
    pub exhausted: bool,
    /// Wall-clock seconds for the whole run (informational).
    pub elapsed_s: f64,
    /// The frontier at every round boundary, oldest first. With a fixed
    /// reference point, `frontier.hypervolume(..)` over this timeline is
    /// non-decreasing.
    pub timeline: Vec<AnytimeSample>,
}

/// Splits a `u64` seed into an independent per-(round, stream) RNG.
fn stream_rng(seed: u64, round: usize, stream: u64) -> StdRng {
    let mixed = seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    StdRng::seed_from_u64(mixed)
}

/// A uniform index into `0..size`.
fn draw_index<R: RngCore>(rng: &mut R, size: u128) -> u128 {
    if size <= u64::MAX as u128 {
        return u128::from(rng.gen_range(0..size as u64));
    }
    // Compose two draws for astronomically large grids; the modulo bias is
    // ~2^-64 and irrelevant for sampling quality.
    let hi = u128::from(rng.gen::<u64>());
    let lo = u128::from(rng.gen::<u64>());
    ((hi << 64) | lo) % size
}

/// Evaluation outcome of one candidate, in work-list order.
type Evaluated = (u128, Schedule, Option<RagPerformance>);

/// `work.map(f)` on the crate's one parallel loop: each item is tagged with
/// its position, the rayon workers fold their share, and the merged results
/// are sorted back by position, so thread timing never shows in the order.
fn in_order<I, R>(work: I, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: Send,
    I::Item: Send,
    R: Send,
{
    let mut tagged = work
        .into_iter()
        .enumerate()
        .par_bridge()
        .fold(Vec::new, |mut acc, (position, item)| {
            acc.push((position, f(item)));
            acc
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    tagged.sort_unstable_by_key(|&(position, _)| position);
    tagged.into_iter().map(|(_, result)| result).collect()
}

/// What the search has learned so far: every reserved index, the QPS/chip
/// of every feasible evaluation, the survivor beam, the frontier, and the
/// evaluation counters. The descent phase reads it as a frozen snapshot.
struct Known {
    seen: HashSet<u128>,
    scores: HashMap<u128, f64>,
    beam: BestSamples,
    accumulator: ParetoAccumulator,
    evaluations: usize,
    feasible_evaluations: usize,
}

impl Known {
    /// Reserves `index` and returns its candidate when it is novel and
    /// within the XPU budget. An index over the budget stays reserved, so it
    /// is never drawn again.
    fn reserve(&mut self, space: &ScheduleSpace, index: u128) -> Option<(u128, Schedule)> {
        if !self.seen.insert(index) {
            return None;
        }
        let digits = space.digits_of(index).expect("index in range");
        space
            .digits_feasible(&digits)
            .then(|| (index, space.schedule_at(&digits)))
    }

    /// Charges one evaluation and merges a feasible one into the scores,
    /// the beam and the frontier.
    fn record(&mut self, (index, schedule, perf): Evaluated) {
        self.evaluations += 1;
        let Some(performance) = perf else {
            return;
        };
        self.feasible_evaluations += 1;
        self.scores.insert(index, performance.qps_per_chip);
        self.beam
            .report(index, performance.qps_per_chip, schedule.clone());
        self.accumulator.push(ParetoPoint {
            schedule,
            performance,
        });
    }
}

/// Hill-climbs one survivor along one axis at a time against `known`, as
/// frozen before the round's descent phase, for at most
/// [`StochasticConfig::DESCENT_SWEEPS`] sweeps and
/// [`StochasticConfig::DESCENT_EVALUATIONS`] novel candidates. Returns the
/// ordered list of evaluations performed (the caller merges them; nothing
/// shared is mutated here, which is what keeps the phase deterministic
/// under any thread count).
fn coordinate_descent(
    space: &ScheduleSpace,
    profiler: &StageProfiler,
    known: &Known,
    entry: &BeamEntry,
) -> Vec<Evaluated> {
    let mut digits = space.digits_of(entry.index).expect("survivor in range");
    let mut best = entry.score;
    let mut evals: Vec<Evaluated> = Vec::new();
    let mut local: HashMap<u128, Option<f64>> = HashMap::new();
    let mut budget_left = StochasticConfig::DESCENT_EVALUATIONS;

    'sweeps: for _ in 0..StochasticConfig::DESCENT_SWEEPS {
        let mut improved = false;
        for axis in 0..space.num_axes(digits.block) {
            for dir in [1, -1] {
                // Walk this direction while it keeps strictly improving.
                while let Some(next) = space.step(&digits, axis, dir) {
                    let index = space.encode(&next);
                    let score = if let Some(&s) = known.scores.get(&index) {
                        Some(s)
                    } else if known.seen.contains(&index) {
                        // Known infeasible (or cost-model-rejected).
                        None
                    } else if let Some(&s) = local.get(&index) {
                        s
                    } else {
                        if budget_left == 0 {
                            break 'sweeps;
                        }
                        budget_left -= 1;
                        let schedule = space.schedule_at(&next);
                        let perf = if space.digits_feasible(&next) {
                            schedule.evaluate_with(profiler).ok()
                        } else {
                            None
                        };
                        let s = perf.as_ref().map(|p| p.qps_per_chip);
                        local.insert(index, s);
                        evals.push((index, schedule, perf));
                        s
                    };
                    match score {
                        Some(s) if s > best => {
                            best = s;
                            digits = next;
                            improved = true;
                        }
                        _ => break,
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    evals
}

/// Runs the stochastic search over `space` for `rago`'s workload; the
/// façade is [`Rago::optimize_stochastic`].
///
/// # Errors
///
/// Returns [`RagoError::InvalidConfig`] for a malformed `config` or a
/// placement that fails [`PlacementPlan::validate`], and
/// [`RagoError::NoFeasibleSchedule`] when the budget ran out before any
/// feasible candidate was found (or the space holds none).
pub(crate) fn run_stochastic(
    rago: &Rago,
    space: &ScheduleSpace,
    config: &StochasticConfig,
) -> Result<StochasticSearchReport, RagoError> {
    config.validate()?;
    space.validate_placements(rago.profiler().schema())?;
    let start = Instant::now();
    let profiler = rago.profiler();

    let mut known = Known {
        seen: HashSet::new(),
        scores: HashMap::new(),
        beam: BestSamples::new(StochasticConfig::BEAM_WIDTH),
        accumulator: ParetoAccumulator::new(),
        evaluations: 0,
        feasible_evaluations: 0,
    };
    let mut rounds = 0usize;
    let mut scan_cursor: u128 = 0;
    let mut scanned: u128 = 0; // indices the fallback scan has consumed
    let mut timeline: Vec<AnytimeSample> = Vec::new();
    let mut exhausted = space.size() == 0;

    while !exhausted && known.evaluations < config.max_evaluations {
        rounds += 1;
        let remaining = config.max_evaluations - known.evaluations;
        let target = StochasticConfig::ROUND_EVALUATIONS.min(remaining);

        // ---- Generation (sequential, deterministic): the round's work
        // list of novel candidates, reserved in `seen` up front. It grows
        // as it fills, so it never holds more than the space has left. ----
        let mut batch: Vec<(u128, Schedule)> = Vec::new();
        let uniform_quota = if known.beam.is_empty() {
            target
        } else {
            ((target as f64) * StochasticConfig::UNIFORM_FRACTION).round() as usize
        };

        // Uniform draws; on sustained novelty misses, fall back to a
        // deterministic cursor scan so coverage is guaranteed. Once every
        // index is reserved each draw would miss, so drawing stops there.
        let mut rng = stream_rng(config.seed, rounds, 0xA11C_E5EE);
        let miss_limit = uniform_quota.saturating_mul(4).saturating_add(64);
        let mut misses = 0usize;
        while batch.len() < uniform_quota
            && misses < miss_limit
            && (known.seen.len() as u128) < space.size()
        {
            match known.reserve(space, draw_index(&mut rng, space.size())) {
                Some(candidate) => batch.push(candidate),
                None => misses += 1,
            }
        }
        if batch.len() < uniform_quota {
            // Saturated: sweep the cursor over the remaining unseen indices.
            while batch.len() < uniform_quota && scanned < space.size() {
                batch.extend(known.reserve(space, scan_cursor));
                scan_cursor = (scan_cursor + 1) % space.size();
                scanned += 1;
            }
            if scanned >= space.size() {
                // Every index is now reserved; whatever is in flight this
                // round is the last of the space.
                exhausted = true;
            }
        }

        // Focussed draws: perturb one axis of a beam survivor (or jump to a
        // fresh placement block), one RNG stream per survivor slot.
        let survivors: Vec<BeamEntry> = known.beam.entries().to_vec();
        let share = target
            .saturating_sub(batch.len())
            .div_ceil(survivors.len().max(1));
        for (slot, survivor) in survivors.iter().enumerate() {
            let quota = share.min(target.saturating_sub(batch.len()));
            if quota == 0 {
                break;
            }
            let mut rng = stream_rng(config.seed, rounds, 0xF0C0_5000 + slot as u64);
            let base = space.digits_of(survivor.index).expect("survivor in range");
            let axes = space.num_axes(base.block);
            let attempt_limit = quota.saturating_mul(8).saturating_add(16);
            let mut drawn = 0usize;
            let mut attempts = 0usize;
            while drawn < quota && attempts < attempt_limit {
                attempts += 1;
                // Axis `axes` is the "jump" move: a fresh uniform index
                // (possibly another placement), keeping the sampler
                // ergodic across blocks.
                let axis = rng.gen_range(0..=axes);
                let index = if axis == axes {
                    draw_index(&mut rng, space.size())
                } else {
                    let mut d = base.clone();
                    let len = space.axis_len(d.block, axis);
                    *ScheduleSpace::axis_mut(&mut d, axis) = rng.gen_range(0..len);
                    space.encode(&d)
                };
                if let Some(candidate) = known.reserve(space, index) {
                    batch.push(candidate);
                    drawn += 1;
                }
            }
        }

        // ---- Parallel evaluation; merge in work-list order. ----
        let had_batch = !batch.is_empty();
        let evaluated = in_order(batch, |(index, schedule)| {
            let perf = schedule.evaluate_with(profiler).ok();
            (index, schedule, perf)
        });
        for evaluation in evaluated {
            known.record(evaluation);
        }

        // ---- Coordinate descent on the round-start survivors, against the
        // frozen snapshot; results merge in survivor order. ----
        let mut descent_progress = false;
        let descents = in_order(&survivors, |entry| {
            coordinate_descent(space, profiler, &known, entry)
        });
        for evaluation in descents.into_iter().flatten() {
            // Two survivors may explore the same neighbour; charge and
            // record it once (the first, in survivor order).
            if known.seen.insert(evaluation.0) {
                descent_progress = true;
                known.record(evaluation);
            }
        }

        // ---- Exchange checkpoint: everything learned this round is now in
        // the shared beam + frontier for the next round. ----
        timeline.push(AnytimeSample {
            evaluations: known.evaluations,
            elapsed_s: start.elapsed().as_secs_f64(),
            frontier: known.accumulator.clone().into_frontier(),
        });
        if !had_batch && !descent_progress {
            // Nothing novel can be generated any more.
            exhausted = true;
        }
    }

    if known.accumulator.is_empty() {
        return Err(rago.no_feasible_schedule());
    }
    Ok(StochasticSearchReport {
        frontier: known.accumulator.into_frontier(),
        evaluations: known.evaluations,
        feasible_evaluations: known.feasible_evaluations,
        rounds,
        space_size: space.size(),
        exhausted,
        elapsed_s: start.elapsed().as_secs_f64(),
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};

    fn case1() -> Rago {
        Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        )
    }

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
    fn space_size_matches_axis_product() {
        let rago = case1();
        let space = rago.schedule_space(&tiny_options());
        // Case 1 has one collocatable stage → one placement with one group:
        // 2 (group) × 2 (decode) × 1 (server) × 2 (pre) × 1 (decode batch).
        assert_eq!(space.size(), 8);
    }

    /// Case IV has placements of one to four groups. At 40 XPUs some
    /// allocations are over budget, so the stream's skip past an
    /// allocation's sub-space runs.
    fn case4_at_40_xpus() -> (Rago, SearchOptions) {
        let rago = Rago::new(
            presets::case4_rewriter_reranker(LlmSize::B8),
            ClusterSpec::paper_default(),
        )
        .with_budget(ResourceBudget::new(40, 32));
        let options = SearchOptions {
            xpu_steps: vec![4, 16],
            server_steps: vec![16, 32],
            predecode_batch_steps: vec![4, 8],
            decode_batch_steps: vec![128, 256],
            iterative_batch_steps: vec![8],
            placements: None,
        };
        (rago, options)
    }

    #[test]
    fn schedule_iter_streams_the_feasible_decodes_in_order() {
        let (rago, options) = case4_at_40_xpus();
        let space = rago.schedule_space(&options);
        let mut decoded: Vec<Schedule> = Vec::new();
        for index in 0..space.size() {
            let schedule = space.decode(index).expect("index in range");
            assert_eq!(
                space.feasible(index),
                schedule.allocation.total_xpus() <= rago.budget().max_xpus
            );
            if space.feasible(index) {
                decoded.push(schedule);
            }
        }
        assert!(
            (decoded.len() as u128) < space.size(),
            "no allocation rejected"
        );
        let streamed: Vec<Schedule> = rago.schedule_iter(&options).collect();
        assert_eq!(streamed, decoded);
    }

    #[test]
    fn allocation_units_are_the_stream_split_by_allocation() {
        let (rago, options) = case4_at_40_xpus();
        let space = Arc::new(rago.schedule_space(&options));
        let allocation_of = |s: &Schedule| (s.placement.clone(), s.allocation.group_xpus.clone());
        // Every pre-decode allocation of the space, in index order, with
        // whether any of its candidates fits.
        let mut allocations: Vec<(_, bool)> = Vec::new();
        for index in 0..space.size() {
            let key = allocation_of(&space.decode(index).expect("index in range"));
            match allocations.last_mut() {
                Some((last, fits)) if *last == key => *fits |= space.feasible(index),
                _ => allocations.push((key, space.feasible(index))),
            }
        }
        let units = Arc::clone(&space).predecode_allocations();
        assert_eq!(
            units.size_hint(),
            (allocations.len(), Some(allocations.len()))
        );
        let units: Vec<PredecodeAllocation> = units.collect();
        assert_eq!(units.len(), allocations.len());
        let mut streamed = Vec::new();
        for (unit, (allocation, fits)) in units.iter().zip(&allocations) {
            let groups: u32 = allocation.1.iter().sum();
            assert_eq!(unit.decode_room(), 40u32.checked_sub(groups));
            // One pre-decode choice per server × pre-decode batch.
            let choices: Vec<Schedule> = unit.predecode_choices().collect();
            assert_eq!(choices.len(), 2 * 2);
            assert!(choices.iter().all(|s| allocation_of(s) == *allocation));
            let candidates: Vec<Schedule> = unit.clone().candidates().collect();
            assert_eq!(candidates.is_empty(), !fits, "{allocation:?}");
            assert!(candidates.iter().all(|s| allocation_of(s) == *allocation));
            streamed.push(candidates);
        }
        assert!(
            streamed.iter().any(Vec::is_empty),
            "no allocation over budget"
        );
        // Some unit passes over one decode allocation but not the other.
        let full = space.xpu_steps.len() * space.allocation_size();
        assert!(streamed.iter().any(|c| !c.is_empty() && c.len() < full));
        let stream: Vec<Schedule> = rago.schedule_iter(&options).collect();
        assert_eq!(streamed.concat(), stream);
    }

    #[test]
    fn encode_round_trips_every_index() {
        let rago = Rago::new(
            presets::case4_rewriter_reranker(LlmSize::B8),
            ClusterSpec::paper_default(),
        );
        let options = SearchOptions {
            xpu_steps: vec![4, 16],
            server_steps: vec![16, 32],
            predecode_batch_steps: vec![4, 8],
            decode_batch_steps: vec![128],
            iterative_batch_steps: vec![8],
            placements: None,
        };
        let space = rago.schedule_space(&options);
        assert!(space.size() > 0);
        for index in 0..space.size() {
            let digits = space.digits_of(index).expect("index in range");
            assert_eq!(space.encode(&digits), index);
        }
        assert!(space.decode(space.size()).is_none());
    }

    #[test]
    fn beam_dedups_and_keeps_best() {
        let mut beam = BestSamples::new(2);
        let schedule_scoring = |xpus: u32| {
            let mut s = Schedule::test_dummy();
            s.allocation.decode_xpus = xpus;
            s
        };
        assert!(beam.report(0, 1.0, schedule_scoring(1)));
        assert!(!beam.report(0, 1.0, schedule_scoring(1)), "duplicate key");
        assert!(beam.report(1, 3.0, schedule_scoring(2)));
        assert!(beam.report(2, 2.0, schedule_scoring(3)), "evicts the 1.0");
        assert_eq!(beam.len(), 2);
        assert_eq!(beam.entries()[0].score, 3.0);
        assert_eq!(beam.entries()[1].score, 2.0);
        assert!(!beam.report(3, 0.5, schedule_scoring(4)), "below the beam");
    }

    #[test]
    fn beam_is_report_order_independent() {
        let entries: Vec<(u128, f64, u32)> = (0..12)
            .map(|i| (u128::from(i), f64::from((i * 7) % 5), 100 + i))
            .collect();
        let build = |order: &[usize]| {
            let mut beam = BestSamples::new(4);
            for &i in order {
                let (index, score, xpus) = entries[i];
                let mut s = Schedule::test_dummy();
                s.allocation.decode_xpus = xpus;
                beam.report(index, score, s);
            }
            beam.entries()
                .iter()
                .map(|e| (e.index, e.key.clone()))
                .collect::<Vec<_>>()
        };
        let forward: Vec<usize> = (0..entries.len()).collect();
        let reverse: Vec<usize> = (0..entries.len()).rev().collect();
        assert_eq!(build(&forward), build(&reverse));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ok = StochasticConfig::default();
        assert!(ok.validate().is_ok());
        let bad = ok.with_budget(0);
        assert!(
            matches!(bad.validate(), Err(RagoError::InvalidConfig { .. })),
            "{bad:?} should be rejected"
        );
    }

    #[test]
    fn stochastic_with_full_budget_recovers_tiny_grid_exactly() {
        let rago = case1();
        let options = tiny_options();
        let exhaustive = rago.optimize(&options).unwrap();
        // A `usize::MAX` budget passes validation too: the round's work list
        // may not try to reserve that many slots, and the miss and attempt
        // limits must not overflow.
        for config in [
            StochasticConfig::default().with_seed(7).with_budget(64),
            StochasticConfig::default().with_budget(usize::MAX),
        ] {
            let report = rago.optimize_stochastic(&options, &config).unwrap();
            assert!(report.exhausted, "8-candidate space must be exhausted");
            assert_eq!(report.evaluations, 8);
            assert_eq!(report.frontier.points, exhaustive.points);
        }
    }

    #[test]
    fn in_order_keeps_work_list_order() {
        // Longer than every worker's 64-item chunk put together, so the
        // workers' shares interleave.
        let work: Vec<u64> = (0..(rayon::current_num_threads() as u64 * 64 * 3 + 5)).collect();
        let expected: Vec<u64> = work.iter().map(|x| x * x + 1).collect();
        assert_eq!(in_order(work, |x| x * x + 1), expected);
    }

    #[test]
    fn no_feasible_schedule_is_reported() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B405, 1),
            ClusterSpec::paper_default(),
        )
        .with_budget(rago_hardware::ResourceBudget::new(2, 32));
        let options = SearchOptions {
            xpu_steps: vec![1],
            ..tiny_options()
        };
        let err = rago
            .optimize_stochastic(&options, &StochasticConfig::default())
            .unwrap_err();
        assert!(matches!(err, RagoError::NoFeasibleSchedule { .. }));
    }
}
