//! The schedule space and its exhaustive stream.
//!
//! [`ScheduleSpace`] is the one description of a search grid. The
//! exhaustive search ([`Rago::optimize`], [`Rago::frontiers_by_plan`])
//! walks it in index order, one work unit per pre-decode allocation
//! (placement × group XPUs), and [`ScheduleIter`] is the in-order
//! concatenation of those units' candidates.

use crate::error::RagoError;
use crate::optimizer::{Rago, SearchOptions};
use crate::placement::PlacementPlan;
use crate::schedule::{BatchingPolicy, ResourceAllocation, Schedule};
use rago_hardware::ResourceBudget;
use rago_schema::RagSchema;
use std::sync::Arc;

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
/// into every axis. The exhaustive search's [`PredecodeAllocation`] units
/// and their candidates carry through them in index order.
#[derive(Debug, Clone)]
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
}
