//! The schedule space and its exhaustive walk.
//!
//! `ScheduleSpace` is the one description of a search grid. The exhaustive
//! search ([`Rago::optimize`], [`Rago::frontiers_by_plan`]) walks it one
//! work unit per pre-decode allocation (placement × group XPUs), and
//! [`ScheduleIter`] is the in-order concatenation of those units'
//! candidates.

use crate::error::RagoError;
use crate::optimizer::{Rago, SearchOptions};
use crate::placement::PlacementPlan;
use crate::schedule::{BatchingPolicy, ResourceAllocation, Schedule};
use rago_hardware::ResourceBudget;
use rago_schema::RagSchema;
use std::sync::Arc;

/// The one description of a search grid: placements × budget-filtered
/// allocation steps × batching axes. It is walked one way, never
/// materialized: the units are the placements × group XPUs, first group
/// fastest; within a unit come its pre-decode choices (servers, then
/// pre-decode batch), and beside each of them every decode setting
/// ([`ScheduleSpace::decode_settings`]) that fits the XPU budget.
#[derive(Debug, Clone)]
pub(crate) struct ScheduleSpace {
    placements: Vec<PlacementPlan>,
    pub(crate) xpu_steps: Vec<u32>,
    pub(crate) server_steps: Vec<u32>,
    pub(crate) predecode_batches: Vec<u32>,
    pub(crate) decode_batches: Vec<u32>,
    pub(crate) iterative_batches: Vec<Option<u32>>,
    max_total_xpus: u32,
}

/// One setting of the decode axes: the decode XPUs, the decode batch and
/// the iterative batch of a schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct DecodeSetting {
    pub(crate) xpus: u32,
    pub(crate) batch: u32,
    pub(crate) iterative_batch: Option<u32>,
}

impl DecodeSetting {
    /// Sets `schedule`'s decode fields to this setting.
    pub(crate) fn apply(&self, schedule: &mut Schedule) {
        schedule.allocation.decode_xpus = self.xpus;
        schedule.batching.decode_batch = self.batch;
        schedule.batching.iterative_batch = self.iterative_batch;
    }
}

impl ScheduleSpace {
    /// The space `options` spans for `rago`'s workload and budget. Steps
    /// that can never yield a valid candidate are dropped up front: zero,
    /// duplicate and above-budget steps ([`ResourceBudget`]'s
    /// `admissible_*_steps`), and every placement listed before. Only
    /// iterative workloads spin the iterative axis; elsewhere it is the
    /// single step `None`.
    pub(crate) fn new(rago: &Rago, options: &SearchOptions) -> Self {
        let schema = rago.profiler().schema();
        let budget = rago.budget();
        let mut placements = Vec::new();
        for placement in options
            .placements
            .clone()
            .unwrap_or_else(|| PlacementPlan::enumerate(schema))
        {
            if !placements.contains(&placement) {
                placements.push(placement);
            }
        }
        let iterative_batches = if schema.is_iterative() {
            admissible_batches(&options.iterative_batch_steps)
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None]
        };
        Self {
            placements,
            xpu_steps: budget.admissible_xpu_steps(&options.xpu_steps),
            server_steps: budget.admissible_server_steps(&rago.server_steps(options)),
            predecode_batches: admissible_batches(&options.predecode_batch_steps),
            decode_batches: admissible_batches(&options.decode_batch_steps),
            iterative_batches,
            max_total_xpus: budget.max_xpus,
        }
    }

    /// Checks every placement of the space with [`PlacementPlan::validate`].
    /// The searches call it once, up front, so no candidate pays for it.
    pub(crate) fn validate_placements(&self, schema: &RagSchema) -> Result<(), RagoError> {
        self.placements
            .iter()
            .try_for_each(|placement| placement.validate(schema))
    }

    /// Every setting of the decode axes, in walk order: decode XPUs, then
    /// decode batch, then iterative batch.
    pub(crate) fn decode_settings(&self) -> impl Iterator<Item = DecodeSetting> + '_ {
        self.xpu_steps.iter().flat_map(move |&xpus| {
            self.decode_batches.iter().flat_map(move |&batch| {
                self.iterative_batches
                    .iter()
                    .map(move |&iterative_batch| DecodeSetting {
                        xpus,
                        batch,
                        iterative_batch,
                    })
            })
        })
    }

    /// Every candidate within the XPU budget, in walk order.
    pub(crate) fn candidates(self: Arc<Self>) -> ScheduleIter {
        ScheduleIter {
            units: self
                .predecode_allocations()
                .flat_map(PredecodeAllocation::candidates as fn(_) -> _),
        }
    }

    /// The exhaustive search's work units: one [`PredecodeAllocation`]
    /// per placement and group XPUs of the space, in walk order.
    pub(crate) fn predecode_allocations(self: Arc<Self>) -> PredecodeAllocations {
        // Without an XPU step there is no unit: even a zero-group placement
        // needs decode XPUs.
        let remaining = match self.xpu_steps.len() {
            0 => 0,
            steps => self
                .placements
                .iter()
                .map(|placement| steps.pow(placement.num_groups() as u32))
                .sum(),
        };
        let groups = self.placements.first().map_or(0, PlacementPlan::num_groups);
        PredecodeAllocations {
            space: self,
            placement: 0,
            groups: vec![0; groups],
            remaining,
        }
    }
}

/// The pre-decode allocations of a `ScheduleSpace` in walk order, each
/// yielded as a [`PredecodeAllocation`] work unit. The source reports its
/// exact length, so a parallel consumer can split even a short list across
/// its workers.
#[derive(Debug, Clone)]
pub(crate) struct PredecodeAllocations {
    space: Arc<ScheduleSpace>,
    /// The placement of the next unit.
    placement: usize,
    /// The next unit's XPU step per group, first group fastest.
    groups: Vec<usize>,
    /// Units not yet yielded.
    remaining: usize,
}

impl Iterator for PredecodeAllocations {
    type Item = PredecodeAllocation;

    fn next(&mut self) -> Option<PredecodeAllocation> {
        self.remaining = self.remaining.checked_sub(1)?;
        let space = &self.space;
        let unit = PredecodeAllocation {
            space: Arc::clone(space),
            placement: space.placements[self.placement].clone(),
            group_xpus: self.groups.iter().map(|&i| space.xpu_steps[i]).collect(),
        };
        // Step like an odometer; past the last group, on to the next
        // placement.
        for step in &mut self.groups {
            *step += 1;
            if *step < space.xpu_steps.len() {
                return Some(unit);
            }
            *step = 0;
        }
        self.placement += 1;
        if let Some(placement) = space.placements.get(self.placement) {
            self.groups = vec![0; placement.num_groups()];
        }
        Some(unit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// One placement with one XPU count per group: every server × batching
/// setting beside it, with every decode setting that fits the budget.
#[derive(Debug, Clone)]
pub(crate) struct PredecodeAllocation {
    space: Arc<ScheduleSpace>,
    placement: PlacementPlan,
    group_xpus: Vec<u32>,
}

impl PredecodeAllocation {
    /// The XPUs the budget leaves for the decode stage, or `None` when the
    /// groups alone exceed it.
    pub(crate) fn decode_room(&self) -> Option<u32> {
        let groups = self.group_xpus.iter().sum();
        self.space.max_total_xpus.checked_sub(groups)
    }

    /// One schedule per server step of the unit, in walk order, at the
    /// first pre-decode batch. Its decode fields are the first decode
    /// setting (zero when a decode axis is empty, and then nothing is
    /// paired with it). Each of the unit's pre-decode choices is one of
    /// these at one of [`Self::predecode_batches`].
    pub(crate) fn server_choices(&self) -> impl Iterator<Item = Schedule> + '_ {
        let space = &*self.space;
        let decode = space.decode_settings().next().unwrap_or_default();
        let predecode_batch = space.predecode_batches.first().copied().unwrap_or_default();
        space
            .server_steps
            .iter()
            .map(move |&retrieval_servers| Schedule {
                placement: self.placement.clone(),
                allocation: ResourceAllocation {
                    group_xpus: self.group_xpus.clone(),
                    decode_xpus: decode.xpus,
                    retrieval_servers,
                },
                batching: BatchingPolicy {
                    predecode_batch,
                    decode_batch: decode.batch,
                    iterative_batch: decode.iterative_batch,
                },
            })
    }

    /// The pre-decode batches of the space, in walk order.
    pub(crate) fn predecode_batches(&self) -> &[u32] {
        &self.space.predecode_batches
    }

    /// One schedule per server × pre-decode batch of the unit, in walk
    /// order, with the decode fields of [`Self::server_choices`].
    pub(crate) fn predecode_choices(&self) -> impl Iterator<Item = Schedule> + '_ {
        self.server_choices().flat_map(move |schedule| {
            self.predecode_batches().iter().map(move |&batch| {
                let mut choice = schedule.clone();
                choice.batching.predecode_batch = batch;
                choice
            })
        })
    }

    /// The unit's candidates within the XPU budget, in walk order: each
    /// pre-decode choice beside every decode setting that fits.
    pub(crate) fn candidates(self) -> Candidates {
        let room = self.decode_room().unwrap_or(0);
        let fitting: Vec<DecodeSetting> = self
            .space
            .decode_settings()
            .filter(|decode| decode.xpus <= room)
            .collect();
        Candidates {
            choices: self.predecode_choices().collect(),
            fitting,
            next: 0,
        }
    }
}

/// One pre-decode allocation's candidates: its pre-decode choices, each
/// beside every decode setting that fits the XPU budget, in walk order.
#[derive(Debug, Clone)]
pub(crate) struct Candidates {
    choices: Vec<Schedule>,
    fitting: Vec<DecodeSetting>,
    /// The position of the next candidate: pre-decode choice outer,
    /// decode setting inner.
    next: usize,
}

impl Iterator for Candidates {
    type Item = Schedule;

    fn next(&mut self) -> Option<Schedule> {
        let choice = self.next.checked_div(self.fitting.len())?;
        let mut schedule = self.choices.get(choice)?.clone();
        self.fitting[self.next % self.fitting.len()].apply(&mut schedule);
        self.next += 1;
        Some(schedule)
    }
}

/// The exhaustive stream over a search grid: every candidate within the
/// XPU budget, built on demand. It is the in-order concatenation of the
/// candidates of the exhaustive search's work units, one per pre-decode
/// allocation (placement × group XPUs, first group fastest); within a
/// unit, each pre-decode choice (servers, then pre-decode batch) comes
/// beside every decode setting that fits the budget (decode XPUs, then
/// decode batch, then iterative batch).
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

    /// Case IV has placements of one to four groups. At 40 XPUs some
    /// allocations are over budget, so the walk passes over decode
    /// settings and whole units.
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

    /// Every candidate of `options` (whose steps are positive, distinct and
    /// within the budget) with at most `max_xpus` XPUs, by nested loops in
    /// the walk's order.
    fn cross_product(rago: &Rago, options: &SearchOptions, max_xpus: u32) -> Vec<Schedule> {
        let schema = rago.profiler().schema();
        let xpus = &options.xpu_steps;
        let iterative: Vec<Option<u32>> = if schema.is_iterative() {
            options
                .iterative_batch_steps
                .iter()
                .copied()
                .map(Some)
                .collect()
        } else {
            vec![None]
        };
        let mut out = Vec::new();
        for placement in PlacementPlan::enumerate(schema) {
            // Every setting of the group XPUs, first group fastest.
            let mut settings = vec![Vec::new()];
            for _ in 0..placement.num_groups() {
                settings = xpus
                    .iter()
                    .flat_map(|&x| settings.iter().map(move |s| [s.as_slice(), &[x]].concat()))
                    .collect();
            }
            for group_xpus in settings {
                for &retrieval_servers in &options.server_steps {
                    for &predecode in &options.predecode_batch_steps {
                        for &decode_xpus in xpus {
                            for &decode in &options.decode_batch_steps {
                                for &iterative_batch in &iterative {
                                    let allocation = ResourceAllocation {
                                        group_xpus: group_xpus.clone(),
                                        decode_xpus,
                                        retrieval_servers,
                                    };
                                    if allocation.total_xpus() > max_xpus {
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

    #[test]
    fn schedule_iter_streams_the_feasible_decodes_in_order() {
        let (rago, options) = case4_at_40_xpus();
        let feasible = cross_product(&rago, &options, 40);
        assert!(
            feasible.len() < cross_product(&rago, &options, u32::MAX).len(),
            "no allocation rejected"
        );
        let streamed: Vec<Schedule> = rago.schedule_iter(&options).collect();
        assert_eq!(streamed, feasible);
    }

    #[test]
    fn allocation_units_are_the_stream_split_by_allocation() {
        let (rago, options) = case4_at_40_xpus();
        let space = Arc::new(ScheduleSpace::new(&rago, &options));
        let allocation_of = |s: &Schedule| (s.placement.clone(), s.allocation.group_xpus.clone());
        // Every pre-decode allocation, in walk order, over the budget or not.
        let mut allocations = Vec::new();
        for schedule in cross_product(&rago, &options, u32::MAX) {
            let key = allocation_of(&schedule);
            if allocations.last() != Some(&key) {
                allocations.push(key);
            }
        }
        let units = Arc::clone(&space).predecode_allocations();
        assert_eq!(
            units.size_hint(),
            (allocations.len(), Some(allocations.len()))
        );
        let units: Vec<PredecodeAllocation> = units.collect();
        assert_eq!(units.len(), allocations.len());
        let feasible = cross_product(&rago, &options, 40);
        let mut streamed = Vec::new();
        for (unit, allocation) in units.iter().zip(&allocations) {
            let groups: u32 = allocation.1.iter().sum();
            assert_eq!(unit.decode_room(), 40u32.checked_sub(groups));
            // One pre-decode choice per server × pre-decode batch.
            let choices: Vec<Schedule> = unit.predecode_choices().collect();
            assert_eq!(choices.len(), 2 * 2);
            assert!(choices.iter().all(|s| allocation_of(s) == *allocation));
            let candidates: Vec<Schedule> = unit.clone().candidates().collect();
            let expected: Vec<Schedule> = feasible
                .iter()
                .filter(|s| allocation_of(s) == *allocation)
                .cloned()
                .collect();
            assert_eq!(candidates, expected, "{allocation:?}");
            streamed.push(candidates);
        }
        assert!(
            streamed.iter().any(Vec::is_empty),
            "no allocation over budget"
        );
        // Some unit passes over one decode XPU step but not the other:
        // 2 decode XPUs × 2 servers × 2 pre-decode × 2 decode batches.
        assert!(streamed.iter().any(|c| !c.is_empty() && c.len() < 16));
        let stream: Vec<Schedule> = rago.schedule_iter(&options).collect();
        assert_eq!(streamed.concat(), stream);
    }
}
