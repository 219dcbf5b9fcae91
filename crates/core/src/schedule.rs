//! Schedules: placement + resource allocation + batching policy, and their
//! end-to-end evaluation (Step 3 of Algorithm 1).

use crate::error::RagoError;
use crate::metrics::RagPerformance;
use crate::placement::PlacementPlan;
use crate::profiler::{CostSource, StagePerf, StageProfiler};
use rago_schema::Stage;
use rago_serving_sim::iterative::IterativeDecodeParams;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt::{self, Write as _};

/// Resource allocation of one schedule (§6.1 \[II\]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceAllocation {
    /// XPU chips assigned to each pre-decode accelerator group (same order as
    /// [`PlacementPlan::predecode_groups`]).
    pub group_xpus: Vec<u32>,
    /// XPU chips assigned to the main LLM's decode stage.
    pub decode_xpus: u32,
    /// CPU servers assigned to retrieval.
    pub retrieval_servers: u32,
}

impl ResourceAllocation {
    /// Total XPU chips allocated to inference components.
    pub fn total_xpus(&self) -> u32 {
        self.group_xpus.iter().sum::<u32>() + self.decode_xpus
    }
}

/// Batching policy of one schedule (§6.1 \[III\]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BatchingPolicy {
    /// Micro-batch size shared by all stages up to (and including) the main
    /// LLM prefix, including retrieval.
    pub predecode_batch: u32,
    /// Batch size of the decode stage (continuous batching keeps it full).
    pub decode_batch: u32,
    /// Batch size of decoder-initiated iterative retrieval + prefix passes;
    /// only meaningful for iterative workloads (Case III). Defaults to the
    /// pre-decode batch when `None`.
    pub iterative_batch: Option<u32>,
}

impl BatchingPolicy {
    /// A uniform policy using `batch` before decode and `decode_batch` for
    /// decoding.
    pub fn new(batch: u32, decode_batch: u32) -> Self {
        Self {
            predecode_batch: batch,
            decode_batch,
            iterative_batch: None,
        }
    }

    /// Sets the iterative retrieval batch size.
    pub fn with_iterative_batch(mut self, b: u32) -> Self {
        self.iterative_batch = Some(b);
        self
    }
}

/// The analytic latency and throughput of a schedule's pre-decode side:
/// every accelerator group and retrieval, at the pre-decode batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PredecodeRates {
    /// Time to first token: every pre-decode stage's latency, summed.
    pub(crate) ttft_s: f64,
    /// Requests per second of the slowest pre-decode group or retrieval.
    pub(crate) predecode_qps: f64,
}

/// The analytic latency and throughput of a schedule's decode stage,
/// including the stalls of iterative retrievals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodeRates {
    /// Time per output token of the decode stage.
    pub(crate) tpot_s: f64,
    /// Requests per second of the decode stage.
    pub(crate) decode_qps: f64,
}

/// A complete scheduling decision: task placement, resource allocation, and
/// batching policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Which pre-decode stages share accelerator groups.
    pub placement: PlacementPlan,
    /// How many chips/servers every component receives.
    pub allocation: ResourceAllocation,
    /// The batch size of every stage.
    pub batching: BatchingPolicy,
}

impl Schedule {
    /// Validates structural consistency (group counts match, no zero
    /// allocations).
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] describing the first mismatch.
    pub fn validate(&self) -> Result<(), RagoError> {
        if self.allocation.group_xpus.len() != self.placement.num_groups() {
            return Err(RagoError::InvalidConfig {
                reason: format!(
                    "allocation covers {} groups but the placement defines {}",
                    self.allocation.group_xpus.len(),
                    self.placement.num_groups()
                ),
            });
        }
        if self.allocation.group_xpus.contains(&0) {
            return Err(RagoError::InvalidConfig {
                reason: "every accelerator group needs at least one XPU".into(),
            });
        }
        if self.allocation.decode_xpus == 0 {
            return Err(RagoError::InvalidConfig {
                reason: "the decode stage needs at least one XPU".into(),
            });
        }
        if self.allocation.retrieval_servers == 0 {
            return Err(RagoError::InvalidConfig {
                reason: "retrieval needs at least one CPU server".into(),
            });
        }
        if self.batching.predecode_batch == 0 || self.batching.decode_batch == 0 {
            return Err(RagoError::InvalidConfig {
                reason: "batch sizes must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// Evaluates the end-to-end performance of this schedule for the
    /// profiler's workload: TTFT, TPOT, QPS, and QPS/chip (Step 3 of
    /// Algorithm 1).
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] for structurally invalid
    /// schedules, including a placement that fails
    /// [`PlacementPlan::validate`], and [`RagoError::CostModel`] when any
    /// stage is infeasible under its allocation (e.g. its model does not fit
    /// in memory).
    pub fn evaluate(&self, profiler: &StageProfiler) -> Result<RagPerformance, RagoError> {
        self.placement.validate(profiler.schema())?;
        self.evaluate_with(profiler)
    }

    /// [`Self::evaluate`] against any cost source: the profiler, or the
    /// exhaustive search's table of it. It skips the placement check, which
    /// the searches make once per space rather than once per candidate.
    pub(crate) fn evaluate_with(
        &self,
        costs: &impl CostSource,
    ) -> Result<RagPerformance, RagoError> {
        let (predecode, decode) = self.side_rates(costs)?;
        Ok(self.combine(costs.profiler(), predecode, decode))
    }

    /// The latencies and throughputs of the schedule's two sides, the one
    /// stage walk behind [`Self::evaluate`] and the pool planner's
    /// analytic split: the pre-decode half, then the decode half.
    ///
    /// # Errors
    ///
    /// As [`Self::evaluate`].
    pub(crate) fn side_rates(
        &self,
        costs: &impl CostSource,
    ) -> Result<(PredecodeRates, DecodeRates), RagoError> {
        Ok((self.predecode_rates(costs)?, self.decode_rates(costs)?))
    }

    /// The pre-decode half of [`Self::side_rates`]: the structural checks,
    /// then every accelerator group and retrieval at the pre-decode batch.
    /// It reads no decode field but the ones [`Self::validate`] checks.
    ///
    /// # Errors
    ///
    /// As [`Self::evaluate`].
    pub(crate) fn predecode_rates(
        &self,
        costs: &impl CostSource,
    ) -> Result<PredecodeRates, RagoError> {
        self.validate()?;
        let schema = costs.profiler().schema();
        let batch = self.batching.predecode_batch;

        let mut ttft = 0.0f64;
        let mut predecode_qps = f64::INFINITY;

        // Pre-decode XPU groups: time-multiplexed stages add their latencies;
        // a group's throughput is batch / total busy time per batch.
        for (group_idx, stages) in self.placement.predecode_groups.iter().enumerate() {
            let chips = self.allocation.group_xpus[group_idx];
            let mut group_latency = 0.0;
            let mut singleton_throughput = None;
            for &stage in stages {
                let perf = costs.profile(stage, chips, batch)?;
                group_latency += perf.latency_s;
                singleton_throughput = Some(perf.throughput_rps);
            }
            ttft += group_latency;
            let throughput = if stages.len() == 1 {
                singleton_throughput.expect("one stage profiled")
            } else {
                f64::from(batch) / group_latency
            };
            predecode_qps = predecode_qps.min(throughput);
        }

        // Retrieval (CPU servers).
        if schema.has_retrieval() {
            let perf = costs.profile(Stage::Retrieval, self.allocation.retrieval_servers, batch)?;
            ttft += perf.latency_s;
            predecode_qps = predecode_qps.min(perf.throughput_rps);
        }
        Ok(PredecodeRates {
            ttft_s: ttft,
            predecode_qps,
        })
    }

    /// The decode half of [`Self::side_rates`]: the decode stage and, for
    /// iterative workloads, the stalls of its iterative retrievals. Without
    /// iterative retrievals it reads only the decode XPUs and the decode
    /// batch; with them, also the retrieval servers, the iterative batch and
    /// the chips of the group holding the main prefix.
    ///
    /// # Errors
    ///
    /// As [`Self::evaluate`], for the stages the decode side is profiled
    /// from.
    pub(crate) fn decode_rates(&self, costs: &impl CostSource) -> Result<DecodeRates, RagoError> {
        let schema = costs.profiler().schema();
        let retrieval_latency_at_iter_batch = if schema.is_iterative() {
            costs
                .profile(
                    Stage::Retrieval,
                    self.allocation.retrieval_servers,
                    self.iterative_batch(),
                )?
                .latency_s
        } else {
            0.0
        };
        let decode_perf = costs.profile(
            Stage::Decode,
            self.allocation.decode_xpus,
            self.batching.decode_batch,
        )?;
        let mut tpot = decode_perf.step_latency()?;
        let mut decode_qps = decode_perf.throughput_rps;

        // Iterative retrieval (Case III): decoding stalls while batched
        // retrieval + prefix passes complete; simulate the resulting slowdown.
        if schema.is_iterative() {
            let params = self.stall_params(costs, &decode_perf, retrieval_latency_at_iter_batch)?;
            let result = costs.decode_stall(params);
            tpot = result.tpot_worst_s;
            decode_qps = f64::from(self.batching.decode_batch) / result.total_time_s;
        }
        Ok(DecodeRates {
            tpot_s: tpot,
            decode_qps,
        })
    }

    /// Step 3 of Algorithm 1 on the two halves' rates: TTFT from the
    /// pre-decode side, TPOT from the decode side, the slower side's QPS,
    /// and QPS/chip over the chips of the servers the schedule occupies.
    pub(crate) fn combine(
        &self,
        profiler: &StageProfiler,
        predecode: PredecodeRates,
        decode: DecodeRates,
    ) -> RagPerformance {
        let qps = predecode.predecode_qps.min(decode.decode_qps).max(0.0);
        let total_xpus = self.allocation.total_xpus();
        // QPS/chip reflects whole-system cost efficiency (§4). In the paper's
        // deployment the XPUs live on the same host servers that hold the
        // sharded database, so the system's chip count is set by however many
        // servers the schedule occupies: enough to carry the inference XPUs
        // (xpus_per_server each) *and* at least the retrieval server count —
        // retrieval-only servers contribute idle XPUs to the denominator.
        let xpus_per_server = profiler.cluster().xpus_per_server.max(1);
        let inference_servers = total_xpus.div_ceil(xpus_per_server);
        let occupied_servers = if profiler.schema().has_retrieval() {
            inference_servers.max(self.allocation.retrieval_servers)
        } else {
            inference_servers
        };
        let chip_denominator = f64::from((occupied_servers * xpus_per_server).max(1));
        RagPerformance {
            ttft_s: predecode.ttft_s,
            tpot_s: decode.tpot_s,
            qps,
            qps_per_chip: qps / chip_denominator,
            total_xpus,
            retrieval_servers: self.allocation.retrieval_servers,
        }
    }

    /// The decode-stall simulation [`Self::evaluate`] runs for this schedule,
    /// or `None` when the workload issues no iterative retrievals. Its
    /// inputs are the decode and iterative batches and the latencies of the
    /// decode step and of one iterative retrieval + re-prefix pass; the
    /// pre-decode batch never reaches it.
    ///
    /// # Errors
    ///
    /// As [`Self::evaluate`], for the stages the simulation's inputs are
    /// profiled from.
    pub fn decode_stall_params(
        &self,
        profiler: &StageProfiler,
    ) -> Result<Option<IterativeDecodeParams>, RagoError> {
        self.stall_input(profiler)
    }

    /// [`Self::decode_stall_params`] against any cost source.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_stall_params`].
    pub(crate) fn stall_input(
        &self,
        costs: &impl CostSource,
    ) -> Result<Option<IterativeDecodeParams>, RagoError> {
        self.validate()?;
        if !costs.profiler().schema().is_iterative() {
            return Ok(None);
        }
        let retrieval = costs.profile(
            Stage::Retrieval,
            self.allocation.retrieval_servers,
            self.iterative_batch(),
        )?;
        let decode = costs.profile(
            Stage::Decode,
            self.allocation.decode_xpus,
            self.batching.decode_batch,
        )?;
        self.stall_params(costs, &decode, retrieval.latency_s)
            .map(Some)
    }

    /// The batch of iterative retrieval + re-prefix passes: the policy's
    /// iterative batch, or the pre-decode batch when it sets none.
    pub(crate) fn iterative_batch(&self) -> u32 {
        self.batching
            .iterative_batch
            .unwrap_or(self.batching.predecode_batch)
            .max(1)
    }

    /// Builds the decode-stall input from the decode profile and the
    /// iterative retrieval latency, profiling the re-prefix pass. It is the
    /// one source of Case III's stall input: the analytic evaluation
    /// simulates it, and the DES pipeline (`dynamic::pipeline_spec`) takes
    /// its batch, retrieval count, pass latency and trigger seed.
    pub(crate) fn stall_params(
        &self,
        costs: &impl CostSource,
        decode: &StagePerf,
        retrieval_latency_s: f64,
    ) -> Result<IterativeDecodeParams, RagoError> {
        let schema = costs.profiler().schema();
        let retrieval_cfg = schema
            .retrieval
            .as_ref()
            .expect("iterative implies retrieval");
        let iter_batch = self.iterative_batch();
        // The re-prefix of newly retrieved content runs on the last
        // pre-decode group (the one containing the main prefix).
        let prefix_group = self
            .placement
            .group_of(Stage::Prefix)
            .map(|g| self.allocation.group_xpus[g])
            .unwrap_or(self.allocation.decode_xpus);
        let reprefix = costs.profile(Stage::Prefix, prefix_group, iter_batch)?;
        Ok(IterativeDecodeParams {
            decode_batch: self.batching.decode_batch,
            iterative_batch: iter_batch,
            decode_len: schema.sequence.decode_tokens,
            // One retrieval happens before decoding; the rest interrupt it.
            retrievals_per_sequence: retrieval_cfg.retrievals_per_sequence.saturating_sub(1),
            step_latency_s: decode.step_latency()?,
            retrieval_prefix_latency_s: retrieval_latency_s + reprefix.latency_s,
            seed: 0x5EED,
        })
    }

    /// A structurally trivial schedule used by unit tests of the Pareto
    /// utilities. Not meaningful for evaluation.
    #[doc(hidden)]
    pub fn test_dummy() -> Self {
        Self {
            placement: PlacementPlan {
                predecode_groups: vec![vec![Stage::Prefix]],
            },
            allocation: ResourceAllocation {
                group_xpus: vec![1],
                decode_xpus: 1,
                retrieval_servers: 1,
            },
            batching: BatchingPolicy::new(1, 1),
        }
    }

    /// A stable identity key: two schedules produce equal keys exactly when
    /// they encode the same scheduling decision. Used to break exact
    /// performance ties deterministically in [`crate::pareto`] (through
    /// `IdentityOrder`, which compares the same text without allocating)
    /// — unlike an enumeration index, the key exists for every schedule
    /// regardless of where (or whether) it appears in an enumeration order.
    pub fn identity_key(&self) -> String {
        // The `Display` text prints every axis of the decision (placement
        // groups are bracket-delimited, all allocations and batch sizes
        // appear verbatim), so it is injective over any one workload's
        // space.
        self.to_string()
    }

    /// A one-line description of the schedule for reports: its
    /// [`Display`](fmt::Display) text, the same as [`Self::identity_key`].
    pub fn describe(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Schedule {
    /// The one writer of a schedule's text, e.g.
    /// `[prefix] xpus=[8]+16dec servers=32 batch=8/64/iter16`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} xpus={:?}+{}dec servers={} batch={}/{}",
            self.placement,
            self.allocation.group_xpus,
            self.allocation.decode_xpus,
            self.allocation.retrieval_servers,
            self.batching.predecode_batch,
            self.batching.decode_batch,
        )?;
        match self.batching.iterative_batch {
            Some(batch) => write!(f, "/iter{batch}"),
            None => Ok(()),
        }
    }
}

/// The [`Schedule::identity_key`] order without a `String` per comparison:
/// both keys are written into buffers kept from one comparison to the
/// next, so once they have grown a comparison allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdentityOrder {
    left: String,
    right: String,
}

impl IdentityOrder {
    /// `a.identity_key().cmp(&b.identity_key())`.
    pub(crate) fn cmp(&mut self, a: &Schedule, b: &Schedule) -> Ordering {
        for (buffer, schedule) in [(&mut self.left, a), (&mut self.right, b)] {
            buffer.clear();
            write!(buffer, "{schedule}").expect("writing to a String cannot fail");
        }
        self.left.cmp(&self.right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::StageProfiler;
    use proptest::prelude::*;
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};

    fn case1_profiler() -> StageProfiler {
        StageProfiler::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        )
    }

    fn case1_schedule() -> Schedule {
        Schedule {
            placement: PlacementPlan {
                predecode_groups: vec![vec![Stage::Prefix]],
            },
            allocation: ResourceAllocation {
                group_xpus: vec![8],
                decode_xpus: 8,
                retrieval_servers: 32,
            },
            batching: BatchingPolicy::new(8, 64),
        }
    }

    #[test]
    fn case1_schedule_evaluates_to_sensible_metrics() {
        let profiler = case1_profiler();
        let perf = case1_schedule().evaluate(&profiler).unwrap();
        assert!(
            perf.ttft_s > 0.0 && perf.ttft_s < 1.0,
            "ttft {}",
            perf.ttft_s
        );
        assert!(perf.tpot_s > 0.0 && perf.tpot_s < 0.2);
        assert!(perf.qps > 0.0);
        assert_eq!(perf.total_xpus, 16);
        // The system occupies max(ceil(16/4), 32) = 32 servers x 4 chips each.
        assert!((perf.qps_per_chip - perf.qps / 128.0).abs() < 1e-12);
    }

    #[test]
    fn qps_is_limited_by_the_slowest_stage() {
        let profiler = case1_profiler();
        let mut schedule = case1_schedule();
        let base = schedule.evaluate(&profiler).unwrap();
        // Starving the decode stage must not increase end-to-end QPS.
        schedule.allocation.decode_xpus = 1;
        let starved = schedule.evaluate(&profiler).unwrap();
        assert!(starved.qps <= base.qps + 1e-9);
    }

    #[test]
    fn larger_predecode_batches_increase_ttft() {
        let profiler = case1_profiler();
        let mut small = case1_schedule();
        small.batching = BatchingPolicy::new(1, 64);
        let mut large = case1_schedule();
        large.batching = BatchingPolicy::new(64, 64);
        let p_small = small.evaluate(&profiler).unwrap();
        let p_large = large.evaluate(&profiler).unwrap();
        assert!(p_large.ttft_s > p_small.ttft_s);
    }

    #[test]
    fn validation_catches_mismatched_allocations() {
        let mut s = case1_schedule();
        s.allocation.group_xpus = vec![8, 8];
        assert!(matches!(s.validate(), Err(RagoError::InvalidConfig { .. })));
        let mut s = case1_schedule();
        s.allocation.decode_xpus = 0;
        assert!(s.validate().is_err());
        let mut s = case1_schedule();
        s.batching.decode_batch = 0;
        assert!(s.validate().is_err());
        assert!(case1_schedule().validate().is_ok());
    }

    #[test]
    fn iterative_workload_has_higher_tpot_than_single_retrieval() {
        let cluster = ClusterSpec::paper_default();
        let single = StageProfiler::new(presets::case1_hyperscale(LlmSize::B8, 1), cluster.clone());
        let iterative = StageProfiler::new(presets::case3_iterative(LlmSize::B8, 4), cluster);
        let schedule = Schedule {
            batching: BatchingPolicy::new(8, 64).with_iterative_batch(16),
            ..case1_schedule()
        };
        let p_single = schedule.evaluate(&single).unwrap();
        let p_iter = schedule.evaluate(&iterative).unwrap();
        assert!(
            p_iter.tpot_s > p_single.tpot_s,
            "iterative TPOT {} should exceed single-retrieval TPOT {}",
            p_iter.tpot_s,
            p_single.tpot_s
        );
        assert!(p_iter.qps <= p_single.qps + 1e-9);
    }

    /// A cost source whose decode profiles carry no step latency.
    struct NoStepLatency(StageProfiler);

    impl CostSource for NoStepLatency {
        fn profiler(&self) -> &StageProfiler {
            &self.0
        }

        fn profile(
            &self,
            stage: Stage,
            resources: u32,
            batch: u32,
        ) -> Result<StagePerf, RagoError> {
            let perf = self.0.profile(stage, resources, batch)?;
            Ok(StagePerf {
                step_latency_s: None,
                ..perf
            })
        }
    }

    #[test]
    fn a_decode_profile_without_a_step_latency_is_a_cost_model_error() {
        let cluster = ClusterSpec::paper_default();
        let schedule = Schedule {
            batching: BatchingPolicy::new(8, 64).with_iterative_batch(16),
            ..case1_schedule()
        };
        for schema in [
            presets::case1_hyperscale(LlmSize::B8, 1),
            presets::case3_iterative(LlmSize::B8, 4),
        ] {
            let costs = NoStepLatency(StageProfiler::new(schema, cluster.clone()));
            assert!(schedule.evaluate_with(&costs.0).is_ok());
            let err = schedule.evaluate_with(&costs).unwrap_err();
            assert_eq!(
                err,
                RagoError::CostModel {
                    stage: Stage::Decode.to_string(),
                    reason: "no decode step latency at 8 resources and batch 64".into(),
                }
            );
        }
    }

    #[test]
    fn case4_full_pipeline_evaluates() {
        let profiler = StageProfiler::new(
            presets::case4_rewriter_reranker(LlmSize::B70),
            ClusterSpec::paper_default(),
        );
        let schema = profiler.schema().clone();
        let placement = PlacementPlan::fully_disaggregated(&schema);
        let schedule = Schedule {
            allocation: ResourceAllocation {
                group_xpus: vec![4, 4, 4, 16],
                decode_xpus: 16,
                retrieval_servers: 32,
            },
            batching: BatchingPolicy::new(4, 128),
            placement,
        };
        let perf = schedule.evaluate(&profiler).unwrap();
        assert!(perf.ttft_s > 0.0);
        assert!(perf.qps > 0.0);
        assert_eq!(perf.total_xpus, 44);
    }

    #[test]
    fn a_placement_that_omits_a_stage_is_rejected() {
        // Case IV on 16 + 16 XPUs: `[prefix]` alone leaves the rewriter and
        // the reranker unplaced, and used to evaluate at half the full
        // placement's TTFT and twice its QPS/chip.
        let profiler = StageProfiler::new(
            presets::case4_rewriter_reranker(LlmSize::B8),
            ClusterSpec::paper_default(),
        );
        let schedule = |groups: Vec<Vec<Stage>>| Schedule {
            allocation: ResourceAllocation {
                group_xpus: vec![16; groups.len()],
                decode_xpus: 16,
                retrieval_servers: 32,
            },
            placement: PlacementPlan {
                predecode_groups: groups,
            },
            batching: BatchingPolicy::new(8, 128),
        };
        let full = vec![vec![
            Stage::RewritePrefix,
            Stage::RewriteDecode,
            Stage::Rerank,
            Stage::Prefix,
        ]];
        assert!(schedule(full).evaluate(&profiler).is_ok());
        let prefix_only = schedule(vec![vec![Stage::Prefix]]);
        assert!(matches!(
            prefix_only.evaluate(&profiler),
            Err(RagoError::InvalidConfig { .. })
        ));
    }

    /// One- to four-digit steps, so drawn keys compare `16dec` with `4dec`
    /// and `/1024` with `/16`.
    const STEPS: [u32; 8] = [1, 2, 4, 8, 16, 64, 128, 1024];
    const STAGES: [Stage; 5] = [
        Stage::DatabaseEncode,
        Stage::RewritePrefix,
        Stage::RewriteDecode,
        Stage::Rerank,
        Stage::Prefix,
    ];

    /// A schedule from drawn indices: each group is (first stage, stage
    /// count, XPU step); `iterative` 8 is `None`.
    fn drawn(
        groups: &[(usize, usize, usize)],
        (servers, decode_xpus, predecode_batch, decode_batch): (usize, usize, usize, usize),
        iterative: usize,
    ) -> Schedule {
        Schedule {
            placement: PlacementPlan {
                predecode_groups: groups
                    .iter()
                    .map(|&(first, len, _)| STAGES[first..(first + len).min(STAGES.len())].to_vec())
                    .collect(),
            },
            allocation: ResourceAllocation {
                group_xpus: groups.iter().map(|&(_, _, xpus)| STEPS[xpus]).collect(),
                decode_xpus: STEPS[decode_xpus],
                retrieval_servers: STEPS[servers],
            },
            batching: BatchingPolicy {
                predecode_batch: STEPS[predecode_batch],
                decode_batch: STEPS[decode_batch],
                iterative_batch: STEPS.get(iterative).copied(),
            },
        }
    }

    /// `schedule` with one axis moved to the drawn step (the last group
    /// dropped for axis 6), so the two keys share a long prefix.
    fn mutated(schedule: &Schedule, (axis, step): (usize, usize)) -> Schedule {
        let mut out = schedule.clone();
        let value = STEPS[step % STEPS.len()];
        match axis {
            0 => {
                if let Some(last) = out.allocation.group_xpus.last_mut() {
                    *last = value;
                }
            }
            1 => out.allocation.decode_xpus = value,
            2 => out.allocation.retrieval_servers = value,
            3 => out.batching.predecode_batch = value,
            4 => out.batching.decode_batch = value,
            5 => out.batching.iterative_batch = STEPS.get(step).copied(),
            _ => {
                out.placement.predecode_groups.pop();
                out.allocation.group_xpus.pop();
            }
        }
        out
    }

    /// The key text as it was first written, one `format!` and `join` at a
    /// time: the writer behind the keys must keep producing it.
    fn reference_key(s: &Schedule) -> String {
        let placement = if s.placement.predecode_groups.is_empty() {
            "[prefix-only]".to_string()
        } else {
            s.placement
                .predecode_groups
                .iter()
                .map(|g| {
                    let names: Vec<&str> = g.iter().map(|s| s.short_name()).collect();
                    format!("[{}]", names.join("+"))
                })
                .collect::<Vec<_>>()
                .join("")
        };
        format!(
            "{} xpus={:?}+{}dec servers={} batch={}/{}{}",
            placement,
            s.allocation.group_xpus,
            s.allocation.decode_xpus,
            s.allocation.retrieval_servers,
            s.batching.predecode_batch,
            s.batching.decode_batch,
            s.batching
                .iterative_batch
                .map(|b| format!("/iter{b}"))
                .unwrap_or_default()
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn identity_order_is_the_identity_key_order(
            groups in prop::collection::vec((0usize..5, 1usize..3, 0usize..8), 0..5),
            fields in (0usize..8, 0usize..8, 0usize..8, 0usize..8),
            iterative in 0usize..9,
            mutation in (0usize..7, 0usize..9),
            other_groups in prop::collection::vec((0usize..5, 1usize..3, 0usize..8), 0..5),
            other_fields in (0usize..8, 0usize..8, 0usize..8, 0usize..8),
            other_iterative in 0usize..9,
        ) {
            let a = drawn(&groups, fields, iterative);
            let b = mutated(&a, mutation);
            let c = drawn(&other_groups, other_fields, other_iterative);
            let mut order = IdentityOrder::default();
            for (x, y) in [(&a, &b), (&b, &a), (&a, &c), (&c, &b), (&a, &a)] {
                prop_assert_eq!(order.cmp(x, y), x.identity_key().cmp(&y.identity_key()));
            }
            for schedule in [&a, &b, &c] {
                prop_assert_eq!(schedule.identity_key(), reference_key(schedule));
                prop_assert_eq!(schedule.describe(), reference_key(schedule));
            }
        }
    }

    #[test]
    fn identity_order_puts_more_digits_first_where_the_text_does() {
        let mut order = IdentityOrder::default();
        let with = |decode_xpus: u32, iterative_batch: Option<u32>| {
            let mut schedule = case1_schedule();
            schedule.allocation.decode_xpus = decode_xpus;
            schedule.batching.iterative_batch = iterative_batch;
            schedule
        };
        assert_eq!(order.cmp(&with(16, None), &with(4, None)), Ordering::Less);
        assert_eq!(order.cmp(&with(4, None), &with(4, Some(1))), Ordering::Less);
        assert_eq!(
            order.cmp(&with(4, Some(1024)), &with(4, Some(16))),
            Ordering::Less
        );
        let prefix_only = Schedule {
            placement: PlacementPlan {
                predecode_groups: Vec::new(),
            },
            ..case1_schedule()
        };
        assert_eq!(
            prefix_only.identity_key(),
            "[prefix-only] xpus=[8]+8dec servers=32 batch=8/64"
        );
        // `-` sorts before `]`.
        assert_eq!(order.cmp(&prefix_only, &case1_schedule()), Ordering::Less);
    }

    #[test]
    fn describe_mentions_all_decisions() {
        let text = case1_schedule().describe();
        assert!(text.contains("prefix"));
        assert!(text.contains("servers=32"));
        assert!(text.contains("batch=8/64"));
    }
}
