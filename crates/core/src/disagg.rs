//! Disaggregated prefill/decode fleet evaluation and the joint
//! (prefill pool, decode pool, interconnect) search.
//!
//! The flat evaluators in [`crate::dynamic`] lock prefill and decode
//! capacity 1:1 — every replica carries the pre-decode accelerator groups
//! *and* the decode XPUs, so a prefill-bound workload pays for idle decode
//! chips and vice versa. Splitwise and DistServe break that coupling: a
//! *Prefill* pool sized for TTFT feeds a *Decode* pool sized for TPOT, and
//! each request's KV state crosses an interconnect between the phases. This
//! module closes the optimizer loop over that placement dimension:
//!
//! * [`Rago::evaluate_fleet_disagg`] — drives a trace through a
//!   disaggregated [`FleetConfig`] (a prefill pool, its decode pool and
//!   their [`KvTransferModel`]) on
//!   [`rago_serving_sim::fleet::FleetEngine::disaggregated`] and scores the
//!   stitched result per chip. A split is one configuration of the
//!   crate's one fleet builder, so
//!   [`crate::dynamic::evaluate_fleet_dynamic_with`] *accepts* pool
//!   configs unchanged, and [`Rago::evaluate_fleet_cached`] puts its
//!   caches on the prefill pool.
//! * [`transfer_model_from_interconnect`] — prices the handoff from first
//!   principles: the generative model's KV bytes per token over an
//!   [`InterconnectSpec`]'s link bandwidth plus its per-message overhead.
//! * [`Rago::rank_frontier_by_goodput_disagg`] — the joint search: every
//!   Pareto point × every (prefill, decode) split × every candidate
//!   interconnect, ranked by goodput per chip. At tight TTFT+TPOT SLOs this sweep
//!   discovers the DistServe result — a disaggregated split beating the
//!   best collocated fleet per chip — and at loose SLOs it correctly
//!   prefers collocation (no transfer tax, no idle pool).
//!
//! Chip accounting is per pool: a prefill replica occupies only the
//! schedule's pre-decode accelerator groups ([`prefill_xpus`]), a decode
//! replica only its decode XPUs ([`decode_xpus`]) — that asymmetry is the
//! entire economic case for disaggregation.

use crate::dynamic::{
    fleet_engine, pipeline_spec, rank, run_fleet, validate_trace, validate_unique_ids, FleetRun,
};
use crate::error::RagoError;
use crate::optimizer::Rago;
use crate::pareto::{ParetoFrontier, ParetoPoint};
use crate::profiler::StageProfiler;
use crate::schedule::Schedule;
use rago_cache::CacheConfig;
use rago_hardware::InterconnectSpec;
use rago_schema::{FleetConfig, KvTransferModel, RagSchema, SloTarget};
use rago_serving_sim::engine::PipelineSpec;
use rago_serving_sim::faults::ChaosReport;
use rago_serving_sim::pools::DisaggReport;
use rago_telemetry::NullRecorder;
use rago_workloads::Trace;
use serde::{Deserialize, Serialize};

/// The outcome of one disaggregated fleet evaluation: the two-pool report
/// plus SLO scores and the per-chip figure the joint search ranks by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggEvaluation {
    /// The stitched two-pool report (merged metrics, per-pool breakdowns,
    /// KV-transfer statistics).
    pub report: DisaggReport,
    /// Fraction of offered requests meeting the SLO's latency targets: a
    /// request that failed never meets them.
    pub attainment: f64,
    /// Requests meeting the SLO per second of fleet serving duration.
    pub goodput_rps: f64,
    /// Whether attainment reaches the SLO's required fraction.
    pub meets_slo: bool,
    /// Total accelerators across both pools:
    /// `prefill replicas × prefill_xpus + decode replicas × decode_xpus`.
    pub total_xpus: u32,
    /// `goodput_rps / total_xpus` — the axis on which disaggregation beats
    /// collocation at tight SLOs.
    pub goodput_per_chip: f64,
}

/// Accelerators one prefill-pool replica occupies: the schedule's
/// pre-decode groups (retrieval CPU servers are accounted separately, as in
/// [`crate::capacity::CapacityPlan`]).
pub fn prefill_xpus(schedule: &Schedule) -> u32 {
    schedule.allocation.group_xpus.iter().sum()
}

/// Accelerators one decode-pool replica occupies.
pub fn decode_xpus(schedule: &Schedule) -> u32 {
    schedule.allocation.decode_xpus
}

/// Total accelerators of a `prefill + decode` split of `schedule`.
pub fn split_xpus(schedule: &Schedule, prefill_replicas: u32, decode_replicas: u32) -> u32 {
    prefill_replicas * prefill_xpus(schedule) + decode_replicas * decode_xpus(schedule)
}

/// Prices the prefill→decode KV handoff from hardware first principles: the
/// generative LLM's KV-cache bytes per token moved over one link of
/// `interconnect`, plus its fixed per-message overhead — the same pricing as
/// [`InterconnectSpec::transfer_latency_s`] per transferred prefix.
///
/// # Examples
///
/// ```
/// use rago_core::disagg::transfer_model_from_interconnect;
/// use rago_hardware::InterconnectSpec;
/// use rago_schema::presets::{self, LlmSize};
///
/// let schema = presets::case1_hyperscale(LlmSize::B8, 1);
/// let dcn = InterconnectSpec::datacenter_network();
/// let model = transfer_model_from_interconnect(&schema, &dcn);
/// assert_eq!(model.kv_bytes_per_token, schema.generative_llm.kv_cache_bytes_per_token());
/// // A 1000-token prefix prices identically through both APIs.
/// let bytes = model.bytes_for(1000);
/// assert!((model.latency_s(1000) - dcn.transfer_latency_s(bytes)).abs() < 1e-15);
/// ```
pub fn transfer_model_from_interconnect(
    schema: &RagSchema,
    interconnect: &InterconnectSpec,
) -> KvTransferModel {
    KvTransferModel::new(
        schema.generative_llm.kv_cache_bytes_per_token(),
        interconnect.link_bandwidth(),
        interconnect.base_latency_s,
    )
}

/// Splits `schedule`'s profiled pipeline into its pool halves: the prefill
/// spec keeps every pre-decode stage (and the cache plan, when present) and
/// is marked for KV handoff; the decode spec is decode-only and carries the
/// iterative-retrieval configuration (a decode-phase feature). Both halves
/// always come from one profiling pass.
pub(crate) fn split_pipeline_spec(
    profiler: &StageProfiler,
    schedule: &Schedule,
    cache: Option<&CacheConfig>,
) -> Result<(PipelineSpec, PipelineSpec), RagoError> {
    let full = pipeline_spec(profiler, schedule, cache)?;
    if full.stages.is_empty() {
        return Err(RagoError::InvalidConfig {
            reason: "disaggregation needs at least one pre-decode stage to prefill".into(),
        });
    }
    let decode_spec = PipelineSpec::decode_only(full.decode.clone(), full.iterative);
    let prefill_spec = PipelineSpec {
        iterative: None,
        ..full
    }
    .with_handoff();
    Ok((prefill_spec, decode_spec))
}

/// Scores a finished run of the split fleet `fleet` against `slo`, billing
/// its configured pools per chip — a crashed replica's cold replacement
/// stands in for it and is not billed on top.
pub(crate) fn score_disagg(
    report: ChaosReport,
    schedule: &Schedule,
    fleet: &FleetConfig,
    slo: &SloTarget,
) -> DisaggEvaluation {
    let decode = fleet.decode.expect("scored runs come from a split fleet");
    let attainment = report.offered_attainment(slo);
    let report = DisaggReport::from_chaos(report, decode.router, fleet.transfer);
    let goodput_rps = report.merged.goodput_rps(slo);
    let meets_slo = attainment >= slo.attainment;
    let total_xpus = split_xpus(schedule, fleet.replicas, decode.replicas);
    DisaggEvaluation {
        report,
        attainment,
        goodput_rps,
        meets_slo,
        total_xpus,
        goodput_per_chip: if total_xpus > 0 {
            goodput_rps / f64::from(total_xpus)
        } else {
            0.0
        },
    }
}

/// One candidate of the joint disaggregation search: a pool split priced
/// over one interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggChoice {
    /// Prefill-pool replica count.
    pub prefill_replicas: u32,
    /// Decode-pool replica count.
    pub decode_replicas: u32,
    /// Name of the interconnect pricing the KV handoff.
    pub interconnect: String,
    /// The derived transfer model (bytes per token × link bandwidth +
    /// overhead).
    pub transfer: KvTransferModel,
}

impl Rago {
    /// Drives `trace` through the disaggregated `fleet` — its Prefill pool
    /// runs `schedule`'s pre-decode stages, its Decode pool the
    /// continuous-batching decode, with every KV handoff priced by
    /// `fleet.transfer` — and scores the stitched result against `slo`,
    /// billing each pool per chip.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] for invalid schedules, fleets
    /// without a decode pool, schedules without a pre-decode stage, an
    /// empty or malformed trace, or a trace that repeats a request id (the two legs are stitched by id), and
    /// [`RagoError::CostModel`] when the schedule cannot be profiled.
    pub fn evaluate_fleet_disagg(
        &self,
        schedule: &Schedule,
        fleet: &FleetConfig,
        trace: &Trace,
        slo: &SloTarget,
    ) -> Result<DisaggEvaluation, RagoError> {
        if !fleet.is_disaggregated() {
            return Err(RagoError::InvalidConfig {
                reason: "disaggregated evaluation needs a decode pool; \
                         flat fleets go through evaluate_fleet_dynamic_with"
                    .into(),
            });
        }
        let run = FleetRun {
            fleet: fleet.clone(),
            ..FleetRun::default()
        };
        let profiler = self.profiler();
        let engine = fleet_engine(profiler, schedule, trace, &run)?;
        let report = run_fleet(profiler, &engine, trace, &run.mode, &mut NullRecorder);
        Ok(score_disagg(report, schedule, fleet, slo))
    }

    /// The joint (schedule, prefill pool, decode pool, interconnect) search:
    /// evaluates every Pareto point under every `(prefill, decode)` split
    /// and every candidate interconnect, and ranks the survivors by
    /// **goodput per chip**, best first — the disaggregated extension of
    /// [`Rago::rank_frontier_by_goodput`]. Candidates whose evaluation fails
    /// (e.g. a stage-free schedule) are omitted. Ties break toward fewer
    /// total XPUs, then lower static TTFT, then the schedule description and
    /// choice fields, so the ranking is deterministic across rayon workers.
    ///
    /// Compare the winner's `goodput_per_chip` against
    /// [`Rago::rank_frontier_by_goodput`]'s best at
    /// `goodput / (replicas × total_xpus)` to decide *whether* to
    /// disaggregate at all — at tight TTFT+TPOT SLOs the split wins (the
    /// DistServe result), at loose SLOs collocation does.
    ///
    /// # Panics
    ///
    /// Panics on an empty split list, a split with an empty pool, an empty
    /// interconnect list, an empty trace, a trace with an arrival that is
    /// not finite and non-negative, or a trace that repeats a request id
    /// (with [`RagoError::InvalidConfig`]'s reason as the message) — each
    /// would silently rank nothing.
    pub fn rank_frontier_by_goodput_disagg(
        &self,
        frontier: &ParetoFrontier,
        trace: &Trace,
        slo: &SloTarget,
        splits: &[(u32, u32)],
        interconnects: &[InterconnectSpec],
    ) -> Vec<(ParetoPoint, DisaggChoice, DisaggEvaluation)> {
        if let Err(e) = validate_trace(trace).and_then(|()| validate_unique_ids(trace)) {
            panic!("cannot rank a frontier by goodput: {e}");
        }
        assert!(
            !splits.is_empty(),
            "the joint search needs at least one (prefill, decode) split"
        );
        for &(p, d) in splits {
            assert!(
                p > 0 && d > 0,
                "split ({p}, {d}) has an empty pool; the joint search needs a replica in each pool"
            );
        }
        assert!(
            !interconnects.is_empty(),
            "the joint search needs at least one candidate interconnect"
        );
        let schema = self.profiler().schema();
        let candidates = frontier.iter().flat_map(|point| {
            splits.iter().flat_map(move |&(p, d)| {
                interconnects.iter().map(move |ic| {
                    (
                        point,
                        DisaggChoice {
                            prefill_replicas: p,
                            decode_replicas: d,
                            interconnect: ic.name.clone(),
                            transfer: transfer_model_from_interconnect(schema, ic),
                        },
                    )
                })
            })
        });
        rank(
            candidates.collect::<Vec<_>>().into_iter(),
            |(point, choice)| {
                let fleet = FleetConfig::split(
                    choice.prefill_replicas,
                    choice.decode_replicas,
                    rago_schema::RouterPolicy::default(),
                )
                .with_transfer(choice.transfer);
                let eval = self.evaluate_fleet_disagg(&point.schedule, &fleet, trace, slo);
                Some((point.clone(), choice, eval.ok()?))
            },
            |a, b| {
                b.2.goodput_per_chip
                    .total_cmp(&a.2.goodput_per_chip)
                    .then(a.2.total_xpus.cmp(&b.2.total_xpus))
                    .then(a.0.performance.ttft_s.total_cmp(&b.0.performance.ttft_s))
                    .then_with(|| a.0.schedule.describe().cmp(&b.0.schedule.describe()))
                    .then(a.1.prefill_replicas.cmp(&b.1.prefill_replicas))
                    .then(a.1.decode_replicas.cmp(&b.1.decode_replicas))
                    .then_with(|| a.1.interconnect.cmp(&b.1.interconnect))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::evaluate_fleet_dynamic_with;
    use crate::placement::PlacementPlan;
    use crate::schedule::{BatchingPolicy, ResourceAllocation};
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::{RouterPolicy, SequenceProfile, Stage};
    use rago_serving_sim::faults::{FaultEvent, FaultSchedule};
    use rago_serving_sim::MetricsMode;
    use rago_workloads::{ArrivalProcess, TraceSpec};

    fn case1_rago() -> Rago {
        Rago::new(
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

    fn poisson_trace(n: usize, rate: f64, seed: u64) -> Trace {
        TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            length_jitter: 0.2,
            seed,
        }
        .generate()
    }

    #[test]
    fn disagg_evaluation_completes_and_prices_transfers() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let trace = poisson_trace(80, 40.0, 5);
        let slo = SloTarget::new(1.0, 0.1);
        let ic = InterconnectSpec::torus_3d();
        let fleet = FleetConfig::split(1, 1, RouterPolicy::LeastOutstanding).with_transfer(
            transfer_model_from_interconnect(rago.profiler().schema(), &ic),
        );
        let eval = rago
            .evaluate_fleet_disagg(&schedule, &fleet, &trace, &slo)
            .unwrap();
        assert_eq!(eval.report.merged.metrics.completed, 80);
        assert_eq!(eval.report.transfers.transfers, 80);
        assert!(eval.report.transfers.bytes_total > 0.0);
        assert_eq!(eval.total_xpus, split_xpus(&schedule, 1, 1));
        assert_eq!(eval.total_xpus, 16);
        assert!(eval.goodput_per_chip <= eval.goodput_rps);
    }

    /// The degenerate pin: a zero-cost 1+1 split scores the same attainment
    /// and goodput as the flat single-replica fleet (per-request timings
    /// agree to the engine's event-grouping tolerance, so the counted SLO
    /// hits are identical).
    #[test]
    fn zero_cost_split_matches_flat_fleet_scores() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let trace = poisson_trace(100, 30.0, 11);
        let slo = SloTarget::new(1.0, 0.1);
        let flat = evaluate_fleet_dynamic_with(
            rago.profiler(),
            &schedule,
            &FleetConfig::new(1, RouterPolicy::LeastOutstanding),
            &trace,
            &slo,
            &MetricsMode::Exact,
        )
        .unwrap();
        let split = FleetConfig::split(1, 1, RouterPolicy::LeastOutstanding);
        assert!(split.transfer.is_zero_cost());
        let disagg = rago
            .evaluate_fleet_disagg(&schedule, &split, &trace, &slo)
            .unwrap();
        assert_eq!(disagg.attainment, flat.attainment);
        assert!((disagg.goodput_rps - flat.goodput_rps).abs() < 1e-9);
        assert_eq!(disagg.meets_slo, flat.meets_slo);
    }

    /// Pool configs flow through the flat entry point: a disaggregated
    /// `FleetConfig` runs as a split fleet and comes back in the standard
    /// fleet shape.
    #[test]
    fn fleet_dynamic_accepts_pool_configs() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let trace = poisson_trace(60, 40.0, 3);
        let slo = SloTarget::new(1.0, 0.1);
        let fleet = FleetConfig::split(1, 2, RouterPolicy::LeastOutstanding)
            .with_transfer(KvTransferModel::new(131_072.0, 25e9, 20e-6));
        let eval = evaluate_fleet_dynamic_with(
            rago.profiler(),
            &schedule,
            &fleet,
            &trace,
            &slo,
            &MetricsMode::Exact,
        )
        .unwrap();
        assert_eq!(eval.report.merged.metrics.completed, 60);
        // Replicas renumbered prefill-first: 1 prefill + 2 decode.
        assert_eq!(eval.report.per_replica.len(), 3);
        // Two dispatches per request: arrival + transfer completion.
        assert_eq!(eval.report.assignments.len(), 120);
        let direct = rago
            .evaluate_fleet_disagg(&schedule, &fleet, &trace, &slo)
            .unwrap();
        assert_eq!(eval.report.merged, direct.report.merged);
        assert_eq!(eval.attainment, direct.attainment);

        // Streaming metrics are a flat-fleet feature.
        let streaming = rago_serving_sim::MetricsMode::Streaming(
            rago_serving_sim::StreamingConfig::new(rago_schema::HistogramSpec::default())
                .with_slo(slo),
        );
        let err = evaluate_fleet_dynamic_with(
            rago.profiler(),
            &schedule,
            &fleet,
            &trace,
            &slo,
            &streaming,
        )
        .unwrap_err();
        assert!(matches!(err, RagoError::InvalidConfig { .. }));
    }

    #[test]
    fn non_pool_fleets_are_rejected_by_the_direct_entry_point() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let trace = poisson_trace(10, 10.0, 1);
        let slo = SloTarget::new(1.0, 0.1);
        let flat = FleetConfig::new(2, RouterPolicy::RoundRobin);
        assert!(matches!(
            rago.evaluate_fleet_disagg(&schedule, &flat, &trace, &slo),
            Err(RagoError::InvalidConfig { .. })
        ));
        // A crash aimed past the split's two slots is skipped, not a panic.
        let fleet = FleetConfig::split(1, 1, RouterPolicy::RoundRobin);
        let run = FleetRun {
            fleet: fleet.clone(),
            faults: FaultSchedule::new(vec![FaultEvent::Crash {
                replica: 5,
                at_s: 0.1,
                restart_delay_s: f64::INFINITY,
            }]),
            ..FleetRun::default()
        };
        let chaos = fleet_engine(rago.profiler(), &schedule, &trace, &run)
            .unwrap()
            .run_trace(&trace);
        assert_eq!(chaos.fault.faults_skipped, 1);
        let healthy = rago
            .evaluate_fleet_disagg(&schedule, &fleet, &trace, &slo)
            .unwrap();
        assert_eq!(score_disagg(chaos, &schedule, &fleet, &slo), healthy);
    }

    /// Regression: a split with an empty pool fails every evaluation, so
    /// the ranking used to drop its candidates and return the rest, or
    /// nothing, with no error.
    #[test]
    #[should_panic(expected = "split (1, 0) has an empty pool")]
    fn disagg_ranking_rejects_a_split_with_an_empty_pool() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let frontier = ParetoFrontier {
            points: vec![ParetoPoint {
                performance: schedule.evaluate(rago.profiler()).unwrap(),
                schedule,
            }],
            evaluated_schedules: 1,
            scored_schedules: 1,
        };
        let _ = rago.rank_frontier_by_goodput_disagg(
            &frontier,
            &poisson_trace(10, 10.0, 1),
            &SloTarget::new(1.0, 0.1),
            &[(1, 1), (1, 0)],
            &[InterconnectSpec::torus_3d()],
        );
    }

    /// The DistServe discovery: at a tight TTFT+TPOT SLO, the joint search
    /// finds a disaggregated split whose goodput per chip beats the best
    /// *collocated* fleet serving the same trace — because the split buys
    /// prefill capacity without paying for idle decode chips.
    #[test]
    fn tight_slo_sweep_discovers_disaggregation() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        // Prefill-heavy traffic: a rate past one replica's prefill knee
        // (one collocated replica's TTFT attainment collapses at the tight
        // target) with short decodes, so a second full replica buys mostly
        // idle decode chips while a (2, 1) split buys exactly the prefill
        // capacity the SLO needs.
        let trace = TraceSpec {
            num_requests: 150,
            profile: SequenceProfile::paper_default().with_decode_tokens(4),
            arrival: ArrivalProcess::Poisson { rate_rps: 160.0 },
            length_jitter: 0.2,
            seed: 17,
        }
        .generate();
        let tight = SloTarget::new(0.4, 0.05);

        // Best collocated goodput per chip across 1..=3 flat replicas.
        let mut best_flat = 0.0f64;
        for n in 1..=3u32 {
            let eval = evaluate_fleet_dynamic_with(
                rago.profiler(),
                &schedule,
                &FleetConfig::new(n, RouterPolicy::LeastOutstanding),
                &trace,
                &tight,
                &MetricsMode::Exact,
            )
            .unwrap();
            let chips = schedule.allocation.total_xpus() * n;
            best_flat = best_flat.max(eval.goodput_rps / f64::from(chips));
        }

        // The joint sweep over splits and interconnects.
        let splits: Vec<(u32, u32)> = vec![(1, 1), (2, 1), (2, 2), (3, 1)];
        let ics = vec![
            InterconnectSpec::torus_3d(),
            InterconnectSpec::datacenter_network(),
        ];
        let frontier = ParetoFrontier {
            points: vec![ParetoPoint {
                schedule: schedule.clone(),
                performance: schedule.evaluate(rago.profiler()).unwrap(),
            }],
            evaluated_schedules: 1,
            scored_schedules: 1,
        };
        let ranked = rago.rank_frontier_by_goodput_disagg(&frontier, &trace, &tight, &splits, &ics);
        assert_eq!(ranked.len(), splits.len() * ics.len());
        for pair in ranked.windows(2) {
            assert!(pair[0].2.goodput_per_chip >= pair[1].2.goodput_per_chip);
        }
        let (_, choice, best) = &ranked[0];
        assert!(
            best.goodput_per_chip > best_flat,
            "disaggregation should win per chip at the tight SLO: \
             split ({}, {}) over {} reaches {:.6}/chip vs collocated {:.6}/chip",
            choice.prefill_replicas,
            choice.decode_replicas,
            choice.interconnect,
            best.goodput_per_chip,
            best_flat
        );
    }
}
