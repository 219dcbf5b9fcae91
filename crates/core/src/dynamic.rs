//! Dynamic (request-level) schedule evaluation: Step 3 of Algorithm 1 under
//! a real request stream instead of steady state.
//!
//! [`Schedule::evaluate`] scores a schedule analytically — every stage at its
//! steady-state batch, no queueing, no burstiness. This module drives the
//! same schedule through the request-level discrete-event engine of
//! `rago-serving-sim` instead: the profiled per-stage costs become
//! [`LatencyTable`]s, the placement's accelerator groups become engine
//! resources (collocated stages share one), and a generated
//! [`rago_workloads::Trace`] supplies arrivals. The result adds what the
//! static path cannot see — TTFT/TPOT *distributions* under load,
//! queueing-versus-service breakdown, SLO attainment, and goodput — which is
//! what the optimizer needs to rank Pareto-frontier schedules against a
//! latency SLO (the direction of the disaggregated-serving literature in
//! `PAPERS.md`).
//!
//! Every trace-driven evaluator of the crate takes one path: `fleet_engine`
//! validates a run's whole configuration (a `FleetRun`: fleet shape, scale
//! driver, faults, crash policy, admission, cache, metrics mode, telemetry)
//! and builds its [`FleetEngine`]; `run_fleet` drives the trace through it
//! in place; and each result type has one scorer. A [`DynamicEvaluation`]
//! is the [`FleetEvaluation`] of [`FleetConfig::single`], scored on the
//! merged report. The frontier rankers share one parallel loop, `rank`.
//! The capacity planners' probes are built by `fleet_engine` too, so every
//! engine the crate runs comes from that one function.

use crate::error::RagoError;
use crate::optimizer::Rago;
use crate::pareto::{ParetoFrontier, ParetoPoint};
use crate::profiler::StageProfiler;
use crate::schedule::Schedule;
use rago_cache::CacheConfig;
use rago_schema::{FleetConfig, PoolSpec, SloTarget, Stage};
use rago_serving_sim::cluster::FleetReport;
use rago_serving_sim::engine::{
    DecodeSpec, IterativeSpec, LatencyTable, PipelineSpec, ServingReport,
};
use rago_serving_sim::faults::{
    AdmissionConfig, ChaosReport, CrashPolicy, FaultSchedule, ScaleDriver,
};
use rago_serving_sim::fleet::{arrivals, FleetEngine};
use rago_serving_sim::MetricsMode;
use rago_telemetry::{NullRecorder, Recorder, TelemetryConfig};
use rago_workloads::Trace;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The outcome of one dynamic schedule evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicEvaluation {
    /// Per-request timelines and aggregate distributions from the engine.
    pub report: ServingReport,
    /// Fraction of requests meeting the SLO's latency targets.
    pub attainment: f64,
    /// Requests meeting the SLO per second of serving duration.
    pub goodput_rps: f64,
    /// Whether attainment reaches the SLO's required fraction.
    pub meets_slo: bool,
}

impl Rago {
    /// Evaluates one schedule dynamically: builds the pipeline implied by
    /// `schedule` and the profiled stage costs, then drives `trace` through
    /// one replica of it — a one-replica fleet — and scores TTFT/TPOT
    /// distributions, queueing, and SLO attainment against `slo`.
    ///
    /// Pipeline construction mirrors the static evaluation:
    ///
    /// * every pre-decode accelerator group is one resource; stages
    ///   collocated in a group time-share it (latest-stage-first),
    ///   disaggregated groups pipeline;
    /// * retrieval runs on its own CPU resource;
    /// * per-stage latency tables are sampled from the (memoized) profiler
    ///   at every fill up to the schedule's batch sizes;
    /// * iterative workloads pause decoding exactly as in
    ///   [`Schedule::evaluate`]'s simulation, with the same trigger-position
    ///   seed;
    /// * with a `cache`, the engine carries its own prefix-KV and
    ///   retrieval-result caches (see [`crate::cached`]) and the report's
    ///   [`rago_serving_sim::engine::CacheUsage`] counts their lookups and
    ///   hits. [`CacheConfig::disabled`], zero capacities and an
    ///   identity-free trace all reproduce the cache-less run's timelines,
    ///   metrics and per-class rows bit-exactly.
    ///
    /// The run keeps every request's timeline. For `O(histogram buckets)`
    /// streaming metrics, evaluate the same one-replica fleet with
    /// [`evaluate_fleet_dynamic_with`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rago_core::{Rago, SearchOptions};
    /// use rago_hardware::ClusterSpec;
    /// use rago_schema::{presets, SequenceProfile, SloTarget};
    /// use rago_workloads::{ArrivalProcess, TraceSpec};
    ///
    /// let rago = Rago::new(
    ///     presets::case1_hyperscale(presets::LlmSize::B8, 1),
    ///     ClusterSpec::paper_default(),
    /// );
    /// let frontier = rago.optimize(&SearchOptions::fast())?;
    /// let trace = TraceSpec {
    ///     num_requests: 40,
    ///     profile: SequenceProfile::paper_default().with_decode_tokens(32),
    ///     arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
    ///     length_jitter: 0.1,
    ///     seed: 7,
    /// }
    /// .generate();
    /// let slo = SloTarget::paper_default();
    /// let best = frontier.max_qps_per_chip().unwrap();
    /// let eval = rago.evaluate_dynamic(&best.schedule, &trace, &slo, None)?;
    /// assert_eq!(eval.report.metrics.completed, 40);
    /// # Ok::<(), rago_core::RagoError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] for structurally invalid
    /// schedules, an arrival time that is not finite and non-negative, an
    /// empty trace (a zero-request trace has no attainment to measure —
    /// reporting `meets_slo = true` for it would let a misconfigured sweep
    /// pass silently), or a cache acting on a stage the schema's pipeline
    /// lacks, and [`RagoError::CostModel`] when any profiled point is
    /// infeasible under its allocation.
    pub fn evaluate_dynamic(
        &self,
        schedule: &Schedule,
        trace: &Trace,
        slo: &SloTarget,
        cache: Option<&CacheConfig>,
    ) -> Result<DynamicEvaluation, RagoError> {
        let run = FleetRun {
            cache: cache.copied(),
            ..FleetRun::default()
        };
        // A fleet's scores are its merged report's.
        let rec = &mut NullRecorder;
        let eval = evaluate_fleet(self.profiler(), schedule, trace, slo, &run, rec)?;
        Ok(DynamicEvaluation {
            report: eval.report.merged,
            attainment: eval.attainment,
            goodput_rps: eval.goodput_rps,
            meets_slo: eval.meets_slo,
        })
    }

    /// Ranks the points of a Pareto frontier by SLO goodput under a request
    /// trace, best first, each point evaluated by
    /// [`Rago::evaluate_dynamic`]. Points whose dynamic evaluation fails
    /// are omitted from the result (frontier points are statically
    /// feasible, and the dynamic path only profiles at fills up to the
    /// already-feasible batch sizes, so in practice every point evaluates).
    ///
    /// Evaluations run across rayon worker threads — each point's
    /// discrete-event run is independent and deterministic, and the final
    /// sort breaks every tie (goodput, static TTFT, schedule description),
    /// so the ranking does not depend on thread scheduling.
    ///
    /// This is the SLO-aware selection step on top of Algorithm 1: the
    /// static search reduces millions of candidates to a frontier, and the
    /// dynamic engine — too expensive to run inside the search loop —
    /// re-scores just the frontier under real arrivals.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace or one with an arrival that is not finite
    /// and non-negative, with [`RagoError::InvalidConfig`]'s reason as the
    /// message. Every per-point evaluation would reject such a trace, so
    /// silently dropping the errors here would turn a misconfigured sweep
    /// into an empty ranking indistinguishable from "nothing was feasible".
    pub fn rank_frontier_by_goodput(
        &self,
        frontier: &ParetoFrontier,
        trace: &Trace,
        slo: &SloTarget,
    ) -> Vec<(ParetoPoint, DynamicEvaluation)> {
        if let Err(e) = validate_trace(trace) {
            panic!("cannot rank a frontier by goodput: {e}");
        }
        rank(
            frontier.iter(),
            |point| {
                let eval = self.evaluate_dynamic(&point.schedule, trace, slo, None);
                Some((point.clone(), eval.ok()?))
            },
            |a, b| {
                b.1.goodput_rps
                    .total_cmp(&a.1.goodput_rps)
                    .then(a.0.performance.ttft_s.total_cmp(&b.0.performance.ttft_s))
                    .then_with(|| a.0.schedule.describe().cmp(&b.0.schedule.describe()))
            },
        )
    }
}

/// Appends the profiler's lifetime memoization counters to a trace as
/// Profile-lane counters on the fleet track: `sim.profiler_memo_hits`,
/// `sim.profiler_memo_misses` and `sim.profiler_memo_hit_rate`. This is the
/// one emitter of those counters; a fleet's [`rago_telemetry::SimProfile`]
/// covers only its event loop. Compiles to nothing for a
/// [`rago_telemetry::NullRecorder`].
fn record_profiler_memo<R: Recorder>(profiler: &StageProfiler, rec: &mut R, time_s: f64) {
    if !R::ENABLED {
        return;
    }
    use rago_telemetry::{Lane, TraceEvent, FLEET_TRACK};
    let (hits, misses) = profiler.memo_stats();
    let total = (hits + misses) as f64;
    if total == 0.0 {
        return;
    }
    for (name, value) in [
        ("sim.profiler_memo_hits", hits as f64),
        ("sim.profiler_memo_misses", misses as f64),
        ("sim.profiler_memo_hit_rate", hits as f64 / total),
    ] {
        let event = TraceEvent::counter(time_s, FLEET_TRACK, Lane::Profile, name, value);
        rec.record(event);
    }
}

/// Validates a trace before it reaches the simulator: rejects zero-request
/// traces, which would otherwise score a vacuous `attainment = 1.0`, and
/// any arrival that is not a finite, non-negative time — a NaN or infinite
/// arrival can never be routed, and a negative one would count TTFT from
/// before the fleet exists. Shared by every trace-driven evaluator.
pub(crate) fn validate_trace(trace: &Trace) -> Result<(), RagoError> {
    if trace.requests.is_empty() {
        return Err(RagoError::InvalidConfig {
            reason: "dynamic evaluation needs at least one request; \
                     a zero-request trace has no SLO attainment to measure"
                .into(),
        });
    }
    if let Some(bad) = trace
        .requests
        .iter()
        .find(|r| !(r.arrival_s.is_finite() && r.arrival_s >= 0.0))
    {
        return Err(RagoError::InvalidConfig {
            reason: format!(
                "request {} arrives at {} s; arrival times must be finite and non-negative",
                bad.id, bad.arrival_s
            ),
        });
    }
    Ok(())
}

/// Rejects a trace that repeats a request id. A prefill/decode split
/// stitches each request's two legs by id, so a repeat would join the
/// wrong legs; a flat fleet never joins by id and accepts repeats.
pub(crate) fn validate_unique_ids(trace: &Trace) -> Result<(), RagoError> {
    let mut ids: Vec<u64> = trace.requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    match ids.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(RagoError::InvalidConfig {
            reason: format!(
                "request id {} appears more than once; a prefill/decode split stitches \
                 each request's two legs by id, so its trace needs unique ids",
                w[0]
            ),
        }),
        None => Ok(()),
    }
}

/// The outcome of one fleet-level dynamic evaluation: `replicas` copies of
/// the schedule's pipeline behind a router, sharing one arrival stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetEvaluation {
    /// Merged fleet report with per-replica breakdowns and imbalance stats.
    pub report: FleetReport,
    /// Fraction of all requests meeting the SLO's latency targets.
    pub attainment: f64,
    /// Requests meeting the SLO per second of fleet serving duration.
    pub goodput_rps: f64,
    /// Whether fleet attainment reaches the SLO's required fraction.
    pub meets_slo: bool,
}

/// Drives `trace` through a fleet of `fleet.replicas` identical replicas of
/// `schedule`'s pipeline behind `fleet.router`, and scores the merged
/// result against `slo` — the fleet-level analogue of
/// [`Rago::evaluate_dynamic`].
///
/// `mode` picks the metrics pipeline: [`MetricsMode::Exact`] keeps every
/// request's timeline, while [`MetricsMode::Streaming`] keeps only
/// `O(histogram buckets)` state per replica — the mode the
/// million-request `scale_stress` bench drives. A streaming mode must name
/// `slo` in its [`rago_serving_sim::StreamingConfig`], because SLO
/// attainment is counted online during the run.
///
/// Disaggregated prefill/decode fleets run as a split
/// [`FleetEngine`] (see [`crate::disagg`]) with prefill replicas numbered
/// `0..P` and decode replicas `P..P+D`; they require [`MetricsMode::Exact`].
///
/// # Errors
///
/// Returns [`RagoError::InvalidConfig`] for invalid schedules, invalid
/// fleet configurations, an empty or malformed trace (see
/// [`Rago::evaluate_dynamic`]), a streaming mode whose configured SLO
/// differs from `slo`, a streaming mode on a disaggregated pool fleet, a
/// disaggregated pool fleet whose trace repeats a request id, or a pool
/// fleet whose schedule has no pre-decode stage to prefill, and
/// [`RagoError::CostModel`] when any profiled point is infeasible.
pub fn evaluate_fleet_dynamic_with(
    profiler: &StageProfiler,
    schedule: &Schedule,
    fleet: &FleetConfig,
    trace: &Trace,
    slo: &SloTarget,
    mode: &MetricsMode,
) -> Result<FleetEvaluation, RagoError> {
    let run = FleetRun {
        fleet: fleet.clone(),
        mode: mode.clone(),
        ..FleetRun::default()
    };
    evaluate_fleet(profiler, schedule, trace, slo, &run, &mut NullRecorder)
}

/// [`evaluate_fleet_dynamic_with`] recording a telemetry trace into `rec`:
/// the run is bit-identical to the untraced path for any recorder (with
/// [`rago_telemetry::NullRecorder`] the hooks compile to nothing), and the
/// profiler's memoization counters are appended as Profile-lane counters
/// after the run. `telemetry` only sets the derived gauge cadence — event
/// *filtering* is the recorder's concern. Disaggregated pool fleets trace
/// with prefill replicas on tracks `0..P` and decode replicas on
/// `P..P+D`.
///
/// # Errors
///
/// As [`evaluate_fleet_dynamic_with`], and [`RagoError::InvalidConfig`]
/// for a malformed `telemetry` ([`rago_telemetry::TelemetryConfig::validate`]).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_fleet_dynamic_traced<R: Recorder>(
    profiler: &StageProfiler,
    schedule: &Schedule,
    fleet: &FleetConfig,
    trace: &Trace,
    slo: &SloTarget,
    mode: &MetricsMode,
    telemetry: &TelemetryConfig,
    rec: &mut R,
) -> Result<FleetEvaluation, RagoError> {
    let run = FleetRun {
        fleet: fleet.clone(),
        mode: mode.clone(),
        telemetry: Some(telemetry.clone()),
        ..FleetRun::default()
    };
    evaluate_fleet(profiler, schedule, trace, slo, &run, rec)
}

/// The one fleet evaluator: builds `run`, drives `trace` through it into
/// `rec` and scores the fleet against `slo`. A streaming sink counts
/// attainment *during* the run, so its mode must name `slo`: any other SLO
/// is unanswerable afterwards (the report accessors would panic).
pub(crate) fn evaluate_fleet<R: Recorder>(
    profiler: &StageProfiler,
    schedule: &Schedule,
    trace: &Trace,
    slo: &SloTarget,
    run: &FleetRun,
    rec: &mut R,
) -> Result<FleetEvaluation, RagoError> {
    if let MetricsMode::Streaming(config) = &run.mode {
        if config.slo.as_ref() != Some(slo) {
            return Err(RagoError::InvalidConfig {
                reason: format!(
                    "streaming evaluation scores against {slo:?}, but the streaming \
                     configuration names {:?}; set StreamingConfig::with_slo to the \
                     scored SLO before the run",
                    config.slo
                ),
            });
        }
    }
    let engine = fleet_engine(profiler, schedule, trace, run)?;
    let report = run_fleet(profiler, &engine, trace, &run.mode, rec);
    Ok(score_fleet(report.fleet, slo))
}

/// The whole configuration of one evaluated fleet run, which
/// [`fleet_engine`] validates and builds. The default is one static
/// replica behind the default router in exact metrics mode, with no
/// faults, admission control, cache or telemetry.
#[derive(Debug, Clone, Default)]
pub(crate) struct FleetRun {
    /// Flat, or split into a prefill and a decode pool.
    pub fleet: FleetConfig,
    /// Sizes a flat fleet over time in place of `fleet.replicas`.
    pub driver: Option<ScaleDriver>,
    /// Faults played against the fleet's replica slots.
    pub faults: FaultSchedule,
    /// What happens to a dying replica's in-flight work.
    pub crash_policy: CrashPolicy,
    /// Admission control, or `None` to admit everything.
    pub admission: Option<AdmissionConfig>,
    /// Caches on every flat replica, or on a split's prefill pool.
    pub cache: Option<CacheConfig>,
    /// The metrics pipeline; a split fleet runs [`MetricsMode::Exact`] only.
    pub mode: MetricsMode,
    /// The gauge cadence of a traced run.
    pub telemetry: Option<TelemetryConfig>,
}

/// Validates `run` for `schedule` and `trace` and builds its
/// [`FleetEngine`]: the one place an evaluator does either. A flat fleet
/// runs `schedule`'s pipeline on every replica; a prefill/decode split
/// runs its two halves.
pub(crate) fn fleet_engine(
    profiler: &StageProfiler,
    schedule: &Schedule,
    trace: &Trace,
    run: &FleetRun,
) -> Result<FleetEngine, RagoError> {
    let invalid = |reason: String| RagoError::InvalidConfig { reason };
    if let Some(telemetry) = &run.telemetry {
        telemetry.validate().map_err(invalid)?;
    }
    schedule.validate()?;
    run.fleet.validate().map_err(|e| invalid(e.to_string()))?;
    if let Some(driver) = &run.driver {
        driver.validate().map_err(invalid)?;
    }
    if let Some(admission) = &run.admission {
        admission.validate().map_err(invalid)?;
    }
    validate_trace(trace)?;
    let cache = run.cache.as_ref();
    let engine = if let Some(decode) = run.fleet.decode {
        if !matches!(run.mode, MetricsMode::Exact) {
            return Err(invalid(
                "streaming metrics are not supported for disaggregated pool fleets; \
                 score the exact merged report instead"
                    .into(),
            ));
        }
        validate_unique_ids(trace)?;
        let (prefill_spec, decode_spec) =
            crate::disagg::split_pipeline_spec(profiler, schedule, cache)?;
        let prefill = PoolSpec::new(run.fleet.replicas, run.fleet.router);
        let transfer = run.fleet.transfer;
        FleetEngine::disaggregated(prefill_spec, decode_spec, prefill, decode, transfer)
    } else {
        let replicas = run.fleet.replicas;
        let driver = run
            .driver
            .clone()
            .unwrap_or(ScaleDriver::Static { replicas });
        let router = run.fleet.router;
        FleetEngine::new(pipeline_spec(profiler, schedule, cache)?, router, driver)
    };
    let mut engine = engine
        .with_faults(run.faults.clone())
        .with_crash_policy(run.crash_policy);
    if let Some(admission) = &run.admission {
        engine = engine.with_admission(admission.clone());
    }
    if let Some(telemetry) = &run.telemetry {
        engine = engine.with_telemetry(telemetry.clone());
    }
    Ok(engine)
}

/// The one run core behind every fleet evaluation: drives `trace` through
/// `engine` in place, recording into `rec`, then appends the profiler's
/// memoization counters to the recording. With a [`NullRecorder`] it is
/// the plain run.
pub(crate) fn run_fleet<R: Recorder>(
    profiler: &StageProfiler,
    engine: &FleetEngine,
    trace: &Trace,
    mode: &MetricsMode,
    rec: &mut R,
) -> ChaosReport {
    let report = engine.run(arrivals(trace), mode, rec);
    record_profiler_memo(profiler, rec, report.fleet.merged.metrics.makespan_s);
    report
}

/// Scores a finished fleet run against `slo`.
fn score_fleet(report: FleetReport, slo: &SloTarget) -> FleetEvaluation {
    FleetEvaluation {
        attainment: report.attainment(slo),
        goodput_rps: report.goodput_rps(slo),
        meets_slo: report.meets_slo(slo),
        report,
    }
}

/// Translates a schedule into the engine's pipeline description using the
/// profiled stage costs, with an optional cache configuration attached: the
/// prefix-KV cache binds to the [`Stage::Prefix`] stage, and a
/// retrieval-result hit skips the [`Stage::Retrieval`] and [`Stage::Rerank`]
/// stages. With `cache = None` the spec is byte-for-byte the cache-less
/// pipeline, which is what makes the cached evaluations' degenerate cases
/// bit-exact. [`fleet_engine`] builds every flat fleet from it, and
/// [`crate::disagg`] splits it into a prefill/decode pair.
pub(crate) fn pipeline_spec(
    profiler: &StageProfiler,
    schedule: &Schedule,
    cache: Option<&CacheConfig>,
) -> Result<PipelineSpec, RagoError> {
    let schema = profiler.schema();
    schedule.placement.validate(schema)?;
    let batch = schedule.batching.predecode_batch;
    let retrieval_resource = schedule.placement.num_groups();

    let mut prefix_stage = None;
    let mut retrieval_stages = Vec::new();
    let mut stages = Vec::new();
    for stage in schema.pipeline() {
        if stage == Stage::Decode {
            continue;
        }
        match stage {
            Stage::Retrieval | Stage::Rerank => retrieval_stages.push(stages.len()),
            Stage::Prefix => prefix_stage = Some(stages.len()),
            _ => {}
        }
        let (resource, chips) = if stage == Stage::Retrieval {
            (retrieval_resource, schedule.allocation.retrieval_servers)
        } else {
            let group = schedule
                .placement
                .group_of(stage)
                .expect("a validated placement places every collocatable stage");
            (group, schedule.allocation.group_xpus[group])
        };
        let mut table = Vec::with_capacity(batch as usize);
        for fill in 1..=batch {
            table.push(profiler.profile(stage, chips, fill)?.latency_s);
        }
        stages.push(rago_serving_sim::engine::StageSpec::new(
            stage.to_string(),
            resource,
            batch,
            LatencyTable::from_table(table),
        ));
    }

    let decode_batch = schedule.batching.decode_batch;
    let mut step_table = Vec::with_capacity(decode_batch as usize);
    let mut decode = None;
    for fill in 1..=decode_batch {
        let perf = profiler.profile(Stage::Decode, schedule.allocation.decode_xpus, fill)?;
        step_table.push(perf.step_latency()?);
        decode = Some(perf);
    }
    let mut spec = PipelineSpec::new(
        stages,
        DecodeSpec::new(decode_batch, LatencyTable::from_table(step_table)),
    );

    if schema.is_iterative() {
        // The analytic path's stall input, so both paths draw the same
        // triggers from the same seed.
        let decode = decode.expect("the decode step table is not empty");
        let retrieval = profiler.profile(
            Stage::Retrieval,
            schedule.allocation.retrieval_servers,
            schedule.iterative_batch(),
        )?;
        let stall = schedule.stall_params(profiler, &decode, retrieval.latency_s)?;
        spec = spec.with_iterative(IterativeSpec {
            retrievals_per_sequence: stall.retrievals_per_sequence,
            iterative_batch: stall.iterative_batch,
            retrieval_prefix_latency_s: stall.retrieval_prefix_latency_s,
            seed: stall.seed,
        });
    }

    if let Some(config) = cache {
        if config.prefix.is_some() && prefix_stage.is_none() {
            return Err(RagoError::InvalidConfig {
                reason: "a prefix-KV cache was configured but the schema's pipeline \
                         has no prefix stage to act on"
                    .into(),
            });
        }
        if config.retrieval.is_some() && retrieval_stages.is_empty() {
            return Err(RagoError::InvalidConfig {
                reason: "a retrieval-result cache was configured but the schema's \
                         pipeline has no retrieval or rerank stage to skip — its hit \
                         rate would measure nothing"
                    .into(),
            });
        }
        spec = spec.with_cache(rago_serving_sim::engine::CachePlan {
            config: *config,
            prefix_stage,
            retrieval_stages,
        });
    }
    Ok(spec)
}

/// The one ranking loop of the frontier rankers: evaluates `candidates`
/// across rayon workers, keeps those `evaluate` scores, and sorts them by
/// `order`, whose tie-breaks make the ranking independent of scheduling.
/// The source is sized so the bridge can give every worker a share.
pub(crate) fn rank<C: Send, T: Send>(
    candidates: impl ExactSizeIterator<Item = C> + Send,
    evaluate: impl Fn(C) -> Option<T> + Sync,
    order: impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    let mut ranked = candidates
        .par_bridge()
        .fold(Vec::new, |mut acc, candidate| {
            acc.extend(evaluate(candidate));
            acc
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    ranked.sort_by(order);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Rago, SearchOptions};
    use crate::placement::PlacementPlan;
    use crate::schedule::{BatchingPolicy, ResourceAllocation};
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::{RouterPolicy, SequenceProfile};
    use rago_serving_sim::faults::FaultEvent;
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

    /// One micro-batch of exactly the pre-decode batch arriving at once, with
    /// the decode batch fully resident: the dynamic engine must agree with
    /// the static evaluation on both TTFT and TPOT.
    #[test]
    fn dynamic_matches_static_in_steady_state() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let static_perf = schedule.evaluate(rago.profiler()).unwrap();
        let trace = TraceSpec {
            num_requests: 8, // == predecode batch, <= decode batch
            profile: SequenceProfile::paper_default(),
            arrival: ArrivalProcess::Instantaneous,
            length_jitter: 0.0,
            seed: 0,
        }
        .generate();
        let eval = rago
            .evaluate_dynamic(&schedule, &trace, &SloTarget::paper_default(), None)
            .unwrap();
        // All eight requests flow as one micro-batch through retrieval and
        // prefix: TTFT equals the static sum of stage latencies.
        assert!(
            (eval.report.metrics.ttft.max_s - static_perf.ttft_s).abs() < 1e-9,
            "dynamic TTFT {} != static {}",
            eval.report.metrics.ttft.max_s,
            static_perf.ttft_s
        );
        // Decoding runs the full trace at fill 8; the static path reports
        // the step latency at the configured decode batch of 64, which the
        // fill-aware engine can only beat.
        assert!(eval.report.metrics.tpot.max_s <= static_perf.tpot_s + 1e-9);
        assert_eq!(eval.report.metrics.completed, 8);
    }

    /// With the decode step table pinned at the configured batch, TPOT
    /// matches the static step latency exactly.
    #[test]
    fn dynamic_tpot_equals_static_step_latency_at_full_fill() {
        let rago = case1_rago();
        let mut schedule = case1_schedule();
        schedule.batching = BatchingPolicy::new(8, 8); // decode batch == trace size
        let static_perf = schedule.evaluate(rago.profiler()).unwrap();
        let trace = TraceSpec {
            num_requests: 8,
            profile: SequenceProfile::paper_default(),
            arrival: ArrivalProcess::Instantaneous,
            length_jitter: 0.0,
            seed: 0,
        }
        .generate();
        let eval = rago
            .evaluate_dynamic(&schedule, &trace, &SloTarget::paper_default(), None)
            .unwrap();
        assert!(
            (eval.report.metrics.tpot.max_s - static_perf.tpot_s).abs() < 1e-9,
            "dynamic TPOT {} != static step latency {}",
            eval.report.metrics.tpot.max_s,
            static_perf.tpot_s
        );
    }

    #[test]
    fn overload_degrades_attainment_and_goodput_saturates() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let run = |rate: f64| {
            let trace = TraceSpec {
                num_requests: 150,
                profile: SequenceProfile::paper_default().with_decode_tokens(32),
                arrival: ArrivalProcess::Poisson { rate_rps: rate },
                length_jitter: 0.0,
                seed: 11,
            }
            .generate();
            rago.evaluate_dynamic(&schedule, &trace, &slo, None)
                .unwrap()
        };
        let light = run(2.0);
        let crushed = run(4000.0);
        assert!(light.attainment >= crushed.attainment);
        assert!(
            crushed.attainment < 0.95,
            "4000 rps should overwhelm the schedule, attainment {}",
            crushed.attainment
        );
        // Queueing dominates under overload.
        assert!(crushed.report.metrics.queueing_mean_s > light.report.metrics.queueing_mean_s);
    }

    #[test]
    fn iterative_workloads_run_dynamically() {
        let rago = Rago::new(
            presets::case3_iterative(LlmSize::B8, 4),
            ClusterSpec::paper_default(),
        );
        let schedule = Schedule {
            batching: BatchingPolicy::new(8, 32).with_iterative_batch(8),
            ..case1_schedule()
        };
        let trace = TraceSpec {
            num_requests: 32,
            profile: SequenceProfile::paper_default().with_decode_tokens(64),
            arrival: ArrivalProcess::Instantaneous,
            length_jitter: 0.0,
            seed: 2,
        }
        .generate();
        let eval = rago
            .evaluate_dynamic(&schedule, &trace, &SloTarget::paper_default(), None)
            .unwrap();
        assert!(eval.report.metrics.retrieval_batches > 0);
        // Pauses stretch the achieved TPOT beyond the raw step latency.
        let step = rago
            .profiler()
            .profile(Stage::Decode, 8, 32)
            .unwrap()
            .step_latency_s
            .unwrap();
        assert!(eval.report.metrics.tpot.max_s > step);
    }

    /// The DES pipeline's Case III input is the analytic stall input: the
    /// same batch, retrieval count and trigger seed, and the same pass
    /// latency bit for bit.
    #[test]
    fn iterative_pipelines_take_the_analytic_stall_input() {
        let rago = Rago::new(
            presets::case3_iterative(LlmSize::B8, 4),
            ClusterSpec::paper_default(),
        );
        let options = SearchOptions {
            xpu_steps: vec![8, 16],
            server_steps: vec![32],
            predecode_batch_steps: vec![4, 16],
            decode_batch_steps: vec![64],
            iterative_batch_steps: vec![2, 8],
            placements: None,
        };
        let frontier = rago.optimize(&options).unwrap();
        assert!(!frontier.points.is_empty());
        for point in &frontier.points {
            let stall = point
                .schedule
                .decode_stall_params(rago.profiler())
                .unwrap()
                .expect("Case III stalls");
            let spec = pipeline_spec(rago.profiler(), &point.schedule, None)
                .unwrap()
                .iterative
                .expect("a Case III pipeline is iterative");
            assert_eq!(spec.retrievals_per_sequence, stall.retrievals_per_sequence);
            assert_eq!(spec.iterative_batch, stall.iterative_batch);
            assert_eq!(
                spec.retrieval_prefix_latency_s.to_bits(),
                stall.retrieval_prefix_latency_s.to_bits()
            );
            assert_eq!(spec.seed, stall.seed);
        }
    }

    /// Regression: an empty trace used to score a vacuous `attainment = 1.0`
    /// and `meets_slo = true`; every public trace-taking evaluator must
    /// reject it instead.
    #[test]
    fn empty_traces_are_rejected() {
        use crate::faulted::FaultScenario;
        use rago_telemetry::{TelemetryConfig, TraceRecorder};

        let rago = case1_rago();
        let schedule = case1_schedule();
        let trace = Trace {
            requests: Vec::new(),
        };
        let slo = SloTarget::paper_default();
        let exact = &MetricsMode::Exact;
        let router = RouterPolicy::LeastOutstanding;
        let flat = FleetConfig::new(2, router);
        let split = FleetConfig::split(1, 1, router);
        let telemetry = TelemetryConfig::full(0.25);
        let mut rec = TraceRecorder::new(telemetry.clone());
        let mix =
            rago_workloads::WorkloadMix::single("all", SequenceProfile::paper_default(), 0.2, slo);
        let scenario = FaultScenario::new(ScaleDriver::Static { replicas: 2 });
        let cache = CacheConfig::disabled();
        let profiler = rago.profiler();
        let results: [(&str, Result<(), RagoError>); 6] = [
            (
                "evaluate_dynamic",
                rago.evaluate_dynamic(&schedule, &trace, &slo, None)
                    .map(drop),
            ),
            (
                "evaluate_fleet_dynamic_with",
                evaluate_fleet_dynamic_with(profiler, &schedule, &flat, &trace, &slo, exact)
                    .map(drop),
            ),
            (
                "evaluate_fleet_dynamic_traced",
                evaluate_fleet_dynamic_traced(
                    profiler, &schedule, &flat, &trace, &slo, exact, &telemetry, &mut rec,
                )
                .map(drop),
            ),
            (
                "evaluate_fleet_cached",
                rago.evaluate_fleet_cached(&schedule, &flat, &trace, &slo, &cache)
                    .map(drop),
            ),
            (
                "evaluate_fleet_disagg",
                rago.evaluate_fleet_disagg(&schedule, &split, &trace, &slo)
                    .map(drop),
            ),
            (
                "evaluate_fleet_faulted",
                rago.evaluate_fleet_faulted(&schedule, router, &mix, &trace, &scenario)
                    .map(drop),
            ),
        ];
        for (entry_point, result) in results {
            assert!(
                matches!(&result, Err(RagoError::InvalidConfig { reason }) if reason.contains("zero-request trace")),
                "{entry_point}: {result:?}"
            );
        }
    }

    /// Regression: a NaN or infinite arrival made the fleet loop spin
    /// forever (the arrival lane never routed it), and a negative one was
    /// served from time zero with its TTFT counted from before it. Each is
    /// rejected before the simulator runs, in both metrics modes and on
    /// the single-schedule path.
    #[test]
    fn malformed_arrivals_are_rejected() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::paper_default();
        let fleet = rago_schema::FleetConfig::new(2, RouterPolicy::LeastOutstanding);
        let streaming = MetricsMode::Streaming(
            rago_serving_sim::StreamingConfig::new(rago_schema::HistogramSpec::default())
                .with_slo(slo),
        );
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut trace = TraceSpec {
                num_requests: 20,
                profile: SequenceProfile::paper_default(),
                arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
                length_jitter: 0.0,
                seed: 3,
            }
            .generate();
            trace.requests[7].arrival_s = bad;
            for mode in [&MetricsMode::Exact, &streaming] {
                let err = evaluate_fleet_dynamic_with(
                    rago.profiler(),
                    &schedule,
                    &fleet,
                    &trace,
                    &slo,
                    mode,
                )
                .unwrap_err();
                assert!(
                    matches!(&err, RagoError::InvalidConfig { reason } if reason.contains("request 7")),
                    "{bad}: {err:?}"
                );
            }
            let err = rago
                .evaluate_dynamic(&schedule, &trace, &slo, None)
                .unwrap_err();
            assert!(matches!(err, RagoError::InvalidConfig { .. }), "{bad}");
        }
    }

    /// An empty trace must not produce an empty ranking that masquerades as
    /// "nothing was feasible" — it fails loudly instead.
    #[test]
    #[should_panic(expected = "zero-request trace")]
    fn frontier_ranking_rejects_empty_traces() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let frontier = rago
            .optimize(&SearchOptions {
                xpu_steps: vec![8],
                server_steps: vec![32],
                predecode_batch_steps: vec![8],
                decode_batch_steps: vec![64],
                iterative_batch_steps: vec![8],
                placements: None,
            })
            .unwrap();
        let empty = TraceSpec {
            num_requests: 0,
            profile: SequenceProfile::paper_default(),
            arrival: ArrivalProcess::Instantaneous,
            length_jitter: 0.0,
            seed: 0,
        }
        .generate();
        let _ = rago.rank_frontier_by_goodput(&frontier, &empty, &SloTarget::paper_default());
    }

    /// Regression: goodput used to divide by the makespan measured from
    /// t = 0, so a trace shifted +100 s silently deflated it. It is now
    /// measured over the serving window and invariant to the shift.
    #[test]
    fn goodput_is_invariant_to_a_shifted_trace() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::paper_default();
        let trace = TraceSpec {
            num_requests: 48,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Bursts {
                burst_size: 8,
                period_s: 0.5,
            },
            length_jitter: 0.0,
            seed: 7,
        }
        .generate();
        let shifted = trace.with_arrival_offset(100.0);
        let base = rago
            .evaluate_dynamic(&schedule, &trace, &slo, None)
            .unwrap();
        let moved = rago
            .evaluate_dynamic(&schedule, &shifted, &slo, None)
            .unwrap();
        assert!(base.goodput_rps > 0.0);
        assert!(
            (moved.goodput_rps - base.goodput_rps).abs() < 1e-9,
            "shifted trace changed goodput: {} vs {}",
            moved.goodput_rps,
            base.goodput_rps
        );
        assert!(
            (moved.report.metrics.throughput_rps - base.report.metrics.throughput_rps).abs() < 1e-9
        );
        assert!((moved.report.metrics.first_arrival_s - 100.0).abs() < 1e-9);
        // The drain tail is exposed and identical across the shift.
        assert!(
            (moved.report.metrics.drain_tail_s - base.report.metrics.drain_tail_s).abs() < 1e-9
        );
    }

    #[test]
    fn fleet_evaluation_scales_attainment_with_replicas() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = TraceSpec {
            num_requests: 120,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson { rate_rps: 60.0 },
            length_jitter: 0.0,
            seed: 11,
        }
        .generate();
        let fleet = |n: u32| {
            evaluate_fleet_dynamic_with(
                rago.profiler(),
                &schedule,
                &rago_schema::FleetConfig::new(n, RouterPolicy::LeastOutstanding),
                &trace,
                &slo,
                &MetricsMode::Exact,
            )
            .unwrap()
        };
        let one = fleet(1);
        let four = fleet(4);
        assert!(four.attainment >= one.attainment);
        assert_eq!(four.report.per_replica.len(), 4);
        assert_eq!(
            four.report
                .per_replica
                .iter()
                .map(|r| r.assigned)
                .sum::<usize>(),
            120
        );
        // A 1-replica fleet agrees with the single-schedule path.
        let single = rago
            .evaluate_dynamic(&schedule, &trace, &slo, None)
            .unwrap();
        assert_eq!(one.report.merged, single.report);
        assert!((one.attainment - single.attainment).abs() < 1e-12);
        assert!((one.goodput_rps - single.goodput_rps).abs() < 1e-12);
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let rago = case1_rago();
        let mut schedule = case1_schedule();
        schedule.allocation.decode_xpus = 0;
        let trace = TraceSpec {
            num_requests: 4,
            profile: SequenceProfile::paper_default(),
            arrival: ArrivalProcess::Instantaneous,
            length_jitter: 0.0,
            seed: 0,
        }
        .generate();
        let err = rago
            .evaluate_dynamic(&schedule, &trace, &SloTarget::paper_default(), None)
            .unwrap_err();
        assert!(matches!(err, RagoError::InvalidConfig { .. }));
    }

    #[test]
    fn the_engine_rejects_a_placement_out_of_pipeline_order() {
        // Every stage is placed, but the prefix group comes before the
        // rewriter's: the DES takes the same placement check as the static
        // evaluation.
        let rago = Rago::new(
            presets::case4_rewriter_reranker(LlmSize::B8),
            ClusterSpec::paper_default(),
        );
        let schedule = Schedule {
            placement: PlacementPlan {
                predecode_groups: vec![
                    vec![Stage::Prefix],
                    vec![Stage::RewritePrefix, Stage::RewriteDecode, Stage::Rerank],
                ],
            },
            allocation: ResourceAllocation {
                group_xpus: vec![16, 16],
                decode_xpus: 16,
                retrieval_servers: 32,
            },
            batching: BatchingPolicy::new(8, 128),
        };
        let trace = TraceSpec {
            num_requests: 4,
            profile: SequenceProfile::paper_default(),
            arrival: ArrivalProcess::Instantaneous,
            length_jitter: 0.0,
            seed: 0,
        }
        .generate();
        let err = rago
            .evaluate_dynamic(&schedule, &trace, &SloTarget::paper_default(), None)
            .unwrap_err();
        assert!(
            matches!(&err, RagoError::InvalidConfig { reason } if reason.contains("pipeline order")),
            "{err:?}"
        );
    }

    #[test]
    fn frontier_ranking_orders_by_goodput() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let options = SearchOptions {
            xpu_steps: vec![8, 32],
            server_steps: vec![32],
            predecode_batch_steps: vec![1, 16],
            decode_batch_steps: vec![128],
            iterative_batch_steps: vec![8],
            placements: None,
        };
        let frontier = rago.optimize(&options).unwrap();
        let trace = TraceSpec {
            num_requests: 60,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson { rate_rps: 20.0 },
            length_jitter: 0.1,
            seed: 5,
        }
        .generate();
        let slo = SloTarget::new(2.0, 0.1);
        let ranked = rago.rank_frontier_by_goodput(&frontier, &trace, &slo);
        assert_eq!(ranked.len(), frontier.len());
        for pair in ranked.windows(2) {
            assert!(pair[0].1.goodput_rps >= pair[1].1.goodput_rps);
        }
    }

    /// SLO counting is exact in streaming mode (only latency *percentiles*
    /// are histogram-approximated), so a streaming one-replica fleet must
    /// score the exact single-schedule evaluation bit for bit, with no
    /// timelines retained.
    #[test]
    fn streaming_evaluation_scores_match_exact() {
        use rago_schema::HistogramSpec;
        use rago_serving_sim::StreamingConfig;

        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(2.0, 0.1);
        let trace = TraceSpec {
            num_requests: 80,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson { rate_rps: 30.0 },
            length_jitter: 0.2,
            seed: 11,
        }
        .generate();
        let exact = rago
            .evaluate_dynamic(&schedule, &trace, &slo, None)
            .unwrap();
        let mode =
            MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()).with_slo(slo));
        let one = FleetConfig::new(1, RouterPolicy::LeastOutstanding);
        let streamed =
            evaluate_fleet_dynamic_with(rago.profiler(), &schedule, &one, &trace, &slo, &mode)
                .unwrap();

        assert_eq!(streamed.attainment, exact.attainment);
        assert_eq!(streamed.goodput_rps, exact.goodput_rps);
        assert_eq!(streamed.meets_slo, exact.meets_slo);
        let merged = &streamed.report.merged;
        assert!(merged.timelines.is_empty());
        assert_eq!(merged.metrics.requests, 80);
        // Percentile estimates land within one bucket width of the exact
        // order statistics.
        let w = HistogramSpec::default().bucket_width_s;
        for (est, true_v) in [
            (merged.metrics.ttft.p99_s, exact.report.metrics.ttft.p99_s),
            (
                merged.metrics.latency.p50_s,
                exact.report.metrics.latency.p50_s,
            ),
        ] {
            assert!(
                (est - true_v).abs() <= w * (1.0 + 1e-9),
                "estimate {est} strayed beyond one bucket width from {true_v}"
            );
        }
        // The streaming report retains orders of magnitude less memory than
        // the per-request timelines.
        assert!(merged.retained_bytes() < exact.report.retained_bytes());

        // A larger fleet agrees through the same sink plumbing.
        let fleet = FleetConfig::new(2, RouterPolicy::LeastOutstanding);
        let exact_fleet = evaluate_fleet_dynamic_with(
            rago.profiler(),
            &schedule,
            &fleet,
            &trace,
            &slo,
            &MetricsMode::Exact,
        )
        .unwrap();
        let streamed_fleet =
            evaluate_fleet_dynamic_with(rago.profiler(), &schedule, &fleet, &trace, &slo, &mode)
                .unwrap();
        assert_eq!(streamed_fleet.attainment, exact_fleet.attainment);
        assert_eq!(streamed_fleet.goodput_rps, exact_fleet.goodput_rps);
        assert!(streamed_fleet.report.merged.timelines.is_empty());
    }

    /// A streaming mode that does not name the scored SLO is rejected with
    /// a configuration error, not a mid-run panic.
    #[test]
    fn streaming_mode_must_name_the_scored_slo() {
        use rago_schema::HistogramSpec;
        use rago_serving_sim::StreamingConfig;

        let rago = case1_rago();
        let schedule = case1_schedule();
        let trace = TraceSpec {
            num_requests: 5,
            profile: SequenceProfile::paper_default(),
            arrival: ArrivalProcess::Instantaneous,
            length_jitter: 0.0,
            seed: 0,
        }
        .generate();
        let unconfigured = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));
        assert!(matches!(
            evaluate_fleet_dynamic_with(
                rago.profiler(),
                &schedule,
                &FleetConfig::new(1, RouterPolicy::LeastOutstanding),
                &trace,
                &SloTarget::paper_default(),
                &unconfigured
            ),
            Err(RagoError::InvalidConfig { .. })
        ));
    }

    /// A live recorder observes the fleet run without changing it: the
    /// traced evaluation equals the untraced one for a flat exact fleet, a
    /// flat streaming fleet and a 1+1 prefill/decode split, and the
    /// recording ends with the profiler's three memoization counters.
    #[test]
    fn traced_fleet_evaluation_matches_untraced() {
        use rago_schema::HistogramSpec;
        use rago_serving_sim::StreamingConfig;
        use rago_telemetry::{TelemetryConfig, TraceRecorder};

        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = TraceSpec {
            num_requests: 60,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
            length_jitter: 0.2,
            seed: 4,
        }
        .generate();
        let streaming =
            MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()).with_slo(slo));
        let flat = FleetConfig::new(2, RouterPolicy::LeastOutstanding);
        let split = FleetConfig::split(1, 1, RouterPolicy::LeastOutstanding);
        for (fleet, mode) in [
            (&flat, &MetricsMode::Exact),
            (&flat, &streaming),
            (&split, &MetricsMode::Exact),
        ] {
            let untraced =
                evaluate_fleet_dynamic_with(rago.profiler(), &schedule, fleet, &trace, &slo, mode)
                    .unwrap();
            let telemetry = TelemetryConfig::full(0.25);
            let mut rec = TraceRecorder::new(telemetry.clone());
            let traced = evaluate_fleet_dynamic_traced(
                rago.profiler(),
                &schedule,
                fleet,
                &trace,
                &slo,
                mode,
                &telemetry,
                &mut rec,
            )
            .unwrap();
            assert_eq!(traced, untraced, "{fleet:?} in {mode:?}");
            let names: Vec<&str> = rec.events().iter().map(|e| e.name.as_str()).collect();
            for counter in [
                "sim.profiler_memo_hits",
                "sim.profiler_memo_misses",
                "sim.profiler_memo_hit_rate",
            ] {
                assert!(names.contains(&counter), "{counter} missing for {fleet:?}");
            }
        }
    }

    /// A gauge cadence with no valid sample time (infinite: the one
    /// sample lands at `0 · ∞ = NaN`, an unparsable Chrome-trace `ts`) or
    /// a negative or NaN one is a config error, reported before any run.
    #[test]
    fn malformed_gauge_cadences_are_rejected() {
        use rago_telemetry::{TelemetryConfig, TraceRecorder};

        let rago = case1_rago();
        let trace = TraceSpec {
            num_requests: 10,
            profile: SequenceProfile::paper_default().with_decode_tokens(8),
            arrival: ArrivalProcess::Poisson { rate_rps: 20.0 },
            length_jitter: 0.0,
            seed: 4,
        }
        .generate();
        let fleet = FleetConfig::new(1, RouterPolicy::LeastOutstanding);
        for cadence in [f64::INFINITY, f64::NAN, -0.5] {
            let telemetry = TelemetryConfig::full(cadence);
            let mut rec = TraceRecorder::new(telemetry.clone());
            let result = evaluate_fleet_dynamic_traced(
                rago.profiler(),
                &case1_schedule(),
                &fleet,
                &trace,
                &SloTarget::new(1.0, 0.1),
                &MetricsMode::Exact,
                &telemetry,
                &mut rec,
            );
            assert!(
                matches!(&result, Err(RagoError::InvalidConfig { reason }) if reason.contains("gauge cadence")),
                "cadence {cadence}: {result:?}"
            );
            assert!(rec.is_empty(), "cadence {cadence} recorded a run");
        }
    }

    /// Case I's two-point fast frontier and its trace, with one arrival
    /// made NaN.
    fn fast_frontier_and_nan_trace() -> (Rago, ParetoFrontier, Trace) {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let frontier = rago.optimize(&SearchOptions::fast()).unwrap();
        let mut trace = TraceSpec {
            num_requests: 20,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
            length_jitter: 0.0,
            seed: 3,
        }
        .generate();
        trace.requests[5].arrival_s = f64::NAN;
        (rago, frontier, trace)
    }

    /// Regression: a malformed trace made every point's evaluation fail, so
    /// the goodput ranking returned zero points with no error.
    #[test]
    #[should_panic(expected = "arrival times must be finite and non-negative")]
    fn goodput_ranking_rejects_a_nan_arrival() {
        let (rago, frontier, trace) = fast_frontier_and_nan_trace();
        let _ = rago.rank_frontier_by_goodput(&frontier, &trace, &SloTarget::paper_default());
    }

    /// The same regression for the joint disaggregation ranking.
    #[test]
    #[should_panic(expected = "arrival times must be finite and non-negative")]
    fn disagg_ranking_rejects_a_nan_arrival() {
        let (rago, frontier, trace) = fast_frontier_and_nan_trace();
        let _ = rago.rank_frontier_by_goodput_disagg(
            &frontier,
            &trace,
            &SloTarget::paper_default(),
            &[(1, 1)],
            &[rago_hardware::InterconnectSpec::torus_3d()],
        );
    }

    /// Regression: a split fleet stitches its two legs by request id, and a
    /// trace repeating an id made the evaluation panic in the stitch. Every
    /// split path now rejects it as a config error; a flat fleet, which
    /// never joins by id, still accepts the same trace.
    #[test]
    fn split_fleets_reject_duplicate_request_ids() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let schedule = case1_schedule();
        let slo = SloTarget::paper_default();
        let mut trace = TraceSpec {
            num_requests: 4,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
            length_jitter: 0.0,
            seed: 2,
        }
        .generate();
        for r in &mut trace.requests {
            r.id = 7;
        }
        let split = FleetConfig::split(1, 1, RouterPolicy::LeastOutstanding);
        let rejected = |result: Result<(), RagoError>| matches!(result, Err(RagoError::InvalidConfig { reason }) if reason.contains("request id 7"));
        assert!(rejected(
            rago.evaluate_fleet_disagg(&schedule, &split, &trace, &slo)
                .map(|_| ())
        ));
        let exact = |fleet| {
            evaluate_fleet_dynamic_with(
                rago.profiler(),
                &schedule,
                fleet,
                &trace,
                &slo,
                &MetricsMode::Exact,
            )
        };
        assert!(rejected(exact(&split).map(|_| ())));
        // A crash schedule does not bypass the check.
        let crashed = FleetRun {
            fleet: split.clone(),
            faults: FaultSchedule::new(vec![FaultEvent::Crash {
                replica: 0,
                at_s: 0.1,
                restart_delay_s: 0.1,
            }]),
            ..FleetRun::default()
        };
        assert!(rejected(
            fleet_engine(rago.profiler(), &schedule, &trace, &crashed).map(|_| ())
        ));
        let flat = FleetConfig::new(2, RouterPolicy::LeastOutstanding);
        let eval = exact(&flat).unwrap();
        assert_eq!(eval.report.merged.metrics.completed, 4);
    }

    /// The joint disaggregation ranking refuses a trace with repeated ids up
    /// front, as it refuses a NaN arrival.
    #[test]
    #[should_panic(expected = "request id 7 appears more than once")]
    fn disagg_ranking_rejects_duplicate_request_ids() {
        let (rago, frontier, mut trace) = fast_frontier_and_nan_trace();
        trace.requests[5].arrival_s = trace.requests[4].arrival_s;
        for r in &mut trace.requests {
            r.id = 7;
        }
        let _ = rago.rank_frontier_by_goodput_disagg(
            &frontier,
            &trace,
            &SloTarget::paper_default(),
            &[(1, 1)],
            &[rago_hardware::InterconnectSpec::torus_3d()],
        );
    }
}
