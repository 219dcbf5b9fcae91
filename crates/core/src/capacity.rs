//! SLO-driven capacity planning: how many replicas does a schedule need?
//!
//! The optimizer answers *which schedule* is best for one pipeline; the
//! north-star question is *how many copies* of that pipeline a deployment
//! must provision to serve a target rate within an SLO — the decision
//! DistServe and Splitwise show dominates per-pipeline tuning at scale.
//! This module closes that loop on top of the fleet simulation in
//! `rago-serving-sim::fleet`:
//!
//! * [`Rago::plan_capacity`] searches the minimum replica count whose
//!   fleet-level SLO attainment meets the target at a given offered rate;
//! * [`Rago::plan_capacity_pools`] searches the cheapest prefill/decode
//!   split;
//! * [`Rago::plan_capacity_profile`] sizes each segment of a piecewise rate
//!   profile;
//! * [`Rago::rank_frontier_by_cost_at_qps`] re-ranks a Pareto frontier by
//!   the *total chips* each schedule needs to serve that rate — the
//!   fleet-level analogue of [`Rago::rank_frontier_by_goodput`]: a schedule
//!   that looks mediocre per chip may win once replica granularity is
//!   accounted for, and vice versa.
//!
//! Every plan is one search over a replica lattice: point `(p, d)` is a
//! fleet of `p` prefill and `d` decode replicas, priced by its
//! accelerators. A flat fleet is the single column `p = 1`, pools are the
//! grid, and a rate profile is one flat plan per distinct rate. Attainment
//! is monotone (non-decreasing) along the decode axis in expectation —
//! more replicas strictly reduce every replica's share of the load — so
//! each column is searched by one walk, `least_feasible`: gallop up from
//! a seed to the first feasible count, then bisect between the last miss
//! and it. Bisection leaves the answer's predecessor a probed miss, so the
//! result equals an exhaustive scan whenever the column is monotone; the
//! `study_fleet` binary cross-checks both planners against one.
//!
//! **Probe discipline.** Each candidate fleet is one DES run over the same
//! sizing trace, memoized per search. The seeds are analytic: the flat
//! column starts at `ceil(target / qps)` of [`Schedule::evaluate`], the
//! pool grid at that count for each side, so the bound is simulated only
//! when the walk climbs to it. From a probe it does not return, a planner
//! reads only the verdict `attainment ≥ target`, so those probes run
//! verdict-only ([`FleetEngine::run_trace_verdict`]): an infeasible run
//! stops as soon as its final misses rule the target out, and a feasible
//! run completes with the report a full run gives. A probe at the bound
//! (`max_replicas`, or `(max, max)` for pools) always completes, so an
//! infeasible target is reported with the full run's attainment. Plans
//! count their DES runs, stopped runs and events exactly.

use crate::dynamic::{fleet_engine, rank, FleetRun};
use crate::error::RagoError;
use crate::optimizer::Rago;
use crate::pareto::{ParetoFrontier, ParetoPoint};
use crate::profiler::StageProfiler;
use crate::schedule::Schedule;
use rago_cache::CacheConfig;
use rago_schema::{FleetConfig, KvTransferModel, RouterPolicy, SequenceProfile, SloTarget};
use rago_serving_sim::cluster::FleetReport;
use rago_serving_sim::faults::ChaosReport;
use rago_serving_sim::fleet::FleetEngine;
use rago_workloads::{ArrivalProcess, ContentSpec, RateSegment, Trace, TraceSpec};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::iter;

/// Knobs of a capacity-planning run: the simulated trace shape and the
/// search bounds. The defaults suit the paper's QA/chatbot profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityOptions {
    /// Largest replica count the search will consider.
    pub max_replicas: u32,
    /// Routing policy of the simulated fleet.
    pub router: RouterPolicy,
    /// Requests in the generated Poisson trace. More requests average out
    /// arrival noise at the cost of simulation time.
    pub num_requests: usize,
    /// Sequence-length profile of the generated requests.
    pub profile: SequenceProfile,
    /// Relative length jitter of the generated requests, in `[0, 1)`.
    pub length_jitter: f64,
    /// RNG seed of the generated trace.
    pub seed: u64,
}

impl Default for CapacityOptions {
    fn default() -> Self {
        Self {
            max_replicas: 16,
            router: RouterPolicy::default(),
            num_requests: 240,
            profile: SequenceProfile::paper_default().with_decode_tokens(64),
            length_jitter: 0.2,
            seed: 17,
        }
    }
}

/// The provisioning decision for one schedule at one target rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityPlan {
    /// Minimum replica count meeting the SLO at the target rate.
    pub replicas: u32,
    /// Offered rate the plan was sized for, in requests per second.
    pub target_qps: f64,
    /// Fleet SLO attainment at the planned replica count.
    pub attainment: f64,
    /// Fleet SLO goodput at the planned replica count, in requests per
    /// second of serving duration.
    pub goodput_rps: f64,
    /// Total accelerators across the fleet: the schedule's XPUs times the
    /// replica count — the cost axis
    /// [`Rago::rank_frontier_by_cost_at_qps`] ranks by.
    pub total_xpus: u32,
    /// Total retrieval CPU servers across the fleet.
    pub total_retrieval_servers: u32,
    /// Drain tail of the sizing run (time spent completing in-flight work
    /// after the last arrival); planners can discount it since it is paid
    /// once per burst, not per unit of sustained traffic.
    pub drain_tail_s: f64,
    /// Candidate fleets the search simulated (each at most once).
    pub des_runs: u32,
    /// Verdict-only probes among [`Self::des_runs`] that stopped once
    /// their SLO was lost.
    pub des_runs_stopped: u32,
    /// Simulation events processed across all of [`Self::des_runs`],
    /// stopped runs included.
    pub des_events: u64,
}

impl Rago {
    /// Finds the minimum replica count of `schedule`'s pipeline whose
    /// fleet-level SLO attainment meets `slo` at a Poisson offered rate of
    /// `target_qps` — the single column `p = 1` of the replica lattice (see the
    /// module docs). The walk starts from the analytic estimate
    /// `n0 = ceil(target_qps / qps)` of [`Schedule::evaluate`], clamped to
    /// `1..=options.max_replicas`; gallops `n0, n0 + 1, n0 + 3, n0 + 7, …`
    /// (capped at the bound) to the first feasible count; and bisects between
    /// the last infeasible count (or 0) and it. Bisection leaves the returned
    /// count's predecessor a probed miss, so the result equals an exhaustive
    /// linear scan whenever attainment is monotone in the replica count
    /// (cross-checked by the `study_fleet` binary). Every probe builds its
    /// fleet through the memoized profiler, so profiling costs one cold pass;
    /// every candidate count is evaluated on the same generated trace, so
    /// plans are comparable across schedules. Probes other than
    /// `max_replicas` are verdict-only and stop once their SLO is lost (see
    /// the module docs); the plan counts the DES runs spent.
    ///
    /// # Examples
    ///
    /// ```
    /// use rago_core::{CapacityOptions, Rago, SearchOptions};
    /// use rago_hardware::ClusterSpec;
    /// use rago_schema::{presets, SloTarget};
    ///
    /// let rago = Rago::new(
    ///     presets::case1_hyperscale(presets::LlmSize::B8, 1),
    ///     ClusterSpec::paper_default(),
    /// );
    /// let frontier = rago.optimize(&SearchOptions::fast())?;
    /// let best = frontier.max_qps_per_chip().unwrap();
    /// let slo = SloTarget::paper_default();
    /// let options = CapacityOptions { max_replicas: 4, num_requests: 60, ..Default::default() };
    /// let plan = rago.plan_capacity(&best.schedule, &slo, 5.0, &options)?;
    /// assert!(plan.replicas >= 1);
    /// assert_eq!(plan.total_xpus, best.schedule.allocation.total_xpus() * plan.replicas);
    /// # Ok::<(), rago_core::RagoError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] when the target rate is not
    /// positive and finite, the options are out of range (zero or too many
    /// replicas, zero requests, a length jitter outside `[0, 1)`, or a
    /// sequence profile that [`SequenceProfile::validate`] rejects) or the
    /// schedule is invalid, [`RagoError::CostModel`] when the schedule
    /// cannot be profiled, and [`RagoError::NoFeasibleSchedule`] when even
    /// `options.max_replicas` replicas miss the SLO at the target rate.
    pub fn plan_capacity(
        &self,
        schedule: &Schedule,
        slo: &SloTarget,
        target_qps: f64,
        options: &CapacityOptions,
    ) -> Result<CapacityPlan, RagoError> {
        plan_flat(self.profiler(), schedule, slo, target_qps, options, None).map(|(plan, _)| plan)
    }
}

/// The one flat planner behind [`Rago::plan_capacity`] and
/// [`Rago::plan_capacity_cached`]. With a `(cache, content)` pair,
/// every replica runs with its own cold caches and the sizing trace is
/// tagged with the content model's identity. Returns the plan and the
/// planned fleet's report, off which the cached planner reads hit rates.
pub(crate) fn plan_flat(
    profiler: &StageProfiler,
    schedule: &Schedule,
    slo: &SloTarget,
    target_qps: f64,
    options: &CapacityOptions,
    cached: Option<(&CacheConfig, &ContentSpec)>,
) -> Result<(CapacityPlan, FleetReport), RagoError> {
    validate_capacity_inputs(target_qps, options)?;
    let mut trace = sizing_trace(target_qps, options);
    if let Some((_, content)) = cached {
        trace = content.tag(&trace);
    }
    let engine = |replicas| {
        let run = FleetRun {
            fleet: FleetConfig::new(replicas, options.router),
            cache: cached.map(|(cache, _)| *cache),
            ..FleetRun::default()
        };
        fleet_engine(profiler, schedule, &trace, &run)
    };
    // Building one fleet surfaces every input error before any DES run;
    // the probes differ from it only in their replica counts.
    engine(1)?;
    let max = options.max_replicas;
    let n0 = analytic_replicas(profiler, schedule, target_qps, max)?;
    let engine = |_, n| engine(n).expect("every fleet of the validated inputs builds");
    let mut probes = Probes::new(slo, &trace, (1, max));
    let chips = (0, schedule.allocation.total_xpus());
    let Some((_, replicas, total_xpus)) = search_lattice(&mut probes, (1, n0), chips, engine)
    else {
        return Err(probes.infeasible(&format!("{max} replicas reach"), target_qps));
    };
    let report = probes.take((1, replicas));
    let plan = CapacityPlan {
        replicas,
        target_qps,
        attainment: report.offered_attainment(slo),
        goodput_rps: report.fleet.goodput_rps(slo),
        total_xpus,
        total_retrieval_servers: schedule.allocation.retrieval_servers * replicas,
        drain_tail_s: report.fleet.merged.metrics.drain_tail_s,
        des_runs: probes.work.runs,
        des_runs_stopped: probes.work.stopped,
        des_events: probes.work.events,
    };
    Ok((plan, report.fleet))
}

/// Upper bound on [`CapacityOptions::max_replicas`] accepted by the
/// planners. The sizing engines materialize one pipeline replica per count,
/// and a planner may simulate the bound itself — the flat search's gallop
/// and the pool search's walk end there when smaller fleets miss — so an
/// unchecked huge count (say `u32::MAX` from a config file) could attempt
/// an absurd allocation. 4096 replicas of even the smallest paper schedule
/// already exceed any cluster the cost model describes.
pub const MAX_PLANNER_REPLICAS: u32 = 4096;

/// Input validation shared by every planner — one set of error messages
/// for all.
fn validate_capacity_inputs(target_qps: f64, options: &CapacityOptions) -> Result<(), RagoError> {
    if !(target_qps > 0.0 && target_qps.is_finite()) {
        return Err(RagoError::InvalidConfig {
            reason: format!("target QPS must be positive and finite, got {target_qps}"),
        });
    }
    if options.max_replicas == 0 {
        return Err(RagoError::InvalidConfig {
            reason: "max_replicas must be at least 1".into(),
        });
    }
    if options.max_replicas > MAX_PLANNER_REPLICAS {
        return Err(RagoError::InvalidConfig {
            reason: format!(
                "max_replicas {} exceeds the planner bound of {MAX_PLANNER_REPLICAS}; \
                 a planner may simulate a fleet that large, which is almost certainly \
                 a misconfiguration",
                options.max_replicas
            ),
        });
    }
    if options.num_requests == 0 {
        // An empty sizing trace would score a vacuous attainment of 1.0 at
        // any replica count — the same failure mode the dynamic evaluator
        // rejects for zero-request traces.
        return Err(RagoError::InvalidConfig {
            reason: "capacity planning needs at least one request in the sizing trace".into(),
        });
    }
    if !(0.0..1.0).contains(&options.length_jitter) {
        // The sizing trace's request generator would panic on it.
        return Err(RagoError::InvalidConfig {
            reason: format!(
                "length_jitter must be in [0, 1), got {}",
                options.length_jitter
            ),
        });
    }
    // The sizing trace's generator clamps zero lengths to one, so an
    // unchecked profile would size a different request shape.
    options
        .profile
        .validate()
        .map_err(|e| RagoError::InvalidConfig {
            reason: format!("sizing profile: {e}"),
        })
}

/// The Poisson sizing trace every capacity plan is evaluated on; the cached
/// planner content-tags it, so cached and cache-less plans at the same rate
/// are directly comparable.
fn sizing_trace(target_qps: f64, options: &CapacityOptions) -> Trace {
    TraceSpec {
        num_requests: options.num_requests,
        profile: options.profile,
        arrival: ArrivalProcess::Poisson {
            rate_rps: target_qps,
        },
        length_jitter: options.length_jitter,
        seed: options.seed,
    }
    .generate()
}

/// The replica count the analytic model predicts for `target_qps`:
/// `ceil(target_qps / qps)` of [`Schedule::evaluate`], clamped to
/// `[1, max_replicas]` — where the flat column's walk starts.
fn analytic_replicas(
    profiler: &StageProfiler,
    schedule: &Schedule,
    target_qps: f64,
    max_replicas: u32,
) -> Result<u32, RagoError> {
    let qps = schedule.evaluate(profiler)?.qps;
    Ok(replicas_for(target_qps, qps, max_replicas))
}

/// The DES work one capacity plan spent: every candidate fleet simulated,
/// the verdict-only probes among them that stopped early, and the
/// simulation events processed, stopped runs included.
#[derive(Debug, Clone, Copy, Default)]
struct DesWork {
    runs: u32,
    stopped: u32,
    events: u64,
}

/// The memoized probes of one capacity search: each lattice point
/// `(prefill, decode)` is simulated at most once, on the same trace, and
/// its DES work tallied. The probe at the lattice's far corner, whose
/// attainment an infeasible search quotes, runs to completion
/// ([`FleetEngine::run_trace`]); every other probe is verdict-only
/// ([`FleetEngine::run_trace_verdict`]) and is kept only if it completes,
/// as every feasible one does.
struct Probes<'a> {
    slo: &'a SloTarget,
    trace: &'a Trace,
    /// The lattice's far corner `(columns, max_replicas)`, the one probe
    /// always run in full.
    bound: (u32, u32),
    runs: BTreeMap<(u32, u32), Option<ChaosReport>>,
    work: DesWork,
}

impl<'a> Probes<'a> {
    fn new(slo: &'a SloTarget, trace: &'a Trace, bound: (u32, u32)) -> Self {
        Self {
            slo,
            trace,
            bound,
            runs: BTreeMap::new(),
            work: DesWork::default(),
        }
    }

    /// Whether fleet `key` meets the SLO; `engine` builds it on a miss of
    /// the memo.
    fn meets(&mut self, key: (u32, u32), engine: impl FnOnce() -> FleetEngine) -> bool {
        let (slo, trace, work) = (self.slo, self.trace, &mut self.work);
        let full = key == self.bound;
        self.runs
            .entry(key)
            .or_insert_with(|| {
                let engine = engine();
                work.runs += 1;
                let run = if full {
                    Ok(engine.run_trace(trace))
                } else {
                    engine.run_trace_verdict(trace, slo)
                };
                match run {
                    Ok(report) => {
                        work.events += report.fleet.merged.metrics.events_processed;
                        Some(report)
                    }
                    Err(lost) => {
                        work.stopped += 1;
                        work.events += lost.events;
                        None
                    }
                }
            })
            .as_ref()
            .is_some_and(|report| report.offered_attainment(slo) >= slo.attainment)
    }

    /// Hands over the completed report of fleet `key`.
    fn take(&mut self, key: (u32, u32)) -> ChaosReport {
        self.runs
            .remove(&key)
            .flatten()
            .expect("feasible and full probes run to completion")
    }

    /// The error of a search no fleet passed, quoting the full run of the
    /// bound, which `fleet` names (with its verb).
    fn infeasible(&self, fleet: &str, target_qps: f64) -> RagoError {
        let top = self.runs[&self.bound]
            .as_ref()
            .expect("the bound runs to completion");
        RagoError::NoFeasibleSchedule {
            reason: format!(
                "even {fleet} only {:.1} % attainment at {target_qps:.1} rps (target {:.1} %)",
                top.offered_attainment(self.slo) * 100.0,
                self.slo.attainment * 100.0
            ),
        }
    }
}

/// The provisioning decision for one schedule at one target rate under
/// disaggregated prefill/decode pools — the two-pool analogue of
/// [`CapacityPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolCapacityPlan {
    /// Replicas of the prefill pool (pre-decode stages only).
    pub prefill_replicas: u32,
    /// Replicas of the decode pool (continuous-batching decode only).
    pub decode_replicas: u32,
    /// Offered rate the plan was sized for, in requests per second.
    pub target_qps: f64,
    /// Fleet SLO attainment at the planned split.
    pub attainment: f64,
    /// Fleet SLO goodput at the planned split, in requests per second of
    /// serving duration.
    pub goodput_rps: f64,
    /// Total accelerators: `prefill_replicas × prefill XPUs +
    /// decode_replicas × decode XPUs` — the objective the joint search
    /// minimizes, and the number to hold against [`CapacityPlan::total_xpus`]
    /// to decide whether disaggregation pays at this rate and SLO.
    pub total_xpus: u32,
    /// Total retrieval CPU servers (retrieval runs pre-decode, so only the
    /// prefill pool carries them).
    pub total_retrieval_servers: u32,
    /// Drain tail of the sizing run.
    pub drain_tail_s: f64,
    /// Candidate splits the search simulated (each at most once).
    pub des_runs: u32,
    /// Verdict-only probes among [`Self::des_runs`] that stopped once
    /// their SLO was lost.
    pub des_runs_stopped: u32,
    /// Simulation events processed across all of [`Self::des_runs`],
    /// stopped runs included.
    pub des_events: u64,
}

impl Rago {
    /// Finds the cheapest disaggregated `(prefill, decode)` split of
    /// `schedule`'s pipeline whose fleet attainment meets `slo` at a Poisson
    /// offered rate of `target_qps` — the joint-search extension of
    /// [`Rago::plan_capacity`], with every KV handoff priced by `transfer`.
    ///
    /// The objective is total accelerators, which the pools price
    /// *asymmetrically*: a prefill replica occupies only the schedule's
    /// pre-decode groups, a decode replica only its decode XPUs. Ties break
    /// toward fewer replicas, then fewer prefill replicas.
    ///
    /// The search is the replica lattice's grid: each prefill count `p` is a
    /// column searched for its least feasible decode count by the same walk as
    /// the flat planner's column (feasibility is monotone in the decode count,
    /// not in `p`: more prefill replicas hand decode a burstier stream). It
    /// starts from the analytic split `(p0, d0)`: `ceil(target_qps / qps)` of
    /// the slowest pre-decode group or retrieval and of the decode stage, the
    /// two-pool analogue of the flat planner's seed. Column `p0` gallops up
    /// from `d0`, then the columns above it gallop up from one, then the
    /// columns below it probe their cap first (too few prefill replicas: one
    /// stopped probe rules such a column out). Each column is capped at the
    /// largest decode count whose split can still tie the best cost found, and
    /// skipped when even `(p, 1)` costs more than the best split. Probes are
    /// memoized on one sizing trace and verdict-only, so an infeasible split
    /// stops once its SLO is lost and mostly the answer runs in full;
    /// `(max_replicas, max_replicas)` is simulated only when the walk reaches
    /// it, and then to completion. Every candidate is evaluated on the
    /// identical trace, so the returned plan is directly comparable to the
    /// collocated plan at the same rate.
    ///
    /// # Errors
    ///
    /// As [`Rago::plan_capacity`] (including [`RagoError::NoFeasibleSchedule`]
    /// when even a `max_replicas + max_replicas` split misses the SLO), plus
    /// [`RagoError::InvalidConfig`] for an invalid transfer model or a schedule
    /// without a pre-decode stage to disaggregate.
    pub fn plan_capacity_pools(
        &self,
        schedule: &Schedule,
        slo: &SloTarget,
        target_qps: f64,
        transfer: &KvTransferModel,
        options: &CapacityOptions,
    ) -> Result<PoolCapacityPlan, RagoError> {
        validate_capacity_inputs(target_qps, options)?;
        schedule.validate()?;
        transfer.validate().map_err(|e| RagoError::InvalidConfig {
            reason: e.to_string(),
        })?;
        let max = options.max_replicas;
        let (p0, d0) = analytic_split(self.profiler(), schedule, target_qps, max)?;
        let trace = sizing_trace(target_qps, options);
        let engine = |p: u32, d: u32| {
            let run = FleetRun {
                fleet: FleetConfig::split(p, d, options.router).with_transfer(*transfer),
                ..FleetRun::default()
            };
            fleet_engine(self.profiler(), schedule, &trace, &run)
        };
        // Building one split surfaces every input error before any DES run;
        // the probes differ from it only in their pool sizes.
        engine(1, 1)?;

        let mut probes = Probes::new(slo, &trace, (max, max));
        let chips = (
            crate::disagg::prefill_xpus(schedule),
            crate::disagg::decode_xpus(schedule),
        );
        let split = |p, d| engine(p, d).expect("every split of the validated inputs builds");
        let Some((p, d, cost)) = search_lattice(&mut probes, (p0, d0), chips, split) else {
            let fleet = format!("a {max} + {max} prefill/decode split reaches");
            return Err(probes.infeasible(&fleet, target_qps));
        };
        let report = probes.take((p, d));
        Ok(PoolCapacityPlan {
            prefill_replicas: p,
            decode_replicas: d,
            target_qps,
            attainment: report.offered_attainment(slo),
            goodput_rps: report.fleet.goodput_rps(slo),
            total_xpus: cost,
            total_retrieval_servers: schedule.allocation.retrieval_servers * p,
            drain_tail_s: report.fleet.merged.metrics.drain_tail_s,
            des_runs: probes.work.runs,
            des_runs_stopped: probes.work.stopped,
            des_events: probes.work.events,
        })
    }
}

/// The cheapest feasible point `(p, d, cost)` of the replica lattice
/// `1..=columns × 1..=max_replicas` (the bound of `probes`), priced
/// `p × chips.0 + d × chips.1`, or `None` when no point meets the SLO. A
/// flat fleet is the single column `p = 1`; pools are the grid. Each
/// column `p` is searched on its own by [`least_feasible`], since
/// feasibility is monotone in the decode count but not in `p` (more
/// prefill replicas hand decode a burstier stream). The seed column goes
/// first from `d0`, then the columns above it from one, whose answers cap
/// the ones below; those start at their cap, where too few prefill
/// replicas rule a column out in one stopped probe. A column is capped at
/// the largest decode count whose point can still tie the best cost, and
/// skipped when even `(p, 1)` costs more. Ties break toward fewer
/// replicas, then fewer prefill replicas.
fn search_lattice(
    probes: &mut Probes,
    (p0, d0): (u32, u32),
    (chips_prefill, chips_decode): (u32, u32),
    engine: impl Fn(u32, u32) -> FleetEngine,
) -> Option<(u32, u32, u32)> {
    let (columns, max) = probes.bound;
    let mut best: Option<(u32, u32, u32)> = None; // (p, d, cost)
    for p in iter::once(p0).chain(p0 + 1..=columns).chain(1..p0) {
        if best.is_some_and(|(.., cost)| p * chips_prefill + chips_decode > cost) {
            continue;
        }
        let cap = best.map_or(max, |(.., cost)| {
            ((cost - p * chips_prefill) / chips_decode).min(max)
        });
        let start = match p.cmp(&p0) {
            Ordering::Less => cap,
            Ordering::Equal => d0.min(cap),
            Ordering::Greater => 1,
        };
        let meets = |d| probes.meets((p, d), || engine(p, d));
        let Some(d) = least_feasible(start, cap, meets) else {
            continue;
        };
        let cost = p * chips_prefill + d * chips_decode;
        // Lowest cost, then fewest replicas, then fewest prefill replicas.
        let rank = |(p, d, cost): (u32, u32, u32)| (cost, p + d, p);
        if best.map_or(true, |b| rank((p, d, cost)) < rank(b)) {
            best = Some((p, d, cost));
        }
    }
    best
}

/// The least `n` in `1..=cap` that `meets`, for a feasibility monotone in
/// `n`: the one walk of every capacity plan. It gallops `start, start + 1,
/// start + 3, …` (capped at `cap`) to the first feasible count, then
/// bisects between the last miss (or 0) and it. Bisection keeps `lo − 1` a
/// probed miss (or 0), so the answer's predecessor is always a probed
/// miss, no count is probed twice, and a verdict probe below the boundary
/// stops early: mostly only the answer runs in full.
fn least_feasible(start: u32, cap: u32, mut meets: impl FnMut(u32) -> bool) -> Option<u32> {
    let mut lo = 1;
    let mut offset = 0u32;
    let mut hi = loop {
        let n = start.saturating_add(offset).min(cap);
        if meets(n) {
            break n;
        }
        if n == cap {
            return None;
        }
        lo = n + 1;
        offset = offset.saturating_mul(2).saturating_add(1);
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if meets(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

/// The split the analytic model predicts for `target_qps`: prefill
/// replicas from the slowest pre-decode group or retrieval, decode
/// replicas from the decode stage, each `ceil(target_qps / qps)` clamped
/// to `[1, max_replicas]` — where [`Rago::plan_capacity_pools`] starts
/// its walk.
fn analytic_split(
    profiler: &StageProfiler,
    schedule: &Schedule,
    target_qps: f64,
    max_replicas: u32,
) -> Result<(u32, u32), RagoError> {
    let (predecode, decode) = schedule.side_rates(profiler)?;
    let count = |qps: f64| replicas_for(target_qps, qps, max_replicas);
    Ok((count(predecode.predecode_qps), count(decode.decode_qps)))
}

/// `ceil(target_qps / qps)` clamped to `[1, max_replicas]`.
fn replicas_for(target_qps: f64, qps: f64, max_replicas: u32) -> u32 {
    // `as` saturates: an infinite or NaN ratio lands on a bound.
    ((target_qps / qps).ceil() as u32).clamp(1, max_replicas)
}

impl Rago {
    /// Re-ranks a Pareto frontier by the total accelerators needed to serve
    /// `target_qps` within `slo`, cheapest fleet first — the fleet-level
    /// analogue of [`Rago::rank_frontier_by_goodput`]. Each point is
    /// capacity-planned independently (in parallel across rayon workers);
    /// points that cannot meet the SLO even at `options.max_replicas` replicas
    /// are omitted. Ties on total XPUs break toward fewer replicas, then lower
    /// static TTFT, then the schedule description, so the ranking is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics when the target rate or the options fail the planners' input
    /// validation (a non-positive or non-finite rate, zero requests or
    /// replicas, `max_replicas` above [`MAX_PLANNER_REPLICAS`], a length
    /// jitter outside `[0, 1)`, or a sequence profile that
    /// [`SequenceProfile::validate`] rejects). Those inputs would fail
    /// *every* per-point plan, and silently returning an empty ranking
    /// would be indistinguishable from "no schedule can serve this rate".
    pub fn rank_frontier_by_cost_at_qps(
        &self,
        frontier: &ParetoFrontier,
        slo: &SloTarget,
        target_qps: f64,
        options: &CapacityOptions,
    ) -> Vec<(ParetoPoint, CapacityPlan)> {
        if let Err(e) = validate_capacity_inputs(target_qps, options) {
            panic!("{e}");
        }
        rank(
            frontier.iter(),
            |point| {
                let plan = self.plan_capacity(&point.schedule, slo, target_qps, options);
                Some((point.clone(), plan.ok()?))
            },
            |a, b| {
                a.1.total_xpus
                    .cmp(&b.1.total_xpus)
                    .then(a.1.replicas.cmp(&b.1.replicas))
                    .then(a.0.performance.ttft_s.total_cmp(&b.0.performance.ttft_s))
                    .then_with(|| a.0.schedule.describe().cmp(&b.0.schedule.describe()))
            },
        )
    }
}

/// One interval of a capacity schedule: how many replicas a rate segment
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityInterval {
    /// Interval start, in seconds from the profile's origin.
    pub start_s: f64,
    /// Interval length, in seconds.
    pub duration_s: f64,
    /// Offered rate during the interval, in requests per second.
    pub rate_rps: f64,
    /// Minimum replica count meeting the SLO at that rate (zero for
    /// zero-rate intervals).
    pub replicas: u32,
    /// Fleet attainment at the planned count (1.0 for zero-rate intervals).
    pub attainment: f64,
}

/// A replica *schedule* over a time-varying rate profile, with its cost
/// relative to statically provisioning the peak.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityProfile {
    /// Per-interval plans, in profile order.
    pub intervals: Vec<CapacityInterval>,
    /// Largest per-interval replica count — what static provisioning would
    /// hold for the whole profile.
    pub peak_replicas: u32,
    /// Integral of the schedule, in replica-seconds.
    pub replica_seconds: f64,
    /// `peak_replicas × total profile duration` — the static-provisioning
    /// cost over the same window.
    pub static_replica_seconds: f64,
    /// `1 − replica_seconds / static_replica_seconds`: the fraction of
    /// chip-time following the profile saves over provisioning the peak
    /// (zero when the profile is flat).
    pub savings_fraction: f64,
}

impl Rago {
    /// Plans the minimum replica *schedule* of `schedule`'s pipeline over a
    /// piecewise-constant rate profile: each [`RateSegment`] is sized
    /// independently with [`Rago::plan_capacity`] at its own rate (zero-rate
    /// segments need zero replicas), so the result is by construction identical
    /// to per-interval static planning — the cross-check the
    /// `capacity_profile_matches_per_interval_planning` test pins. Repeated
    /// rates are planned once and memoized.
    ///
    /// This is the provisioning-side answer to time-varying traffic: where the
    /// reactive autoscaler in `rago-serving-sim` *discovers* the capacity a
    /// trace needs, this planner *derives* it from the rate profile ahead of
    /// time, and the spread between `replica_seconds` and
    /// `static_replica_seconds` bounds what any elastic strategy can save.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] when the profile is empty, a
    /// segment is degenerate (non-positive duration, negative or non-finite
    /// rate), the schedule is invalid, or the options describe an empty search,
    /// and [`RagoError::NoFeasibleSchedule`] when some positive-rate segment
    /// cannot meet the SLO within `options.max_replicas`.
    pub fn plan_capacity_profile(
        &self,
        schedule: &Schedule,
        slo: &SloTarget,
        profile: &[RateSegment],
        options: &CapacityOptions,
    ) -> Result<CapacityProfile, RagoError> {
        if profile.is_empty() {
            return Err(RagoError::InvalidConfig {
                reason: "a capacity profile needs at least one rate segment".into(),
            });
        }
        for (i, s) in profile.iter().enumerate() {
            if let Err(reason) = s.validate() {
                return Err(RagoError::InvalidConfig {
                    reason: format!("segment {i}: {reason}"),
                });
            }
        }
        if profile.iter().all(|s| s.rate_rps == 0.0) {
            // Without this check an all-idle profile would plan a zero-replica
            // fleet with vacuous attainment 1.0 everywhere and a "free"
            // replica-seconds bill — a degenerate answer that upstream
            // consumers (autoscaler sizing, cost ranking) would take at face
            // value.
            return Err(RagoError::InvalidConfig {
                reason: "a capacity profile needs at least one segment with a positive rate; \
                         an all-idle profile sizes a zero-replica fleet with vacuous attainment"
                    .into(),
            });
        }
        let mut plans: BTreeMap<u64, (u32, f64)> = BTreeMap::new();
        let mut intervals = Vec::with_capacity(profile.len());
        let mut start_s = 0.0;
        let mut replica_seconds = 0.0;
        for s in profile {
            let (replicas, attainment) = if s.rate_rps == 0.0 {
                (0, 1.0)
            } else {
                match plans.entry(s.rate_rps.to_bits()) {
                    std::collections::btree_map::Entry::Occupied(e) => *e.get(),
                    std::collections::btree_map::Entry::Vacant(e) => {
                        let plan = self.plan_capacity(schedule, slo, s.rate_rps, options)?;
                        *e.insert((plan.replicas, plan.attainment))
                    }
                }
            };
            replica_seconds += f64::from(replicas) * s.duration_s;
            intervals.push(CapacityInterval {
                start_s,
                duration_s: s.duration_s,
                rate_rps: s.rate_rps,
                replicas,
                attainment,
            });
            start_s += s.duration_s;
        }
        let peak_replicas = intervals
            .iter()
            .map(|i| i.replicas)
            .max()
            .expect("profile was validated non-empty");
        let static_replica_seconds = f64::from(peak_replicas) * start_s;
        let savings_fraction = if static_replica_seconds > 0.0 {
            1.0 - replica_seconds / static_replica_seconds
        } else {
            0.0
        };
        Ok(CapacityProfile {
            intervals,
            peak_replicas,
            replica_seconds,
            static_replica_seconds,
            savings_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::pipeline_spec;
    use crate::optimizer::{Rago, SearchOptions};
    use crate::placement::PlacementPlan;
    use crate::schedule::{BatchingPolicy, ResourceAllocation};
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::Stage;
    use rago_serving_sim::engine::PipelineSpec;
    use rago_serving_sim::faults::ScaleDriver;

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

    fn quick_options() -> CapacityOptions {
        CapacityOptions {
            max_replicas: 8,
            num_requests: 120,
            ..CapacityOptions::default()
        }
    }

    /// The minimum replica count in `1..=max` whose full run over the
    /// sizing trace meets `slo` — the exhaustive scan the planners must
    /// reproduce.
    fn linear_scan(
        spec: &PipelineSpec,
        slo: &SloTarget,
        target_qps: f64,
        options: &CapacityOptions,
    ) -> Option<u32> {
        let trace = sizing_trace(target_qps, options);
        (1..=options.max_replicas).find(|&n| {
            FleetEngine::new(
                spec.clone(),
                options.router,
                ScaleDriver::Static { replicas: n },
            )
            .run_trace(&trace)
            .fleet
            .attainment(slo)
                >= slo.attainment
        })
    }

    /// Sizing options whose trace lasts `seconds` at `rate_rps`, so
    /// overload accumulates instead of draining as a short burst.
    fn timed_options(rate_rps: f64, seconds: f64) -> CapacityOptions {
        CapacityOptions {
            num_requests: (rate_rps * seconds) as usize,
            ..quick_options()
        }
    }

    /// The flat planner equals an exhaustive linear scan whether the
    /// analytic estimate `n0` lies below the simulated minimum, on it,
    /// above it, or above `max_replicas` (feasible there or not).
    #[test]
    fn plan_matches_an_exhaustive_linear_scan() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let rago = case1_rago();
        let schedule = case1_schedule();
        let spec = pipeline_spec(rago.profiler(), &schedule, None).unwrap();
        // (TTFT target, rate, where the unclamped n0 lies relative to the
        // scan's answer; `None`: no count within the bound is feasible).
        let sweep = [
            (0.1, 90.0, Some(Less)),
            (0.1, 170.0, Some(Equal)),
            (0.4, 250.0, Some(Greater)),
            (0.4, 900.0, Some(Greater)),
            (0.1, 900.0, None),
        ];
        let mut above_max = 0;
        for (ttft_s, target_qps, relation) in sweep {
            let slo = SloTarget::new(ttft_s, 0.1);
            let options = timed_options(target_qps, 3.0);
            let n0 =
                analytic_replicas(rago.profiler(), &schedule, target_qps, MAX_PLANNER_REPLICAS)
                    .unwrap();
            above_max += usize::from(n0 > options.max_replicas);
            let scan = linear_scan(&spec, &slo, target_qps, &options);
            let plan = rago.plan_capacity(&schedule, &slo, target_qps, &options);
            let at = format!("{target_qps} rps, TTFT {ttft_s} s, n0 {n0}");
            assert_eq!(scan.map(|n| n0.cmp(&n)), relation, "{at}: sweep drifted");
            match scan {
                Some(n) => {
                    let plan = plan.unwrap();
                    assert_eq!(plan.replicas, n, "{at}");
                    assert!(plan.attainment >= slo.attainment, "{at}");
                    assert_eq!(
                        plan.total_xpus,
                        schedule.allocation.total_xpus() * plan.replicas
                    );
                    assert!(plan.des_runs_stopped < plan.des_runs, "{at}");
                    assert!(plan.des_runs <= 2 * 3 + 2, "{at}: {} runs", plan.des_runs);
                }
                None => assert!(
                    matches!(plan, Err(RagoError::NoFeasibleSchedule { .. })),
                    "{at}: {plan:?}"
                ),
            }
        }
        assert_eq!(above_max, 2, "two rates must start above the bound");
    }

    /// The plan's DES counters are exact, on two inputs whose probes are
    /// known.
    ///
    /// 1. `n0 = 2` is feasible and `1` is not: the walk simulates those two
    ///    fleets, the first in full and the second verdict-only until its
    ///    SLO is lost.
    /// 2. `n0 = 7` is feasible and above the answer, so the walk bisects
    ///    below it: `4` misses, then `6` and `5` meet the SLO in full.
    #[test]
    fn plan_counts_its_des_runs_exactly() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let spec = pipeline_spec(rago.profiler(), &schedule, None).unwrap();
        // (TTFT, rate, n0, plan, counts run in full, counts stopped).
        let cases: [(f64, f64, u32, u32, &[_], &[_]); 2] = [
            (0.1, 170.0, 2, 2, &[2], &[1]),
            (0.4, 600.0, 7, 5, &[7, 6, 5], &[4]),
        ];
        for (ttft_s, target_qps, n0, replicas, full, stopped) in cases {
            let slo = SloTarget::new(ttft_s, 0.1);
            let options = timed_options(target_qps, 3.0);
            assert_eq!(
                analytic_replicas(rago.profiler(), &schedule, target_qps, options.max_replicas)
                    .unwrap(),
                n0
            );
            let plan = rago
                .plan_capacity(&schedule, &slo, target_qps, &options)
                .unwrap();
            assert_eq!(plan.replicas, replicas);
            let trace = sizing_trace(target_qps, &options);
            let fleet = |replicas| {
                FleetEngine::new(
                    spec.clone(),
                    options.router,
                    ScaleDriver::Static { replicas },
                )
            };
            let full_events: u64 = full
                .iter()
                .map(|&n| {
                    fleet(n)
                        .run_trace(&trace)
                        .fleet
                        .merged
                        .metrics
                        .events_processed
                })
                .sum();
            let lost_events: u64 = stopped
                .iter()
                .map(|&n| fleet(n).run_trace_verdict(&trace, &slo).unwrap_err().events)
                .sum();
            assert_eq!(
                (plan.des_runs, plan.des_runs_stopped, plan.des_events),
                (
                    (full.len() + stopped.len()) as u32,
                    stopped.len() as u32,
                    full_events + lost_events
                )
            );
        }
    }

    /// Every probe re-profiles its pipeline through the memo, so a plan
    /// costs the cost model exactly what profiling the pipeline once and
    /// the analytic seed cost, and its probes add only memo hits.
    #[test]
    fn plan_probes_add_memo_hits_but_no_misses() {
        let schedule = case1_schedule();
        let slo = SloTarget::new(0.4, 0.1);
        let options = timed_options(600.0, 3.0);
        let planned = case1_rago();
        let plan = planned
            .plan_capacity(&schedule, &slo, 600.0, &options)
            .unwrap();
        assert!(plan.des_runs > 1);
        let profiled = case1_rago();
        pipeline_spec(profiled.profiler(), &schedule, None).unwrap();
        schedule.evaluate(profiled.profiler()).unwrap();
        let (planned_hits, planned_misses) = planned.profiler().memo_stats();
        let (profiled_hits, profiled_misses) = profiled.profiler().memo_stats();
        assert_eq!(planned_misses, profiled_misses);
        assert!(planned_hits > profiled_hits);
    }

    /// The one walk, exhaustively: for every cap up to 16, every start in
    /// `1..=cap` and every monotone boundary `b` in `1..=cap + 1`, it
    /// returns `b` (or `None` past the cap), probes no count twice, has
    /// probed the answer's predecessor as a miss, and stays within
    /// `2·ceil(log2 cap) + 2` probes.
    #[test]
    fn least_feasible_finds_every_monotone_boundary() {
        for cap in 1..=16u32 {
            let budget = 2 * cap.next_power_of_two().trailing_zeros() + 2;
            for start in 1..=cap {
                for b in 1..=cap + 1 {
                    let mut probed = Vec::new();
                    let found = least_feasible(start, cap, |n| {
                        probed.push(n);
                        n >= b
                    });
                    let at = format!("cap {cap}, start {start}, boundary {b}: probed {probed:?}");
                    assert_eq!(found, (b <= cap).then_some(b), "{at}");
                    let mut distinct = probed.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), probed.len(), "{at}");
                    if let Some(n) = found.filter(|&n| n > 1) {
                        assert!(probed.contains(&(n - 1)), "{at}");
                    }
                    assert!(probed.len() as u32 <= budget, "{at}");
                }
            }
        }
    }

    /// A length jitter outside `[0, 1)` is a configuration error of every
    /// planner, not a panic in the sizing trace's generator.
    #[test]
    fn out_of_range_length_jitter_is_rejected() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        for jitter in [1.0, 1.5, -0.1, f64::NAN] {
            let options = CapacityOptions {
                length_jitter: jitter,
                ..quick_options()
            };
            let invalid =
                |r: Result<(), RagoError>| matches!(r, Err(RagoError::InvalidConfig { .. }));
            assert!(invalid(
                rago.plan_capacity(&schedule, &slo, 10.0, &options)
                    .map(|_| ())
            ));
            assert!(invalid(
                rago.plan_capacity_pools(&schedule, &slo, 10.0, &KvTransferModel::zero(), &options)
                    .map(|_| ())
            ));
            assert!(invalid(
                rago.plan_capacity_profile(
                    &schedule,
                    &slo,
                    &[RateSegment::new(5.0, 10.0)],
                    &options
                )
                .map(|_| ())
            ));
            assert!(invalid(
                rago.plan_capacity_cached(
                    &schedule,
                    &slo,
                    10.0,
                    &options,
                    &rago_cache::CacheConfig::disabled(),
                    &rago_workloads::ContentSpec {
                        prefixes: rago_workloads::PopularityModel::zipf(8, 1.0),
                        shared_prefix_fraction: 0.8,
                        docs: rago_workloads::PopularityModel::zipf(32, 1.0),
                        seed: 5,
                    },
                )
                .map(|_| ())
            ));
        }
    }

    /// Regression: the sizing trace's generator clamps zero lengths to one,
    /// so a profile that `SequenceProfile::validate` rejects used to size a
    /// different request shape (one replica, `Ok`). Every planner now
    /// rejects it before any simulation, naming the field.
    #[test]
    fn invalid_sizing_profiles_are_rejected() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let base = quick_options().profile;
        let profiles = [
            ("decode_tokens", base.with_decode_tokens(0)),
            ("question_tokens", base.with_question_tokens(0)),
            (
                "bytes_per_token",
                SequenceProfile {
                    bytes_per_token: 0,
                    ..base
                },
            ),
        ];
        let content = rago_workloads::ContentSpec {
            prefixes: rago_workloads::PopularityModel::zipf(8, 1.0),
            shared_prefix_fraction: 0.8,
            docs: rago_workloads::PopularityModel::zipf(32, 1.0),
            seed: 5,
        };
        for (field, profile) in profiles {
            let options = CapacityOptions {
                profile,
                ..quick_options()
            };
            let transfer = KvTransferModel::zero();
            let segments = [RateSegment::new(5.0, 10.0)];
            let cache = CacheConfig::disabled();
            for result in [
                rago.plan_capacity(&schedule, &slo, 10.0, &options)
                    .map(drop),
                rago.plan_capacity_pools(&schedule, &slo, 10.0, &transfer, &options)
                    .map(drop),
                rago.plan_capacity_profile(&schedule, &slo, &segments, &options)
                    .map(drop),
                rago.plan_capacity_cached(&schedule, &slo, 10.0, &options, &cache, &content)
                    .map(drop),
            ] {
                assert!(
                    matches!(&result, Err(RagoError::InvalidConfig { reason }) if reason.contains(field)),
                    "{field}: {result:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length_jitter must be in [0, 1)")]
    fn cost_ranking_asserts_the_length_jitter() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let options = CapacityOptions {
            length_jitter: 1.5,
            ..quick_options()
        };
        let _ = rago.rank_frontier_by_cost_at_qps(
            &ParetoFrontier::from_points(Vec::new()),
            &SloTarget::new(1.0, 0.1),
            10.0,
            &options,
        );
    }

    /// A `max_replicas` above the planner bound would fail every per-point
    /// plan, so the ranking refuses it instead of returning nothing.
    #[test]
    #[should_panic(expected = "exceeds the planner bound")]
    fn cost_ranking_asserts_the_planner_bound() {
        let rago = Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        );
        let options = CapacityOptions {
            max_replicas: MAX_PLANNER_REPLICAS + 1,
            ..quick_options()
        };
        let _ = rago.rank_frontier_by_cost_at_qps(
            &ParetoFrontier::from_points(Vec::new()),
            &SloTarget::new(1.0, 0.1),
            10.0,
            &options,
        );
    }

    /// Sizing options of the pool tests: a trace of `rate_rps × 1.5 s`
    /// whose requests decode `decode_tokens` tokens, within four replicas
    /// per pool.
    fn pool_options(rate_rps: f64, decode_tokens: u32) -> CapacityOptions {
        CapacityOptions {
            max_replicas: 4,
            num_requests: (rate_rps * 1.5) as usize,
            profile: SequenceProfile::paper_default().with_decode_tokens(decode_tokens),
            ..CapacityOptions::default()
        }
    }

    fn pool_transfer() -> KvTransferModel {
        KvTransferModel::new(131_072.0, 100e9, 5e-6)
    }

    /// One split of the pool tests' sizing trace, built as the planner
    /// builds its probes.
    fn pool_engine(
        profiler: &StageProfiler,
        schedule: &Schedule,
        trace: &rago_workloads::Trace,
        (p, d): (u32, u32),
    ) -> FleetEngine {
        let run = FleetRun {
            fleet: FleetConfig::split(p, d, RouterPolicy::default()).with_transfer(pool_transfer()),
            ..FleetRun::default()
        };
        fleet_engine(profiler, schedule, trace, &run).unwrap()
    }

    /// The cheapest split in `1..=max` squared whose full run meets `slo`,
    /// ties broken toward fewer replicas, then fewer prefill replicas —
    /// the exhaustive scan the pool planner must reproduce.
    fn cross_product_scan(
        profiler: &StageProfiler,
        schedule: &Schedule,
        slo: &SloTarget,
        target_qps: f64,
        options: &CapacityOptions,
    ) -> Option<(u32, u32, u32)> {
        let trace = sizing_trace(target_qps, options);
        let max = options.max_replicas;
        let chips = |p: u32, d: u32| crate::disagg::split_xpus(schedule, p, d);
        (1..=max)
            .flat_map(|p| (1..=max).map(move |d| (p, d)))
            .filter(|&split| {
                pool_engine(profiler, schedule, &trace, split)
                    .run_trace(&trace)
                    .fleet
                    .attainment(slo)
                    >= slo.attainment
            })
            .min_by_key(|&(p, d)| (chips(p, d), p + d, p))
            .map(|(p, d)| (p, d, chips(p, d)))
    }

    /// The pool planner equals an exhaustive cross-product scan whether
    /// the analytic split lies below, on or above the scan's answer in
    /// either coordinate, on a schedule that prices both pools alike
    /// (every split of a given size costs the same) and on one that does
    /// not, and where no split within the bound is feasible. One point
    /// needs more decode replicas at three prefill replicas than at two —
    /// feasibility is not monotone in the prefill count — and one answer
    /// lies in the gap behind a gallop's overshoot.
    #[test]
    fn pool_plan_matches_an_exhaustive_cross_product_scan() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let rago = case1_rago();
        let symmetric = case1_schedule();
        let asymmetric = Schedule {
            allocation: ResourceAllocation {
                group_xpus: vec![32],
                ..symmetric.allocation.clone()
            },
            ..symmetric.clone()
        };
        let transfer = pool_transfer();
        // (schedule, TTFT target, TPOT target, decode tokens, rate, where
        // the seed lies relative to the scan's answer; `None`: no split
        // within the bound is feasible).
        let sweep = [
            (&symmetric, 0.1, 0.1, 64, 80.0, Some((Less, Equal))),
            (&symmetric, 0.09, 0.0021, 256, 80.0, Some((Less, Less))),
            (&symmetric, 0.2, 0.1, 64, 160.0, Some((Equal, Greater))),
            (&symmetric, 1.0, 0.0022, 256, 80.0, Some((Equal, Less))),
            (
                &symmetric,
                1.0,
                0.0025,
                256,
                320.0,
                Some((Greater, Greater)),
            ),
            (&symmetric, 1.0, 0.0022, 256, 320.0, None),
            (&asymmetric, 0.1, 0.1, 64, 80.0, Some((Less, Equal))),
            (&asymmetric, 1.0, 0.0025, 256, 320.0, Some((Greater, Equal))),
            (&asymmetric, 1.0, 0.0022, 256, 160.0, Some((Greater, Less))),
        ];
        for (schedule, ttft_s, tpot_s, tokens, target_qps, relation) in sweep {
            let slo = SloTarget::new(ttft_s, tpot_s);
            let options = pool_options(target_qps, tokens);
            let (p0, d0) =
                analytic_split(rago.profiler(), schedule, target_qps, MAX_PLANNER_REPLICAS)
                    .unwrap();
            let scan = cross_product_scan(rago.profiler(), schedule, &slo, target_qps, &options);
            let plan = rago.plan_capacity_pools(schedule, &slo, target_qps, &transfer, &options);
            let at = format!(
                "{} at {target_qps} rps, TTFT {ttft_s} s, TPOT {tpot_s} s, {tokens} tokens, \
                 seed ({p0}, {d0})",
                schedule.describe()
            );
            assert_eq!(
                scan.map(|(p, d, _)| (p0.cmp(&p), d0.cmp(&d))),
                relation,
                "{at}: sweep drifted"
            );
            let Some((p, d, cost)) = scan else {
                assert!(
                    matches!(plan, Err(RagoError::NoFeasibleSchedule { .. })),
                    "{at}: {plan:?}"
                );
                continue;
            };
            let plan = plan.unwrap();
            assert_eq!(
                (plan.prefill_replicas, plan.decode_replicas),
                (p, d),
                "{at}"
            );
            assert_eq!(plan.total_xpus, cost, "{at}");
            assert!(plan.attainment >= slo.attainment, "{at}");
            assert_eq!(
                plan.total_retrieval_servers,
                schedule.allocation.retrieval_servers * plan.prefill_replicas
            );
            assert!(plan.des_runs_stopped < plan.des_runs, "{at}");
        }
    }

    /// The pool plan's DES counters are exact, on two inputs whose probes
    /// are known.
    ///
    /// 1. Seed `(1, 1)`; one prefill replica misses the TTFT target at any
    ///    decode count. The walk gallops column one through `(1, 1)`,
    ///    `(1, 2)` and `(1, 4)`, and column two through `(2, 1)` and
    ///    `(2, 2)` to `(2, 4)`, which runs in full; walking back through
    ///    the gap, `(2, 3)` is feasible too and runs in full. Only two
    ///    decode replicas can still tie its cost at `p = 3`, and one at
    ///    `p = 4`: `(3, 1)`, `(3, 2)` and `(4, 1)` miss.
    /// 2. Seed `(2, 2)`, which meets the SLO in full, as does `(2, 1)`
    ///    below it; `(3, 1)` already costs more, and column one probes
    ///    its cap `(1, 2)` first, which misses.
    ///
    /// Every miss stops once its SLO is lost.
    #[test]
    fn pool_plan_counts_its_des_runs_exactly() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        // (TTFT, TPOT, decode tokens, rate, seed, plan, splits run in
        // full, splits stopped).
        let cases: [(f64, f64, u32, f64, _, _, &[_], &[_]); 2] = [
            (
                0.09,
                0.0021,
                256,
                80.0,
                (1, 1),
                (2, 3),
                &[(2, 4), (2, 3)],
                &[
                    (1, 1),
                    (1, 2),
                    (1, 4),
                    (2, 1),
                    (2, 2),
                    (3, 1),
                    (3, 2),
                    (4, 1),
                ],
            ),
            (
                0.2,
                0.1,
                64,
                160.0,
                (2, 2),
                (2, 1),
                &[(2, 2), (2, 1)],
                &[(1, 2)],
            ),
        ];
        for (ttft_s, tpot_s, tokens, target_qps, seed, split, full, stopped) in cases {
            let slo = SloTarget::new(ttft_s, tpot_s);
            let options = pool_options(target_qps, tokens);
            assert_eq!(
                analytic_split(rago.profiler(), &schedule, target_qps, options.max_replicas)
                    .unwrap(),
                seed
            );
            let plan = rago
                .plan_capacity_pools(&schedule, &slo, target_qps, &pool_transfer(), &options)
                .unwrap();
            assert_eq!((plan.prefill_replicas, plan.decode_replicas), split);
            let trace = sizing_trace(target_qps, &options);
            let engine = |split| pool_engine(rago.profiler(), &schedule, &trace, split);
            let full_events: u64 = full
                .iter()
                .map(|&split| {
                    engine(split)
                        .run_trace(&trace)
                        .fleet
                        .merged
                        .metrics
                        .events_processed
                })
                .sum();
            let lost_events: u64 = stopped
                .iter()
                .map(|&split| {
                    engine(split)
                        .run_trace_verdict(&trace, &slo)
                        .unwrap_err()
                        .events
                })
                .sum();
            assert_eq!(
                (plan.des_runs, plan.des_runs_stopped, plan.des_events),
                (
                    (full.len() + stopped.len()) as u32,
                    stopped.len() as u32,
                    full_events + lost_events
                )
            );
        }
    }

    #[test]
    fn unreachable_pool_targets_are_reported() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(0.5, 1e-6);
        let options = CapacityOptions {
            max_replicas: 2,
            num_requests: 60,
            ..CapacityOptions::default()
        };
        let err = rago
            .plan_capacity_pools(&schedule, &slo, 100.0, &KvTransferModel::zero(), &options)
            .unwrap_err();
        let RagoError::NoFeasibleSchedule { reason } = err else {
            panic!("expected NoFeasibleSchedule, got {err:?}");
        };
        // The bound ran in full, so its attainment is quoted.
        assert!(
            reason.starts_with("even a 2 + 2 prefill/decode split reaches only ")
                && reason.ends_with(" % attainment at 100.0 rps (target 90.0 %)"),
            "{reason}"
        );
        // Input errors come back before any simulation: an invalid
        // transfer model, and a schedule with no pre-decode stage to
        // disaggregate.
        let bad = KvTransferModel::new(-1.0, 1e9, 0.0);
        assert!(matches!(
            rago.plan_capacity_pools(&schedule, &slo, 10.0, &bad, &options),
            Err(RagoError::InvalidConfig { .. })
        ));
        let decode_only = Schedule {
            placement: PlacementPlan {
                predecode_groups: Vec::new(),
            },
            allocation: ResourceAllocation {
                group_xpus: Vec::new(),
                ..schedule.allocation.clone()
            },
            ..schedule.clone()
        };
        let err = rago
            .plan_capacity_pools(&decode_only, &slo, 10.0, &KvTransferModel::zero(), &options)
            .unwrap_err();
        assert!(
            matches!(&err, RagoError::InvalidConfig { reason } if reason.contains("`prefix`")),
            "{err:?}"
        );
    }

    #[test]
    fn unreachable_targets_are_reported() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        // No replica count can beat a sub-microsecond TPOT target: adding
        // replicas reduces queueing but never the per-step latency.
        let slo = SloTarget::new(0.5, 1e-6);
        let options = CapacityOptions {
            max_replicas: 2,
            num_requests: 80,
            ..CapacityOptions::default()
        };
        let err = rago
            .plan_capacity(&schedule, &slo, 100.0, &options)
            .unwrap_err();
        assert!(matches!(err, RagoError::NoFeasibleSchedule { .. }));
        let slo = SloTarget::new(0.5, 0.05);
        let err = rago
            .plan_capacity(&schedule, &slo, 0.0, &options)
            .unwrap_err();
        assert!(matches!(err, RagoError::InvalidConfig { .. }));
        let err = rago
            .plan_capacity(&schedule, &slo, f64::NAN, &options)
            .unwrap_err();
        assert!(matches!(err, RagoError::InvalidConfig { .. }));
        // A zero-request sizing trace would vacuously meet any SLO.
        let empty = CapacityOptions {
            num_requests: 0,
            ..CapacityOptions::default()
        };
        let err = rago
            .plan_capacity(&schedule, &slo, 10.0, &empty)
            .unwrap_err();
        assert!(matches!(err, RagoError::InvalidConfig { .. }));
    }

    #[test]
    fn light_loads_need_one_replica() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(5.0, 0.2);
        let plan = rago
            .plan_capacity(&schedule, &slo, 1.0, &quick_options())
            .unwrap();
        assert_eq!(plan.replicas, 1);
        assert!(plan.drain_tail_s >= 0.0);
    }

    /// The cross-check the issue pins: the profile planner's per-interval
    /// replica counts equal independent `plan_capacity` calls at each
    /// interval's rate.
    #[test]
    fn capacity_profile_matches_per_interval_planning() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let options = quick_options();
        let profile = [
            RateSegment::new(20.0, 5.0),
            RateSegment::new(10.0, 40.0),
            RateSegment::new(5.0, 0.0),
            RateSegment::new(15.0, 40.0), // repeated rate: memoized plan
        ];
        let planned = rago
            .plan_capacity_profile(&schedule, &slo, &profile, &options)
            .unwrap();
        assert_eq!(planned.intervals.len(), 4);
        for interval in &planned.intervals {
            if interval.rate_rps == 0.0 {
                assert_eq!(interval.replicas, 0);
                assert_eq!(interval.attainment, 1.0);
                continue;
            }
            let single = rago
                .plan_capacity(&schedule, &slo, interval.rate_rps, &options)
                .unwrap();
            assert_eq!(
                interval.replicas, single.replicas,
                "interval at {} rps diverged from static planning",
                interval.rate_rps
            );
            assert!(interval.attainment >= slo.attainment);
        }
        // Identical rates plan identically.
        assert_eq!(planned.intervals[1].replicas, planned.intervals[3].replicas);
        // Cost bookkeeping is self-consistent.
        let expected: f64 = planned
            .intervals
            .iter()
            .map(|i| f64::from(i.replicas) * i.duration_s)
            .sum();
        assert!((planned.replica_seconds - expected).abs() < 1e-9);
        assert_eq!(
            planned.peak_replicas,
            planned.intervals.iter().map(|i| i.replicas).max().unwrap()
        );
        assert!(
            (planned.static_replica_seconds - f64::from(planned.peak_replicas) * 50.0).abs() < 1e-9
        );
        // The trough and the idle segment make following the profile
        // strictly cheaper than provisioning the peak throughout.
        assert!(planned.savings_fraction > 0.0);
        // Interval start times accumulate.
        assert_eq!(planned.intervals[0].start_s, 0.0);
        assert!((planned.intervals[3].start_s - 35.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_capacity_profiles_are_rejected() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let options = quick_options();
        assert!(matches!(
            rago.plan_capacity_profile(&schedule, &slo, &[], &options),
            Err(RagoError::InvalidConfig { .. })
        ));
        let bad = [RateSegment {
            duration_s: 1.0,
            rate_rps: f64::NAN,
        }];
        assert!(matches!(
            rago.plan_capacity_profile(&schedule, &slo, &bad, &options),
            Err(RagoError::InvalidConfig { .. })
        ));
        // An all-idle profile used to plan a zero-replica fleet with
        // vacuous attainment 1.0 and a "free" replica-seconds bill; it must
        // be rejected, while the same idle segments mixed with real load
        // (covered above) stay legal.
        let idle = [RateSegment::new(60.0, 0.0), RateSegment::new(30.0, 0.0)];
        let err = rago
            .plan_capacity_profile(&schedule, &slo, &idle, &options)
            .unwrap_err();
        assert!(matches!(err, RagoError::InvalidConfig { .. }), "{err}");
        // A segment no fleet within the bound can hold fails loudly.
        let impossible_slo = SloTarget::new(0.5, 1e-6);
        let profile = [RateSegment::new(5.0, 50.0)];
        assert!(matches!(
            rago.plan_capacity_profile(&schedule, &impossible_slo, &profile, &options),
            Err(RagoError::NoFeasibleSchedule { .. })
        ));
    }

    /// Boundary regression for the planner replica bound: `max_replicas`
    /// at the bound validates, one past it is rejected with
    /// [`RagoError::InvalidConfig`] — before any simulation runs (an
    /// unchecked `u32::MAX` here used to reach the engines as a fleet
    /// size).
    #[test]
    fn replica_bound_is_enforced_at_the_boundary() {
        let at_bound = CapacityOptions {
            max_replicas: MAX_PLANNER_REPLICAS,
            ..quick_options()
        };
        assert!(validate_capacity_inputs(10.0, &at_bound).is_ok());
        let past_bound = CapacityOptions {
            max_replicas: MAX_PLANNER_REPLICAS + 1,
            ..quick_options()
        };
        assert!(matches!(
            validate_capacity_inputs(10.0, &past_bound),
            Err(RagoError::InvalidConfig { .. })
        ));
        // The public planners surface the same rejection.
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let absurd = CapacityOptions {
            max_replicas: u32::MAX,
            ..quick_options()
        };
        assert!(matches!(
            rago.plan_capacity(&schedule, &slo, 10.0, &absurd),
            Err(RagoError::InvalidConfig { .. })
        ));
        assert!(matches!(
            rago.plan_capacity_pools(&schedule, &slo, 10.0, &KvTransferModel::zero(), &absurd),
            Err(RagoError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn frontier_cost_ranking_is_sorted_and_feasible() {
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
        let slo = SloTarget::new(2.0, 0.1);
        let capacity = CapacityOptions {
            max_replicas: 8,
            num_requests: 100,
            ..CapacityOptions::default()
        };
        let ranked = rago.rank_frontier_by_cost_at_qps(&frontier, &slo, 20.0, &capacity);
        assert!(!ranked.is_empty());
        for pair in ranked.windows(2) {
            assert!(pair[0].1.total_xpus <= pair[1].1.total_xpus);
        }
        for (point, plan) in &ranked {
            assert!(plan.attainment >= slo.attainment);
            assert_eq!(
                plan.total_xpus,
                point.schedule.allocation.total_xpus() * plan.replicas
            );
        }
    }
}
