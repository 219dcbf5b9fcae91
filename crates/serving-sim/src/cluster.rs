//! Fleet routing and the fleet report.
//!
//! [`crate::engine`] simulates what one pipeline replica does under a
//! request stream. Serving heavy traffic is a *fleet* question — how many
//! replicas, and how is the arrival stream spread across them? The
//! [`crate::FleetEngine`] loop answers it; this module holds what every
//! fleet shares: the state-aware router behind each [`RouterPolicy`], and
//! the [`FleetReport`] that merges the per-replica runs into fleet-level
//! metrics with per-replica breakdowns and load-imbalance statistics.
//!
//! Routing is *state-aware*: every replica simulation is advanced to just
//! before each arrival instant (the engine's composable shared-clock form,
//! [`crate::engine`]), so policies like least-outstanding or
//! decode-fill-aware observe live queue depths and decode residency rather
//! than static splits. A one-replica fleet therefore runs *exactly* as its
//! replica would alone with every request scheduled up front — event
//! order, timelines, and metrics, for every policy (pinned by this
//! module's tests). That is why a single pipeline needs no run path of its
//! own: it is a one-replica fleet.
//!
//! # Examples
//!
//! ```
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_serving_sim::faults::ScaleDriver;
//! use rago_serving_sim::fleet::FleetEngine;
//! use rago_schema::{RouterPolicy, SloTarget};
//! use rago_schema::SequenceProfile;
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//!
//! let spec = PipelineSpec::new(
//!     vec![StageSpec::new("prefix", 0, 8, LatencyTable::constant(8, 0.02))],
//!     DecodeSpec::new(32, LatencyTable::constant(32, 3e-3)),
//! );
//! let trace = TraceSpec {
//!     num_requests: 60,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(16),
//!     arrival: ArrivalProcess::Poisson { rate_rps: 120.0 },
//!     length_jitter: 0.0,
//!     seed: 3,
//! }
//! .generate();
//! let fleet = FleetEngine::new(spec, RouterPolicy::LeastOutstanding,
//!     ScaleDriver::Static { replicas: 2 })
//!     .run_trace(&trace)
//!     .fleet;
//! assert_eq!(fleet.merged.metrics.completed, 60);
//! assert_eq!(fleet.per_replica.len(), 2);
//! let assigned: usize = fleet.per_replica.iter().map(|r| r.assigned).sum();
//! assert_eq!(assigned, 60);
//! assert!(fleet.attainment(&SloTarget::new(5.0, 1.0)) > 0.0);
//! ```

use crate::engine::{
    CacheUsage, ClassMetrics, EngineRequest, ReplicaSim, ServingMetrics, ServingReport,
};
use crate::sink::StreamedScores;
use rago_schema::{RouterPolicy, SloTarget};
use serde::{Deserialize, Serialize};

/// One replica's slice of a fleet run.
///
/// The replica's metrics are its own, computed exactly as a standalone
/// engine run over the routed subset would compute them. Its requests are
/// not kept here: the fleet's merged report owns every timeline, and the
/// run records each replica's request spans and load gauges while it
/// merges them. So a replica answers no SLO query from timelines; the
/// fleet's merged report does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaReport {
    /// Replica index within the fleet.
    pub replica: usize,
    /// Requests the router assigned to this replica.
    pub assigned: usize,
    /// The most requests the replica held per-request state for at once:
    /// injected and not yet retired, the retired ones being those that
    /// completed along with every request injected before them. Exact, and
    /// the same in both metrics modes; bounded by the in-flight load, not
    /// the trace length.
    #[serde(default)]
    pub peak_live_requests: usize,
    /// The replica's aggregate distributions and throughput.
    pub metrics: ServingMetrics,
    /// The replica's per-workload-class rows, sorted by class id.
    pub per_class: Vec<ClassMetrics>,
    /// The replica's cache accounting.
    pub cache: CacheUsage,
    /// The replica's online SLO scores in a streaming run; `None` in an
    /// exact one.
    pub streamed: Option<StreamedScores>,
}

impl ReplicaReport {
    /// The replica's report, whose timelines have moved to the fleet's.
    pub(crate) fn new(
        replica: usize,
        assigned: usize,
        peak_live_requests: usize,
        report: ServingReport,
    ) -> Self {
        let ServingReport {
            timelines,
            metrics,
            per_class,
            cache,
            streamed,
        } = report;
        debug_assert!(
            timelines.is_empty(),
            "a replica's timelines move to the fleet's report"
        );
        Self {
            replica,
            assigned,
            peak_live_requests,
            metrics,
            per_class,
            cache,
            streamed,
        }
    }

    /// Heap bytes this replica retains: its class rows and streamed scores.
    fn heap_bytes(&self) -> usize {
        self.per_class.capacity() * std::mem::size_of::<ClassMetrics>()
            + self
                .streamed
                .as_ref()
                .map_or(0, StreamedScores::retained_bytes)
    }
}

/// How evenly the router spread requests across replicas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadImbalance {
    /// Requests assigned to each replica, by replica index.
    pub assigned_per_replica: Vec<usize>,
    /// Smallest per-replica assignment.
    pub min_assigned: usize,
    /// Largest per-replica assignment.
    pub max_assigned: usize,
    /// Mean per-replica assignment.
    pub mean_assigned: f64,
    /// Coefficient of variation (population standard deviation over mean) of
    /// the per-replica assignments; zero for a perfectly even split or an
    /// empty run.
    pub coefficient_of_variation: f64,
    /// Largest assignment divided by the mean (1.0 for a perfectly even
    /// split; zero for an empty run).
    pub max_over_mean: f64,
}

impl LoadImbalance {
    pub(crate) fn from_counts(assigned: Vec<usize>) -> Self {
        let n = assigned.len().max(1) as f64;
        let total: usize = assigned.iter().sum();
        let mean = total as f64 / n;
        let min = assigned.iter().copied().min().unwrap_or(0);
        let max = assigned.iter().copied().max().unwrap_or(0);
        let variance = assigned
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        let (cv, max_over_mean) = if mean > 0.0 {
            (variance.sqrt() / mean, max as f64 / mean)
        } else {
            (0.0, 0.0)
        };
        Self {
            assigned_per_replica: assigned,
            min_assigned: min,
            max_assigned: max,
            mean_assigned: mean,
            coefficient_of_variation: cv,
            max_over_mean,
        }
    }
}

/// The merged result of one fleet run. Its merged report owns every exact
/// timeline; its replica reports keep only their own metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// The fleet-level report: every request's timeline (merged across
    /// replicas in arrival order) and aggregate [`crate::ServingMetrics`]
    /// computed over the whole fleet — the same definitions a single-engine
    /// run uses, so fleet and replica numbers are directly comparable.
    pub merged: ServingReport,
    /// Per-replica breakdowns, by replica index.
    pub per_replica: Vec<ReplicaReport>,
    /// `(request id, replica index)` for every routing decision, in routing
    /// order; empty for a streaming run.
    pub assignments: Vec<(u64, usize)>,
    /// Router load-balance statistics.
    pub imbalance: LoadImbalance,
    /// The routing policy that produced this run.
    pub router: RouterPolicy,
}

impl FleetReport {
    /// Fraction of all requests meeting both latency targets of `slo`.
    pub fn attainment(&self, slo: &SloTarget) -> f64 {
        self.merged.attainment(slo)
    }

    /// Fleet SLO goodput: requests meeting the latency targets divided by
    /// the fleet serving duration (first arrival to last completion).
    pub fn goodput_rps(&self, slo: &SloTarget) -> f64 {
        self.merged.goodput_rps(slo)
    }

    /// Whether the fleet meets `slo` including its attainment requirement.
    pub fn meets_slo(&self, slo: &SloTarget) -> bool {
        self.merged.meets_slo(slo)
    }

    /// An estimate of the bytes the whole report retains: the merged
    /// report, which owns every timeline once, each replica's class rows
    /// and streamed scores, and the assignment log.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<ServingReport>()
            + self.merged.retained_bytes()
            + self.per_replica.capacity() * std::mem::size_of::<ReplicaReport>()
            + self
                .per_replica
                .iter()
                .map(ReplicaReport::heap_bytes)
                .sum::<usize>()
            + self.assignments.capacity() * std::mem::size_of::<(u64, usize)>()
            + self.imbalance.assigned_per_replica.capacity() * std::mem::size_of::<usize>()
    }
}

/// Picks the replica for the next arrival among the `len` candidates
/// exposed by `sim_at` (returned index is into that candidate order). Ties
/// break toward the lowest index, so routing is deterministic. The
/// accessor form lets a fleet route over the currently-routable subset of
/// its slots, and a disaggregated pool over its live replicas, with no
/// per-arrival candidate allocation. The request itself is consulted only
/// by the content-aware policies (`PrefixHash`, `CacheAffinity`), which
/// hash over `slot_of` — the candidate's *stable* replica slot id, not its
/// position in the candidate order — so a template's hash home does not
/// shift every time scaling or a fault changes which replicas are
/// routable.
pub(crate) fn route_pick<'a>(
    router: RouterPolicy,
    len: usize,
    sim_at: impl Fn(usize) -> &'a ReplicaSim,
    slot_of: impl Fn(usize) -> usize,
    round_robin_next: &mut usize,
    req: &EngineRequest,
) -> usize {
    match router {
        RouterPolicy::RoundRobin => {
            let r = *round_robin_next % len;
            *round_robin_next += 1;
            r
        }
        RouterPolicy::LeastOutstanding => argmin_by(len, &sim_at, |s| (s.outstanding(), 0usize)),
        RouterPolicy::JoinShortestQueue => {
            argmin_by(len, &sim_at, |s| (s.queued(), s.outstanding()))
        }
        RouterPolicy::DecodeFillAware => {
            // Lowest decode fill fraction first; least-outstanding breaks
            // fill ties (e.g. several empty replicas at warm-up).
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, usize::MAX);
            for i in 0..len {
                let sim = sim_at(i);
                let key = (sim.decode_fill_fraction(), sim.outstanding());
                if key.0 < best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1) {
                    best = i;
                    best_key = key;
                }
            }
            best
        }
        RouterPolicy::PrefixHash => match req.identity {
            Some(identity) => hash_home(len, &slot_of, identity.prefix_id),
            None => argmin_by(len, &sim_at, |s| (s.outstanding(), 0usize)),
        },
        RouterPolicy::CacheAffinity => match req.identity {
            Some(identity) => {
                // Prefer the replica whose live prefix cache owns the
                // template (least outstanding among several owners); fall
                // back to the template's hash home so repeated misses of a
                // template build residency in one place instead of
                // scattering it.
                let mut owner: Option<(usize, usize)> = None;
                for i in 0..len {
                    let sim = sim_at(i);
                    if sim.owns_prefix(identity.prefix_id) {
                        let key = sim.outstanding();
                        if owner.map_or(true, |(_, best)| key < best) {
                            owner = Some((i, key));
                        }
                    }
                }
                match owner {
                    Some((i, _)) => i,
                    None => hash_home(len, &slot_of, identity.prefix_id),
                }
            }
            None => argmin_by(len, &sim_at, |s| (s.outstanding(), 0usize)),
        },
    }
}

/// The hash home of a template among the candidates: rendezvous
/// (highest-random-weight) hashing over each candidate's *stable* slot id.
/// Stable while the candidate set is unchanged, and minimally disruptive
/// when it changes — only templates homed on a removed replica move, and a
/// new replica steals only its own share. A plain `prefix_id % len` over
/// candidate *positions* would re-home almost every template at every
/// autoscaler scale event, scattering KV state across the fleet.
fn hash_home(len: usize, slot_of: impl Fn(usize) -> usize, prefix_id: u64) -> usize {
    let mut best = 0usize;
    let mut best_weight = 0u64;
    for i in 0..len {
        let weight = mix64((slot_of(i) as u64) ^ prefix_id.rotate_left(32));
        if i == 0 || weight > best_weight {
            best = i;
            best_weight = weight;
        }
    }
    best
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash for rendezvous
/// weights.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Index of the candidate minimizing `key`, first occurrence on ties.
fn argmin_by<'a>(
    len: usize,
    sim_at: impl Fn(usize) -> &'a ReplicaSim,
    key: impl Fn(&ReplicaSim) -> (usize, usize),
) -> usize {
    let mut best = 0usize;
    let mut best_key = (usize::MAX, usize::MAX);
    for i in 0..len {
        let k = key(sim_at(i));
        if k < best_key {
            best = i;
            best_key = k;
        }
    }
    best
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{
        DecodeSpec, IterativeSpec, LatencyTable, PipelineSpec, ReplicaSim, RequestTimeline,
        StageSpec,
    };
    use crate::faults::{FaultEvent, FaultSchedule, ScaleDriver};
    use crate::fleet::FleetEngine;
    use crate::sink::{MetricsMode, RunSink};
    use proptest::prelude::*;
    use rago_schema::{KvTransferModel, PoolSpec, SequenceProfile};
    use rago_telemetry::NullRecorder;
    use rago_workloads::{ArrivalProcess, TraceSpec};
    use std::collections::HashMap;

    /// Each replica's requests in a flat exact fleet (indexed like
    /// [`FleetReport::per_replica`]), in its dispatch order: each request
    /// is read from the merged log under its *last* dispatch, since a crash
    /// that re-queues a request dispatches it again. Ids must be unique; a
    /// request that never completed is left out.
    pub(crate) fn replica_requests(fleet: &FleetReport) -> Vec<Vec<&RequestTimeline>> {
        let log: HashMap<u64, &RequestTimeline> =
            fleet.merged.timelines.iter().map(|t| (t.id, t)).collect();
        let last: HashMap<u64, usize> = fleet
            .assignments
            .iter()
            .enumerate()
            .map(|(k, &(id, _))| (id, k))
            .collect();
        let mut requests = vec![Vec::new(); fleet.per_replica.len()];
        for (k, &(id, slot)) in fleet.assignments.iter().enumerate() {
            if last[&id] == k {
                requests[slot].extend(log.get(&id).copied());
            }
        }
        requests
    }

    /// The reference a one-replica fleet must reproduce: a bare replica
    /// simulation of `spec` with every request injected up front, then
    /// drained to completion. The fleet instead injects each request at
    /// its arrival instant on a shared clock.
    fn alone(spec: PipelineSpec, requests: &[EngineRequest]) -> ServingReport {
        let mut sim = ReplicaSim::new(spec, &MetricsMode::Exact);
        for req in requests {
            sim.inject(*req);
        }
        sim.run_to_completion();
        let RunSink::Exact(sink) = sim.finish().sink else {
            unreachable!("an exact replica retires into an exact sink")
        };
        ServingReport::from_exact_sink(*sink)
    }

    /// What a standalone engine run reports that a one-replica fleet
    /// reports too: the replica's metrics, class rows, cache accounting
    /// and streamed scores, and, in order, the fleet's timelines.
    type Parts<'a> = (
        &'a ServingMetrics,
        &'a [ClassMetrics],
        &'a CacheUsage,
        &'a Option<StreamedScores>,
        Vec<&'a RequestTimeline>,
    );

    fn engine_parts(report: &ServingReport) -> Parts<'_> {
        (
            &report.metrics,
            &report.per_class,
            &report.cache,
            &report.streamed,
            report.timelines.iter().collect(),
        )
    }

    fn replica_parts(fleet: &FleetReport) -> Parts<'_> {
        let [r] = fleet.per_replica.as_slice() else {
            panic!("a one-replica fleet has one replica report")
        };
        (
            &r.metrics,
            &r.per_class,
            &r.cache,
            &r.streamed,
            fleet.merged.timelines.iter().collect(),
        )
    }

    fn one_stage_spec(
        stage_latency: f64,
        batch: u32,
        decode_step: f64,
        decode_batch: u32,
    ) -> PipelineSpec {
        PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                batch,
                LatencyTable::constant(batch, stage_latency),
            )],
            DecodeSpec::new(
                decode_batch,
                LatencyTable::constant(decode_batch, decode_step),
            ),
        )
    }

    /// A fixed fleet of `replicas` copies of `spec`.
    fn fixed(spec: PipelineSpec, replicas: u32, router: RouterPolicy) -> FleetEngine {
        FleetEngine::new(spec, router, ScaleDriver::Static { replicas })
    }

    fn req(id: u64, arrival: f64, tokens: u32) -> EngineRequest {
        EngineRequest {
            id,
            arrival_s: arrival,
            prefix_tokens: 0,
            decode_tokens: tokens,
            class: 0,
            identity: None,
        }
    }

    #[test]
    fn round_robin_cycles_through_replicas() {
        let fleet = fixed(one_stage_spec(0.1, 1, 0.01, 4), 2, RouterPolicy::RoundRobin);
        let report = fleet
            .run(
                (0..4).map(|i| req(i, 0.0, 1)).collect::<Vec<_>>(),
                &MetricsMode::Exact,
                &mut NullRecorder,
            )
            .fleet;
        let replicas: Vec<usize> = report.assignments.iter().map(|&(_, r)| r).collect();
        assert_eq!(replicas, vec![0, 1, 0, 1]);
        assert_eq!(report.imbalance.max_over_mean, 1.0);
        assert_eq!(report.imbalance.coefficient_of_variation, 0.0);
    }

    #[test]
    fn least_outstanding_avoids_the_busy_replica() {
        // Request 0 occupies replica 0 for a long time; the two later
        // arrivals must both land on replica 1 (0 still has 1 outstanding).
        let fleet = fixed(
            one_stage_spec(0.01, 4, 0.1, 4),
            2,
            RouterPolicy::LeastOutstanding,
        );
        let report = fleet
            .run(
                vec![req(0, 0.0, 100), req(1, 0.5, 1), req(2, 0.7, 1)],
                &MetricsMode::Exact,
                &mut NullRecorder,
            )
            .fleet;
        let replicas: Vec<usize> = report.assignments.iter().map(|&(_, r)| r).collect();
        assert_eq!(replicas[0], 0);
        assert_eq!(replicas[1], 1);
        // Request 2 arrives at 0.7, when request 1 has already drained on
        // replica 1 (prefix ends 0.51, its one decode step ends 0.61) while
        // request 0 still decodes on replica 0 — so replica 1 wins again.
        assert_eq!(replicas[2], 1);
    }

    #[test]
    fn join_shortest_queue_tracks_queued_not_in_service() {
        // Replica 0 gets a request that decodes for a long time but queues
        // nothing; JSQ sees zero queue on both and ties to replica 0 again,
        // whereas least-outstanding would move on.
        let fleet = fixed(
            one_stage_spec(0.01, 4, 0.1, 4),
            2,
            RouterPolicy::JoinShortestQueue,
        );
        let report = fleet
            .run(
                vec![req(0, 0.0, 100), req(1, 0.5, 1)],
                &MetricsMode::Exact,
                &mut NullRecorder,
            )
            .fleet;
        let replicas: Vec<usize> = report.assignments.iter().map(|&(_, r)| r).collect();
        // Queue empty on both (request 0 is *in service*), so the
        // least-outstanding tiebreak sends request 1 to replica 1.
        assert_eq!(replicas, vec![0, 1]);
    }

    #[test]
    fn decode_fill_aware_balances_decode_residency() {
        // No pre-decode stages: arrivals go straight to decode. The first
        // long request fills replica 0's decode batch; the policy routes the
        // next arrival to the emptier replica 1.
        let spec = PipelineSpec::new(
            Vec::new(),
            DecodeSpec::new(2, LatencyTable::constant(2, 0.05)),
        );
        let fleet = fixed(spec, 2, RouterPolicy::DecodeFillAware);
        let report = fleet
            .run(
                vec![req(0, 0.0, 50), req(1, 0.5, 50), req(2, 1.0, 1)],
                &MetricsMode::Exact,
                &mut NullRecorder,
            )
            .fleet;
        let replicas: Vec<usize> = report.assignments.iter().map(|&(_, r)| r).collect();
        assert_eq!(replicas[0], 0);
        assert_eq!(replicas[1], 1);
        // Both replicas now hold one resident sequence (fill 0.5 each);
        // the least-outstanding tiebreak is also tied, so index order wins.
        assert_eq!(replicas[2], 0);
    }

    #[test]
    fn single_replica_fleet_matches_the_engine_exactly() {
        let spec = one_stage_spec(0.02, 4, 2e-3, 16);
        let trace = TraceSpec {
            num_requests: 64,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson { rate_rps: 100.0 },
            length_jitter: 0.2,
            seed: 3,
        }
        .generate();
        let requests: Vec<EngineRequest> = trace.requests.iter().map(EngineRequest::from).collect();
        let engine = alone(spec.clone(), &requests);
        for policy in RouterPolicy::ALL {
            let fleet = fixed(spec.clone(), 1, policy).run_trace(&trace).fleet;
            assert_eq!(fleet.merged, engine, "policy {policy} diverged");
            assert_eq!(replica_parts(&fleet), engine_parts(&engine));
        }
    }

    #[test]
    fn single_replica_fleet_matches_the_engine_with_iterative_retrieval() {
        let spec = one_stage_spec(0.02, 4, 2e-3, 16).with_iterative(IterativeSpec {
            retrievals_per_sequence: 2,
            iterative_batch: 4,
            retrieval_prefix_latency_s: 0.03,
            seed: 5,
        });
        let trace = TraceSpec {
            num_requests: 48,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson { rate_rps: 80.0 },
            length_jitter: 0.2,
            seed: 9,
        }
        .generate();
        let requests: Vec<EngineRequest> = trace.requests.iter().map(EngineRequest::from).collect();
        let engine = alone(spec.clone(), &requests);
        let fleet = fixed(spec, 1, RouterPolicy::LeastOutstanding)
            .run_trace(&trace)
            .fleet;
        assert_eq!(fleet.merged, engine);
    }

    #[test]
    fn two_replicas_outperform_one_under_load() {
        let spec = one_stage_spec(0.05, 2, 5e-3, 8);
        let trace = TraceSpec {
            num_requests: 120,
            profile: SequenceProfile::paper_default().with_decode_tokens(24),
            arrival: ArrivalProcess::Poisson { rate_rps: 60.0 },
            length_jitter: 0.0,
            seed: 11,
        }
        .generate();
        let slo = SloTarget::new(0.5, 0.02);
        let one = fixed(spec.clone(), 1, RouterPolicy::LeastOutstanding)
            .run_trace(&trace)
            .fleet;
        let two = fixed(spec, 2, RouterPolicy::LeastOutstanding)
            .run_trace(&trace)
            .fleet;
        assert!(two.attainment(&slo) > one.attainment(&slo));
        assert!(two.merged.metrics.ttft.p95_s < one.merged.metrics.ttft.p95_s);
    }

    #[test]
    fn state_aware_routing_shifts_load_to_the_faster_replica() {
        // A straggler slows replica 0 4x from the start; least-outstanding
        // should route more requests to replica 1.
        let fleet = FleetEngine::new(
            one_stage_spec(0.1, 1, 1e-3, 8),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 2 },
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::StragglerStart {
            replica: 0,
            at_s: 0.0,
            slowdown: 4.0,
        }]));
        let trace = TraceSpec {
            num_requests: 80,
            profile: SequenceProfile::paper_default().with_decode_tokens(4),
            arrival: ArrivalProcess::Poisson { rate_rps: 8.0 },
            length_jitter: 0.0,
            seed: 2,
        }
        .generate();
        let report = fleet.run_trace(&trace).fleet;
        assert!(
            report.per_replica[1].assigned > report.per_replica[0].assigned,
            "fast replica got {} vs slow {}",
            report.per_replica[1].assigned,
            report.per_replica[0].assigned
        );
        assert!(report.imbalance.max_over_mean > 1.0);
        assert!(report.imbalance.coefficient_of_variation > 0.0);
    }

    #[test]
    fn fleet_metrics_merge_consistently() {
        let spec = one_stage_spec(0.03, 4, 2e-3, 8);
        let trace = TraceSpec {
            num_requests: 90,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 70.0 },
            length_jitter: 0.1,
            seed: 13,
        }
        .generate();
        let fleet = fixed(spec, 3, RouterPolicy::RoundRobin)
            .run_trace(&trace)
            .fleet;
        // Conservation: every request appears exactly once across replicas.
        let per_replica_total: usize = fleet.per_replica.iter().map(|r| r.metrics.completed).sum();
        assert_eq!(per_replica_total, 90);
        assert_eq!(fleet.merged.timelines.len(), 90);
        assert_eq!(fleet.assignments.len(), 90);
        // The merged serving window spans the replicas'.
        let makespan = fleet
            .per_replica
            .iter()
            .map(|r| r.metrics.makespan_s)
            .fold(0.0f64, f64::max);
        assert!((fleet.merged.metrics.makespan_s - makespan).abs() < 1e-12);
        // Imbalance counts match the reports.
        for r in &fleet.per_replica {
            assert_eq!(r.assigned, fleet.imbalance.assigned_per_replica[r.replica]);
            assert_eq!(r.assigned, r.metrics.completed);
        }
        // Fleet runs are deterministic.
        let spec = one_stage_spec(0.03, 4, 2e-3, 8);
        let again = fixed(spec, 3, RouterPolicy::RoundRobin)
            .run_trace(&trace)
            .fleet;
        assert_eq!(again, fleet);
    }

    /// An exact fleet keeps each timeline once, in its merged report:
    /// beyond it a flat fleet retains one assignment per request and a
    /// split fleet two (one per pool), plus a constant per replica — no
    /// row, leg or second timeline per request.
    #[test]
    fn exact_fleets_retain_each_timeline_once() {
        let n = 300;
        let trace = TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 70.0 },
            length_jitter: 0.1,
            seed: 13,
        }
        .generate();
        let fleet = fixed(
            one_stage_spec(0.03, 4, 2e-3, 8),
            3,
            RouterPolicy::RoundRobin,
        )
        .run_trace(&trace)
        .fleet;
        assert_eq!(fleet.merged.timelines.len(), n);
        let per_request = std::mem::size_of::<(u64, usize)>();
        let per_replica = std::mem::size_of::<ReplicaReport>()
            + std::mem::size_of::<ClassMetrics>()
            + std::mem::size_of::<usize>();
        let fixed = 3 * per_replica + std::mem::size_of::<FleetReport>();
        let excess = fleet.retained_bytes() - fleet.merged.retained_bytes();
        assert!(
            excess <= n * per_request + fixed,
            "{excess} bytes beyond the merged report for {n} requests"
        );

        let split = FleetEngine::disaggregated(
            one_stage_spec(0.03, 4, 2e-3, 8),
            PipelineSpec::decode_only(DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)), None),
            PoolSpec::new(2, RouterPolicy::RoundRobin),
            PoolSpec::new(1, RouterPolicy::RoundRobin),
            KvTransferModel::zero(),
        )
        .run_trace(&trace)
        .fleet;
        assert_eq!(split.merged.timelines.len(), n);
        let excess = split.retained_bytes() - split.merged.retained_bytes();
        assert!(
            excess <= 2 * n * per_request + fixed,
            "{excess} bytes beyond the merged report for {n} split requests"
        );
    }

    /// Regression for the content-aware routers under autoscaling: the
    /// hash home keys on *stable slot ids* via rendezvous hashing, so a
    /// template whose home replica survives a membership change keeps that
    /// home, and an added replica steals only its own share. The original
    /// `prefix_id % len` over candidate positions re-homed almost every
    /// template at every scale event.
    #[test]
    fn hash_home_is_stable_under_membership_changes() {
        // Removing slot 0 (a scale-in): every template whose home was slot
        // 1 or 2 must keep it.
        for id in 0..200u64 {
            let full = hash_home(3, |i| i, id);
            let reduced_slot = hash_home(2, |i| i + 1, id) + 1;
            if full != 0 {
                assert_eq!(
                    reduced_slot, full,
                    "template {id} re-homed although its home replica survived"
                );
            }
        }
        // Adding slot 3 (a scale-out): only the templates the new replica
        // steals move — and they all move *to* it.
        let mut moved = 0;
        for id in 0..200u64 {
            let before = hash_home(3, |i| i, id);
            let after = hash_home(4, |i| i, id);
            if after != before {
                assert_eq!(after, 3, "template {id} moved to a non-new replica");
                moved += 1;
            }
        }
        assert!(
            moved > 10 && moved < 120,
            "expected roughly a quarter of 200 templates to move, got {moved}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replica_fleets_are_rejected() {
        let _ = fixed(one_stage_spec(0.1, 1, 0.01, 1), 0, RouterPolicy::RoundRobin);
    }

    /// A pipeline with `stages` pre-decode stages (collocated on one
    /// resource or one resource each) plus decode.
    fn pipeline(
        stages: usize,
        stage_batch: u32,
        stage_latency: f64,
        collocate: bool,
        decode_batch: u32,
        step_latency: f64,
    ) -> PipelineSpec {
        let specs = (0..stages)
            .map(|s| {
                StageSpec::new(
                    format!("s{s}"),
                    if collocate { 0 } else { s },
                    stage_batch,
                    LatencyTable::from_fn(stage_batch, |b| {
                        stage_latency * (1.0 + 0.1 * f64::from(b))
                    }),
                )
            })
            .collect();
        PipelineSpec::new(
            specs,
            DecodeSpec::new(
                decode_batch,
                LatencyTable::from_fn(decode_batch, |b| step_latency * (1.0 + 0.02 * f64::from(b))),
            ),
        )
    }

    /// `n` requests `gap` seconds apart (a zero gap is one burst), with
    /// spread-out token counts.
    fn requests(n: usize, gap: f64) -> Vec<EngineRequest> {
        (0..n)
            .map(|i| req(i as u64, gap * i as f64, 1 + (i as u32 * 7) % 23))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A one-replica fleet is its replica run alone, exactly — every
        /// policy, every pipeline shape, including same-instant arrival
        /// bursts: injecting on the shared clock equals scheduling every
        /// arrival up front.
        #[test]
        fn one_replica_fleet_is_the_engine(
            policy_idx in 0usize..4,
            n in 1usize..60,
            gap in 0.0f64..0.02,
            stages in 0usize..3,
            collocate in any::<bool>(),
            stage_batch in 1u32..8,
            decode_batch in 1u32..16,
            step_latency in 1e-4f64..0.01,
        ) {
            let spec = pipeline(stages, stage_batch, 0.015, collocate, decode_batch, step_latency);
            let reqs = requests(n, gap);
            let engine = alone(spec.clone(), &reqs);
            let policy = RouterPolicy::ALL[policy_idx];
            let fleet = fixed(spec, 1, policy).run(reqs, &MetricsMode::Exact, &mut NullRecorder).fleet;
            prop_assert_eq!(&fleet.merged, &engine, "one-replica fleet diverged from the replica");
            prop_assert_eq!(replica_parts(&fleet), engine_parts(&engine));
            prop_assert_eq!(fleet.per_replica[0].assigned, engine.timelines.len());
        }

        /// The degeneracy survives iterative retrieval, whose trigger
        /// positions are sampled per replica at injection time.
        #[test]
        fn one_replica_fleet_is_the_engine_with_iterative_retrieval(
            policy_idx in 0usize..4,
            n in 1usize..32,
            gap in 0.0f64..0.02,
            retrievals in 1u32..4,
            iterative_batch in 1u32..8,
            retrieval_latency in 0.0f64..0.05,
            seed in 0u64..200,
        ) {
            let spec = pipeline(1, 4, 0.01, false, 16, 2e-3).with_iterative(IterativeSpec {
                retrievals_per_sequence: retrievals,
                iterative_batch,
                retrieval_prefix_latency_s: retrieval_latency,
                seed,
            });
            let reqs = requests(n, gap);
            let engine = alone(spec.clone(), &reqs);
            let policy = RouterPolicy::ALL[policy_idx];
            let fleet = fixed(spec, 1, policy).run(reqs, &MetricsMode::Exact, &mut NullRecorder).fleet;
            prop_assert_eq!(&fleet.merged, &engine);
        }
    }
}
