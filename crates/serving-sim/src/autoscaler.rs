//! The reactive autoscaling policy.
//!
//! A *fixed* fleet provisions for one rate. Real traffic breathes — diurnal
//! cycles, flash crowds — and capacity must follow it: provisioning for the
//! peak wastes chips all night, provisioning for the mean misses the SLO
//! every evening. This module describes the provisioning loop the
//! cluster-serving literature (Splitwise's pool sizing, DistServe's
//! SLO-goodput framing) assumes sits above the router. An
//! [`AutoscalerPolicy`] drives a [`crate::FleetEngine`] through
//! [`crate::faults::ScaleDriver::Reactive`], re-evaluated at a fixed
//! interval while the trace plays:
//!
//! * **Scale-out** when the mean queue depth per routable replica crosses a
//!   threshold, or (optionally) when the SLO attainment of recently
//!   completed requests falls below a floor ([`AttainmentTrigger`]).
//! * **Warm-up** — a newly provisioned replica takes no traffic until its
//!   warm-up delay elapses (model loading, cache warming), but its chips
//!   are paid for from the provisioning decision.
//! * **Scale-in** only after a cooldown since the last scaling action, and
//!   only while more than the minimum replica count is routable. A
//!   decommissioned replica stops receiving requests and drains what it
//!   holds; its chips are paid until the drain finishes.
//!
//! The run produces the same [`crate::FleetReport`] a fixed fleet would
//! (merged metrics, per-replica breakdowns, per-class rows) plus the
//! scaling history: every [`ScalingEvent`], per-replica
//! [`ReplicaLifetime`]s, and the provisioned **replica-seconds** integral
//! that capacity planning compares against static provisioning (chip-hours
//! = replica-seconds × chips per replica / 3600).
//!
//! # Examples
//!
//! ```
//! use rago_serving_sim::autoscaler::AutoscalerPolicy;
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_serving_sim::faults::ScaleDriver;
//! use rago_serving_sim::fleet::FleetEngine;
//! use rago_schema::RouterPolicy;
//! use rago_schema::SequenceProfile;
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//!
//! let spec = PipelineSpec::new(
//!     vec![StageSpec::new("prefix", 0, 2, LatencyTable::constant(2, 0.05))],
//!     DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)),
//! );
//! // A flash crowd: 2 rps background, 60 rps for four seconds.
//! let trace = TraceSpec {
//!     num_requests: 200,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(16),
//!     arrival: ArrivalProcess::Spike {
//!         base_rps: 2.0, spike_rps: 60.0, start_s: 4.0, duration_s: 4.0,
//!     },
//!     length_jitter: 0.0,
//!     seed: 3,
//! }
//! .generate();
//! let policy = AutoscalerPolicy::new(1, 6)
//!     .with_evaluation_interval(0.5)
//!     .with_scale_out_queue_depth(2.0)
//!     .with_warmup(0.5);
//! let report = FleetEngine::new(spec, RouterPolicy::LeastOutstanding,
//!     ScaleDriver::Reactive(policy))
//!     .run_trace(&trace);
//! assert_eq!(report.fleet.merged.metrics.completed, 200);
//! assert!(report.peak_provisioned > 1, "the spike should trigger scale-out");
//! assert!(report.replica_seconds > 0.0);
//! ```

use rago_schema::{PoolRole, SloTarget};
use serde::{Deserialize, Serialize};

/// Scale out when the SLO attainment of requests completed in the last
/// evaluation interval falls below `floor`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttainmentTrigger {
    /// The SLO recently completed requests are checked against.
    pub slo: SloTarget,
    /// Scale out when the recent attainment fraction drops below this floor
    /// (in `(0, 1]`). Windows with no completions never trigger.
    pub floor: f64,
}

/// A reactive autoscaling policy, evaluated at a fixed interval during the
/// simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerPolicy {
    /// Fewest replicas ever provisioned (at least 1; the fleet starts here).
    pub min_replicas: u32,
    /// Most replicas ever provisioned (warming replicas count).
    pub max_replicas: u32,
    /// Seconds between policy evaluations (ticks).
    pub evaluation_interval_s: f64,
    /// Scale out when the mean number of *queued* requests per routable
    /// replica exceeds this threshold.
    pub scale_out_queue_depth: f64,
    /// Scale in when the mean number of *outstanding* requests (queued or
    /// in service) per routable replica falls below this threshold. Zero
    /// disables scale-in entirely (mean outstanding is never negative).
    pub scale_in_outstanding: f64,
    /// Minimum seconds between the previous scaling action (either
    /// direction) and a scale-in. Scale-out is never delayed: under-capacity
    /// misses SLOs, over-capacity only costs chips.
    pub cooldown_s: f64,
    /// Seconds a newly provisioned replica needs before it can take traffic
    /// (its chips are paid from the provisioning decision).
    pub warmup_s: f64,
    /// Optional recent-SLO-attainment scale-out trigger.
    pub attainment_trigger: Option<AttainmentTrigger>,
}

impl AutoscalerPolicy {
    /// A policy with the given replica bounds and conservative defaults:
    /// 1 s evaluation interval, scale-out above 4 queued per replica,
    /// scale-in below 1 outstanding per replica, 4 s cooldown, 1 s warm-up,
    /// no attainment trigger.
    pub fn new(min_replicas: u32, max_replicas: u32) -> Self {
        Self {
            min_replicas,
            max_replicas,
            evaluation_interval_s: 1.0,
            scale_out_queue_depth: 4.0,
            scale_in_outstanding: 1.0,
            cooldown_s: 4.0,
            warmup_s: 1.0,
            attainment_trigger: None,
        }
    }

    /// Sets the evaluation interval.
    pub fn with_evaluation_interval(mut self, interval_s: f64) -> Self {
        self.evaluation_interval_s = interval_s;
        self
    }

    /// Sets the scale-out queue-depth threshold.
    pub fn with_scale_out_queue_depth(mut self, depth: f64) -> Self {
        self.scale_out_queue_depth = depth;
        self
    }

    /// Sets the scale-in mean-outstanding threshold.
    pub fn with_scale_in_outstanding(mut self, outstanding: f64) -> Self {
        self.scale_in_outstanding = outstanding;
        self
    }

    /// Sets the scale-in cooldown.
    pub fn with_cooldown(mut self, cooldown_s: f64) -> Self {
        self.cooldown_s = cooldown_s;
        self
    }

    /// Sets the replica warm-up delay.
    pub fn with_warmup(mut self, warmup_s: f64) -> Self {
        self.warmup_s = warmup_s;
        self
    }

    /// Adds a recent-attainment scale-out trigger.
    pub fn with_attainment_trigger(mut self, slo: SloTarget, floor: f64) -> Self {
        self.attainment_trigger = Some(AttainmentTrigger { slo, floor });
        self
    }

    /// Checks that the policy is well-formed: at least one replica, ordered
    /// bounds, a positive finite evaluation interval, non-negative finite
    /// thresholds and delays, and a valid attainment trigger.
    ///
    /// # Errors
    ///
    /// Returns a description of the first rule the policy breaks.
    pub fn validate(&self) -> Result<(), String> {
        let non_negative = |v: f64| v >= 0.0 && v.is_finite();
        if self.min_replicas < 1 {
            return Err("min_replicas must be at least 1".into());
        }
        if self.max_replicas < self.min_replicas {
            return Err("max_replicas must be at least min_replicas".into());
        }
        if !(self.evaluation_interval_s > 0.0 && self.evaluation_interval_s.is_finite()) {
            return Err("the evaluation interval must be positive and finite".into());
        }
        if !non_negative(self.scale_out_queue_depth) {
            return Err("the scale-out queue depth must be non-negative and finite".into());
        }
        if !non_negative(self.scale_in_outstanding) {
            return Err(
                "the scale-in outstanding threshold must be non-negative and finite".into(),
            );
        }
        if !non_negative(self.cooldown_s) {
            return Err("the cooldown must be non-negative and finite".into());
        }
        if !non_negative(self.warmup_s) {
            return Err("the warm-up delay must be non-negative and finite".into());
        }
        if let Some(t) = &self.attainment_trigger {
            if !(t.floor > 0.0 && t.floor <= 1.0) {
                return Err("the attainment floor must be in (0, 1]".into());
            }
            t.slo
                .validate()
                .map_err(|e| format!("the trigger SLO must be valid: {e}"))?;
        }
        Ok(())
    }
}

/// The direction of one scaling action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingAction {
    /// A replica was provisioned (it becomes routable after warm-up).
    ScaleOut,
    /// A replica was decommissioned (it drains and stops taking traffic).
    ScaleIn,
}

/// One scaling decision taken at an evaluation tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingEvent {
    /// When the decision was taken, in seconds.
    pub time_s: f64,
    /// The direction.
    pub action: ScalingAction,
    /// The replica index provisioned or decommissioned.
    pub replica: usize,
    /// Provisioned replicas (routable + warming) after the action.
    pub provisioned_after: u32,
    /// Routable replicas after the action.
    pub routable_after: u32,
    /// Mean queued requests per routable replica observed at the tick.
    pub mean_queue_depth: f64,
    /// Mean outstanding requests per routable replica observed at the tick.
    pub mean_outstanding: f64,
}

/// The provisioning window of one replica across the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicaLifetime {
    /// Replica index (matches [`crate::FleetReport::per_replica`]).
    pub replica: usize,
    /// The pool the replica was provisioned into: `Monolithic` in a flat
    /// fleet, `Prefill` or `Decode` in a split one.
    pub pool: PoolRole,
    /// When the replica was provisioned (0 for the initial fleet), in
    /// seconds.
    pub provisioned_s: f64,
    /// When the replica became routable (provisioning plus warm-up), in
    /// seconds.
    pub routable_s: f64,
    /// When the replica was decommissioned, or `None` if it served until
    /// the end of the run.
    pub decommissioned_s: Option<f64>,
    /// When the replica's chips were released: the end of the run for
    /// replicas never decommissioned, otherwise the later of the
    /// decommission decision and the completion of its last in-flight
    /// request (the drain).
    pub retired_s: f64,
    /// Requests the router assigned to this replica.
    pub assigned: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::replica_requests;
    use crate::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
    use crate::faults::{
        AdmissionConfig, ChaosReport, CrashPolicy, FaultEvent, FaultSchedule, ScaleDriver,
    };
    use crate::fleet::FleetEngine;
    use crate::sink::MetricsMode;
    use rago_schema::{RouterPolicy, SequenceProfile};
    use rago_telemetry::NullRecorder;
    use rago_workloads::{ArrivalProcess, Trace, TraceSpec};

    fn one_stage_spec(stage_latency: f64, batch: u32) -> PipelineSpec {
        PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                batch,
                LatencyTable::constant(batch, stage_latency),
            )],
            DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)),
        )
    }

    /// An elastic fleet of `spec` replicas sized by `policy`.
    fn elastic(spec: PipelineSpec, router: RouterPolicy, policy: AutoscalerPolicy) -> FleetEngine {
        FleetEngine::new(spec, router, ScaleDriver::Reactive(policy))
    }

    fn spike_trace(n: usize) -> Trace {
        TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Spike {
                base_rps: 2.0,
                spike_rps: 80.0,
                start_s: 3.0,
                duration_s: 3.0,
            },
            length_jitter: 0.0,
            seed: 5,
        }
        .generate()
    }

    #[test]
    fn spike_scales_out_and_scales_back_in() {
        let policy = AutoscalerPolicy::new(1, 8)
            .with_evaluation_interval(0.25)
            .with_scale_out_queue_depth(1.5)
            .with_scale_in_outstanding(1.0)
            .with_cooldown(1.0)
            .with_warmup(0.25);
        let report = elastic(
            one_stage_spec(0.04, 2),
            RouterPolicy::LeastOutstanding,
            policy,
        )
        .run_trace(&spike_trace(260));
        assert_eq!(report.fleet.merged.metrics.completed, 260);
        assert!(report.peak_provisioned > 1, "spike never scaled out");
        assert!(
            report
                .events
                .iter()
                .any(|e| e.action == ScalingAction::ScaleIn),
            "quiet tail never scaled in"
        );
        // Bounds hold throughout.
        assert!(report.peak_provisioned <= 8);
        assert!(report.min_provisioned >= 1);
        // Replica-seconds are cheaper than statically provisioning the peak.
        let static_cost =
            f64::from(report.peak_provisioned) * report.fleet.merged.metrics.makespan_s;
        assert!(report.replica_seconds < static_cost);
        assert!(report.mean_provisioned() < f64::from(report.peak_provisioned));
    }

    #[test]
    fn zero_trigger_trace_never_scales() {
        // Thresholds no light trace can cross: the fleet must stay at min.
        let policy = AutoscalerPolicy::new(2, 6)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(1e6)
            .with_scale_in_outstanding(0.0);
        let trace = TraceSpec {
            num_requests: 60,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
            length_jitter: 0.1,
            seed: 7,
        }
        .generate();
        let report =
            elastic(one_stage_spec(0.02, 4), RouterPolicy::RoundRobin, policy).run_trace(&trace);
        assert!(report.events.is_empty());
        assert_eq!(report.peak_provisioned, 2);
        assert_eq!(report.min_provisioned, 2);
        assert_eq!(report.fleet.per_replica.len(), 2);
    }

    #[test]
    fn warmup_delays_traffic_to_new_replicas() {
        let policy = AutoscalerPolicy::new(1, 4)
            .with_evaluation_interval(0.25)
            .with_scale_out_queue_depth(0.5)
            .with_warmup(2.0);
        let report = elastic(
            one_stage_spec(0.05, 1),
            RouterPolicy::LeastOutstanding,
            policy,
        )
        .run_trace(&spike_trace(120));
        let requests = replica_requests(&report.fleet);
        for (lifetime, scaled_out) in report.lifetimes.iter().zip([false, true, true, true]) {
            if !scaled_out {
                continue;
            }
            assert!(
                (lifetime.routable_s - lifetime.provisioned_s - 2.0).abs() < 1e-12,
                "warm-up window wrong for replica {}",
                lifetime.replica
            );
            // No request was routed to the replica before it became
            // routable.
            assert!(requests[lifetime.replica]
                .iter()
                .all(|t| t.arrival_s >= lifetime.routable_s - 1e-12));
        }
    }

    #[test]
    fn scale_ins_respect_the_cooldown() {
        let policy = AutoscalerPolicy::new(1, 6)
            .with_evaluation_interval(0.2)
            .with_scale_out_queue_depth(1.0)
            .with_scale_in_outstanding(2.0)
            .with_cooldown(1.5);
        let report = elastic(
            one_stage_spec(0.03, 2),
            RouterPolicy::LeastOutstanding,
            policy,
        )
        .run_trace(&spike_trace(220));
        let mut last_action = f64::NEG_INFINITY;
        for e in &report.events {
            if e.action == ScalingAction::ScaleIn {
                assert!(
                    e.time_s - last_action >= 1.5 - 1e-12,
                    "scale-in at {} only {} after the previous action",
                    e.time_s,
                    e.time_s - last_action
                );
            }
            last_action = e.time_s;
        }
    }

    #[test]
    fn attainment_trigger_scales_out_without_queueing() {
        // A queue-free SLO violation: the 25 ms decode step blows the 20 ms
        // TPOT target on every request, but the 64-slot decode batch
        // swallows 10 rps of 16-token requests without any queueing — the
        // queue-depth trigger is blind to it, the attainment trigger is not
        // (scaling out cannot fix the step latency, so the reactive policy
        // walks to its maximum — which is exactly the observable signal).
        let spec = PipelineSpec::new(
            Vec::new(),
            DecodeSpec::new(64, LatencyTable::constant(64, 0.025)),
        );
        let trace = TraceSpec {
            num_requests: 150,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
            length_jitter: 0.0,
            seed: 11,
        }
        .generate();
        let queue_only = AutoscalerPolicy::new(1, 4)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(5.0);
        let with_attainment = queue_only.with_attainment_trigger(SloTarget::new(2.0, 0.02), 0.9);
        let quiet =
            elastic(spec.clone(), RouterPolicy::LeastOutstanding, queue_only).run_trace(&trace);
        let reactive =
            elastic(spec, RouterPolicy::LeastOutstanding, with_attainment).run_trace(&trace);
        assert!(reactive.peak_provisioned > quiet.peak_provisioned);
        assert_eq!(
            scaling_pins(&reactive),
            [
                (0.5, ScalingAction::ScaleOut, 1),
                (1.0, ScalingAction::ScaleOut, 2),
                (1.5, ScalingAction::ScaleOut, 3),
                (5.5, ScalingAction::ScaleIn, 2),
                (6.0, ScalingAction::ScaleOut, 4),
                (10.5, ScalingAction::ScaleIn, 4),
                (11.0, ScalingAction::ScaleOut, 5),
                (15.5, ScalingAction::ScaleIn, 5),
                (16.0, ScalingAction::ScaleOut, 6),
            ]
        );
        assert_eq!(reactive.peak_provisioned, 4);

        // The same trigger on a queueing fleet that sheds and loses a
        // replica: each tick scores only the last interval's completions of
        // the replicas alive at it.
        let queueing = PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                2,
                LatencyTable::constant(2, 0.04),
            )],
            DecodeSpec::new(64, LatencyTable::constant(64, 0.01)),
        );
        let policy = AutoscalerPolicy::new(1, 4)
            .with_evaluation_interval(0.5)
            .with_scale_out_queue_depth(5.0)
            .with_attainment_trigger(SloTarget::new(0.08, 0.02), 0.9);
        let faulted = elastic(queueing, RouterPolicy::LeastOutstanding, policy)
            .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
                replica: 0,
                at_s: 4.2,
                restart_delay_s: 1.0,
            }]))
            .with_crash_policy(CrashPolicy::Fail)
            .with_admission(AdmissionConfig::new(4.0, 0.0))
            .run_trace(&spike_trace(300));
        // After the spike, the last intervals meet the SLO: the fleet
        // scales in and stays in, where a trigger scoring every completion
        // since the start would keep scaling back out.
        assert_eq!(
            scaling_pins(&faulted),
            [
                (3.5, ScalingAction::ScaleOut, 1),
                (4.0, ScalingAction::ScaleOut, 2),
                (5.0, ScalingAction::ScaleOut, 3),
                (9.0, ScalingAction::ScaleIn, 4),
                (13.0, ScalingAction::ScaleIn, 3),
                (17.0, ScalingAction::ScaleIn, 2),
            ]
        );
        assert_eq!(faulted.peak_provisioned, 4);
        let fault = &faulted.fault;
        assert_eq!((fault.shed, fault.failed, fault.completed), (90, 15, 195));
    }

    /// `(time, action, replica)` of each scaling event of `report`.
    fn scaling_pins(report: &ChaosReport) -> Vec<(f64, ScalingAction, usize)> {
        report
            .events
            .iter()
            .map(|e| (e.time_s, e.action, e.replica))
            .collect()
    }

    #[test]
    fn autoscaled_runs_are_deterministic() {
        let policy = AutoscalerPolicy::new(1, 5)
            .with_evaluation_interval(0.3)
            .with_scale_out_queue_depth(1.0);
        let run = || {
            elastic(
                one_stage_spec(0.04, 2),
                RouterPolicy::DecodeFillAware,
                policy,
            )
            .run_trace(&spike_trace(180))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_request_sets_produce_an_empty_report() {
        let policy = AutoscalerPolicy::new(2, 4);
        let report = elastic(one_stage_spec(0.05, 1), RouterPolicy::RoundRobin, policy).run(
            Vec::new(),
            &MetricsMode::Exact,
            &mut NullRecorder,
        );
        assert_eq!(report.fleet.merged.metrics.requests, 0);
        assert!(report.events.is_empty());
        assert_eq!(report.lifetimes.len(), 2);
        assert_eq!(report.replica_seconds, 0.0);
    }

    #[test]
    #[should_panic(expected = "min_replicas must be at least 1")]
    fn zero_minimum_fleets_are_rejected() {
        let _ = elastic(
            one_stage_spec(0.05, 1),
            RouterPolicy::RoundRobin,
            AutoscalerPolicy::new(0, 2),
        );
    }

    #[test]
    #[should_panic(expected = "at least min_replicas")]
    fn inverted_bounds_are_rejected() {
        let _ = elastic(
            one_stage_spec(0.05, 1),
            RouterPolicy::RoundRobin,
            AutoscalerPolicy::new(4, 2),
        );
    }
}
