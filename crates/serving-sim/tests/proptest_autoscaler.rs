//! Property-based invariants of the reactive autoscaler.
//!
//! For any policy within sane bounds and any Poisson/spike trace:
//!
//! * the provisioned replica count stays within `[min, max]` at every
//!   instant (checked through the event log and the peak/min summaries);
//! * no scale-in happens within the cooldown of the previous scaling
//!   action;
//! * a run whose triggers can never fire (infinite queue threshold, zero
//!   scale-in threshold) keeps exactly `min_replicas` and records no
//!   events;
//! * request conservation: every request completes exactly once, and the
//!   per-replica assignment counts match the report.
//!
//! The `#[ignore]`d variant at the bottom runs the same invariants at 10×
//! the case count — the slow tier CI exercises with
//! `cargo test -q -- --ignored`.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rago_schema::RouterPolicy;
use rago_schema::SequenceProfile;
use rago_serving_sim::autoscaler::{AutoscalerPolicy, ScalingAction};
use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_workloads::{ArrivalProcess, TraceSpec};

mod replica_requests;
use replica_requests::replica_requests;

fn pipeline(stage_latency: f64, stage_batch: u32) -> PipelineSpec {
    PipelineSpec::new(
        vec![StageSpec::new(
            "prefix",
            0,
            stage_batch,
            LatencyTable::constant(stage_batch, stage_latency),
        )],
        DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)),
    )
}

#[allow(clippy::too_many_arguments)]
fn check_invariants(
    policy_idx: usize,
    min: u32,
    extra: u32,
    n: usize,
    rate: f64,
    stage_latency: f64,
    interval: f64,
    cooldown: f64,
    warmup: f64,
    out_depth: f64,
    in_outstanding: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let max = min + extra;
    let router = RouterPolicy::ALL[policy_idx % RouterPolicy::ALL.len()];
    let policy = AutoscalerPolicy::new(min, max)
        .with_evaluation_interval(interval)
        .with_scale_out_queue_depth(out_depth)
        .with_scale_in_outstanding(in_outstanding)
        .with_cooldown(cooldown)
        .with_warmup(warmup);
    let trace = TraceSpec {
        num_requests: n,
        profile: SequenceProfile::paper_default().with_decode_tokens(16),
        arrival: ArrivalProcess::Poisson { rate_rps: rate },
        length_jitter: 0.1,
        seed,
    }
    .generate();
    let report = FleetEngine::new(
        pipeline(stage_latency, 2),
        router,
        ScaleDriver::Reactive(policy),
    )
    .run_trace(&trace);

    // Conservation: every request completes exactly once.
    prop_assert_eq!(report.fleet.merged.metrics.completed, n);
    prop_assert_eq!(report.fleet.assignments.len(), n);
    let per_replica_total: usize = report
        .fleet
        .per_replica
        .iter()
        .map(|r| r.metrics.completed)
        .sum();
    prop_assert_eq!(per_replica_total, n);
    for (lifetime, replica) in report.lifetimes.iter().zip(report.fleet.per_replica.iter()) {
        prop_assert_eq!(lifetime.assigned, replica.assigned);
        prop_assert_eq!(replica.assigned, replica.metrics.completed);
    }

    // Bounds: provisioned count within [min, max] at every event, and the
    // summaries agree.
    prop_assert!(report.peak_provisioned <= max);
    prop_assert!(report.min_provisioned >= min.min(report.peak_provisioned));
    prop_assert!(report.min_provisioned >= 1);
    for e in &report.events {
        prop_assert!(e.provisioned_after >= 1);
        prop_assert!(e.provisioned_after <= max);
        prop_assert!(e.routable_after <= e.provisioned_after);
    }

    // Cooldown: a scale-in never lands within `cooldown` of the previous
    // scaling action (either direction).
    let mut last_action = f64::NEG_INFINITY;
    for e in &report.events {
        if e.action == ScalingAction::ScaleIn {
            prop_assert!(
                e.time_s - last_action >= cooldown - 1e-9,
                "scale-in at {} within cooldown {} of previous action at {}",
                e.time_s,
                cooldown,
                last_action
            );
        }
        last_action = e.time_s;
    }

    // Warm-up: no replica received a request before becoming routable.
    let requests = replica_requests(&report.fleet);
    for lifetime in &report.lifetimes {
        prop_assert!(requests[lifetime.replica]
            .iter()
            .all(|t| t.arrival_s >= lifetime.routable_s - 1e-9));
        prop_assert!(lifetime.retired_s >= lifetime.provisioned_s);
    }

    // Cost: the integral is bounded by [min, peak] × makespan.
    let makespan = report.fleet.merged.metrics.makespan_s;
    prop_assert!(report.replica_seconds <= f64::from(report.peak_provisioned) * makespan + 1e-9);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The core invariants, over random policies, routers, and traces.
    #[test]
    fn autoscaler_invariants_hold(
        policy_idx in 0usize..4,
        min in 1u32..3,
        extra in 0u32..4,
        n in 1usize..120,
        rate in 2.0f64..120.0,
        stage_latency in 0.005f64..0.08,
        interval in 0.1f64..1.0,
        cooldown in 0.0f64..3.0,
        warmup in 0.0f64..1.5,
        out_depth in 0.5f64..6.0,
        in_outstanding in 0.0f64..3.0,
        seed in 0u64..500,
    ) {
        check_invariants(
            policy_idx, min, extra, n, rate, stage_latency, interval, cooldown,
            warmup, out_depth, in_outstanding, seed,
        )?;
    }

    /// A policy whose triggers can never fire keeps the fleet at exactly
    /// `min_replicas` for the whole run.
    #[test]
    fn zero_trigger_traces_never_scale(
        policy_idx in 0usize..4,
        min in 1u32..4,
        extra in 0u32..4,
        n in 1usize..100,
        rate in 2.0f64..150.0,
        seed in 0u64..500,
    ) {
        let router = RouterPolicy::ALL[policy_idx];
        let policy = AutoscalerPolicy::new(min, min + extra)
            .with_evaluation_interval(0.25)
            .with_scale_out_queue_depth(1e12)
            .with_scale_in_outstanding(0.0);
        let trace = TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            length_jitter: 0.2,
            seed,
        }
        .generate();
        let report = FleetEngine::new(pipeline(0.03, 2), router, ScaleDriver::Reactive(policy))
            .run_trace(&trace);
        prop_assert!(report.events.is_empty());
        prop_assert_eq!(report.peak_provisioned, min);
        prop_assert_eq!(report.min_provisioned, min);
        prop_assert_eq!(report.fleet.per_replica.len(), min as usize);
        prop_assert_eq!(report.fleet.merged.metrics.completed, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The slow tier: the same invariants at 10× the cases. Run with
    /// `cargo test -q -- --ignored`.
    #[test]
    #[ignore = "slow proptest tier (run with --ignored)"]
    fn autoscaler_invariants_hold_slow(
        policy_idx in 0usize..4,
        min in 1u32..3,
        extra in 0u32..5,
        n in 1usize..250,
        rate in 2.0f64..200.0,
        stage_latency in 0.002f64..0.1,
        interval in 0.05f64..1.5,
        cooldown in 0.0f64..4.0,
        warmup in 0.0f64..2.0,
        out_depth in 0.2f64..8.0,
        in_outstanding in 0.0f64..4.0,
        seed in 0u64..5_000,
    ) {
        check_invariants(
            policy_idx, min, extra, n, rate, stage_latency, interval, cooldown,
            warmup, out_depth, in_outstanding, seed,
        )?;
    }
}
