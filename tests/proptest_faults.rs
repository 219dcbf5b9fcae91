//! Property-based tests for the chaos layer: fault injection, admission
//! control, and predictive scaling.
//!
//! Invariants:
//!
//! 1. **Conservation under crashes** — for any crash time, restart delay,
//!    crash policy, and fleet size, every injected request is accounted
//!    for exactly once: `completed + shed + failed == injected`, and the
//!    completed timelines carry unique ids from the input set.
//! 2. **Shed is monotone in priority** — two classes offering identical
//!    arrival patterns shed in priority order: the higher-priority class
//!    never sheds more than the lower-priority one.
//! 3. **Degenerate fault timing** — a crash scheduled after the fleet has
//!    drained leaves the served timelines bit-identical to the fault-free
//!    run; a crash at t=0 with no restart on a one-replica fleet fails
//!    everything but still conserves the request set.
//! 4. **Flat predictive plans are static fleets** — a
//!    [`ScalingPlan::flat`] predictive driver reproduces the static driver
//!    bit-exactly for any replica count.
//! 5. **Verdict-only runs are sound on every fleet** — on static or
//!    trigger-reactive fleets, crashed or not, with or without admission,
//!    a verdict-only run stops only when the full run's offered attainment
//!    is below target, and otherwise returns the full run's report; at the
//!    full run's own attainment it never stops.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rago::schema::{RouterPolicy, SequenceProfile, SloTarget};
use rago::serving_sim::autoscaler::AutoscalerPolicy;
use rago::serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
use rago::serving_sim::faults::{
    AdmissionConfig, CrashPolicy, FaultEvent, FaultSchedule, PredictivePolicy, ScaleDriver,
    ScalingPlan,
};
use rago::serving_sim::fleet::FleetEngine;
use rago::serving_sim::MetricsMode;
use rago::telemetry::NullRecorder;
use rago::workloads::{ArrivalProcess, TraceSpec};

fn pipeline(stage_latency: f64, batch: u32) -> PipelineSpec {
    PipelineSpec::new(
        vec![StageSpec::new(
            "prefix",
            0,
            batch,
            LatencyTable::from_fn(batch, |b| stage_latency * (1.0 + 0.1 * f64::from(b))),
        )],
        DecodeSpec::new(
            8,
            LatencyTable::from_fn(8, |b| 2e-3 * (1.0 + 0.05 * f64::from(b))),
        ),
    )
}

/// A deterministic request list with the given inter-arrival gap; classes
/// alternate 0, 1 when `classes == 2` (arriving at the *same* instant in
/// pairs so both classes face identical queue depths).
fn requests(n: usize, gap: f64, classes: u32) -> Vec<EngineRequest> {
    (0..n)
        .map(|i| EngineRequest {
            id: i as u64,
            arrival_s: gap * (i as u64 / u64::from(classes)) as f64,
            prefix_tokens: 0,
            decode_tokens: 1 + (i as u32 * 7) % 17,
            class: i as u32 % classes,
            identity: None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any crash instant, restart delay, crash policy, and fleet size,
    /// the chaos run partitions the request set: nothing is lost,
    /// duplicated, or invented.
    #[test]
    fn crashes_conserve_the_request_set(
        n in 20usize..70,
        replicas in 1u32..4,
        crash_decis in 0u32..40,
        restart_case in 0u32..3,
        fail_policy in 0u32..2,
    ) {
        let reqs = requests(n, 0.02, 1);
        let restart_delay_s = match restart_case {
            0 => f64::INFINITY,
            1 => 0.25,
            _ => 1.0,
        };
        let policy = if fail_policy == 0 {
            CrashPolicy::Requeue
        } else {
            CrashPolicy::Fail
        };
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: f64::from(crash_decis) * 0.1,
            restart_delay_s,
        }]);
        let report = FleetEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas },
        )
        .with_faults(faults)
        .with_crash_policy(policy)
        .run(reqs, &MetricsMode::Exact, &mut NullRecorder);
        let fault = &report.fault;
        prop_assert_eq!(fault.injected, n);
        prop_assert_eq!(fault.completed + fault.shed + fault.failed, n);
        prop_assert_eq!(report.fleet.merged.timelines.len(), fault.completed);
        let mut ids: Vec<u64> = report.fleet.merged.timelines.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), fault.completed, "duplicate completions");
        prop_assert!(ids.iter().all(|&id| id < n as u64), "invented request id");
        // Requeue never fails in-flight work; only unroutable pending can
        // fail, and that needs the whole fleet dead.
        if policy == CrashPolicy::Requeue && (replicas > 1 || restart_delay_s.is_finite()) {
            prop_assert_eq!(fault.failed, 0);
        }
    }

    /// Two classes with identical arrival patterns shed in priority order:
    /// the higher-priority class sheds no more than the lower.
    #[test]
    fn shed_is_monotone_in_priority(
        n_pairs in 10usize..40,
        gap_millis in 1u32..10,
        base_depth in 1u32..6,
        bonus_depth in 1u32..20,
    ) {
        let reqs = requests(2 * n_pairs, f64::from(gap_millis) * 1e-3, 2);
        let admission = AdmissionConfig::new(f64::from(base_depth), f64::from(bonus_depth))
            .with_class_priority(1, 1);
        let report = FleetEngine::new(
            pipeline(0.05, 1),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_admission(admission)
        .run(reqs, &MetricsMode::Exact, &mut NullRecorder);
        let shed_of = |class: u32| {
            report
                .fault
                .shed_by_class
                .iter()
                .find(|s| s.class == class)
                .map_or(0, |s| s.shed)
        };
        prop_assert!(
            shed_of(1) <= shed_of(0),
            "high-priority class shed {} > low-priority {}",
            shed_of(1),
            shed_of(0)
        );
        prop_assert_eq!(
            report.fault.completed + report.fault.shed,
            2 * n_pairs,
            "shedding lost requests"
        );
    }

    /// A crash scheduled after the fleet has drained (and a restart after
    /// the trace ends) does not change what was served.
    #[test]
    fn crash_after_drain_changes_nothing_served(
        n in 15usize..50,
        replicas in 1u32..4,
    ) {
        let build = || FleetEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::RoundRobin,
            ScaleDriver::Static { replicas },
        );
        let baseline = build().run(requests(n, 0.02, 1), &MetricsMode::Exact, &mut NullRecorder);
        let makespan = baseline.fleet.merged.metrics.makespan_s;
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: makespan + 1.0,
            restart_delay_s: 5.0,
        }]);
        let late = build().with_faults(faults).run(requests(n, 0.02, 1), &MetricsMode::Exact, &mut NullRecorder);
        prop_assert_eq!(late.fault.completed, n);
        prop_assert_eq!(late.fault.retried, 0);
        prop_assert_eq!(
            &late.fleet.merged.timelines,
            &baseline.fleet.merged.timelines,
            "a post-drain crash rewrote served timelines"
        );
    }

    /// A crash at t=0 with no restart on a one-replica fleet fails the
    /// whole trace — and still conserves it.
    #[test]
    fn crash_at_zero_without_restart_fails_everything(n in 10usize..40) {
        let faults = FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 0.0,
            restart_delay_s: f64::INFINITY,
        }]);
        let report = FleetEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas: 1 },
        )
        .with_faults(faults)
        .run(requests(n, 0.02, 1), &MetricsMode::Exact, &mut NullRecorder);
        prop_assert_eq!(report.fault.completed, 0);
        prop_assert_eq!(report.fault.failed, n);
        prop_assert!(report.fleet.merged.timelines.is_empty());
    }

    /// A flat predictive plan is a static fleet, bit for bit, for any
    /// replica count and trace size.
    #[test]
    fn flat_predictive_plan_is_a_static_fleet(
        n in 15usize..60,
        replicas in 1u32..4,
    ) {
        let static_run = FleetEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Static { replicas },
        )
        .run(requests(n, 0.015, 1), &MetricsMode::Exact, &mut NullRecorder);
        let predictive = FleetEngine::new(
            pipeline(0.01, 4),
            RouterPolicy::LeastOutstanding,
            ScaleDriver::Predictive(PredictivePolicy::new(ScalingPlan::flat(replicas), 0.5)),
        )
        .run(requests(n, 0.015, 1), &MetricsMode::Exact, &mut NullRecorder);
        prop_assert_eq!(&predictive.fleet, &static_run.fleet);
        prop_assert_eq!(predictive.replica_seconds, static_run.replica_seconds);
        prop_assert!(predictive.events.is_empty());
    }
}

/// Invariant 5 on one drawn fleet: a static fleet of `replicas`, or a
/// reactive one growing from it with an attainment trigger; a crash of
/// replica 0 at `crash_s` that re-queues or fails its work and may restart;
/// optional admission at `shed_depth`; and an SLO of `ttft_s`, `tpot_s`
/// and `target`.
#[allow(clippy::too_many_arguments)]
fn check_verdict(
    n: usize,
    rate_rps: f64,
    seed: u64,
    replicas: u32,
    reactive: bool,
    crash_s: Option<f64>,
    restart: bool,
    fail: bool,
    shed_depth: Option<f64>,
    ttft_s: f64,
    tpot_s: f64,
    target: f64,
) -> Result<(), TestCaseError> {
    let trace = TraceSpec {
        num_requests: n,
        profile: SequenceProfile::paper_default().with_decode_tokens(8),
        arrival: ArrivalProcess::Poisson { rate_rps },
        length_jitter: 0.2,
        seed,
    }
    .generate();
    let slo = SloTarget::new(ttft_s, tpot_s).with_attainment(target);
    let driver = if reactive {
        ScaleDriver::Reactive(
            AutoscalerPolicy::new(replicas, replicas + 2)
                .with_evaluation_interval(0.2)
                .with_attainment_trigger(slo, 0.9),
        )
    } else {
        ScaleDriver::Static { replicas }
    };
    let mut engine = FleetEngine::new(pipeline(0.02, 2), RouterPolicy::LeastOutstanding, driver);
    if let Some(at_s) = crash_s {
        engine = engine
            .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
                replica: 0,
                at_s,
                restart_delay_s: if restart { 0.3 } else { f64::INFINITY },
            }]))
            .with_crash_policy(if fail {
                CrashPolicy::Fail
            } else {
                CrashPolicy::Requeue
            });
    }
    if let Some(depth) = shed_depth {
        engine = engine.with_admission(AdmissionConfig::new(depth, 0.0));
    }
    let full = engine.run_trace(&trace);
    let attained = full.offered_attainment(&slo);
    // The full run's own attainment is the sharpest target: any overcount
    // of misses stops a run that keeps its verdict.
    for target in [target, attained] {
        match engine.run_trace_verdict(&trace, &slo.with_attainment(target)) {
            Err(_) => prop_assert!(
                attained < target,
                "stopped, yet the full run attains {attained} >= {target}"
            ),
            Ok(report) => prop_assert!(report == full, "the kept report differs from the full run"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 5 over random fleets, faults, admission and SLOs.
    #[test]
    fn verdict_runs_are_sound_on_every_fleet(
        n in 20usize..120,
        rate_rps in 20.0f64..150.0,
        seed in 0u64..500,
        replicas in 1u32..4,
        reactive in 0u32..2,
        crash_decis in 0u32..30,
        restart in 0u32..2,
        fail in 0u32..2,
        shed_depth in 0u32..6,
        ttft_ms in 10u32..200,
        tpot_ms in 3u32..20,
        target in 0.2f64..1.0,
    ) {
        check_verdict(
            n, rate_rps, seed, replicas, reactive == 1,
            (crash_decis < 20).then(|| f64::from(crash_decis) * 0.1),
            restart == 1, fail == 1,
            (shed_depth > 0).then(|| f64::from(shed_depth)),
            f64::from(ttft_ms) * 1e-3, f64::from(tpot_ms) * 1e-3, target,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The slow tier: invariant 5 at 10× the cases. Run with
    /// `cargo test -q -- --ignored`.
    #[test]
    #[ignore = "slow proptest tier (run with --ignored)"]
    fn verdict_runs_are_sound_on_every_fleet_slow(
        n in 20usize..250,
        rate_rps in 10.0f64..250.0,
        seed in 0u64..5_000,
        replicas in 1u32..5,
        reactive in 0u32..2,
        crash_decis in 0u32..40,
        restart in 0u32..2,
        fail in 0u32..2,
        shed_depth in 0u32..8,
        ttft_ms in 5u32..300,
        tpot_ms in 2u32..30,
        target in 0.05f64..1.0,
    ) {
        check_verdict(
            n, rate_rps, seed, replicas, reactive == 1,
            (crash_decis < 30).then(|| f64::from(crash_decis) * 0.1),
            restart == 1, fail == 1,
            (shed_depth > 0).then(|| f64::from(shed_depth)),
            f64::from(ttft_ms) * 1e-3, f64::from(tpot_ms) * 1e-3, target,
        )?;
    }
}
