//! Property-based tests for the telemetry layer: the recorded traces obey
//! structural invariants for *any* seeded scenario, and the disabled path
//! is exactly the untraced run.
//!
//! Invariants:
//!
//! 1. **Span balance** — on every `(track, lane, name, req)` key, span
//!    opens and closes pair up exactly: equal counts, never more closes
//!    than opens at any point of the sorted stream, and nothing left open
//!    at the end. Holds across crashes and requeues.
//! 2. **Monotone timestamps** — [`sort_events`] yields non-decreasing
//!    times globally (hence per lane and per track), every event time is
//!    finite and non-negative, and equal-time events keep their recording
//!    order (`seq` strictly increases within a timestamp group).
//! 3. **Request-id conservation** — the ids that appear on the request
//!    lane are exactly the ids of the completed timelines: no traced
//!    request the report does not know, no completed request missing from
//!    the trace.
//! 4. **`NullRecorder` bit-identity** — for any router policy, metrics
//!    mode, fleet size, and fleet shape (faulted flat fleet, split
//!    fleet), a run recorded into a [`TraceRecorder`] under a disabled
//!    [`TelemetryConfig`] returns a report equal to the [`NullRecorder`]
//!    run and records zero events.

use std::collections::HashMap;

use proptest::prelude::*;
use rago::schema::{KvTransferModel, PoolSpec, RouterPolicy};
use rago::serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
use rago::serving_sim::faults::{ChaosReport, FaultEvent, FaultSchedule, ScaleDriver};
use rago::serving_sim::fleet::FleetEngine;
use rago::serving_sim::{MetricsMode, StreamingConfig};
use rago::telemetry::{
    sort_events, Lane, NullRecorder, Phase, TelemetryConfig, TraceEvent, TraceRecorder,
};

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

fn requests(n: usize, gap: f64) -> Vec<EngineRequest> {
    (0..n)
        .map(|i| EngineRequest {
            id: i as u64,
            arrival_s: gap * i as f64,
            prefix_tokens: 0,
            decode_tokens: 1 + (i as u32 * 7) % 17,
            class: i as u32 % 2,
            identity: None,
        })
        .collect()
}

/// `engine` over `reqs` in `mode`, recorded into a fresh [`TraceRecorder`]
/// under `config`.
fn traced(
    engine: &FleetEngine,
    reqs: Vec<EngineRequest>,
    mode: &MetricsMode,
    config: TelemetryConfig,
) -> (ChaosReport, TraceRecorder) {
    let mut rec = TraceRecorder::new(config);
    let report = engine.run(reqs, mode, &mut rec);
    (report, rec)
}

fn router(choice: u32) -> RouterPolicy {
    match choice % 4 {
        0 => RouterPolicy::RoundRobin,
        1 => RouterPolicy::LeastOutstanding,
        2 => RouterPolicy::JoinShortestQueue,
        _ => RouterPolicy::DecodeFillAware,
    }
}

/// A traced chaos run: the richest event mix (spans, gauges, decisions,
/// disruptions, lifecycle instants, profile counters) and the only one
/// where spans can be cut short by a crash and re-opened by a requeue.
fn chaos_events(
    n: usize,
    replicas: u32,
    crash_decis: u32,
    policy: RouterPolicy,
) -> Vec<TraceEvent> {
    let engine = FleetEngine::new(pipeline(0.01, 4), policy, ScaleDriver::Static { replicas })
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: f64::from(crash_decis) * 0.05,
            restart_delay_s: 0.25,
        }]))
        .with_telemetry(TelemetryConfig::full(0.25));
    let (_, rec) = traced(
        &engine,
        requests(n, 0.02),
        &MetricsMode::Exact,
        TelemetryConfig::full(0.25),
    );
    rec.into_events()
}

/// Per-key open-span depth over the sorted stream.
fn span_key(ev: &TraceEvent) -> (u32, Lane, String, Option<u64>) {
    (ev.track, ev.lane, ev.name.clone(), ev.req)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: span opens and closes pair up exactly on every
    /// `(track, lane, name, req)` key, even when a crash re-queues
    /// in-flight work to another replica's track.
    #[test]
    fn spans_are_balanced(
        n in 20usize..60,
        replicas in 2u32..4,
        crash_decis in 0u32..30,
        router_choice in 0u32..4,
    ) {
        let mut events = chaos_events(n, replicas, crash_decis, router(router_choice));
        sort_events(&mut events);
        let mut depth: HashMap<(u32, Lane, String, Option<u64>), i64> = HashMap::new();
        for ev in &events {
            match ev.phase {
                Phase::Begin => *depth.entry(span_key(ev)).or_insert(0) += 1,
                Phase::End => {
                    let d = depth.entry(span_key(ev)).or_insert(0);
                    *d -= 1;
                    prop_assert!(
                        *d >= 0,
                        "span close without a matching open: {:?}",
                        ev
                    );
                }
                Phase::Instant | Phase::Counter => {}
            }
        }
        for (key, d) in &depth {
            prop_assert_eq!(*d, 0, "span left open at end of trace: {:?}", key);
        }
    }

    /// Invariant 2: the canonical sort yields finite, non-negative,
    /// non-decreasing timestamps, with recording order preserved inside
    /// every equal-time group.
    #[test]
    fn sorted_timestamps_are_monotone(
        n in 20usize..60,
        replicas in 1u32..4,
        crash_decis in 0u32..30,
        router_choice in 0u32..4,
    ) {
        let mut events = chaos_events(n, replicas, crash_decis, router(router_choice));
        sort_events(&mut events);
        for pair in events.windows(2) {
            prop_assert!(pair[0].time_s <= pair[1].time_s, "time went backwards");
            if pair[0].time_s == pair[1].time_s {
                prop_assert!(
                    pair[0].seq < pair[1].seq,
                    "recording order lost inside a timestamp group"
                );
            }
        }
        for ev in &events {
            prop_assert!(ev.time_s.is_finite() && ev.time_s >= 0.0);
        }
    }

    /// Invariant 3: the request lane names exactly the completed request
    /// ids — conservation between the trace and the report.
    #[test]
    fn request_ids_are_conserved(
        n in 20usize..60,
        replicas in 1u32..4,
        crash_decis in 0u32..30,
        router_choice in 0u32..4,
    ) {
        let engine = FleetEngine::new(
            pipeline(0.01, 4),
            router(router_choice),
            ScaleDriver::Static { replicas },
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: f64::from(crash_decis) * 0.05,
            restart_delay_s: 0.25,
        }]))
        .with_telemetry(TelemetryConfig::full(0.25));
        let (report, rec) = traced(
            &engine,
            requests(n, 0.02),
            &MetricsMode::Exact,
            TelemetryConfig::full(0.25),
        );

        let mut traced: Vec<u64> = rec
            .events()
            .iter()
            .filter(|ev| ev.lane == Lane::Request && ev.phase == Phase::Begin)
            .filter_map(|ev| ev.req)
            .collect();
        traced.sort_unstable();
        traced.dedup();
        let mut completed: Vec<u64> =
            report.fleet.merged.timelines.iter().map(|t| t.id).collect();
        completed.sort_unstable();
        prop_assert_eq!(traced, completed);
    }

    /// Invariant 4: for any router, metrics mode, and fleet shape, the
    /// `NullRecorder` path returns the untraced report and a disabled
    /// config records nothing.
    #[test]
    fn null_recorder_is_bit_identical(
        n in 20usize..60,
        replicas in 1usize..4,
        router_choice in 0u32..4,
        streaming in any::<bool>(),
    ) {
        let reqs = requests(n, 0.02);
        let policy = router(router_choice);
        let mode = if streaming {
            MetricsMode::Streaming(StreamingConfig::default())
        } else {
            MetricsMode::Exact
        };

        let chaos = FleetEngine::new(
            pipeline(0.01, 4),
            policy,
            ScaleDriver::Static { replicas: replicas as u32 },
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: 0.4,
            restart_delay_s: 0.25,
        }]));
        // Disabled config: same report, empty recorder.
        let untraced = chaos.run(reqs.clone(), &mode, &mut NullRecorder);
        let (report, rec) = traced(&chaos, reqs.clone(), &mode, TelemetryConfig::disabled());
        prop_assert_eq!(untraced, report);
        prop_assert!(rec.is_empty());

        let full = pipeline(0.01, 4);
        let disagg = FleetEngine::disaggregated(
            full.clone(),
            PipelineSpec::decode_only(full.decode.clone(), None),
            PoolSpec::new(replicas as u32, policy),
            PoolSpec::new(1, policy),
            KvTransferModel::new(131_072.0, 100e9, 5e-6),
        );
        let untraced = disagg.run(reqs.clone(), &MetricsMode::Exact, &mut NullRecorder);
        let (report, rec) = traced(&disagg, reqs, &MetricsMode::Exact, TelemetryConfig::disabled());
        prop_assert_eq!(untraced, report);
        prop_assert!(rec.is_empty());
    }

    /// A live recorder is observationally inert: the traced report equals
    /// the untraced one even when every event is captured.
    #[test]
    fn live_recorder_does_not_perturb_the_run(
        n in 20usize..50,
        replicas in 2u32..4,
        crash_decis in 0u32..30,
        router_choice in 0u32..4,
    ) {
        let engine = FleetEngine::new(
            pipeline(0.01, 4),
            router(router_choice),
            ScaleDriver::Static { replicas },
        )
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: f64::from(crash_decis) * 0.05,
            restart_delay_s: 0.25,
        }]))
        .with_telemetry(TelemetryConfig::full(0.25));
        let (report, rec) = traced(
            &engine,
            requests(n, 0.02),
            &MetricsMode::Exact,
            TelemetryConfig::full(0.25),
        );
        let untraced = engine.run(requests(n, 0.02), &MetricsMode::Exact, &mut NullRecorder);
        prop_assert_eq!(report, untraced);
        prop_assert!(!rec.is_empty());
    }
}
