//! Property-based tests for the disaggregated prefill/decode pools.
//!
//! Two invariants hold for *every* pool router combination, pool size, and
//! crash timing:
//!
//! 1. **Handoff conservation** — the prefill→decode transfer lane neither
//!    loses, duplicates, nor mutates requests: the stitched timelines are
//!    exactly the input multiset (ids, classes, token counts intact), even
//!    while crashes re-queue in-flight work onto pool survivors.
//! 2. **Degeneracy** — a 1+1 split at zero transfer cost reproduces a
//!    one-replica monolithic fleet: discrete fields bit-exactly, time
//!    fields to the replica's `TIME_EPS` event-grouping tolerance (the
//!    monolithic replica coalesces same-instant events into one group and
//!    stamps the group-max time; the split sees the same instants through
//!    two event queues, so its stamps can differ by up to that grouping
//!    epsilon but never more).

use proptest::prelude::*;
use rago_schema::{KvTransferModel, PoolSpec, RouterPolicy};
use rago_serving_sim::engine::{
    DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, ServingReport, StageSpec,
};
use rago_serving_sim::faults::{FaultEvent, FaultSchedule, ScaleDriver};
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::pools::DisaggReport;
use rago_serving_sim::MetricsMode;
use rago_telemetry::NullRecorder;

/// Per-field tolerance for time stamps that cross the engines'
/// `TIME_EPS = 1e-12` event-grouping boundary.
const TIME_TOL: f64 = 1e-12;

/// The full (monolithic) pipeline the split halves are cut from.
fn full_pipeline(
    stages: usize,
    stage_batch: u32,
    stage_latency: f64,
    decode_batch: u32,
    step_latency: f64,
) -> PipelineSpec {
    let specs = (0..stages)
        .map(|s| {
            StageSpec::new(
                format!("s{s}"),
                s,
                stage_batch,
                LatencyTable::from_fn(stage_batch, |b| stage_latency * (1.0 + 0.1 * f64::from(b))),
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

/// Cuts a full pipeline into its (prefill, decode-only) halves.
fn split_specs(full: &PipelineSpec) -> (PipelineSpec, PipelineSpec) {
    let decode = PipelineSpec::decode_only(full.decode.clone(), None);
    (full.clone().with_handoff(), decode)
}

fn requests(n: usize, gap: f64) -> Vec<EngineRequest> {
    (0..n)
        .map(|i| EngineRequest {
            id: i as u64,
            arrival_s: gap * i as f64,
            prefix_tokens: 32 + (i as u32 * 13) % 400,
            decode_tokens: 1 + (i as u32 * 7) % 23,
            class: (i as u32) % 3,
            identity: None,
        })
        .collect()
}

/// Runs `requests` through one replica of `full`: a one-replica
/// monolithic fleet, whose merged report is the replica's own.
fn run_monolithic(full: &PipelineSpec, requests: Vec<EngineRequest>) -> ServingReport {
    let one = ScaleDriver::Static { replicas: 1 };
    FleetEngine::new(full.clone(), RouterPolicy::default(), one)
        .run(requests, &MetricsMode::Exact, &mut NullRecorder)
        .fleet
        .merged
}

fn policy(index: usize) -> RouterPolicy {
    RouterPolicy::ALL[index % RouterPolicy::ALL.len()]
}

/// Runs `reqs` through a `prefill + decode` split of `full` with `faults`
/// played onto its slots (prefill first, then decode), and returns the
/// two-pool view.
fn run_split(
    full: &PipelineSpec,
    prefill: (u32, RouterPolicy),
    decode: (u32, RouterPolicy),
    transfer: KvTransferModel,
    faults: Vec<FaultEvent>,
    reqs: Vec<EngineRequest>,
) -> DisaggReport {
    let (prefill_spec, decode_spec) = split_specs(full);
    let report = FleetEngine::disaggregated(
        prefill_spec,
        decode_spec,
        PoolSpec::new(prefill.0, prefill.1),
        PoolSpec::new(decode.0, decode.1),
        transfer,
    )
    .with_faults(FaultSchedule::new(faults))
    .run(reqs, &MetricsMode::Exact, &mut NullRecorder);
    DisaggReport::from_chaos(report, decode.1, transfer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The transfer lane conserves the request multiset for every router
    /// pair and pool shape: every id appears exactly once in the stitched
    /// timelines with its class and token counts untouched, both pools'
    /// assignment ledgers cover every request, and transfer statistics
    /// agree with the request count.
    #[test]
    fn handoff_conserves_the_request_multiset(
        prefill_policy in 0usize..4,
        decode_policy in 0usize..4,
        prefill_replicas in 1u32..4,
        decode_replicas in 1u32..4,
        n in 1usize..50,
        gap in 0.0f64..0.03,
        stages in 1usize..3,
        stage_batch in 1u32..8,
        decode_batch in 1u32..16,
        kv_bytes in 0.0f64..2e5,
        base_latency in 0.0f64..1e-3,
    ) {
        let full = full_pipeline(stages, stage_batch, 0.01, decode_batch, 1e-3);
        let transfer = KvTransferModel::new(kv_bytes, 25e9, base_latency);
        let reqs = requests(n, gap);
        let report = run_split(
            &full,
            (prefill_replicas, policy(prefill_policy)),
            (decode_replicas, policy(decode_policy)),
            transfer,
            Vec::new(),
            reqs.clone(),
        );

        // Stitched timelines == input multiset, data untouched.
        prop_assert_eq!(report.merged.timelines.len(), n);
        for (t, r) in report.merged.timelines.iter().zip(reqs.iter()) {
            prop_assert_eq!(t.id, r.id);
            prop_assert!((t.arrival_s - r.arrival_s).abs() < 1e-15);
            prop_assert_eq!(t.class, r.class);
            prop_assert_eq!(t.decode_tokens, r.decode_tokens);
            prop_assert!(t.completion_s >= t.first_token_s);
            prop_assert!(t.first_token_s >= t.arrival_s);
        }

        // Both pools dispatched every request exactly once (no crashes, so
        // no re-queues), and the per-slot counts agree with the ledgers.
        let mut prefill_ids: Vec<u64> =
            report.prefill.assignments.iter().map(|&(id, _)| id).collect();
        prefill_ids.sort_unstable();
        let mut decode_ids: Vec<u64> =
            report.decode.assignments.iter().map(|&(id, _)| id).collect();
        decode_ids.sort_unstable();
        let mut expected: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        expected.sort_unstable();
        prop_assert_eq!(&prefill_ids, &expected, "prefill dispatch lost or duplicated ids");
        prop_assert_eq!(&decode_ids, &expected, "decode dispatch lost or duplicated ids");
        for pool in [&report.prefill, &report.decode] {
            for rep in &pool.per_replica {
                let here = pool
                    .assignments
                    .iter()
                    .filter(|&&(_, slot)| slot == rep.replica)
                    .count();
                prop_assert_eq!(here, rep.assigned);
            }
        }

        // One priced transfer per request.
        prop_assert_eq!(report.transfers.transfers, n as u64);
        prop_assert_eq!(report.transfers.requeued_prefill, 0);
        prop_assert_eq!(report.transfers.requeued_decode, 0);
        let expected_bytes: f64 = reqs.iter().map(|r| transfer.bytes_for(r.prefix_tokens)).sum();
        prop_assert!((report.transfers.bytes_total - expected_bytes).abs() < 1e-6);
    }

    /// Conservation survives a crash in either pool at any instant: the
    /// victim's in-flight work re-queues onto same-pool survivors — or, in
    /// a one-replica pool, waits for the victim's cold replacement — and
    /// every request still completes exactly once.
    #[test]
    fn crashes_requeue_without_losing_requests(
        prefill_policy in 0usize..4,
        decode_policy in 0usize..4,
        crash_decode_pool in any::<bool>(),
        victim in 0usize..2,
        crash_at in 0.0f64..0.6,
        permanent in any::<bool>(),
        restart_delay in 0.01f64..0.3,
        single_replica_pool in any::<bool>(),
        n in 1usize..50,
        gap in 0.0f64..0.02,
        decode_batch in 1u32..16,
    ) {
        // Two replicas in the crashed pool so a permanent loss always
        // leaves a survivor to absorb the re-queued work; a one-replica
        // pool always restarts its only replica.
        let full = full_pipeline(1, 4, 0.012, decode_batch, 2e-3);
        let reqs = requests(n, gap);
        let crashed_pool = if single_replica_pool { 1 } else { 2 };
        let (prefill_replicas, decode_replicas) = if crash_decode_pool {
            (2, crashed_pool)
        } else {
            (crashed_pool, 2)
        };
        // Decode slots follow the prefill slots.
        let first_slot = if crash_decode_pool { prefill_replicas as usize } else { 0 };
        let crash = FaultEvent::Crash {
            replica: first_slot + victim % crashed_pool as usize,
            at_s: crash_at,
            restart_delay_s: if single_replica_pool || !permanent {
                restart_delay
            } else {
                f64::INFINITY
            },
        };
        let report = run_split(
            &full,
            (prefill_replicas, policy(prefill_policy)),
            (decode_replicas, policy(decode_policy)),
            KvTransferModel::new(1e4, 25e9, 20e-6),
            vec![crash],
            reqs.clone(),
        );

        prop_assert_eq!(report.merged.timelines.len(), n);
        let mut seen: Vec<u64> = report.merged.timelines.iter().map(|t| t.id).collect();
        seen.sort_unstable();
        let mut expected: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        expected.sort_unstable();
        prop_assert_eq!(&seen, &expected, "crash re-queue lost or duplicated ids");
        for (t, r) in report.merged.timelines.iter().zip(reqs.iter()) {
            prop_assert_eq!(t.decode_tokens, r.decode_tokens);
            prop_assert_eq!(t.class, r.class);
        }
        // Every request is handed off exactly once: a decode-pool victim's
        // work re-enters the decode pool directly, never the transfer lane.
        prop_assert_eq!(report.transfers.transfers, n as u64);
    }

    /// A 1+1 split at zero transfer cost is the monolithic engine:
    /// discrete fields exactly, time fields to the grouping epsilon.
    #[test]
    fn zero_cost_one_plus_one_is_the_monolithic_engine(
        prefill_policy in 0usize..4,
        decode_policy in 0usize..4,
        n in 1usize..50,
        gap in 0.0f64..0.03,
        stages in 1usize..3,
        stage_batch in 1u32..8,
        decode_batch in 1u32..16,
        step_latency in 1e-4f64..0.01,
    ) {
        let full = full_pipeline(stages, stage_batch, 0.015, decode_batch, step_latency);
        let reqs = requests(n, gap);
        let mono = run_monolithic(&full, reqs.clone());
        let split = run_split(
            &full,
            (1, policy(prefill_policy)),
            (1, policy(decode_policy)),
            KvTransferModel::zero(),
            Vec::new(),
            reqs,
        );

        prop_assert_eq!(split.merged.timelines.len(), mono.timelines.len());
        for (s, m) in split.merged.timelines.iter().zip(mono.timelines.iter()) {
            prop_assert_eq!(s.id, m.id);
            prop_assert_eq!(s.class, m.class);
            prop_assert_eq!(s.decode_tokens, m.decode_tokens);
            prop_assert_eq!(s.stages.starts().len(), m.stages.starts().len());
            prop_assert!((s.arrival_s - m.arrival_s).abs() <= TIME_TOL);
            prop_assert!((s.first_token_s - m.first_token_s).abs() <= TIME_TOL,
                "id {}: first token {} vs {}", s.id, s.first_token_s, m.first_token_s);
            prop_assert!((s.decode_join_s - m.decode_join_s).abs() <= TIME_TOL,
                "id {}: decode join {} vs {}", s.id, s.decode_join_s, m.decode_join_s);
            prop_assert!((s.completion_s - m.completion_s).abs() <= TIME_TOL,
                "id {}: completion {} vs {}", s.id, s.completion_s, m.completion_s);
            prop_assert!((s.queueing_s - m.queueing_s).abs() <= TIME_TOL);
            for (a, b) in s.stages.starts().iter().zip(m.stages.starts()) {
                prop_assert!((a - b).abs() <= TIME_TOL);
            }
            for (a, b) in s.stages.ends().iter().zip(m.stages.ends()) {
                prop_assert!((a - b).abs() <= TIME_TOL);
            }
        }
        prop_assert_eq!(split.merged.metrics.completed, mono.metrics.completed);
        // One extra arrival event per request: the transfer completion.
        prop_assert_eq!(
            split.merged.metrics.events_processed,
            mono.metrics.events_processed + split.merged.timelines.len() as u64
        );
    }

    /// Disaggregated runs are deterministic for every router pair and
    /// pool shape.
    #[test]
    fn disagg_runs_are_deterministic(
        prefill_policy in 0usize..4,
        decode_policy in 0usize..4,
        prefill_replicas in 1u32..3,
        decode_replicas in 1u32..3,
        n in 1usize..40,
        gap in 0.0f64..0.02,
    ) {
        let run = || {
            run_split(
                &full_pipeline(1, 4, 0.01, 8, 1e-3),
                (prefill_replicas, policy(prefill_policy)),
                (decode_replicas, policy(decode_policy)),
                KvTransferModel::new(1e4, 25e9, 5e-6),
                Vec::new(),
                requests(n, gap),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
