//! Property-based tests for the fleet-level cluster simulation.
//!
//! For *every* router policy, the union of per-replica timelines is
//! exactly the input request set — no request is lost, duplicated, or
//! mutated by routing — and a fleet run is deterministic. The degeneracy
//! property (a one-replica fleet is its replica run alone, bit for bit)
//! needs a bare replica simulation as its reference, so it lives in the
//! crate's own `cluster` unit tests.

use proptest::prelude::*;
use rago_schema::RouterPolicy;
use rago_serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::MetricsMode;
use rago_telemetry::NullRecorder;

mod replica_requests;
use replica_requests::replica_requests;

/// Builds a pipeline with one or two pre-decode stages plus decode.
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

/// Builds a request list with the given arrival gap and token spread.
fn requests(n: usize, gap: f64) -> Vec<EngineRequest> {
    (0..n)
        .map(|i| EngineRequest {
            id: i as u64,
            arrival_s: gap * i as f64,
            prefix_tokens: 0,
            decode_tokens: 1 + (i as u32 * 7) % 23,
            class: 0,
            identity: None,
        })
        .collect()
}

fn policy(index: usize) -> RouterPolicy {
    RouterPolicy::ALL[index % RouterPolicy::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any router policy the fleet neither loses nor duplicates
    /// requests: per-replica timelines partition the input set, ids and
    /// arrival data survive routing untouched, and the merged report covers
    /// everything once.
    #[test]
    fn routing_conserves_the_request_set(
        policy_idx in 0usize..4,
        replicas in 1usize..5,
        n in 1usize..60,
        gap in 0.0f64..0.03,
        stages in 1usize..3,
        collocate in any::<bool>(),
        stage_batch in 1u32..8,
        decode_batch in 1u32..16,
    ) {
        let spec = pipeline(stages, stage_batch, 0.01, collocate, decode_batch, 1e-3);
        let reqs = requests(n, gap);
        let fleet = FleetEngine::new(
            spec,
            policy(policy_idx),
            ScaleDriver::Static { replicas: replicas as u32 },
        );
        let report = fleet.run(reqs.clone(), &MetricsMode::Exact, &mut NullRecorder).fleet;

        // Union of per-replica requests == input set, no loss/duplication.
        let served = replica_requests(&report);
        let mut seen: Vec<u64> = served.iter().flatten().map(|t| t.id).collect();
        seen.sort_unstable();
        let mut expected: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        expected.sort_unstable();
        prop_assert_eq!(&seen, &expected, "per-replica timelines lost or duplicated ids");

        // Merged report covers each request exactly once, data untouched.
        prop_assert_eq!(report.merged.timelines.len(), n);
        for (t, r) in report.merged.timelines.iter().zip(reqs.iter()) {
            prop_assert_eq!(t.id, r.id);
            prop_assert!((t.arrival_s - r.arrival_s).abs() < 1e-15);
            prop_assert_eq!(t.decode_tokens, r.decode_tokens);
            prop_assert!(t.completion_s >= t.arrival_s);
        }

        // Assignments agree with the per-replica counts.
        prop_assert_eq!(report.assignments.len(), n);
        for (rep, served) in report.per_replica.iter().zip(&served) {
            let assigned_here = report
                .assignments
                .iter()
                .filter(|&&(_, r)| r == rep.replica)
                .count();
            prop_assert_eq!(assigned_here, rep.assigned);
            prop_assert_eq!(rep.assigned, rep.metrics.completed);
            prop_assert_eq!(rep.assigned, served.len());
        }
        let total: usize = report.imbalance.assigned_per_replica.iter().sum();
        prop_assert_eq!(total, n);
    }

    /// Fleet runs are deterministic for every policy and replica count.
    #[test]
    fn fleet_runs_are_deterministic(
        policy_idx in 0usize..4,
        replicas in 1usize..4,
        n in 1usize..40,
        gap in 0.0f64..0.02,
    ) {
        let run = || {
            let spec = pipeline(1, 4, 0.01, false, 8, 1e-3);
            FleetEngine::new(
                spec,
                policy(policy_idx),
                ScaleDriver::Static { replicas: replicas as u32 },
            )
            .run(requests(n, gap), &MetricsMode::Exact, &mut NullRecorder)
        };
        prop_assert_eq!(run(), run());
    }
}
