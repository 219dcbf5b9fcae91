//! Property-based tests for the multi-tenant (class-tagged) surface.
//!
//! Two invariants, each under *every* router policy:
//!
//! 1. **Per-class conservation** — the per-class metric rows partition the
//!    fleet run: class counts sum to the fleet total at every level
//!    (merged and per replica), and class attainments recombine to the
//!    overall attainment.
//! 2. **One-class degeneracy** — a one-class mix trace drives the fleet
//!    bit-identically to the untagged trace with the same parameters, and
//!    the single per-class row *is* the aggregate metrics.

use proptest::prelude::*;
use rago_schema::{RouterPolicy, SequenceProfile, SloTarget};
use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_workloads::{ArrivalProcess, MixTraceSpec, RequestClass, TraceSpec, WorkloadMix};

fn pipeline(stage_batch: u32, stage_latency: f64, decode_batch: u32) -> PipelineSpec {
    PipelineSpec::new(
        vec![StageSpec::new(
            "prefix",
            0,
            stage_batch,
            LatencyTable::from_fn(stage_batch, |b| stage_latency * (1.0 + 0.1 * f64::from(b))),
        )],
        DecodeSpec::new(
            decode_batch,
            LatencyTable::from_fn(decode_batch, |b| 2e-3 * (1.0 + 0.05 * f64::from(b))),
        ),
    )
}

fn mix(classes: usize) -> WorkloadMix {
    WorkloadMix::new(
        (0..classes)
            .map(|i| {
                RequestClass::new(
                    format!("tenant-{i}"),
                    1.0 + i as f64,
                    SequenceProfile::paper_default().with_decode_tokens(16 + 16 * i as u32),
                    0.1,
                    SloTarget::new(1.0 + i as f64, 0.05 * (1.0 + i as f64)),
                )
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-class rows partition the fleet report under every router policy:
    /// counts sum to the total at the merged and per-replica level, and the
    /// request-weighted class attainments equal the overall attainment.
    #[test]
    fn per_class_counts_sum_to_fleet_counts(
        policy_idx in 0usize..4,
        replicas in 1usize..4,
        classes in 1usize..4,
        n in 1usize..80,
        rate in 5.0f64..120.0,
        stage_batch in 1u32..6,
        decode_batch in 2u32..16,
        seed in 0u64..500,
    ) {
        let policy = RouterPolicy::ALL[policy_idx];
        let trace = MixTraceSpec {
            num_requests: n,
            mix: mix(classes),
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            seed,
        }
        .generate();
        let fleet = FleetEngine::new(
            pipeline(stage_batch, 0.02, decode_batch),
            policy,
            ScaleDriver::Static { replicas: replicas as u32 },
        )
        .run_trace(&trace)
        .fleet;

        // Merged rows partition the merged run.
        let merged_total: usize = fleet
            .merged
            .per_class
            .iter()
            .map(|c| c.metrics.requests)
            .sum();
        prop_assert_eq!(merged_total, n);
        for row in &fleet.merged.per_class {
            let count = fleet
                .merged
                .timelines
                .iter()
                .filter(|t| t.class == row.class)
                .count();
            prop_assert_eq!(row.metrics.requests, count);
        }

        // Per-replica class rows sum to the merged class rows.
        for row in &fleet.merged.per_class {
            let across_replicas: usize = fleet
                .per_replica
                .iter()
                .flat_map(|r| r.per_class.iter())
                .filter(|c| c.class == row.class)
                .map(|c| c.metrics.requests)
                .sum();
            prop_assert_eq!(across_replicas, row.metrics.requests);
        }

        // Class attainments recombine into the fleet attainment.
        let slo = SloTarget::new(0.5, 0.02);
        let weighted: f64 = fleet
            .merged
            .per_class
            .iter()
            .map(|c| {
                fleet.merged.class_attainment(c.class, &slo) * c.metrics.requests as f64
            })
            .sum::<f64>()
            / n as f64;
        prop_assert!((weighted - fleet.merged.attainment(&slo)).abs() < 1e-12);
    }

    /// A one-class mix is indistinguishable from the untagged path: the
    /// generated trace is bit-identical, the fleet run is bit-identical,
    /// and the single per-class row equals the aggregate metrics — under
    /// every router policy.
    #[test]
    fn one_class_mix_runs_bit_exactly_like_untagged(
        policy_idx in 0usize..4,
        replicas in 1usize..4,
        n in 1usize..60,
        rate in 5.0f64..100.0,
        jitter in 0.0f64..0.4,
        decode in 8u32..64,
        seed in 0u64..500,
    ) {
        let policy = RouterPolicy::ALL[policy_idx];
        let profile = SequenceProfile::paper_default().with_decode_tokens(decode);
        let tagged = MixTraceSpec {
            num_requests: n,
            mix: WorkloadMix::single("only", profile, jitter, SloTarget::paper_default()),
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            seed,
        }
        .generate();
        let untagged = TraceSpec {
            num_requests: n,
            profile,
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            length_jitter: jitter,
            seed,
        }
        .generate();
        prop_assert_eq!(&tagged, &untagged);

        let engine = FleetEngine::new(
            pipeline(4, 0.02, 8),
            policy,
            ScaleDriver::Static { replicas: replicas as u32 },
        );
        let from_tagged = engine.run_trace(&tagged).fleet;
        let from_untagged = engine.run_trace(&untagged).fleet;
        prop_assert_eq!(&from_tagged, &from_untagged);
        prop_assert_eq!(from_tagged.merged.per_class.len(), 1);
        prop_assert_eq!(
            &from_tagged.merged.per_class[0].metrics,
            &from_tagged.merged.metrics
        );
    }
}
