//! Golden trace snapshots: pins the telemetry layer's exported traces so
//! later changes to the recorders, the post-hoc derivation, or the
//! exporters cannot silently reshape what lands in Perfetto.
//!
//! Two seeded scenarios are traced end to end and their JSONL and
//! Chrome-trace renderings diffed byte-for-byte against committed
//! snapshots in `tests/golden/`:
//!
//! * `telemetry_chaos.*` — the `fault_crash.json` chaos scenario (two
//!   replicas, replica 0 crashing at t=1.0s with a 0.5s cold restart)
//!   over a shorter 60-request cut of the seeded Poisson trace, so the
//!   crash lands mid-arrivals and the snapshot stays reviewable. Captures
//!   request spans, load gauges, router-pick and requeue decisions, the
//!   fault disruption ledger, replica lifecycle instants, and profile
//!   counters.
//! * `telemetry_disagg.*` — the `disagg_run.json` 2-prefill + 1-decode
//!   split with the priced KV handoff, same 60-request trace. Adds the
//!   decode-pool handoff picks and per-request KV-transfer spans on the
//!   Transfer lane.
//! * `telemetry_chaos_report.txt` — the human-readable
//!   [`TelemetryReport`] summary of the chaos trace.
//!
//! The remaining tests pin the layer's two core guarantees without
//! snapshots: a run recorded into a [`TraceRecorder`], disabled or live,
//! is *equal* to the [`NullRecorder`] run on every fleet shape
//! (recording never perturbs the simulation), and a live trace is
//! byte-identical across repeated runs.
//!
//! Regenerate intentionally-moved snapshots with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_telemetry
//! ```

use rago::schema::{KvTransferModel, PoolRole, PoolSpec, RouterPolicy, SequenceProfile};
use rago::serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
use rago::serving_sim::faults::{ChaosReport, FaultEvent, FaultSchedule, ScaleDriver};
use rago::serving_sim::fleet::FleetEngine;
use rago::serving_sim::MetricsMode;
use rago::telemetry::{
    export_chrome_trace, export_jsonl, validate_json, validate_jsonl, NullRecorder,
    TelemetryConfig, TelemetryReport, TraceRecorder,
};
use rago::workloads::{ArrivalProcess, TraceSpec};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Diffs `rendered` against the committed snapshot, or rewrites the
/// snapshot when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered)
            .unwrap_or_else(|e| panic!("cannot write golden {}: {e}", path.display()));
        println!("updated golden snapshot {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             `UPDATE_GOLDEN=1 cargo test --test golden_telemetry`",
            path.display()
        )
    });
    assert_eq!(
        expected, rendered,
        "golden snapshot `{name}` drifted. If the change is intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_telemetry` \
         and commit the diff."
    );
}

/// The two-stage pipeline shared with `golden_regression.rs`'s
/// `engine_metrics` family: retrieval + prefix stages, 32-token decode.
fn pipeline_spec() -> PipelineSpec {
    PipelineSpec::new(
        vec![
            StageSpec::new(
                "retrieval",
                0,
                16,
                LatencyTable::from_fn(16, |b| 0.02 + 1e-4 * f64::from(b)),
            ),
            StageSpec::new(
                "prefix",
                1,
                8,
                LatencyTable::from_fn(8, |b| 0.01 * f64::from(b)),
            ),
        ],
        DecodeSpec::new(
            32,
            LatencyTable::from_fn(32, |b| 2e-3 + 1e-5 * f64::from(b)),
        ),
    )
}

/// The seeded Poisson trace behind the snapshots: the
/// `engine_metrics_trace` generator cut to 60 requests so arrivals span
/// the chaos scenario's t=1.0s crash and the exported goldens stay small
/// enough to review.
fn telemetry_trace(num_requests: usize) -> rago::workloads::Trace {
    TraceSpec {
        num_requests,
        profile: SequenceProfile::paper_default().with_decode_tokens(32),
        arrival: ArrivalProcess::Poisson { rate_rps: 50.0 },
        length_jitter: 0.2,
        seed: 7,
    }
    .generate()
}

fn requests(num: usize) -> Vec<EngineRequest> {
    telemetry_trace(num)
        .requests
        .iter()
        .map(EngineRequest::from)
        .collect()
}

fn chaos_scenario() -> FleetEngine {
    FleetEngine::new(
        pipeline_spec(),
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Static { replicas: 2 },
    )
    .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
        replica: 0,
        at_s: 1.0,
        restart_delay_s: 0.5,
    }]))
}

fn disagg_scenario() -> FleetEngine {
    let full = pipeline_spec();
    let decode_spec = PipelineSpec::decode_only(full.decode.clone(), None);
    FleetEngine::disaggregated(
        full,
        decode_spec,
        &PoolSpec::new(PoolRole::Prefill, 2, RouterPolicy::LeastOutstanding),
        &PoolSpec::new(PoolRole::Decode, 1, RouterPolicy::LeastOutstanding),
        KvTransferModel::new(131_072.0, 100e9, 5e-6),
    )
}

/// `engine` over `reqs` in exact mode, recorded into a fresh
/// [`TraceRecorder`] with `engine`'s gauge cadence set from `config`.
fn traced(
    engine: &FleetEngine,
    reqs: Vec<EngineRequest>,
    config: TelemetryConfig,
) -> (ChaosReport, TraceRecorder) {
    let engine = engine.clone().with_telemetry(config.clone());
    let mut rec = TraceRecorder::new(config);
    let report = engine.run(reqs, &MetricsMode::Exact, &mut rec);
    (report, rec)
}

#[test]
fn golden_chaos_trace() {
    let (report, rec) = traced(&chaos_scenario(), requests(60), TelemetryConfig::full(0.5));
    assert_eq!(report.fleet.merged.metrics.requests, 60);
    assert!(!rec.is_empty(), "a full-capture chaos run must emit events");

    let jsonl = export_jsonl(rec.events());
    validate_jsonl(&jsonl).expect("chaos JSONL export must parse");
    check_golden("telemetry_chaos.jsonl", &jsonl);

    let chrome = export_chrome_trace(rec.events());
    validate_json(&chrome).expect("chaos Chrome trace must parse");
    check_golden("telemetry_chaos.chrome.json", &chrome);

    check_golden(
        "telemetry_chaos_report.txt",
        &TelemetryReport::from_events(rec.events()).render(),
    );
}

#[test]
fn golden_disagg_trace() {
    let (report, rec) = traced(&disagg_scenario(), requests(60), TelemetryConfig::full(0.5));
    assert_eq!(report.fleet.merged.metrics.requests, 60);
    assert!(
        report.transfers.transfers > 0,
        "the handoff split must price at least one KV transfer"
    );

    let jsonl = export_jsonl(rec.events());
    validate_jsonl(&jsonl).expect("disagg JSONL export must parse");
    // Every priced handoff shows up as a span on the Transfer lane.
    assert_eq!(
        jsonl
            .lines()
            .filter(|l| l.contains("\"lane\":\"transfer\"") && l.contains("\"phase\":\"begin\""))
            .count() as u64,
        report.transfers.transfers,
    );
    check_golden("telemetry_disagg.jsonl", &jsonl);

    let chrome = export_chrome_trace(rec.events());
    validate_json(&chrome).expect("disagg Chrome trace must parse");
    check_golden("telemetry_disagg.chrome.json", &chrome);
}

/// Zero-cost-when-off: a disabled-config and a live [`TraceRecorder`]
/// run are *equal* to the [`NullRecorder`] run on every fleet shape (the
/// reports derive `PartialEq`, so this compares every metric, timeline,
/// ledger, and counter), and the disabled one records nothing.
#[test]
fn null_recorder_runs_are_bit_identical() {
    let reqs = requests(200);
    for engine in [chaos_scenario(), disagg_scenario()] {
        let untraced = engine.run(reqs.clone(), &MetricsMode::Exact, &mut NullRecorder);
        let (report, rec) = traced(&engine, reqs.clone(), TelemetryConfig::disabled());
        assert_eq!(untraced, report);
        assert!(rec.is_empty(), "a disabled config must record nothing");
        let (report, rec) = traced(&engine, reqs.clone(), TelemetryConfig::full(0.5));
        assert_eq!(untraced, report);
        assert!(!rec.is_empty());
    }
}

/// Live traces are deterministic: rerunning the same seeded scenario
/// yields the same report and byte-identical exports.
#[test]
fn traces_are_byte_identical_across_runs() {
    for scenario in [chaos_scenario(), disagg_scenario()] {
        let (first_report, first) = traced(&scenario, requests(60), TelemetryConfig::full(0.5));
        let (second_report, second) = traced(&scenario, requests(60), TelemetryConfig::full(0.5));
        assert_eq!(first_report, second_report);
        assert_eq!(export_jsonl(first.events()), export_jsonl(second.events()));
        assert_eq!(
            export_chrome_trace(first.events()),
            export_chrome_trace(second.events())
        );
    }
}
