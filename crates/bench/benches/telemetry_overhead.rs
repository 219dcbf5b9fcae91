//! Telemetry overhead bench: the tracing layer costs nothing when off
//! and stays cheap when on, written to `BENCH_telemetry.json` at the
//! workspace root.
//!
//! One seeded chaos scenario — the richest event mix in the repo
//! (spans, gauges, router/scaling/fault decisions, profile counters) —
//! is run three ways over the same request stream:
//!
//! * **untraced** and **null-recorded** — `FleetEngine::run` with a
//!   [`NullRecorder`], the one untraced entry point, whose recording hooks
//!   are statically dead. The two variants make the same call; timing
//!   them as separate, interleaved series measures the noise floor the 2%
//!   gate is judged against;
//! * **live** — `FleetEngine::run` with a capturing [`TraceRecorder`]
//!   under a full-capture config (reported, not gated — capturing is
//!   allowed to cost something).
//!
//! It also times what a traced run costs after recording, on the live
//! run's events in recording order (so the exporters' sort runs):
//! `export_best_s` is the best trial of both exporters together and
//! `summary_best_s` the best trial of `TelemetryReport::from_events`.
//!
//! The one claim it asserts is about wall-clock time,
//! `overhead_under_2pct`: the best-of-N wall time of the null-recorded run
//! stays within 2% of the untraced run. That recording never perturbs the
//! simulation and that the exports parse are tests of the workspace
//! (`tests/golden_telemetry.rs`). The bench refuses to write non-finite
//! numbers.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rago_schema::{RouterPolicy, SequenceProfile};
use rago_serving_sim::engine::{DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec};
use rago_serving_sim::faults::{ChaosReport, FaultEvent, FaultSchedule, ScaleDriver};
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::MetricsMode;
use rago_telemetry::{
    export_chrome_trace, export_jsonl, NullRecorder, TelemetryConfig, TelemetryReport,
    TraceRecorder,
};
use rago_workloads::{ArrivalProcess, TraceSpec};

fn pipeline() -> PipelineSpec {
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

fn requests(num_requests: usize) -> Vec<EngineRequest> {
    TraceSpec {
        num_requests,
        profile: SequenceProfile::paper_default().with_decode_tokens(32),
        arrival: ArrivalProcess::Poisson { rate_rps: 120.0 },
        length_jitter: 0.2,
        seed: 7,
    }
    .generate()
    .requests
    .iter()
    .map(EngineRequest::from)
    .collect()
}

fn scenario(num_requests: usize) -> FleetEngine {
    // Crash mid-stream so the traced path exercises requeue re-picks and
    // disruption events, not just the steady state.
    let crash_at_s = num_requests as f64 / 120.0 / 2.0;
    FleetEngine::new(
        pipeline(),
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Static { replicas: 3 },
    )
    .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
        replica: 0,
        at_s: crash_at_s,
        restart_delay_s: 1.0,
    }]))
}

/// One timed sample: `reps` back-to-back runs (so a sample is long
/// enough to dwarf timer and scheduler noise), returning the mean
/// per-run seconds. The last report is dropped after the clock stops.
fn sample<F: FnMut() -> ChaosReport>(reps: usize, run: &mut F) -> f64 {
    let start = Instant::now();
    let mut last = None;
    for _ in 0..reps {
        last = Some(run());
    }
    let seconds = start.elapsed().as_secs_f64() / reps as f64;
    drop(last);
    seconds
}

fn bench_telemetry_json(_c: &mut Criterion) {
    let num_requests = 20_000;
    let (trials, reps) = (7, 2);
    let reqs = requests(num_requests);
    let engine = scenario(num_requests);

    // ---- Timings: untraced vs null-recorded vs live capture ----
    // Samples are interleaved so slow drift (thermal, scheduler) hits
    // every variant equally; the best sample per variant is compared.
    let mut run_untraced = || engine.run(reqs.clone(), &MetricsMode::Exact, &mut NullRecorder);
    let mut run_nullrec = || engine.run(reqs.clone(), &MetricsMode::Exact, &mut NullRecorder);
    let live_engine = scenario(num_requests).with_telemetry(TelemetryConfig::full(0.25));
    let traced = || {
        let mut rec = TraceRecorder::new(TelemetryConfig::full(0.25));
        let report = live_engine.run(reqs.clone(), &MetricsMode::Exact, &mut rec);
        (report, rec)
    };
    let mut events_captured = 0usize;
    let mut run_live = || {
        let (report, rec) = traced();
        events_captured = rec.len();
        report
    };
    // Warm-up: touch every path once before timing anything.
    black_box((run_untraced(), run_nullrec(), run_live()));
    let (mut untraced_best_s, mut nullrec_best_s, mut live_best_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..trials {
        untraced_best_s = untraced_best_s.min(sample(reps, &mut run_untraced));
        nullrec_best_s = nullrec_best_s.min(sample(reps, &mut run_nullrec));
        live_best_s = live_best_s.min(sample(reps, &mut run_live));
    }

    // ---- The null-recorded path costs nothing measurable ----
    let null_overhead = nullrec_best_s / untraced_best_s.max(1e-12) - 1.0;
    let overhead_under_2pct = null_overhead < 0.02;
    assert!(
        overhead_under_2pct,
        "NullRecorder overhead {:.2}% exceeds 2% (untraced {untraced_best_s:.4}s, \
         null-recorded {nullrec_best_s:.4}s)",
        null_overhead * 100.0
    );
    let live_overhead = live_best_s / untraced_best_s.max(1e-12) - 1.0;

    // ---- Export and summary of the recording-order stream ----
    let (_, rec) = traced();
    assert_eq!(rec.len(), events_captured, "capture count is not stable");
    let chrome = export_chrome_trace(rec.events());
    let jsonl = export_jsonl(rec.events());
    let (mut export_best_s, mut summary_best_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..trials {
        let start = Instant::now();
        black_box(export_chrome_trace(black_box(rec.events())));
        black_box(export_jsonl(black_box(rec.events())));
        export_best_s = export_best_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(TelemetryReport::from_events(black_box(rec.events())));
        summary_best_s = summary_best_s.min(start.elapsed().as_secs_f64());
    }

    let events_per_request = events_captured as f64 / num_requests as f64;
    println!(
        "telemetry overhead over {num_requests} requests (best of {trials}): \
         untraced {untraced_best_s:.4}s, null-recorded {nullrec_best_s:.4}s \
         ({:+.2}%), live {live_best_s:.4}s ({:+.2}%, {events_captured} events, \
         {events_per_request:.1}/request); export {export_best_s:.4}s, \
         summary {summary_best_s:.4}s",
        null_overhead * 100.0,
        live_overhead * 100.0,
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \
         \"num_requests\": {num_requests},\n  \"trials\": {trials},\n  \
         \"untraced_best_s\": {untraced_best_s:.6},\n  \
         \"null_recorded_best_s\": {nullrec_best_s:.6},\n  \
         \"live_best_s\": {live_best_s:.6},\n  \
         \"null_overhead_frac\": {null_overhead:.6},\n  \
         \"live_overhead_frac\": {live_overhead:.6},\n  \
         \"export_best_s\": {export_best_s:.6},\n  \
         \"summary_best_s\": {summary_best_s:.6},\n  \
         \"events_captured\": {events_captured},\n  \
         \"events_per_request\": {events_per_request:.3},\n  \
         \"chrome_trace_bytes\": {},\n  \"jsonl_bytes\": {},\n  \
         \"acceptance\": {{\"overhead_under_2pct\": {overhead_under_2pct}}}\n}}\n",
        chrome.len(),
        jsonl.len(),
    );
    // Case-sensitive on purpose: Rust formats non-finite floats as "NaN"
    // and "inf".
    assert!(
        !json.contains("NaN") && !json.contains("inf"),
        "refusing to write non-finite telemetry metrics"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_telemetry.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_telemetry_json
}
criterion_main!(benches);
