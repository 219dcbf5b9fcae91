//! Trace a crash at the traffic peak and open the result in Perfetto.
//!
//! The walkthrough:
//!
//! 1. build a two-stage RAG pipeline and one diurnal traffic cycle, with
//!    replica 0 crashing **right at the peak** (cold restart after an
//!    eighth of a cycle);
//! 2. serve the trace through the fleet engine behind a reactive
//!    autoscaler, with full telemetry on: per-request spans, 250 ms load
//!    gauges, router/admission/scaling/fault decisions with reasons, and
//!    the simulator's own profile counters;
//! 3. write `rago_trace.json` (Chrome-trace format — load it at
//!    <https://ui.perfetto.dev> or `chrome://tracing`) and
//!    `rago_trace.jsonl` (one event per line, for grep/jq), both
//!    byte-deterministic for the fixed seed;
//! 4. print the trace summary: state-time totals, per-class queueing,
//!    and the decision ledger around the crash.
//!
//! ```sh
//! cargo run --release --example trace_explorer
//! ```

use rago::schema::{RouterPolicy, SequenceProfile};
use rago::serving_sim::autoscaler::AutoscalerPolicy;
use rago::serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
use rago::serving_sim::faults::{FaultEvent, FaultSchedule, ScaleDriver};
use rago::serving_sim::fleet::{arrivals, FleetEngine};
use rago::serving_sim::MetricsMode;
use rago::telemetry::{
    export_chrome_trace, export_jsonl, Lane, TelemetryConfig, TelemetryReport, TraceRecorder,
};
use rago::workloads::{ArrivalProcess, TraceSpec};

fn main() -> std::io::Result<()> {
    // Step 1: pipeline, diurnal cycle, crash at the sinusoid's peak.
    let spec = PipelineSpec::new(
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
    );
    let (base_rps, peak_rps, period_s) = (15.0, 60.0, 24.0);
    let trace = TraceSpec {
        num_requests: (0.5 * (base_rps + peak_rps) * period_s) as usize,
        profile: SequenceProfile::paper_default().with_decode_tokens(32),
        arrival: ArrivalProcess::Diurnal {
            base_rps,
            peak_rps,
            period_s,
        },
        length_jitter: 0.2,
        seed: 41,
    }
    .generate();
    let crash_at_s = period_s / 2.0;
    let faults = FaultSchedule::new(vec![FaultEvent::Crash {
        replica: 0,
        at_s: crash_at_s,
        restart_delay_s: period_s / 8.0,
    }]);
    println!(
        "diurnal trace: {} requests over {period_s:.0} s; replica 0 crashes at t = {crash_at_s:.0} s",
        trace.requests.len()
    );

    // Step 2: the traced run. `TelemetryConfig::full` turns every lane
    // on; the report is bit-identical to the untraced run — the recorder
    // only observes.
    let policy = AutoscalerPolicy::new(1, 4)
        .with_evaluation_interval(0.25)
        .with_scale_out_queue_depth(2.0)
        .with_scale_in_outstanding(10.0)
        .with_cooldown(1.0)
        .with_warmup(0.5);
    let engine = FleetEngine::new(
        spec,
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Reactive(policy),
    )
    .with_faults(faults)
    .with_telemetry(TelemetryConfig::full(0.25));
    let mut rec = TraceRecorder::new(TelemetryConfig::full(0.25));
    let report = engine.run(arrivals(&trace), &MetricsMode::Exact, &mut rec);
    println!(
        "served {} requests across {} scaling events ({} trace events captured)",
        report.fleet.merged.metrics.requests,
        report.events.len(),
        rec.len(),
    );

    // Step 3: the exports.
    std::fs::write("rago_trace.json", export_chrome_trace(rec.events()))?;
    std::fs::write("rago_trace.jsonl", export_jsonl(rec.events()))?;
    println!("wrote rago_trace.json (open at https://ui.perfetto.dev) and rago_trace.jsonl");

    // Step 4: the summary, plus the decision ledger around the crash —
    // what the router, autoscaler, and fault injector decided and why.
    println!("\n{}", TelemetryReport::from_events(rec.events()).render());
    let mut events = rec.into_events();
    rago::telemetry::sort_events(&mut events);
    println!("non-routing decisions within 4 s of the crash:");
    for ev in &events {
        if ev.lane == Lane::Decision
            && ev.name != "route.pick"
            && (ev.time_s - crash_at_s).abs() <= 4.0
        {
            let detail = if ev.detail.is_empty() {
                String::new()
            } else {
                format!("  ({})", ev.detail)
            };
            println!(
                "  t={:8.3}s  track {:>2}  {}{}",
                ev.time_s, ev.track, ev.name, detail
            );
        }
    }
    Ok(())
}
