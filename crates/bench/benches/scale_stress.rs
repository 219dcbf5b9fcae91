//! Million-request DES stress bench: events/sec and retained memory of the
//! optimized engine — a one-replica `FleetEngine` — versus the vendored
//! pre-optimization loop, written to `BENCH_scale.json` at the workspace
//! root.
//!
//! One synthetic open-loop workload (`rago_bench::stress`: deterministic
//! arrivals at a fixed rate, two pre-decode stages, continuous-batching
//! decode) is replayed at increasing request tiers:
//!
//! * **10k, 100k, 1M** — the vendored baseline, the exact engine and the
//!   streaming engine. At 1M the streaming engine must process events at
//!   least 5x faster than the baseline. Each engine row's wall time is the
//!   median of [`REPS`] interleaved runs, so one noisy run cannot swing the
//!   ratio.
//! * **10M** — streaming-only (an exact run would retain tens of millions
//!   of timeline allocations for no extra information).
//! * **100M** — `pulled_fleet` only: a day-scale diurnal trace.
//!
//! Every tier also has a `pulled_fleet` row: a one-replica streaming
//! `FleetEngine` pulling its arrivals straight from a lazy
//! `TraceSpec::requests()` generator, so no trace is ever materialized. Its
//! `peak_live_requests` is the most requests the replica held state for at
//! once, which is what lets the 100M-request tier run in bounded memory.
//!
//! The 5x gate is the bench's one claim. Besides it, the bench asserts
//! only that the timed runs computed the same thing: every engine of a
//! tier applies the same events, and the baseline's timelines equal the
//! exact engine's bit for bit — speed must not buy drift. The model's claims about these runs
//! (streaming percentiles within one bucket of exact, flat streaming
//! memory, flat live requests, the 10k tier's exact counters) are tests.
//! The bench refuses to write non-finite numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use rago_bench::baseline::run_baseline;
use rago_bench::stress::{open_loop_requests, stress_spec, RATE_RPS};
use rago_schema::{HistogramSpec, RouterPolicy, SequenceProfile};
use rago_serving_sim::engine::{EngineRequest, LatencyStats, PipelineSpec, ServingReport};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::{MetricsMode, StreamingConfig};
use rago_telemetry::NullRecorder;
use rago_workloads::{ArrivalProcess, TraceSpec};
use std::time::Instant;

/// Timed runs per engine row, interleaved across the engines; a row
/// reports the median.
const REPS: usize = 5;

struct EngineFigures {
    wall_s: f64,
    events_per_s: f64,
    retained_bytes: usize,
}

/// Per-tier engine runs: the three engine rows over the open-loop
/// requests (absent on the pulled-only tier), and the pulled fleet.
struct TierResult {
    requests: u64,
    engines: Option<EngineTier>,
    pulled: PulledFigures,
}

struct EngineTier {
    events: u64,
    /// Event-queue pops of the streaming run: `events` less the decode
    /// steps that passed inside a decode run.
    queue_pops: u64,
    baseline: Option<EngineFigures>,
    exact: Option<EngineFigures>,
    streaming: EngineFigures,
}

/// The `pulled_fleet` row: a one-replica streaming fleet fed lazily.
struct PulledFigures {
    arrival: &'static str,
    events: u64,
    queue_pops: u64,
    wall_s: f64,
    peak_live_requests: usize,
}

fn figures(wall_s: f64, events: u64, retained_bytes: usize) -> EngineFigures {
    EngineFigures {
        wall_s,
        events_per_s: events as f64 / wall_s.max(1e-9),
        retained_bytes,
    }
}

/// The median of `samples` (an odd count: the middle one).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs one tier through the streaming engine and, `with_references`,
/// through the exact engine and the vendored baseline too, and checks
/// that every run applied the same events and that the baseline's
/// timelines equal the exact engine's.
///
/// The optimized engine is a one-replica static fleet pulling the prebuilt
/// requests in place ([`FleetEngine::run`]), so no copy or sort of
/// the requests is timed. An untimed streaming warmup run precedes the
/// measurements: on hosts with expensive first-touch paging (lazily
/// materialized VM memory), the first pass over a tier's working set pays
/// microseconds per page, which would otherwise be billed to whichever
/// engine happens to run first. The engines then take turns, [`REPS`]
/// rounds of one run each, and each row reports its median, so drift in
/// the host's speed lands on every engine alike. Combined with the
/// allocator retention configured in `bench_scale_json`, the timed runs
/// measure the simulation loops, not the host's memory plumbing.
fn run_engines(spec: &PipelineSpec, n: u64, with_references: bool) -> EngineTier {
    let requests = open_loop_requests(n, RATE_RPS);
    let streaming_mode = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));
    let engine = FleetEngine::new(
        spec.clone(),
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Static { replicas: 1 },
    );
    let run = |mode: &MetricsMode| -> (f64, ServingReport) {
        let t0 = Instant::now();
        let report = engine.run(requests.iter().copied(), mode, &mut NullRecorder);
        (t0.elapsed().as_secs_f64(), report.fleet.merged)
    };

    std::hint::black_box(run(&streaming_mode));

    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    let mut streaming_report = None;
    let mut exact_report = None;
    let mut baseline_run = None;
    for _ in 0..REPS {
        let (wall, report) = run(&streaming_mode);
        walls[0].push(wall);
        streaming_report.get_or_insert(report);

        if with_references {
            let (wall, report) = run(&MetricsMode::Exact);
            walls[1].push(wall);
            exact_report.get_or_insert(report);

            // The baseline's wall time includes the old metrics path —
            // cloning each distribution out of the timelines and sorting
            // it — because that is what the pre-optimization `run()` paid.
            let t0 = Instant::now();
            let run = run_baseline(spec, &requests);
            for samples in [
                run.timelines.iter().map(|t| t.ttft_s()).collect::<Vec<_>>(),
                run.timelines.iter().map(|t| t.tpot_s()).collect(),
                run.timelines.iter().map(|t| t.latency_s()).collect(),
                run.timelines.iter().map(|t| t.queueing_s).collect(),
                run.timelines.iter().map(|t| t.service_s()).collect(),
            ] {
                std::hint::black_box(LatencyStats::from_samples(&samples));
            }
            walls[2].push(t0.elapsed().as_secs_f64());
            baseline_run.get_or_insert(run);
        }
    }
    let [streaming_walls, exact_walls, baseline_walls] = walls;

    let streaming_report = streaming_report.expect("at least one rep");
    let events = streaming_report.metrics.events_processed;
    let streaming = figures(
        median(streaming_walls),
        events,
        streaming_report.retained_bytes(),
    );
    let exact = exact_report.as_ref().map(|report| {
        assert_eq!(
            report.metrics.events_processed, events,
            "exact and streaming runs must apply the same events"
        );
        figures(median(exact_walls), events, report.retained_bytes())
    });
    let baseline = baseline_run.as_ref().map(|run| {
        assert_eq!(
            run.events, events,
            "the vendored loop must apply the same events as the optimized engine"
        );
        figures(median(baseline_walls), run.events, 0)
    });
    if let (Some(base), Some(exact)) = (&baseline_run, &exact_report) {
        assert_eq!(
            base.timelines, exact.timelines,
            "vendored baseline diverged from the optimized exact engine at n={n}"
        );
    }

    EngineTier {
        events,
        queue_pops: streaming_report.metrics.queue_pops,
        baseline,
        exact,
        streaming,
    }
}

/// The lazy trace of a `pulled_fleet` tier: Poisson arrivals at
/// [`RATE_RPS`], or — `diurnal` — a day-long cycle between a fifth of that
/// rate and all of it. Both peak at the same offered rate with the same
/// burstiness, so the tiers differ in length, not in load. Decode lengths
/// are jittered around the engine rows' mean.
fn pulled_trace(n: u64, diurnal: bool) -> TraceSpec {
    let arrival = if diurnal {
        ArrivalProcess::Diurnal {
            base_rps: 0.2 * RATE_RPS,
            peak_rps: RATE_RPS,
            period_s: 86_400.0,
        }
    } else {
        ArrivalProcess::Poisson { rate_rps: RATE_RPS }
    };
    TraceSpec {
        num_requests: n as usize,
        profile: SequenceProfile::paper_default().with_decode_tokens(10),
        arrival,
        length_jitter: 0.2,
        seed: 1,
    }
}

/// Runs one `pulled_fleet` row: the trace is generated request by request
/// as the fleet pulls it, and the replica retires each request once it and
/// everything before it completed.
fn run_pulled(spec: &PipelineSpec, n: u64, diurnal: bool) -> PulledFigures {
    let trace = pulled_trace(n, diurnal);
    let engine = FleetEngine::new(
        spec.clone(),
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Static { replicas: 1 },
    );
    let mode = MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()));
    let t0 = Instant::now();
    let report = engine.run(
        trace.requests().map(|r| EngineRequest::from(&r)),
        &mode,
        &mut NullRecorder,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let metrics = &report.fleet.merged.metrics;
    assert_eq!(
        metrics.completed, n as usize,
        "the pulled fleet must complete every request"
    );
    PulledFigures {
        arrival: if diurnal { "diurnal" } else { "poisson" },
        events: metrics.events_processed,
        queue_pops: metrics.queue_pops,
        wall_s,
        peak_live_requests: report.fleet.per_replica[0].peak_live_requests,
    }
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc mallopt parameter: maximum number of mmap'd allocations.
const M_MMAP_MAX: i32 = -4;
/// glibc mallopt parameter: heap trim threshold.
const M_TRIM_THRESHOLD: i32 = -1;

fn bench_scale_json(_c: &mut Criterion) {
    // Keep freed memory inside the process: no mmap for large blocks (their
    // pages would be returned to the OS on free and re-faulted by the next
    // tier) and no heap trimming. The warmup pass in `run_engines` then
    // really warms — on hosts with lazily materialized memory, re-faulting
    // pages costs microseconds each and would drown the event-loop
    // measurement.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
    let spec = stress_spec();

    // Tier plan: (requests, engine rows, and whether they include the
    // exact engine and the baseline). The 10M tier is streaming-only — its
    // exact twin would retain tens of millions of timeline allocations
    // without adding information the 1M tier lacks — and the 100M diurnal
    // tier is pulled-fleet only.
    let plan: [(u64, Option<bool>); 5] = [
        (10_000, Some(true)),
        (100_000, Some(true)),
        (1_000_000, Some(true)),
        (10_000_000, Some(false)),
        (100_000_000, None),
    ];
    let tiers: Vec<TierResult> = plan
        .iter()
        .map(|&(n, engines)| {
            let engines = engines.map(|with_references| {
                let tier = run_engines(&spec, n, with_references);
                println!(
                    "tier {n}: {} events, streaming {:.2}M ev/s",
                    tier.events,
                    tier.streaming.events_per_s / 1e6
                );
                tier
            });
            let pulled = run_pulled(&spec, n, engines.is_none());
            println!(
                "tier {n}: pulled fleet ({}) {:.1}s, peak {} live requests",
                pulled.arrival, pulled.wall_s, pulled.peak_live_requests
            );
            TierResult {
                requests: n,
                engines,
                pulled,
            }
        })
        .collect();

    // The gate: streaming events/sec at the 1M tier beats the vendored
    // baseline by at least 5x.
    const SPEEDUP_TARGET: f64 = 5.0;
    let speedup_at_1m = tiers
        .iter()
        .find(|t| t.requests == 1_000_000)
        .and_then(|t| t.engines.as_ref())
        .and_then(speedup)
        .expect("the 1M tier runs the baseline");
    assert!(
        speedup_at_1m >= SPEEDUP_TARGET,
        "streaming engine reached only {speedup_at_1m:.2}x the baseline at 1M requests \
         (target {SPEEDUP_TARGET}x)"
    );

    let json = render_json(&tiers, speedup_at_1m, SPEEDUP_TARGET);
    assert!(
        !json.to_ascii_lowercase().contains("nan") && !json.contains("inf"),
        "refusing to write non-finite scale metrics"
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scale.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}

/// Streaming events/sec over the baseline's, on a tier that ran both.
fn speedup(tier: &EngineTier) -> Option<f64> {
    tier.baseline
        .as_ref()
        .map(|b| tier.streaming.events_per_s / b.events_per_s)
}

fn fmt_engine(f: Option<&EngineFigures>) -> String {
    f.map_or_else(
        || "null".into(),
        |f| {
            format!(
                "{{\"wall_s\": {:.4}, \"events_per_s\": {:.0}, \"retained_bytes\": {}}}",
                f.wall_s, f.events_per_s, f.retained_bytes
            )
        },
    )
}

fn fmt_pulled(p: &PulledFigures) -> String {
    format!(
        "{{\"arrival\": \"{}\", \"events\": {}, \"queue_pops\": {}, \"wall_s\": {:.4}, \
         \"events_per_s\": {:.0}, \"peak_live_requests\": {}}}",
        p.arrival,
        p.events,
        p.queue_pops,
        p.wall_s,
        p.events as f64 / p.wall_s.max(1e-9),
        p.peak_live_requests
    )
}

fn render_json(tiers: &[TierResult], speedup_at_1m: f64, speedup_target: f64) -> String {
    let tiers_json = tiers
        .iter()
        .map(|t| {
            let e = t.engines.as_ref();
            format!(
                "    {{\"requests\": {}, \"events\": {}, \"queue_pops\": {},\n      \
                 \"baseline\": {},\n      \
                 \"exact\": {},\n      \"streaming\": {},\n      \
                 \"speedup_streaming_vs_baseline\": {},\n      \
                 \"pulled_fleet\": {}}}",
                t.requests,
                e.map_or_else(|| "null".into(), |e| e.events.to_string()),
                e.map_or_else(|| "null".into(), |e| e.queue_pops.to_string()),
                fmt_engine(e.and_then(|e| e.baseline.as_ref())),
                fmt_engine(e.and_then(|e| e.exact.as_ref())),
                fmt_engine(e.map(|e| &e.streaming)),
                e.and_then(speedup)
                    .map_or_else(|| "null".into(), |s| format!("{s:.2}")),
                fmt_pulled(&t.pulled),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"scale_stress/des\",\n  \
         \"rate_rps\": {RATE_RPS:.0},\n  \
         \"histogram_bucket_width_s\": {},\n  \"tiers\": [\n{tiers_json}\n  ],\n  \
         \"acceptance\": {{\"speedup_streaming_vs_baseline_1m\": {speedup_at_1m:.2}, \
         \"speedup_target\": {speedup_target:.1}, \"meets_speedup\": {}}}\n}}\n",
        HistogramSpec::default().bucket_width_s,
        speedup_at_1m >= speedup_target,
    )
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scale_json
}
criterion_main!(benches);
