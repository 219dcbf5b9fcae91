//! Million-request DES stress bench: events/sec and retained memory of the
//! optimized engine — a one-replica `FleetEngine` — versus the vendored
//! pre-optimization loop, written to `BENCH_scale.json` at the workspace
//! root.
//!
//! One synthetic open-loop workload (deterministic arrivals at a fixed
//! rate, two pre-decode stages, continuous-batching decode) is replayed at
//! increasing request tiers:
//!
//! * **10k, 100k** — always run; the CI smoke tiers (`RAGO_BENCH_QUICK=1`).
//! * **1M** — full mode; the acceptance tier: the streaming engine must
//!   process events at least 5x faster than the vendored baseline. Each
//!   engine row's wall time is the median of [`REPS`] interleaved runs, so
//!   one noisy run cannot swing the ratio.
//! * **10M** — full mode, streaming-only (an exact run would retain tens of
//!   millions of timeline allocations for no extra information).
//! * **100M** — full mode, `pulled_fleet` only: a day-scale diurnal trace.
//!
//! Every tier also has a `pulled_fleet` row: a one-replica streaming
//! `FleetEngine` pulling its arrivals straight from a lazy
//! `TraceSpec::requests()` generator, so no trace is ever materialized. Its
//! exact `peak_live_requests` — the most requests the replica held state
//! for at once — must stay flat across tiers (`flat_live_requests`: the
//! largest tier's peak at most twice the smallest's), which is what lets
//! the 100M-request tier run in bounded memory.
//!
//! At every tier that runs both engines, the bench asserts the optimized
//! exact run reproduces the baseline's timelines **bit for bit** — speed
//! must not buy drift. Where exact and streaming both run, every reported
//! percentile must agree within one histogram bucket width.
//!
//! The JSON refuses to serialize non-finite numbers, so CI can gate on the
//! file's presence, NaN-freeness, and the acceptance flags being `true`.

use criterion::{criterion_group, criterion_main, Criterion};
use rago_bench::baseline::run_baseline;
use rago_schema::{HistogramSpec, RouterPolicy, SequenceProfile};
use rago_serving_sim::engine::{
    DecodeSpec, EngineRequest, LatencyStats, LatencyTable, PipelineSpec, ServingReport, StageSpec,
};
use rago_serving_sim::faults::ScaleDriver;
use rago_serving_sim::fleet::FleetEngine;
use rago_serving_sim::{MetricsMode, StreamingConfig};
use rago_telemetry::NullRecorder;
use rago_workloads::{ArrivalProcess, TraceSpec};
use std::time::Instant;

/// Offered rate of the open-loop workload, just under the pipeline's
/// bottleneck (the prefix stage) so queues stay bounded and the event count
/// scales linearly with the tier.
const RATE_RPS: f64 = 1000.0;

/// Timed runs per engine row, interleaved across the engines; a row
/// reports the median.
const REPS: usize = 5;

/// The stress pipeline: hyperscale-retrieval shape (retrieval + prefix +
/// decode) with latency tables cheap enough that the bench measures the
/// event loop, not the cost model.
fn stress_spec() -> PipelineSpec {
    PipelineSpec::new(
        vec![
            StageSpec::new(
                "retrieval",
                0,
                16,
                LatencyTable::from_fn(16, |b| 0.002 + 0.0002 * f64::from(b)),
            ),
            StageSpec::new(
                "prefix",
                1,
                16,
                LatencyTable::from_fn(16, |b| 0.005 + 0.0005 * f64::from(b)),
            ),
        ],
        DecodeSpec::new(
            128,
            LatencyTable::from_fn(128, |b| 0.001 + 0.00002 * f64::from(b)),
        ),
    )
}

/// Deterministic open-loop arrivals: request `i` arrives at `i / rate`,
/// with a small repeating spread of decode lengths. No RNG — every tier is
/// exactly reproducible, and the 10M tier costs no generation entropy.
fn open_loop_requests(n: u64, rate_rps: f64) -> Vec<EngineRequest> {
    (0..n)
        .map(|i| EngineRequest {
            id: i,
            arrival_s: i as f64 / rate_rps,
            prefix_tokens: 0,
            decode_tokens: 8 + (i % 5) as u32,
            class: 0,
            identity: None,
        })
        .collect()
}

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
    baseline_matches_exact: Option<bool>,
    percentile_delta_within_bucket: Option<bool>,
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

/// Largest absolute difference between the streaming and exact reports over
/// the percentile fields the histogram estimates (means and maxima are
/// exact in both modes and compared for bit-equality instead).
fn max_percentile_delta(streaming: &ServingReport, exact: &ServingReport) -> f64 {
    let pairs = [
        (&streaming.metrics.ttft, &exact.metrics.ttft),
        (&streaming.metrics.tpot, &exact.metrics.tpot),
        (&streaming.metrics.latency, &exact.metrics.latency),
    ];
    pairs
        .iter()
        .flat_map(|(s, e)| {
            [
                (s.p50_s - e.p50_s).abs(),
                (s.p95_s - e.p95_s).abs(),
                (s.p99_s - e.p99_s).abs(),
            ]
        })
        .fold(0.0_f64, f64::max)
}

/// The median of `samples` (an odd count: the middle one).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs one tier through baseline / exact / streaming as requested and
/// cross-checks the runs against each other.
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
fn run_engines(spec: &PipelineSpec, n: u64, with_baseline: bool, with_exact: bool) -> EngineTier {
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

        if with_exact {
            let (wall, report) = run(&MetricsMode::Exact);
            walls[1].push(wall);
            exact_report.get_or_insert(report);
        }

        if with_baseline {
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

    let baseline_matches_exact = match (&baseline_run, &exact_report) {
        (Some(base), Some(exact)) => {
            assert_eq!(
                base.timelines, exact.timelines,
                "vendored baseline diverged from the optimized exact engine at n={n}"
            );
            Some(true)
        }
        _ => None,
    };

    let percentile_delta_within_bucket = exact_report.as_ref().map(|exact| {
        let delta = max_percentile_delta(&streaming_report, exact);
        let width = HistogramSpec::default().bucket_width_s;
        assert!(
            delta <= width * (1.0 + 1e-9),
            "streaming percentile strayed {delta} beyond one bucket width {width} at n={n}"
        );
        // Maxima are tracked exactly by the streaming sink; means agree up
        // to summation order (the exact path sums sorted samples, the sink
        // sums in arrival order).
        assert!(
            (exact.metrics.ttft.mean_s - streaming_report.metrics.ttft.mean_s).abs()
                <= 1e-9 * exact.metrics.ttft.mean_s.abs().max(1.0)
        );
        assert_eq!(
            exact.metrics.ttft.max_s,
            streaming_report.metrics.ttft.max_s
        );
        assert_eq!(
            exact.metrics.makespan_s,
            streaming_report.metrics.makespan_s
        );
        true
    });

    EngineTier {
        events,
        queue_pops: streaming_report.metrics.queue_pops,
        baseline,
        exact,
        streaming,
        baseline_matches_exact,
        percentile_delta_within_bucket,
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
    // tier) and no heap trimming. The warmup pass in `run_tier` then really
    // warms — on hosts with lazily materialized memory, re-faulting pages
    // costs microseconds each and would drown the event-loop measurement.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
    let quick = rago_bench::quick_mode();
    let spec = stress_spec();

    // Tier plan: (requests, engine rows as (run baseline, run exact)). The
    // 10M tier is streaming-only — its exact twin would retain tens of
    // millions of timeline allocations without adding information the 1M
    // tier lacks — and the 100M diurnal tier is pulled-fleet only.
    let plan: &[(u64, Option<(bool, bool)>)] = if quick {
        &[(10_000, Some((true, true))), (100_000, Some((true, true)))]
    } else {
        &[
            (10_000, Some((true, true))),
            (100_000, Some((true, true))),
            (1_000_000, Some((true, true))),
            (10_000_000, Some((false, false))),
            (100_000_000, None),
        ]
    };
    let tiers: Vec<TierResult> = plan
        .iter()
        .map(|&(n, engines)| {
            let engines = engines.map(|(with_baseline, with_exact)| {
                let tier = run_engines(&spec, n, with_baseline, with_exact);
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

    // Acceptance 1 (full mode): streaming events/sec at the 1M tier beats
    // the vendored baseline by at least 5x.
    const SPEEDUP_TARGET: f64 = 5.0;
    let speedup_at_1m = tiers
        .iter()
        .find(|t| t.requests == 1_000_000)
        .and_then(|t| t.engines.as_ref())
        .and_then(|t| {
            t.baseline
                .as_ref()
                .map(|b| t.streaming.events_per_s / b.events_per_s)
        });
    if let Some(speedup) = speedup_at_1m {
        assert!(
            speedup >= SPEEDUP_TARGET,
            "streaming engine reached only {speedup:.2}x the baseline at 1M requests \
             (target {SPEEDUP_TARGET}x)"
        );
    }

    // Acceptance 2: streaming retained memory is sub-linear in the tier
    // size — the histogram state must not grow with the request count.
    let streamed: Vec<(u64, &EngineTier)> = tiers
        .iter()
        .filter_map(|t| t.engines.as_ref().map(|e| (t.requests, e)))
        .collect();
    let (first_n, first) = streamed.first().expect("at least one engine tier");
    let (last_n, last) = streamed.last().expect("at least one engine tier");
    let retained_growth =
        last.streaming.retained_bytes as f64 / first.streaming.retained_bytes.max(1) as f64;
    let request_growth = *last_n as f64 / *first_n as f64;
    assert!(
        retained_growth <= request_growth.sqrt().max(2.0),
        "streaming retained bytes grew {retained_growth:.1}x over a {request_growth:.0}x \
         request increase — not sub-linear"
    );

    // Acceptance 3: the pulled fleet's per-request state is bounded by its
    // in-flight load — the largest tier holds at most twice the live
    // requests of the smallest.
    let smallest = tiers
        .first()
        .expect("at least one tier")
        .pulled
        .peak_live_requests;
    let largest = tiers
        .last()
        .expect("at least one tier")
        .pulled
        .peak_live_requests;
    let flat_live_requests = largest <= 2 * smallest;
    assert!(
        flat_live_requests,
        "the pulled fleet held {largest} live requests at its largest tier, \
         {smallest} at its smallest — per-request state grew with the trace"
    );

    let json = render_json(
        quick,
        &tiers,
        speedup_at_1m,
        SPEEDUP_TARGET,
        retained_growth,
        flat_live_requests,
    );
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

fn fmt_opt_bool(v: Option<bool>) -> String {
    v.map_or_else(|| "null".into(), |b| b.to_string())
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

fn render_json(
    quick: bool,
    tiers: &[TierResult],
    speedup_at_1m: Option<f64>,
    speedup_target: f64,
    retained_growth: f64,
    flat_live_requests: bool,
) -> String {
    let tiers_json = tiers
        .iter()
        .map(|t| {
            let e = t.engines.as_ref();
            let speedup = e.and_then(|e| {
                e.baseline
                    .as_ref()
                    .map(|b| e.streaming.events_per_s / b.events_per_s)
            });
            format!(
                "    {{\"requests\": {}, \"events\": {}, \"queue_pops\": {},\n      \
                 \"baseline\": {},\n      \
                 \"exact\": {},\n      \"streaming\": {},\n      \
                 \"speedup_streaming_vs_baseline\": {},\n      \
                 \"baseline_matches_exact\": {},\n      \
                 \"percentile_delta_within_bucket\": {},\n      \
                 \"pulled_fleet\": {}}}",
                t.requests,
                e.map_or_else(|| "null".into(), |e| e.events.to_string()),
                e.map_or_else(|| "null".into(), |e| e.queue_pops.to_string()),
                fmt_engine(e.and_then(|e| e.baseline.as_ref())),
                fmt_engine(e.and_then(|e| e.exact.as_ref())),
                fmt_engine(e.map(|e| &e.streaming)),
                speedup.map_or_else(|| "null".into(), |s| format!("{s:.2}")),
                fmt_opt_bool(e.and_then(|e| e.baseline_matches_exact)),
                fmt_opt_bool(e.and_then(|e| e.percentile_delta_within_bucket)),
                fmt_pulled(&t.pulled),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"scale_stress/des\",\n  \"quick\": {quick},\n  \
         \"rate_rps\": {RATE_RPS:.0},\n  \
         \"histogram_bucket_width_s\": {},\n  \"tiers\": [\n{tiers_json}\n  ],\n  \
         \"acceptance\": {{\"speedup_streaming_vs_baseline_1m\": {}, \
         \"speedup_target\": {speedup_target:.1}, \"meets_speedup\": {}, \
         \"streaming_retained_growth\": {retained_growth:.2}, \
         \"sublinear_retained_growth\": true, \
         \"flat_live_requests\": {flat_live_requests}}}\n}}\n",
        HistogramSpec::default().bucket_width_s,
        speedup_at_1m.map_or_else(|| "null".into(), |s| format!("{s:.2}")),
        speedup_at_1m.map_or_else(|| "null".into(), |s| (s >= speedup_target).to_string()),
    )
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scale_json
}
criterion_main!(benches);
