//! Golden regression harness: pins the numbers behind the repo's headline
//! results so later refactors cannot silently drift them.
//!
//! Each test renders a deterministic computation to a JSON string with
//! fixed 9-decimal formatting and diffs it against a committed snapshot in
//! `tests/golden/`. Every input is seeded and every code path is
//! deterministic (the parallel optimizer is bit-identical to its serial
//! form; the discrete-event engines are pure functions of their inputs), so
//! the snapshots are expected to match to the last printed digit.
//!
//! Snapshots cover the three earlier PRs' headline surfaces plus the
//! paper-claims characterization:
//!
//! * `optimizer_frontier.json` — the PR 1 static search: every point of the
//!   case-1 fast-options Pareto frontier (schedule description, TTFT, TPOT,
//!   QPS, QPS/chip).
//! * `engine_metrics.json` — the PR 2 request-level engine: the full
//!   `ServingMetrics` of one seeded Poisson run through a fixed two-stage
//!   pipeline.
//! * `fleet_knees.json` — the PR 3 fleet layer: attainment versus offered
//!   rate for 1- and 2-replica fleets of the case-1 best schedule, and the
//!   sustained-throughput knee of each sweep.
//! * `paper_claims.json` — the characterization scalars behind
//!   `tests/paper_claims.rs` (retrieval share versus scan fraction,
//!   encoder share versus corpus size), pinned as numbers rather than
//!   inequalities.
//! * `timevarying.json` — the time-varying path: a seeded two-tenant
//!   diurnal trace through a faultless `evaluate_fleet_faulted`, static and
//!   autoscaled, with per-tenant outcomes and the provisioning cost.
//! * `cache_run.json` — the PR 5 cache subsystem: a seeded Zipfian
//!   content-tagged trace through `Rago::evaluate_dynamic` with a cache,
//!   pinning the hit/miss/eviction counters, tokens saved, and the cached
//!   TTFT.
//! * `fault_crash.json` / `fault_straggler.json` — the PR 7 chaos layer:
//!   the engine-metrics scenario rerun under a replica crash (cold
//!   restart) and under a straggler window, pinning the fault ledger,
//!   replica lifetimes, windowed attainment, and recovery metrics.
//! * `admission_shed.json` — PR 7 admission control: a two-class
//!   overload trace shed in priority order, pinning per-class shed counts
//!   and the surviving latency distribution. A further test pins the
//!   fault-free one-replica fleet *against the existing
//!   `engine_metrics.json` snapshot* byte-for-byte, so the fault and
//!   admission lanes cannot drift the plain fleet; `timevarying.json` is
//!   itself rendered through the faulted facade, which pins the elastic
//!   fleet.
//! * `disagg_run.json` — the PR 8 disaggregated pools: the engine-metrics
//!   pipeline cut into a 2-prefill + 1-decode split with a priced KV
//!   handoff, pinning the merged metrics, both pools' per-replica
//!   breakdowns, and every transfer counter.
//! * `fleet_streaming.json` — the streaming fleet path: a fixed 4-replica
//!   fleet and a reactive autoscaled fleet in histogram-sink mode, pinning
//!   merged and per-replica metrics, online SLO scores, and load imbalance.
//! * `iterative_decode.json` — the decode-stall simulator behind Case III
//!   (§5.3): every `IterativeDecodeResult` field, as `f64::to_bits` hex, over
//!   a grid of decode batch × iterative batch × retrievals × decode length ×
//!   retrieval latency × seed, plus the Case III fast-grid frontier
//!   (identity keys and performance bits). Pinned to the bit, not to nine
//!   decimals, so a change to the replica engine's decode runs or
//!   iterative retrievals must reproduce every floating-point operation in
//!   order.
//!
//! # Updating
//!
//! When a change *intentionally* moves the numbers (a cost-model fix, a new
//! default), regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_regression
//! ```
//!
//! and commit the diff — the point is that the drift shows up in review.

use rago::cache::{CacheConfig, EvictionPolicy, PrefixKvCacheConfig, RetrievalCacheConfig};
use rago::core::{evaluate_fleet_dynamic_with, FaultScenario, Rago, SearchOptions};
use rago::hardware::ClusterSpec;
use rago::schema::presets::{self, LlmSize};
use rago::schema::{
    FleetConfig, KvTransferModel, PoolSpec, RouterPolicy, SequenceProfile, SloTarget, Stage,
};
use rago::serving_sim::autoscaler::AutoscalerPolicy;
use rago::serving_sim::engine::{
    sustained_throughput_knee, DecodeSpec, EngineRequest, LatencyTable, PipelineSpec, StageSpec,
};
use rago::serving_sim::faults::{
    AdmissionConfig, ChaosReport, FaultEvent, FaultSchedule, ScaleDriver,
};
use rago::serving_sim::fleet::{arrivals, FleetEngine};
use rago::serving_sim::pools::{DisaggReport, PoolReport};
use rago::serving_sim::MetricsMode;
use rago::telemetry::NullRecorder;
use rago::workloads::{
    ArrivalProcess, ContentSpec, MixTraceSpec, PopularityModel, RequestClass, TraceSpec,
    WorkloadMix,
};
use std::fmt::Write as _;
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
             `UPDATE_GOLDEN=1 cargo test --test golden_regression`",
            path.display()
        )
    });
    assert_eq!(
        expected, rendered,
        "golden snapshot `{name}` drifted. If the change is intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_regression` \
         and commit the diff."
    );
}

fn f(value: f64) -> String {
    format!("{value:.9}")
}

#[test]
fn golden_optimizer_frontier() {
    let rago = Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        ClusterSpec::paper_default(),
    );
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("static search succeeds");
    let mut out = String::from("{\n  \"bench\": \"golden/optimizer_frontier\",\n  \"points\": [\n");
    let rows: Vec<String> = frontier
        .iter()
        .map(|p| {
            format!(
                "    {{\"schedule\": \"{}\", \"ttft_s\": {}, \"tpot_s\": {}, \
                 \"qps\": {}, \"qps_per_chip\": {}, \"total_xpus\": {}}}",
                p.schedule.describe(),
                f(p.performance.ttft_s),
                f(p.performance.tpot_s),
                f(p.performance.qps),
                f(p.performance.qps_per_chip),
                p.performance.total_xpus,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    check_golden("optimizer_frontier.json", &out);
}

/// The seeded PR 2 engine scenario behind `engine_metrics.json`: a fixed
/// two-stage pipeline (retrieval on its own resource, prefix on another)
/// under a seeded Poisson trace.
fn engine_metrics_spec() -> PipelineSpec {
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

fn engine_metrics_trace() -> rago::workloads::Trace {
    TraceSpec {
        num_requests: 200,
        profile: SequenceProfile::paper_default().with_decode_tokens(32),
        arrival: ArrivalProcess::Poisson { rate_rps: 50.0 },
        length_jitter: 0.2,
        seed: 7,
    }
    .generate()
}

/// The single-pipeline scenario: one replica of `engine_metrics_spec`, a
/// one-replica static fleet.
fn engine_metrics_scenario() -> FleetEngine {
    FleetEngine::new(
        engine_metrics_spec(),
        RouterPolicy::default(),
        ScaleDriver::Static { replicas: 1 },
    )
}

fn render_engine_metrics(report: &rago::serving_sim::engine::ServingReport) -> String {
    let m = &report.metrics;
    let slo = SloTarget::paper_default();
    let mut out = String::from("{\n  \"bench\": \"golden/engine_metrics\",\n");
    let _ = writeln!(out, "  \"requests\": {},", m.requests);
    let _ = writeln!(out, "  \"makespan_s\": {},", f(m.makespan_s));
    let _ = writeln!(
        out,
        "  \"serving_duration_s\": {},",
        f(m.serving_duration_s)
    );
    let _ = writeln!(out, "  \"drain_tail_s\": {},", f(m.drain_tail_s));
    let _ = writeln!(out, "  \"throughput_rps\": {},", f(m.throughput_rps));
    let _ = writeln!(
        out,
        "  \"ttft\": {{\"mean_s\": {}, \"p50_s\": {}, \"p95_s\": {}, \"p99_s\": {}, \"max_s\": {}}},",
        f(m.ttft.mean_s), f(m.ttft.p50_s), f(m.ttft.p95_s), f(m.ttft.p99_s), f(m.ttft.max_s)
    );
    let _ = writeln!(
        out,
        "  \"tpot\": {{\"mean_s\": {}, \"p50_s\": {}, \"p95_s\": {}, \"p99_s\": {}, \"max_s\": {}}},",
        f(m.tpot.mean_s), f(m.tpot.p50_s), f(m.tpot.p95_s), f(m.tpot.p99_s), f(m.tpot.max_s)
    );
    let _ = writeln!(
        out,
        "  \"latency\": {{\"mean_s\": {}, \"p50_s\": {}, \"p95_s\": {}, \"p99_s\": {}, \"max_s\": {}}},",
        f(m.latency.mean_s), f(m.latency.p50_s), f(m.latency.p95_s), f(m.latency.p99_s),
        f(m.latency.max_s)
    );
    let _ = writeln!(out, "  \"queueing_mean_s\": {},", f(m.queueing_mean_s));
    let _ = writeln!(out, "  \"service_mean_s\": {},", f(m.service_mean_s));
    let _ = writeln!(out, "  \"mean_decode_fill\": {},", f(m.mean_decode_fill));
    let _ = writeln!(out, "  \"attainment\": {},", f(report.attainment(&slo)));
    let _ = writeln!(out, "  \"goodput_rps\": {}", f(report.goodput_rps(&slo)));
    out.push_str("}\n");
    out
}

#[test]
fn golden_engine_metrics() {
    let report = engine_metrics_scenario()
        .run_trace(&engine_metrics_trace())
        .fleet
        .merged;
    check_golden("engine_metrics.json", &render_engine_metrics(&report));
}

/// The exact metrics sink is the identity path: running the same scenario
/// from a request vector through `run(.., MetricsMode::Exact, ..)` must
/// reproduce the in-place trace run and the committed golden byte for byte
/// — timelines, aggregates, attainment, goodput.
#[test]
fn golden_engine_metrics_via_exact_sink() {
    let engine = engine_metrics_scenario();
    let trace = engine_metrics_trace();
    let requests: Vec<EngineRequest> = trace.requests.iter().map(EngineRequest::from).collect();
    let via_sink = engine
        .run(requests, &MetricsMode::Exact, &mut NullRecorder)
        .fleet
        .merged;
    assert_eq!(
        engine.run_trace(&trace).fleet.merged,
        via_sink,
        "exact sink diverged from run_trace()"
    );
    check_golden("engine_metrics.json", &render_engine_metrics(&via_sink));
}

#[test]
fn golden_fleet_knees() {
    // The PR 3 fleet layer: attainment vs offered rate for 1- and
    // 2-replica fleets of the case-1 best-QPS/chip schedule, plus the
    // sustained-throughput knee of each sweep.
    let rago = Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        ClusterSpec::paper_default(),
    );
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("static search succeeds");
    let best = frontier.max_qps_per_chip().expect("non-empty frontier");
    let static_qps = best.performance.qps;
    let slo = SloTarget::paper_default();
    let profile = SequenceProfile::paper_default().with_decode_tokens(32);
    let duration_s = 3.0;
    let fractions = [0.5, 1.0, 1.5, 2.0];

    let mut out = String::from("{\n  \"bench\": \"golden/fleet_knees\",\n");
    let _ = writeln!(out, "  \"schedule\": \"{}\",", best.schedule.describe());
    let _ = writeln!(out, "  \"static_qps\": {},", f(static_qps));
    out.push_str("  \"series\": [\n");
    let mut series_rows = Vec::new();
    for replicas in [1u32, 2] {
        let fleet = FleetConfig::new(replicas, RouterPolicy::LeastOutstanding);
        let mut points = Vec::new();
        for frac in fractions {
            let rate = frac * static_qps;
            let trace = TraceSpec {
                num_requests: (rate * duration_s).ceil().max(1.0) as usize,
                profile,
                arrival: ArrivalProcess::Poisson { rate_rps: rate },
                length_jitter: 0.2,
                seed: 17,
            }
            .generate();
            let eval = evaluate_fleet_dynamic_with(
                rago.profiler(),
                &best.schedule,
                &fleet,
                &trace,
                &slo,
                &MetricsMode::Exact,
            )
            .expect("fleet evaluation succeeds");
            points.push((rate, eval.attainment));
        }
        let knee = sustained_throughput_knee(&points, &slo);
        let point_rows: Vec<String> = points
            .iter()
            .map(|(rate, att)| {
                format!(
                    "        {{\"rate_rps\": {}, \"attainment\": {}}}",
                    f(*rate),
                    f(*att)
                )
            })
            .collect();
        series_rows.push(format!(
            "    {{\"replicas\": {replicas}, \"knee_rps\": {}, \"points\": [\n{}\n    ]}}",
            knee.map(f).unwrap_or_else(|| "null".into()),
            point_rows.join(",\n"),
        ));
    }
    out.push_str(&series_rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    check_golden("fleet_knees.json", &out);
}

#[test]
fn golden_timevarying() {
    // The time-varying path: a two-tenant diurnal trace through a faultless
    // `evaluate_fleet_faulted`, statically provisioned and autoscaled.
    let rago = Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        ClusterSpec::paper_default(),
    );
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("static search succeeds");
    let best = frontier.max_qps_per_chip().expect("non-empty frontier");
    let mix = WorkloadMix::new(vec![
        RequestClass::new(
            "chat",
            3.0,
            SequenceProfile::paper_default().with_decode_tokens(32),
            0.1,
            SloTarget::new(2.0, 0.05),
        ),
        RequestClass::new(
            "report",
            1.0,
            SequenceProfile::paper_default().with_decode_tokens(128),
            0.1,
            SloTarget::new(10.0, 0.2),
        ),
    ]);
    let qps = best.performance.qps;
    let trace = MixTraceSpec {
        num_requests: 400,
        mix: mix.clone(),
        arrival: ArrivalProcess::Diurnal {
            base_rps: 0.3 * qps,
            peak_rps: 2.0 * qps,
            period_s: 16.0,
        },
        seed: 29,
    }
    .generate();
    let policy = AutoscalerPolicy::new(1, 3)
        .with_evaluation_interval(0.25)
        .with_scale_out_queue_depth(2.0)
        .with_scale_in_outstanding(10.0)
        .with_cooldown(1.0)
        .with_warmup(0.5);

    let mut out = String::from("{\n  \"bench\": \"golden/timevarying\",\n");
    let _ = writeln!(out, "  \"schedule\": \"{}\",", best.schedule.describe());
    let mut variant_rows = Vec::new();
    for (name, driver) in [
        ("static", ScaleDriver::Static { replicas: 3 }),
        ("autoscaled", ScaleDriver::Reactive(policy)),
    ] {
        let elastic = matches!(driver, ScaleDriver::Reactive(_));
        let eval = rago
            .evaluate_fleet_faulted(
                &best.schedule,
                RouterPolicy::LeastOutstanding,
                &mix,
                &trace,
                &FaultScenario::new(driver),
            )
            .expect("time-varying evaluation succeeds");
        let class_rows: Vec<String> = eval
            .per_class
            .iter()
            .map(|c| {
                format!(
                    "        {{\"class\": {}, \"name\": \"{}\", \"requests\": {}, \
                     \"attainment\": {}, \"goodput_rps\": {}, \"meets_slo\": {}}}",
                    c.class,
                    c.name,
                    c.offered,
                    f(c.attainment),
                    f(c.goodput_rps),
                    c.meets_slo,
                )
            })
            .collect();
        let chaos = &eval.chaos;
        let scaling = if elastic {
            format!(
                "{{\"peak_provisioned\": {}, \"min_provisioned\": {}, \
                 \"mean_provisioned\": {}, \"events\": {}}}",
                chaos.peak_provisioned,
                chaos.min_provisioned,
                f(chaos.mean_provisioned()),
                chaos.events.len(),
            )
        } else {
            "null".to_string()
        };
        variant_rows.push(format!(
            "    {{\"variant\": \"{name}\", \"attainment\": {}, \"goodput_rps\": {}, \
             \"meets_slo\": {}, \"replica_seconds\": {}, \"chip_seconds\": {}, \
             \"scaling\": {scaling}, \"per_class\": [\n{}\n    ]}}",
            f(eval.attainment),
            f(eval.goodput_rps),
            eval.meets_slo,
            f(chaos.replica_seconds),
            f(eval.chip_seconds),
            class_rows.join(",\n"),
        ));
    }
    out.push_str("  \"variants\": [\n");
    out.push_str(&variant_rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    check_golden("timevarying.json", &out);
}

#[test]
fn golden_cache_run() {
    // The cache subsystem end to end: a seeded Zipfian content-tagged trace
    // through `Rago::evaluate_dynamic` with a cache, every counter pinned.
    let rago = Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        ClusterSpec::paper_default(),
    );
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("static search succeeds");
    let best = frontier.max_qps_per_chip().expect("non-empty frontier");
    let content = ContentSpec {
        prefixes: PopularityModel::zipf(12, 1.0),
        shared_prefix_fraction: 0.8,
        docs: PopularityModel::zipf(48, 1.0),
        seed: 37,
    };
    let trace = content.tag(
        &TraceSpec {
            num_requests: 300,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson {
                rate_rps: 1.5 * best.performance.qps,
            },
            length_jitter: 0.2,
            seed: 7,
        }
        .generate(),
    );
    let cache = CacheConfig {
        prefix: Some(PrefixKvCacheConfig::new(
            6 * u64::from(SequenceProfile::paper_default().prefix_tokens()),
            EvictionPolicy::Lru,
        )),
        retrieval: Some(RetrievalCacheConfig::new(48, EvictionPolicy::Lru)),
    };
    let slo = SloTarget::new(1.0, 0.1);
    let eval = rago
        .evaluate_dynamic(&best.schedule, &trace, &slo, Some(&cache))
        .expect("cached evaluation succeeds");
    let counters = |c: &rago::cache::CacheCounters| {
        format!(
            "{{\"lookups\": {}, \"hits\": {}, \"insertions\": {}, \"evictions\": {}, \
             \"tokens_saved\": {}, \"hit_rate\": {}}}",
            c.lookups,
            c.hits,
            c.insertions,
            c.evictions,
            c.tokens_saved,
            f(c.hit_rate()),
        )
    };
    let usage = &eval.report.cache;
    let mut out = String::from("{\n  \"bench\": \"golden/cache_run\",\n");
    let _ = writeln!(out, "  \"schedule\": \"{}\",", best.schedule.describe());
    let _ = writeln!(out, "  \"attainment\": {},", f(eval.attainment));
    let _ = writeln!(out, "  \"goodput_rps\": {},", f(eval.goodput_rps));
    let _ = writeln!(
        out,
        "  \"ttft_mean_s\": {},",
        f(eval.report.metrics.ttft.mean_s)
    );
    let _ = writeln!(
        out,
        "  \"ttft_p95_s\": {},",
        f(eval.report.metrics.ttft.p95_s)
    );
    let _ = writeln!(out, "  \"prefix\": {},", counters(&usage.prefix));
    let _ = writeln!(out, "  \"retrieval\": {},", counters(&usage.retrieval));
    let class_rows: Vec<String> = usage
        .per_class
        .iter()
        .map(|c| {
            format!(
                "    {{\"class\": {}, \"prefix\": {}, \"retrieval\": {}}}",
                c.class,
                counters(&c.prefix),
                counters(&c.retrieval)
            )
        })
        .collect();
    out.push_str("  \"per_class\": [\n");
    out.push_str(&class_rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    check_golden("cache_run.json", &out);
}

#[test]
fn golden_paper_claims() {
    // The characterization scalars behind `tests/paper_claims.rs`, pinned
    // as numbers: retrieval share vs scan fraction (Figure 7b) and encoder
    // share vs corpus size (Figure 8b).
    use rago::core::{breakdown, StageProfiler};
    let cluster = ClusterSpec::paper_default();
    let mut out = String::from("{\n  \"bench\": \"golden/paper_claims\",\n");

    out.push_str("  \"retrieval_share_by_scan_fraction\": {\n");
    let mut rows = Vec::new();
    for scan in [0.0001, 0.001, 0.01] {
        let mut schema = presets::case1_hyperscale(LlmSize::B8, 1);
        schema.retrieval = schema.retrieval.map(|r| r.with_scan_fraction(scan));
        let profiler = StageProfiler::new(schema, cluster.clone());
        let b = breakdown::stage_breakdown(&profiler, &[8, 16, 32, 64], &[1, 16, 64]).unwrap();
        rows.push(format!(
            "    \"{scan}\": {}",
            f(breakdown::share_of(&b, Stage::Retrieval))
        ));
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  },\n");

    out.push_str("  \"encode_share_by_corpus_tokens\": {\n");
    let mut rows = Vec::new();
    for ctx in [100_000u64, 1_000_000, 10_000_000] {
        let profiler = StageProfiler::new(
            presets::case2_long_context(LlmSize::B70, ctx),
            cluster.clone(),
        );
        let b = breakdown::stage_breakdown(&profiler, &[8, 16, 32, 64], &[1, 16, 64]).unwrap();
        rows.push(format!(
            "    \"{ctx}\": {}",
            f(breakdown::share_of(&b, Stage::DatabaseEncode))
        ));
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  }\n}\n");
    check_golden("paper_claims.json", &out);
}

/// Renders the fault-facing surface of a chaos run: the fault ledger,
/// merged fleet metrics, per-class shed counts, replica lifetimes, and the
/// windowed recovery picture.
fn render_chaos(name: &str, report: &ChaosReport, slo: &SloTarget, window_s: f64) -> String {
    let m = &report.fleet.merged.metrics;
    let fault = &report.fault;
    let mut out = format!("{{\n  \"bench\": \"golden/{name}\",\n");
    let _ = writeln!(
        out,
        "  \"fault\": {{\"injected\": {}, \"completed\": {}, \"shed\": {}, \"failed\": {}, \
         \"retried\": {}, \"applied\": {}, \"skipped\": {}}},",
        fault.injected,
        fault.completed,
        fault.shed,
        fault.failed,
        fault.retried,
        fault.faults_applied,
        fault.faults_skipped,
    );
    let disruption_rows: Vec<String> = fault
        .disruptions
        .iter()
        .map(|d| {
            format!(
                "    {{\"time_s\": {}, \"replica\": {}, \"kind\": \"{:?}\"}}",
                f(d.time_s),
                d.replica,
                d.kind
            )
        })
        .collect();
    out.push_str("  \"disruptions\": [\n");
    out.push_str(&disruption_rows.join(",\n"));
    out.push_str("\n  ],\n");
    let _ = writeln!(out, "  \"makespan_s\": {},", f(m.makespan_s));
    let _ = writeln!(
        out,
        "  \"ttft\": {{\"mean_s\": {}, \"p99_s\": {}, \"max_s\": {}}},",
        f(m.ttft.mean_s),
        f(m.ttft.p99_s),
        f(m.ttft.max_s)
    );
    let _ = writeln!(
        out,
        "  \"latency\": {{\"mean_s\": {}, \"p99_s\": {}, \"max_s\": {}}},",
        f(m.latency.mean_s),
        f(m.latency.p99_s),
        f(m.latency.max_s)
    );
    let _ = writeln!(
        out,
        "  \"offered_attainment\": {},",
        f(report.offered_attainment(slo))
    );
    let class_rows: Vec<String> = report
        .fleet
        .merged
        .per_class
        .iter()
        .map(|c| {
            format!(
                "    {{\"class\": {}, \"completed\": {}, \"shed\": {}, \"latency_p99_s\": {}}}",
                c.class,
                c.metrics.completed,
                c.metrics.shed,
                f(c.metrics.latency.p99_s)
            )
        })
        .collect();
    out.push_str("  \"per_class\": [\n");
    out.push_str(&class_rows.join(",\n"));
    out.push_str("\n  ],\n");
    let lifetime_rows: Vec<String> = report
        .lifetimes
        .iter()
        .map(|l| {
            format!(
                "    {{\"replica\": {}, \"provisioned_s\": {}, \"routable_s\": {}, \
                 \"decommissioned_s\": {}, \"retired_s\": {}, \"assigned\": {}}}",
                l.replica,
                f(l.provisioned_s),
                f(l.routable_s),
                l.decommissioned_s.map_or_else(|| "null".to_string(), f),
                f(l.retired_s),
                l.assigned
            )
        })
        .collect();
    out.push_str("  \"lifetimes\": [\n");
    out.push_str(&lifetime_rows.join(",\n"));
    out.push_str("\n  ],\n");
    let _ = writeln!(out, "  \"replica_seconds\": {},", f(report.replica_seconds));
    let recovery_rows: Vec<String> = report
        .recovery(slo, window_s)
        .iter()
        .map(|r| {
            format!(
                "    {{\"fault_s\": {}, \"replica\": {}, \"reattainment_s\": {}, \"dip_area\": {}}}",
                f(r.fault_s),
                r.replica,
                r.reattainment_s.map_or_else(|| "null".to_string(), f),
                f(r.dip_area)
            )
        })
        .collect();
    out.push_str("  \"recovery\": [\n");
    out.push_str(&recovery_rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[test]
fn golden_fault_crash() {
    // The PR 7 fault path: the engine-metrics pipeline as a two-replica
    // fleet losing replica 0 mid-run, in-flight work re-queued, replacement
    // provisioned cold after half a second.
    let faults = FaultSchedule::new(vec![FaultEvent::Crash {
        replica: 0,
        at_s: 1.0,
        restart_delay_s: 0.5,
    }]);
    let report = FleetEngine::new(
        engine_metrics_spec(),
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Static { replicas: 2 },
    )
    .with_faults(faults)
    .run_trace(&engine_metrics_trace());
    let slo = SloTarget::paper_default();
    check_golden(
        "fault_crash.json",
        &render_chaos("fault_crash", &report, &slo, 0.5),
    );
}

#[test]
fn golden_fault_straggler() {
    // A straggler window: replica 0 runs 6x slow from t=0.5 to t=2.5, then
    // recovers. Round-robin routing keeps sending it work, so the window
    // shows up in the tail latencies.
    let faults = FaultSchedule::new(vec![
        FaultEvent::StragglerStart {
            replica: 0,
            at_s: 0.5,
            slowdown: 6.0,
        },
        FaultEvent::StragglerEnd {
            replica: 0,
            at_s: 2.5,
        },
    ]);
    let report = FleetEngine::new(
        engine_metrics_spec(),
        RouterPolicy::RoundRobin,
        ScaleDriver::Static { replicas: 2 },
    )
    .with_faults(faults)
    .run_trace(&engine_metrics_trace());
    let slo = SloTarget::paper_default();
    check_golden(
        "fault_straggler.json",
        &render_chaos("fault_straggler", &report, &slo, 0.5),
    );
}

#[test]
fn golden_admission_shed() {
    // Priority-aware load shedding: a two-class overload against one
    // replica, the chat class holding a priority-2 admission threshold.
    let mix = WorkloadMix::new(vec![
        RequestClass::new(
            "batch",
            1.0,
            SequenceProfile::paper_default().with_decode_tokens(64),
            0.1,
            SloTarget::new(10.0, 0.2),
        ),
        RequestClass::new(
            "chat",
            2.0,
            SequenceProfile::paper_default().with_decode_tokens(32),
            0.1,
            SloTarget::new(2.0, 0.05),
        )
        .with_priority(2),
    ]);
    let trace = MixTraceSpec {
        num_requests: 300,
        mix,
        arrival: ArrivalProcess::Poisson { rate_rps: 120.0 },
        seed: 17,
    }
    .generate();
    let admission = AdmissionConfig::new(8.0, 16.0).with_class_priority(1, 2);
    let report = FleetEngine::new(
        engine_metrics_spec(),
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Static { replicas: 1 },
    )
    .with_admission(admission)
    .run_trace(&trace);
    let slo = SloTarget::new(2.0, 0.05);
    check_golden(
        "admission_shed.json",
        &render_chaos("admission_shed", &report, &slo, 0.5),
    );
}

/// One line of streaming-report metrics: counts, the three latency
/// distributions, and the accumulator-derived pipeline fields.
fn render_streamed_metrics(m: &rago::serving_sim::ServingMetrics) -> String {
    let stats = |s: &rago::serving_sim::LatencyStats| {
        format!(
            "{{\"mean_s\": {}, \"p50_s\": {}, \"p95_s\": {}, \"p99_s\": {}, \"max_s\": {}}}",
            f(s.mean_s),
            f(s.p50_s),
            f(s.p95_s),
            f(s.p99_s),
            f(s.max_s)
        )
    };
    format!(
        "{{\"requests\": {}, \"completed\": {}, \"makespan_s\": {}, \"serving_duration_s\": {}, \
         \"throughput_rps\": {}, \"ttft\": {}, \"tpot\": {}, \"latency\": {}, \
         \"queueing_mean_s\": {}, \"service_mean_s\": {}, \"mean_decode_fill\": {}, \
         \"events_processed\": {}}}",
        m.requests,
        m.completed,
        f(m.makespan_s),
        f(m.serving_duration_s),
        f(m.throughput_rps),
        stats(&m.ttft),
        stats(&m.tpot),
        stats(&m.latency),
        f(m.queueing_mean_s),
        f(m.service_mean_s),
        f(m.mean_decode_fill),
        m.events_processed,
    )
}

/// Renders a streaming fleet run: merged metrics and online SLO scores,
/// every replica's metrics, and the router's load imbalance.
fn render_streamed_fleet(fleet: &rago::serving_sim::FleetReport, slo: &SloTarget) -> String {
    let replica_rows: Vec<String> = fleet
        .per_replica
        .iter()
        .map(|r| {
            format!(
                "        {{\"replica\": {}, \"assigned\": {}, \"metrics\": {}}}",
                r.replica,
                r.assigned,
                render_streamed_metrics(&r.metrics)
            )
        })
        .collect();
    let im = &fleet.imbalance;
    format!(
        "\"merged\": {}, \"attainment\": {}, \"goodput_rps\": {}, \"assignments\": {},\n      \
         \"imbalance\": {{\"assigned_per_replica\": {:?}, \"min_assigned\": {}, \
         \"max_assigned\": {}, \"mean_assigned\": {}, \"cv\": {}, \"max_over_mean\": {}}},\n      \
         \"per_replica\": [\n{}\n      ]",
        render_streamed_metrics(&fleet.merged.metrics),
        f(fleet.attainment(slo)),
        f(fleet.goodput_rps(slo)),
        fleet.assignments.len(),
        im.assigned_per_replica,
        im.min_assigned,
        im.max_assigned,
        f(im.mean_assigned),
        f(im.coefficient_of_variation),
        f(im.max_over_mean),
        replica_rows.join(",\n"),
    )
}

#[test]
fn golden_fleet_streaming() {
    // The streaming fleet path: the engine-metrics pipeline as a fixed
    // 4-replica least-outstanding fleet and as a reactive autoscaled fleet
    // under a flash crowd, both draining every replica into a histogram
    // sink merged in replica order. The TTFT target sits inside both runs'
    // distributions, so the online SLO counts are not trivially complete.
    let slo = SloTarget::new(0.08, 0.05);
    let mode = MetricsMode::Streaming(
        rago::serving_sim::StreamingConfig::new(rago::schema::HistogramSpec::default())
            .with_slo(slo),
    );
    let poisson = TraceSpec {
        num_requests: 2_000,
        profile: SequenceProfile::paper_default().with_decode_tokens(32),
        arrival: ArrivalProcess::Poisson { rate_rps: 300.0 },
        length_jitter: 0.2,
        seed: 41,
    }
    .generate();
    let fixed = FleetEngine::new(
        engine_metrics_spec(),
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Static { replicas: 4 },
    )
    .run(arrivals(&poisson), &mode, &mut NullRecorder)
    .fleet;

    let spike = TraceSpec {
        num_requests: 1_500,
        profile: SequenceProfile::paper_default().with_decode_tokens(32),
        arrival: ArrivalProcess::Spike {
            base_rps: 40.0,
            spike_rps: 250.0,
            start_s: 3.0,
            duration_s: 3.0,
        },
        length_jitter: 0.2,
        seed: 43,
    }
    .generate();
    let policy = AutoscalerPolicy::new(1, 4)
        .with_evaluation_interval(0.25)
        .with_scale_out_queue_depth(2.0)
        .with_scale_in_outstanding(1.0)
        .with_cooldown(1.0)
        .with_warmup(0.5);
    let scaled = FleetEngine::new(
        engine_metrics_spec(),
        RouterPolicy::LeastOutstanding,
        ScaleDriver::Reactive(policy),
    )
    .run(arrivals(&spike), &mode, &mut NullRecorder);

    let mut out = String::from("{\n  \"bench\": \"golden/fleet_streaming\",\n  \"runs\": [\n");
    let _ = writeln!(
        out,
        "    {{\"run\": \"fixed_4_least_outstanding\", {}}},",
        render_streamed_fleet(&fixed, &slo)
    );
    let _ = writeln!(
        out,
        "    {{\"run\": \"reactive_1_to_4\", \"scaling\": {{\"peak_provisioned\": {}, \
         \"min_provisioned\": {}, \"events\": {}, \"replica_seconds\": {}}},\n      {}}}",
        scaled.peak_provisioned,
        scaled.min_provisioned,
        scaled.events.len(),
        f(scaled.replica_seconds),
        render_streamed_fleet(&scaled.fleet, &slo)
    );
    out.push_str("  ]\n}\n");
    check_golden("fleet_streaming.json", &out);
}

/// The degenerate pin: a one-replica chaos fleet with an empty fault
/// schedule, no admission control, and a static driver must reproduce the
/// committed `engine_metrics.json` golden **byte for byte** — the chaos
/// engine with everything turned off is the PR 2 engine.
#[test]
fn golden_chaos_degenerate_reproduces_engine_metrics() {
    let report = FleetEngine::new(
        engine_metrics_spec(),
        RouterPolicy::RoundRobin,
        ScaleDriver::Static { replicas: 1 },
    )
    .run_trace(&engine_metrics_trace());
    assert_eq!(report.fault.shed, 0);
    assert_eq!(report.fault.failed, 0);
    check_golden(
        "engine_metrics.json",
        &render_engine_metrics(&report.fleet.merged),
    );
}

/// Renders one pool's side of a disaggregated run: router, load imbalance,
/// and the per-replica dispatch/completion counts.
fn render_pool(pool: &PoolReport) -> String {
    let replica_rows: Vec<String> = pool
        .per_replica
        .iter()
        .map(|r| {
            format!(
                "      {{\"replica\": {}, \"assigned\": {}, \"completed\": {}, \
                 \"makespan_s\": {}}}",
                r.replica,
                r.assigned,
                r.metrics.completed,
                f(r.metrics.makespan_s),
            )
        })
        .collect();
    format!(
        "{{\"role\": \"{:?}\", \"router\": \"{:?}\", \
         \"imbalance\": {{\"min_assigned\": {}, \"max_assigned\": {}, \"cv\": {}, \
         \"max_over_mean\": {}}}, \"per_replica\": [\n{}\n    ]}}",
        pool.role,
        pool.router,
        pool.imbalance.min_assigned,
        pool.imbalance.max_assigned,
        f(pool.imbalance.coefficient_of_variation),
        f(pool.imbalance.max_over_mean),
        replica_rows.join(",\n"),
    )
}

#[test]
fn golden_disagg_run() {
    // The PR 8 disaggregated pools: the engine-metrics pipeline cut at the
    // decode boundary into a 2-prefill + 1-decode split, the KV handoff
    // priced at 128 KiB/token over a 100 GB/s link with 5 us of fixed
    // overhead, under the same seeded Poisson trace as the flat golden.
    let full = engine_metrics_spec();
    let decode_spec = PipelineSpec::decode_only(full.decode.clone(), None);
    let transfer = KvTransferModel::new(131_072.0, 100e9, 5e-6);
    let decode = PoolSpec::new(1, RouterPolicy::LeastOutstanding);
    let engine = FleetEngine::disaggregated(
        full,
        decode_spec,
        PoolSpec::new(2, RouterPolicy::LeastOutstanding),
        decode,
        transfer,
    );
    let report = DisaggReport::from_chaos(
        engine.run_trace(&engine_metrics_trace()),
        decode.router,
        transfer,
    );

    let m = &report.merged.metrics;
    let slo = SloTarget::paper_default();
    let t = &report.transfers;
    let mut out = String::from("{\n  \"bench\": \"golden/disagg_run\",\n");
    let _ = writeln!(out, "  \"requests\": {},", m.requests);
    let _ = writeln!(out, "  \"makespan_s\": {},", f(m.makespan_s));
    let _ = writeln!(out, "  \"throughput_rps\": {},", f(m.throughput_rps));
    let _ = writeln!(
        out,
        "  \"ttft\": {{\"mean_s\": {}, \"p50_s\": {}, \"p95_s\": {}, \"p99_s\": {}, \"max_s\": {}}},",
        f(m.ttft.mean_s), f(m.ttft.p50_s), f(m.ttft.p95_s), f(m.ttft.p99_s), f(m.ttft.max_s)
    );
    let _ = writeln!(
        out,
        "  \"tpot\": {{\"mean_s\": {}, \"p50_s\": {}, \"p95_s\": {}, \"p99_s\": {}, \"max_s\": {}}},",
        f(m.tpot.mean_s), f(m.tpot.p50_s), f(m.tpot.p95_s), f(m.tpot.p99_s), f(m.tpot.max_s)
    );
    let _ = writeln!(
        out,
        "  \"latency\": {{\"mean_s\": {}, \"p50_s\": {}, \"p95_s\": {}, \"p99_s\": {}, \"max_s\": {}}},",
        f(m.latency.mean_s), f(m.latency.p50_s), f(m.latency.p95_s), f(m.latency.p99_s),
        f(m.latency.max_s)
    );
    let _ = writeln!(out, "  \"queueing_mean_s\": {},", f(m.queueing_mean_s));
    let _ = writeln!(out, "  \"service_mean_s\": {},", f(m.service_mean_s));
    let _ = writeln!(out, "  \"mean_decode_fill\": {},", f(m.mean_decode_fill));
    let _ = writeln!(
        out,
        "  \"attainment\": {},",
        f(report.merged.attainment(&slo))
    );
    let _ = writeln!(
        out,
        "  \"goodput_rps\": {},",
        f(report.merged.goodput_rps(&slo))
    );
    let _ = writeln!(
        out,
        "  \"transfers\": {{\"transfers\": {}, \"bytes_total\": {}, \"latency_total_s\": {}, \
         \"latency_max_s\": {}, \"requeued_prefill\": {}, \"requeued_decode\": {}}},",
        t.transfers,
        f(t.bytes_total),
        f(t.latency_total_s),
        f(t.latency_max_s),
        t.requeued_prefill,
        t.requeued_decode,
    );
    let _ = writeln!(out, "  \"prefill\": {},", render_pool(&report.prefill));
    let _ = writeln!(out, "  \"decode\": {}", render_pool(&report.decode));
    out.push_str("}\n");
    check_golden("disagg_run.json", &out);
}

/// `f64` as its IEEE-754 bit pattern, for bit-exact pins.
fn bits(value: f64) -> String {
    format!("\"{:016x}\"", value.to_bits())
}

#[test]
fn golden_iterative_decode() {
    // The decode-stall simulator over its corner cases: a batch of one,
    // odd batches, iterative batches above the decode batch, no retrievals,
    // one- and two-token generations, and retrieval latencies of zero,
    // under one step, and far above one step. Then the Case III search that
    // scores every candidate with it.
    use rago::serving_sim::iterative::{simulate, IterativeDecodeParams};
    let step_latency_s = 1e-3;
    let latencies = [("zero", 0.0), ("under_step", 4e-4), ("over_step", 0.05)];
    let mut rows = Vec::new();
    for decode_batch in [1u32, 2, 7, 64, 1024] {
        for iterative_batch in [1u32, 4, 64, 2048] {
            for retrievals in [0u32, 1, 3, 8] {
                for decode_len in [1u32, 2, 256] {
                    for (latency_name, latency) in latencies {
                        for seed in [7u64, 0x5EED] {
                            let r = simulate(IterativeDecodeParams {
                                decode_batch,
                                iterative_batch,
                                decode_len,
                                retrievals_per_sequence: retrievals,
                                step_latency_s,
                                retrieval_prefix_latency_s: latency,
                                seed,
                            });
                            rows.push(format!(
                                "    [{decode_batch}, {iterative_batch}, {retrievals}, \
                                 {decode_len}, \"{latency_name}\", {seed}, {}, {}, {}, {}, {}, \
                                 {}]",
                                bits(r.total_time_s),
                                bits(r.tpot_mean_s),
                                bits(r.tpot_worst_s),
                                bits(r.normalized_decode_latency),
                                r.retrieval_batches,
                                bits(r.mean_retrieval_batch_fill),
                            ));
                        }
                    }
                }
            }
        }
    }

    let rago = Rago::new(
        presets::case3_iterative(LlmSize::B8, 4),
        ClusterSpec::paper_default(),
    );
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("static search succeeds");
    let points: Vec<String> = frontier
        .iter()
        .map(|p| {
            let perf = &p.performance;
            format!(
                "    {{\"schedule\": \"{}\", \"ttft_s\": {}, \"tpot_s\": {}, \"qps\": {}, \
                 \"qps_per_chip\": {}, \"total_xpus\": {}, \"retrieval_servers\": {}}}",
                p.schedule.identity_key(),
                bits(perf.ttft_s),
                bits(perf.tpot_s),
                bits(perf.qps),
                bits(perf.qps_per_chip),
                perf.total_xpus,
                perf.retrieval_servers,
            )
        })
        .collect();

    let mut out = String::from("{\n  \"bench\": \"golden/iterative_decode\",\n");
    let _ = writeln!(out, "  \"step_latency_s\": {},", bits(step_latency_s));
    out.push_str(
        "  \"columns\": [\"decode_batch\", \"iterative_batch\", \"retrievals\", \
         \"decode_len\", \"latency\", \"seed\", \"total_time_s\", \"tpot_mean_s\", \
         \"tpot_worst_s\", \"normalized_decode_latency\", \"retrieval_batches\", \
         \"mean_retrieval_batch_fill\"],\n",
    );
    out.push_str("  \"simulations\": [\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    let _ = writeln!(
        out,
        "  \"case3_fast_evaluated_schedules\": {},",
        frontier.evaluated_schedules
    );
    out.push_str("  \"case3_fast_frontier\": [\n");
    out.push_str(&points.join(",\n"));
    out.push_str("\n  ]\n}\n");
    check_golden("iterative_decode.json", &out);
}
