//! Serving study: for two paper case-study workloads, drive Poisson and
//! burst request streams through the best static schedule and report
//! TTFT/TPOT percentiles, SLO attainment, and the sustained-throughput knee
//! as JSON.
//!
//! Run with: `cargo run --release -p rago-bench --bin study_serving`

use rago_core::{Rago, SearchOptions};
use rago_schema::presets::{self, LlmSize};
use rago_schema::{RagSchema, SequenceProfile, SloTarget};
use rago_serving_sim::engine::sustained_throughput_knee;
use rago_workloads::{ArrivalProcess, TraceSpec};

/// Requests in every trace of the study.
const NUM_REQUESTS: usize = 600;

/// One rate point of a Poisson sweep.
struct RatePoint {
    rate_rps: f64,
    attainment: f64,
    goodput_rps: f64,
    ttft_p50_s: f64,
    ttft_p95_s: f64,
    ttft_p99_s: f64,
    tpot_p50_s: f64,
    tpot_p95_s: f64,
    tpot_p99_s: f64,
}

fn fmt_rate_point(p: &RatePoint) -> String {
    format!(
        "        {{\"rate_rps\": {:.3}, \"attainment\": {:.4}, \"goodput_rps\": {:.3}, \
         \"ttft_p50_s\": {:.6}, \"ttft_p95_s\": {:.6}, \"ttft_p99_s\": {:.6}, \
         \"tpot_p50_s\": {:.6}, \"tpot_p95_s\": {:.6}, \"tpot_p99_s\": {:.6}}}",
        p.rate_rps,
        p.attainment,
        p.goodput_rps,
        p.ttft_p50_s,
        p.ttft_p95_s,
        p.ttft_p99_s,
        p.tpot_p50_s,
        p.tpot_p95_s,
        p.tpot_p99_s,
    )
}

/// Runs one workload's study and renders its JSON object.
fn workload_entry(name: &str, schema: RagSchema, slo: &SloTarget) -> String {
    let rago = Rago::new(schema, rago_bench::default_cluster());
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("static search succeeds");
    let best = frontier
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();
    let static_qps = best.performance.qps.max(1e-9);
    let profile = SequenceProfile::paper_default().with_decode_tokens(64);

    // Poisson sweep: offered load as fractions of the static steady-state
    // QPS, bracketing the knee.
    let mut points = Vec::new();
    for f in [0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0] {
        let rate = f * static_qps;
        let trace = TraceSpec {
            num_requests: NUM_REQUESTS,
            profile,
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            length_jitter: 0.2,
            seed: 17,
        }
        .generate();
        let eval = rago
            .evaluate_dynamic(&best.schedule, &trace, slo, None)
            .expect("dynamic evaluation succeeds");
        let m = &eval.report.metrics;
        points.push(RatePoint {
            rate_rps: rate,
            attainment: eval.attainment,
            goodput_rps: eval.goodput_rps,
            ttft_p50_s: m.ttft.p50_s,
            ttft_p95_s: m.ttft.p95_s,
            ttft_p99_s: m.ttft.p99_s,
            tpot_p50_s: m.tpot.p50_s,
            tpot_p95_s: m.tpot.p95_s,
            tpot_p99_s: m.tpot.p99_s,
        });
    }
    let knee = sustained_throughput_knee(
        &points
            .iter()
            .map(|p| (p.rate_rps, p.attainment))
            .collect::<Vec<_>>(),
        slo,
    );

    // Burst arrivals: batches of requests landing together, the regime of
    // the paper's micro-batching study (Figure 19).
    let burst_size = 32u32;
    let period_s = f64::from(burst_size) / (0.5 * static_qps);
    let burst_trace = TraceSpec {
        num_requests: NUM_REQUESTS,
        profile,
        arrival: ArrivalProcess::Bursts {
            burst_size,
            period_s,
        },
        length_jitter: 0.2,
        seed: 17,
    }
    .generate();
    let burst_eval = rago
        .evaluate_dynamic(&best.schedule, &burst_trace, slo, None)
        .expect("dynamic evaluation succeeds");
    let bm = &burst_eval.report.metrics;

    format!(
        "    \"{name}\": {{\n      \"schedule\": \"{}\",\n      \"static_qps\": {:.3},\n      \
         \"static_ttft_s\": {:.6},\n      \"poisson\": {{\n        \"knee_rps\": {},\n        \"points\": [\n{}\n        ]\n      }},\n      \
         \"burst\": {{\"burst_size\": {burst_size}, \"period_s\": {:.4}, \"attainment\": {:.4}, \
         \"ttft_p50_s\": {:.6}, \"ttft_p95_s\": {:.6}, \"ttft_p99_s\": {:.6}, \
         \"tpot_p50_s\": {:.6}, \"tpot_p95_s\": {:.6}, \"tpot_p99_s\": {:.6}, \
         \"queueing_mean_s\": {:.6}, \"service_mean_s\": {:.6}}}\n    }}",
        best.schedule.describe(),
        static_qps,
        best.performance.ttft_s,
        knee.map(|k| format!("{k:.3}")).unwrap_or_else(|| "null".into()),
        points
            .iter()
            .map(fmt_rate_point)
            .collect::<Vec<_>>()
            .join(",\n"),
        period_s,
        burst_eval.attainment,
        bm.ttft.p50_s,
        bm.ttft.p95_s,
        bm.ttft.p99_s,
        bm.tpot.p50_s,
        bm.tpot.p95_s,
        bm.tpot.p99_s,
        bm.queueing_mean_s,
        bm.service_mean_s,
    )
}

/// Case I (hyperscale retrieval) and Case III (iterative retrieval) under
/// Poisson and burst arrivals.
fn main() {
    let slo = SloTarget::paper_default();
    let case1 = workload_entry(
        "case1_hyperscale_8b",
        presets::case1_hyperscale(LlmSize::B8, 1),
        &slo,
    );
    let case3 = workload_entry(
        "case3_iterative_8b",
        presets::case3_iterative(LlmSize::B8, 4),
        &slo,
    );
    print!(
        "{{\n  \"bench\": \"serving_engine/request_level\",\n  \"requests_per_run\": {NUM_REQUESTS},\n  \
         \"slo\": {{\"ttft_s\": {:.3}, \"tpot_s\": {:.3}, \"attainment\": {:.2}}},\n  \
         \"workloads\": {{\n{case1},\n{case3}\n  }}\n}}\n",
        slo.ttft_s, slo.tpot_s, slo.attainment,
    );
}
