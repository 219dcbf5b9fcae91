//! Drive a live request stream through an optimized schedule.
//!
//! This example runs the full RAGO loop end to end:
//!
//! 1. search the scheduling space for the Case I (hyperscale retrieval)
//!    workload and take the best QPS/chip schedule off the Pareto frontier;
//! 2. generate a Poisson request trace around the paper's sequence profile;
//! 3. drive the trace through the request-level discrete-event engine
//!    (`evaluate_dynamic`) and print the TTFT/TPOT distributions, the
//!    queueing breakdown, and SLO attainment;
//! 4. sweep the offered load to locate the sustained-throughput knee.
//!
//! ```sh
//! cargo run --release --example request_stream
//! ```

use rago::core::{Rago, SearchOptions};
use rago::hardware::ClusterSpec;
use rago::schema::{presets, SequenceProfile, SloTarget};
use rago::serving_sim::engine::sustained_throughput_knee;
use rago::workloads::{ArrivalProcess, TraceSpec};

fn main() {
    let schema = presets::case1_hyperscale(presets::LlmSize::B8, 1);
    let rago = Rago::new(schema, ClusterSpec::paper_default());

    // Step 1: the static search (Algorithm 1).
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("the fast grid has feasible schedules");
    let best = frontier
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();
    println!("schedule under test: {}", best.schedule.describe());
    println!(
        "static model: TTFT {:.1} ms, TPOT {:.2} ms, QPS {:.1}",
        best.performance.ttft_s * 1e3,
        best.performance.tpot_s * 1e3,
        best.performance.qps
    );

    // Step 2: a Poisson request stream at 75 % of the static QPS.
    let slo = SloTarget::paper_default();
    let profile = SequenceProfile::paper_default().with_decode_tokens(64);
    let rate = 0.75 * best.performance.qps;
    let trace = TraceSpec {
        num_requests: 400,
        profile,
        arrival: ArrivalProcess::Poisson { rate_rps: rate },
        length_jitter: 0.2,
        seed: 7,
    }
    .generate();

    // Step 3: the dynamic evaluation.
    let eval = rago
        .evaluate_dynamic(&best.schedule, &trace, &slo, None)
        .expect("the schedule is feasible");
    let m = &eval.report.metrics;
    println!("\nunder {rate:.1} rps Poisson ({} requests):", m.requests);
    println!(
        "  TTFT  p50 {:.1} ms   p95 {:.1} ms   p99 {:.1} ms",
        m.ttft.p50_s * 1e3,
        m.ttft.p95_s * 1e3,
        m.ttft.p99_s * 1e3
    );
    println!(
        "  TPOT  p50 {:.2} ms   p95 {:.2} ms   p99 {:.2} ms",
        m.tpot.p50_s * 1e3,
        m.tpot.p95_s * 1e3,
        m.tpot.p99_s * 1e3
    );
    println!(
        "  queueing {:.1} ms vs service {:.1} ms (mean per request)",
        m.queueing_mean_s * 1e3,
        m.service_mean_s * 1e3
    );
    println!(
        "  SLO attainment {:.1} % (target {:.0} %), goodput {:.1} rps",
        eval.attainment * 100.0,
        slo.attainment * 100.0,
        eval.goodput_rps
    );

    // Step 4: sweep offered load for the sustained-throughput knee.
    println!("\nthroughput knee sweep:");
    let mut sweep = Vec::new();
    for fraction in [0.5, 1.0, 1.5, 2.0, 3.0] {
        let r = fraction * best.performance.qps;
        let t = TraceSpec {
            num_requests: 400,
            profile,
            arrival: ArrivalProcess::Poisson { rate_rps: r },
            length_jitter: 0.2,
            seed: 7,
        }
        .generate();
        let e = rago
            .evaluate_dynamic(&best.schedule, &t, &slo, None)
            .expect("the schedule is feasible");
        println!(
            "  {r:7.1} rps offered -> attainment {:5.1} %, goodput {:6.1} rps, TTFT p99 {:7.1} ms",
            e.attainment * 100.0,
            e.goodput_rps,
            e.report.metrics.ttft.p99_s * 1e3
        );
        sweep.push((r, e.attainment));
    }
    match sustained_throughput_knee(&sweep, &slo) {
        Some(knee) => println!("sustained-throughput knee: {knee:.1} rps"),
        None => println!("no swept rate meets the SLO"),
    }
}
