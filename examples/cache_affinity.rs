//! Exploit popularity-skewed traffic with prefix-KV and retrieval-result
//! caching, and keep each template's KV state on one replica with
//! cache-affinity routing.
//!
//! The walkthrough:
//!
//! 1. search the Case I scheduling space and take the best QPS/chip
//!    schedule off the Pareto frontier;
//! 2. sample a Zipfian content model over a Poisson trace
//!    ([`ContentSpec`]): a dozen hot prompt templates (80 % of each
//!    prefix shared) and a few dozen hot retrieval keys;
//! 3. evaluate the schedule cache-off versus cache-on at the same offered
//!    rate (`evaluate_dynamic` with and without a cache): hits charge
//!    prefill only for the uncached suffix and skip retrieve + rerank
//!    outright;
//! 4. size the fleet for a rate one replica cannot hold cache-less
//!    (`plan_capacity` versus `plan_capacity_cached`) — the
//!    chips-per-goodput answer changes when caching is on;
//! 5. route the peak through a fleet under least-outstanding versus
//!    cache-affinity routing and compare live prefix hit rates.
//!
//! ```sh
//! cargo run --release --example cache_affinity
//! ```
//!
//! [`ContentSpec`]: rago::workloads::ContentSpec

use rago::cache::{CacheConfig, EvictionPolicy, PrefixKvCacheConfig, RetrievalCacheConfig};
use rago::core::{CapacityOptions, Rago, SearchOptions};
use rago::hardware::ClusterSpec;
use rago::schema::{presets, FleetConfig, RouterPolicy, SequenceProfile, SloTarget};
use rago::workloads::{ArrivalProcess, ContentSpec, PopularityModel, TraceSpec};

fn main() {
    let schema = presets::case1_hyperscale(presets::LlmSize::B8, 1);
    let rago = Rago::new(schema, ClusterSpec::paper_default());

    // Step 1: the schedule under test.
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("the fast grid has feasible schedules");
    let best = frontier
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();
    let static_qps = best.performance.qps;
    println!("schedule under test: {}", best.schedule.describe());
    println!("static model: QPS {static_qps:.1}\n");

    // Step 2: popularity-skewed content over a Poisson stream.
    let content = ContentSpec {
        prefixes: PopularityModel::zipf(12, 1.0),
        shared_prefix_fraction: 0.8,
        docs: PopularityModel::zipf(48, 1.0),
        seed: 37,
    };
    let profile = SequenceProfile::paper_default().with_decode_tokens(48);
    let rate = 1.6 * static_qps;
    let trace = content.tag(
        &TraceSpec {
            num_requests: (rate * 8.0) as usize,
            profile,
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            length_jitter: 0.1,
            seed: 7,
        }
        .generate(),
    );
    let cache = CacheConfig {
        prefix: Some(PrefixKvCacheConfig::new(
            6 * u64::from(profile.prefix_tokens()),
            EvictionPolicy::Lru,
        )),
        retrieval: Some(RetrievalCacheConfig::new(48, EvictionPolicy::Lru)),
    };
    println!(
        "trace: {} requests at {rate:.0} rps, 12 Zipf(1.0) templates, 48 Zipf(1.0) doc keys",
        trace.requests.len()
    );

    // Step 3: the same trace, cache-off vs cache-on.
    let slo = SloTarget::new(1.0, 0.1);
    let off = rago
        .evaluate_dynamic(&best.schedule, &trace, &slo, None)
        .expect("cache-off evaluation succeeds");
    let on = rago
        .evaluate_dynamic(&best.schedule, &trace, &slo, Some(&cache))
        .expect("cache-on evaluation succeeds");
    let usage = &on.report.cache;
    println!(
        "\n-- one replica at {:.1}x the static QPS --",
        rate / static_qps
    );
    println!(
        "cache-off: attainment {:5.1} %, goodput {:7.1} rps, mean TTFT {:6.3} s",
        100.0 * off.attainment,
        off.goodput_rps,
        off.report.metrics.ttft.mean_s
    );
    println!(
        "cache-on : attainment {:5.1} %, goodput {:7.1} rps, mean TTFT {:6.3} s",
        100.0 * on.attainment,
        on.goodput_rps,
        on.report.metrics.ttft.mean_s
    );
    println!(
        "           prefix hits {:.1} % ({} tokens saved), retrieval hits {:.1} %",
        100.0 * usage.prefix.hit_rate(),
        usage.prefix.tokens_saved,
        100.0 * usage.retrieval.hit_rate()
    );

    // Step 4: fleet sizing with and without caching.
    let peak = 2.0 * static_qps;
    let options = CapacityOptions {
        max_replicas: 6,
        num_requests: (peak * 6.0) as usize,
        profile,
        ..CapacityOptions::default()
    };
    let plan_off = rago
        .plan_capacity(&best.schedule, &slo, peak, &options)
        .expect("the peak is plannable");
    let plan_on = rago
        .plan_capacity_cached(&best.schedule, &slo, peak, &options, &cache, &content)
        .expect("the cached peak is plannable");
    println!("\n-- capacity plan at {peak:.0} rps --");
    println!(
        "cache-off: {} replicas = {} XPUs (attainment {:.1} %)",
        plan_off.replicas,
        plan_off.total_xpus,
        100.0 * plan_off.attainment
    );
    println!(
        "cache-on : {} replicas = {} XPUs (attainment {:.1} %, prefix hits {:.1} %)",
        plan_on.plan.replicas,
        plan_on.plan.total_xpus,
        100.0 * plan_on.plan.attainment,
        100.0 * plan_on.prefix_hit_rate
    );

    // Step 5: routing the peak — load-aware vs cache-aware, on a trace
    // generated at the same peak rate the capacity plan was sized for.
    let fleet_size = plan_off.replicas.max(2);
    let peak_trace = content.tag(
        &TraceSpec {
            num_requests: (peak * 8.0) as usize,
            profile,
            arrival: ArrivalProcess::Poisson { rate_rps: peak },
            length_jitter: 0.1,
            seed: 8,
        }
        .generate(),
    );
    println!("\n-- routing {fleet_size} replicas at the peak ({peak:.0} rps) --");
    for router in [
        RouterPolicy::LeastOutstanding,
        RouterPolicy::PrefixHash,
        RouterPolicy::CacheAffinity,
    ] {
        let eval = rago
            .evaluate_fleet_cached(
                &best.schedule,
                &FleetConfig::new(fleet_size, router),
                &peak_trace,
                &slo,
                &cache,
            )
            .expect("fleet evaluation succeeds");
        println!(
            "{:>20}: prefix hits {:5.1} %, attainment {:5.1} %, goodput {:7.1} rps",
            router.to_string(),
            100.0 * eval.report.merged.cache.prefix.hit_rate(),
            100.0 * eval.attainment,
            eval.goodput_rps
        );
    }
    println!("\ncache-affinity keeps each template's KV on one replica, so a fleet");
    println!("pays one cold miss per template instead of one per template per replica.");
}
