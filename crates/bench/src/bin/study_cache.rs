//! Cache-reuse study: the serving stack with prefix-KV and retrieval-result
//! caching versus the identical cache-less stack on a popularity-skewed
//! (Zipfian) two-tenant trace, printed as JSON.
//!
//! Three measurements, all on the same best-QPS/chip schedule:
//!
//! * **Knee sweep** — offered rate versus SLO attainment for one replica,
//!   cache-on versus cache-off, and the sustained-throughput knee of each
//!   sweep. Hits shed prefill and retrieval work, so the cached knee must
//!   be no lower — and is strictly higher whenever a cached stage is the
//!   bottleneck.
//! * **Capacity at the peak** — `plan_capacity` versus `plan_capacity_cached`
//!   at a rate above one replica's capacity: the DistServe-style
//!   equal-attainment-at-fewer-chips comparison (the cached plan also
//!   reports the hit rates it was sized under).
//! * **Routing** — a fleet at the same peak rate under cache-affinity,
//!   prefix-hash, and least-outstanding routing: affinity concentrates each
//!   template's KV state on one replica and must achieve at least the
//!   least-outstanding policy's prefix hit rate.
//!
//! Acceptance (asserted): the cached knee is **no lower** than the
//! cache-less knee, and caching **helps** — a strictly higher knee or a
//! strictly cheaper capacity plan.
//!
//! Run with: `cargo run --release -p rago-bench --bin study_cache`

use rago_cache::{CacheConfig, EvictionPolicy, PrefixKvCacheConfig, RetrievalCacheConfig};
use rago_core::{CapacityOptions, Rago, SearchOptions};
use rago_schema::presets::{self, LlmSize};
use rago_schema::{FleetConfig, RouterPolicy, SequenceProfile, SloTarget};
use rago_serving_sim::engine::sustained_throughput_knee;
use rago_workloads::{
    ArrivalProcess, ContentSpec, MixTraceSpec, PopularityModel, RequestClass, Trace, WorkloadMix,
};

/// The two-tenant mix of the `study_tenant` binary: an interactive chat tenant
/// (3× the traffic) and a long-form report tenant.
fn mix() -> WorkloadMix {
    WorkloadMix::new(vec![
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
    ])
}

fn content() -> ContentSpec {
    ContentSpec {
        prefixes: PopularityModel::zipf(12, 1.0),
        shared_prefix_fraction: 0.8,
        docs: PopularityModel::zipf(48, 1.0),
        seed: 37,
    }
}

/// A Zipfian two-tenant trace at `rate` rps over `duration_s` seconds.
fn trace_at(rate: f64, duration_s: f64, seed: u64) -> Trace {
    let spec = MixTraceSpec {
        num_requests: (rate * duration_s).ceil().max(8.0) as usize,
        mix: mix(),
        arrival: ArrivalProcess::Poisson { rate_rps: rate },
        seed,
    };
    content().tag(&spec.generate())
}

fn main() {
    let rago = Rago::new(
        presets::case1_hyperscale(LlmSize::B8, 1),
        rago_bench::default_cluster(),
    );
    let frontier = rago
        .optimize(&SearchOptions::fast())
        .expect("static search succeeds");
    let best = frontier
        .max_qps_per_chip()
        .expect("non-empty frontier")
        .clone();
    let static_qps = best.performance.qps.max(1e-9);
    let slo = SloTarget::new(1.0, 0.1);

    // Cache capacities sized to the content model: room for roughly half
    // the templates' KV state, and all hot retrieval keys.
    let mean_prefix = f64::from(SequenceProfile::paper_default().prefix_tokens());
    let cache = CacheConfig {
        prefix: Some(PrefixKvCacheConfig::new(
            (6.0 * mean_prefix) as u64,
            EvictionPolicy::Lru,
        )),
        retrieval: Some(RetrievalCacheConfig::new(48, EvictionPolicy::Lru)),
    };

    // --- Knee sweep: one replica, cache-on vs cache-off. ---------------
    let duration_s = 10.0;
    let fractions = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5];
    let mut off_points = Vec::new();
    let mut on_points = Vec::new();
    let mut sweep_rows = Vec::new();
    for (i, frac) in fractions.iter().enumerate() {
        let rate = frac * static_qps;
        let trace = trace_at(rate, duration_s, 101 + i as u64);
        let off = rago
            .evaluate_dynamic(&best.schedule, &trace, &slo, None)
            .expect("cache-off evaluation succeeds");
        let on = rago
            .evaluate_dynamic(&best.schedule, &trace, &slo, Some(&cache))
            .expect("cache-on evaluation succeeds");
        off_points.push((rate, off.attainment));
        on_points.push((rate, on.attainment));
        sweep_rows.push(format!(
            "    {{\"rate_rps\": {rate:.3}, \"attainment_off\": {:.4}, \"attainment_on\": {:.4}, \
             \"goodput_off_rps\": {:.3}, \"goodput_on_rps\": {:.3}, \
             \"prefix_hit_rate\": {:.4}, \"retrieval_hit_rate\": {:.4}}}",
            off.attainment,
            on.attainment,
            off.goodput_rps,
            on.goodput_rps,
            on.report.cache.prefix.hit_rate(),
            on.report.cache.retrieval.hit_rate(),
        ));
    }
    let knee_off = sustained_throughput_knee(&off_points, &slo);
    let knee_on = sustained_throughput_knee(&on_points, &slo);
    let knee_off_v = knee_off.unwrap_or(0.0);
    let knee_on_v = knee_on.unwrap_or(0.0);
    assert!(
        knee_on_v >= knee_off_v,
        "caching lowered the knee: {knee_on_v} vs {knee_off_v}"
    );

    // --- Capacity at the peak: equal attainment at fewer chips? --------
    let peak_rate = 2.0 * static_qps;
    let sizing_duration_s = 6.0;
    let options = CapacityOptions {
        max_replicas: 6,
        num_requests: (peak_rate * sizing_duration_s).ceil() as usize,
        profile: SequenceProfile::paper_default().with_decode_tokens(48),
        ..CapacityOptions::default()
    };
    let plan_off = rago
        .plan_capacity(&best.schedule, &slo, peak_rate, &options)
        .expect("cache-off capacity plan succeeds");
    let plan_on = rago
        .plan_capacity_cached(
            &best.schedule,
            &slo,
            peak_rate,
            &options,
            &cache,
            &content(),
        )
        .expect("cache-on capacity plan succeeds");
    assert!(
        plan_on.plan.replicas <= plan_off.replicas,
        "caching increased the fleet: {} vs {}",
        plan_on.plan.replicas,
        plan_off.replicas
    );

    // Acceptance: caching must actually help somewhere — a strictly higher
    // knee, or the same SLO served by a strictly cheaper fleet.
    let knee_strictly_higher = knee_on_v > knee_off_v;
    let cheaper_fleet = plan_on.plan.total_xpus < plan_off.total_xpus;
    assert!(
        knee_strictly_higher || cheaper_fleet,
        "caching helped neither the knee ({knee_off_v} -> {knee_on_v}) nor the fleet \
         ({} -> {} XPUs)",
        plan_off.total_xpus,
        plan_on.plan.total_xpus
    );

    // --- Routing: affinity vs hash vs least-outstanding at the peak. ---
    let fleet_size = plan_off.replicas.max(2);
    let routing_trace = trace_at(peak_rate, duration_s, 211);
    let mut routing_rows = Vec::new();
    let mut hit_rate_of = |router: RouterPolicy| -> f64 {
        let eval = rago
            .evaluate_fleet_cached(
                &best.schedule,
                &FleetConfig::new(fleet_size, router),
                &routing_trace,
                &slo,
                &cache,
            )
            .expect("fleet evaluation succeeds");
        let hit_rate = eval.report.merged.cache.prefix.hit_rate();
        routing_rows.push(format!(
            "    {{\"router\": \"{router}\", \"prefix_hit_rate\": {hit_rate:.4}, \
             \"retrieval_hit_rate\": {:.4}, \"attainment\": {:.4}, \"goodput_rps\": {:.3}}}",
            eval.report.merged.cache.retrieval.hit_rate(),
            eval.attainment,
            eval.goodput_rps,
        ));
        hit_rate
    };
    let affinity_hits = hit_rate_of(RouterPolicy::CacheAffinity);
    let hash_hits = hit_rate_of(RouterPolicy::PrefixHash);
    let lo_hits = hit_rate_of(RouterPolicy::LeastOutstanding);
    assert!(
        affinity_hits >= lo_hits,
        "cache-affinity hit rate {affinity_hits} fell below least-outstanding {lo_hits}"
    );

    print!(
        "{{\n  \"bench\": \"cache_reuse/zipf_two_tenant\",\n  \
         \"schedule\": \"{}\",\n  \"static_qps\": {static_qps:.3},\n  \
         \"content\": {{\"prefix_templates\": 12, \"prefix_zipf_s\": 1.0, \
         \"shared_prefix_fraction\": 0.8, \"doc_keys\": 48, \"doc_zipf_s\": 1.0}},\n  \
         \"cache\": {{\"prefix_capacity_tokens\": {}, \"retrieval_capacity_entries\": 48}},\n  \
         \"sweep\": [\n{}\n  ],\n  \
         \"knee_off_rps\": {knee_off_v:.3},\n  \"knee_on_rps\": {knee_on_v:.3},\n  \
         \"capacity_at_peak\": {{\"target_qps\": {peak_rate:.3}, \
         \"replicas_off\": {}, \"replicas_on\": {}, \
         \"total_xpus_off\": {}, \"total_xpus_on\": {}, \
         \"prefix_hit_rate\": {:.4}, \"retrieval_hit_rate\": {:.4}, \
         \"prefix_tokens_saved\": {}}},\n  \
         \"routing\": [\n{}\n  ],\n  \
         \"affinity_vs_hash\": {{\"affinity_prefix_hit_rate\": {affinity_hits:.4}, \
         \"hash_prefix_hit_rate\": {hash_hits:.4}, \
         \"least_outstanding_prefix_hit_rate\": {lo_hits:.4}}},\n  \
         \"acceptance\": {{\"cache_on_knee_no_worse\": {}, \"cache_helps\": {}, \
         \"affinity_no_worse_than_least_outstanding\": {}}}\n}}\n",
        best.schedule.describe(),
        (6.0 * mean_prefix) as u64,
        sweep_rows.join(",\n"),
        plan_off.replicas,
        plan_on.plan.replicas,
        plan_off.total_xpus,
        plan_on.plan.total_xpus,
        plan_on.prefix_hit_rate,
        plan_on.retrieval_hit_rate,
        plan_on.prefix_tokens_saved,
        routing_rows.join(",\n"),
        knee_on_v >= knee_off_v,
        knee_strictly_higher || cheaper_fleet,
        affinity_hits >= lo_hits,
    );
}
