//! Cache-aware capacity planning, and the cache model behind every cached
//! evaluation: what the optimizer's answers look like once prefill and
//! retrieval work can be *reused* across requests.
//!
//! The dynamic evaluators in [`crate::dynamic`] treat every request as
//! independent unless they are given a [`CacheConfig`]. Real RAG traffic is
//! popularity-skewed — shared prompt templates, repeated queries, hot
//! documents — and the serving stack can exploit it with the cache
//! simulators of `rago-cache`: a prefix-KV hit charges prefill only for the
//! uncached suffix, and a retrieval-result hit skips the retrieve and rerank
//! stages outright. A cache is a parameter of the existing entry points, so
//! the optimizer's chips-per-goodput answer *changes* when caching is on:
//!
//! * [`Rago::evaluate_dynamic`] takes `cache: Option<&CacheConfig>` —
//!   schedules with large pre-decode batches amortize differently once the
//!   prefix stage's work becomes hit-rate-dependent;
//! * [`Rago::evaluate_fleet_cached`] gives every replica of a flat fleet, or
//!   every prefill replica of a prefill/decode split, its own cold
//!   caches;
//! * [`Rago::plan_capacity_cached`] — fleet sizing under a content model:
//!   the sizing trace carries Zipfian identity from a
//!   [`rago_workloads::ContentSpec`], and the plan reports the hit rates it
//!   was sized under (a target hit rate is *achieved* by choosing the
//!   content model and capacities, then verified in the plan).
//!
//! **Degenerate-case discipline** (pinned by tests here and in
//! `rago-serving-sim`): with [`CacheConfig::disabled`], a zero-capacity
//! config, or an identity-free trace, every cached evaluation reproduces
//! its cache-less run bit-exactly — timelines, metrics, and per-class rows.

use crate::capacity::{plan_flat, CapacityOptions, CapacityPlan};
use crate::dynamic::{evaluate_fleet, FleetEvaluation, FleetRun};
use crate::error::RagoError;
use crate::optimizer::Rago;
use crate::schedule::Schedule;
pub use rago_cache::CacheConfig;
use rago_schema::{FleetConfig, SloTarget};
use rago_telemetry::NullRecorder;
use rago_workloads::{ContentSpec, Trace};
use serde::{Deserialize, Serialize};

/// A capacity plan sized under a content model, with the hit rates the
/// sizing run achieved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CachedCapacityPlan {
    /// The provisioning decision (same fields as the cache-less planner's).
    pub plan: CapacityPlan,
    /// Prefix-KV hit rate of the sizing run at the chosen replica count.
    pub prefix_hit_rate: f64,
    /// Retrieval-result hit rate of the sizing run at the chosen count.
    pub retrieval_hit_rate: f64,
    /// Prefill tokens served from cache during the sizing run.
    pub prefix_tokens_saved: u64,
}

impl Rago {
    /// Evaluates one schedule as a fleet with per-replica caches, each
    /// replica's cold at the start. Pair it with the content-aware routers
    /// ([`rago_schema::RouterPolicy::CacheAffinity`] /
    /// [`rago_schema::RouterPolicy::PrefixHash`]) to keep each template's KV
    /// state on one replica instead of duplicating it everywhere. A
    /// prefill/decode split puts the caches on its prefill pool, where
    /// the prefix and retrieval stages run.
    ///
    /// # Errors
    ///
    /// As [`crate::dynamic::evaluate_fleet_dynamic_with`], plus
    /// [`RagoError::InvalidConfig`] for a cache acting on a stage the
    /// schema's pipeline lacks.
    pub fn evaluate_fleet_cached(
        &self,
        schedule: &Schedule,
        fleet: &FleetConfig,
        trace: &Trace,
        slo: &SloTarget,
        cache: &CacheConfig,
    ) -> Result<FleetEvaluation, RagoError> {
        let run = FleetRun {
            fleet: fleet.clone(),
            cache: Some(*cache),
            ..FleetRun::default()
        };
        let rec = &mut NullRecorder;
        evaluate_fleet(self.profiler(), schedule, trace, slo, &run, rec)
    }

    /// Sizes a fleet of `schedule` replicas for `target_qps` within `slo`
    /// **with caching enabled**: the sizing trace is tagged with `content`'s
    /// Zipfian identity, every candidate fleet runs with per-replica caches
    /// from `cache`, and the returned plan carries the hit rates the chosen
    /// fleet achieved. Because hits shed prefill and retrieval work, the
    /// cached plan needs *at most* as many replicas as
    /// [`Rago::plan_capacity`] at the same rate — the
    /// chips-per-goodput answer the tentpole changes.
    ///
    /// "Planning under a target hit rate" works by construction: the hit rate
    /// is a deterministic function of the content skew and cache capacities, so
    /// callers pick those, plan, and read the achieved rates off the result
    /// (the `cache_reuse` bench prints exactly this loop).
    ///
    /// # Errors
    ///
    /// As [`Rago::plan_capacity`], plus the cached pipeline's
    /// configuration errors and [`RagoError::InvalidConfig`] for a content
    /// model that [`ContentSpec::validate`] rejects, before any DES run.
    pub fn plan_capacity_cached(
        &self,
        schedule: &Schedule,
        slo: &SloTarget,
        target_qps: f64,
        options: &CapacityOptions,
        cache: &CacheConfig,
        content: &ContentSpec,
    ) -> Result<CachedCapacityPlan, RagoError> {
        content
            .validate()
            .map_err(|reason| RagoError::InvalidConfig {
                reason: format!("content model: {reason}"),
            })?;
        let cached = Some((cache, content));
        let (plan, report) =
            plan_flat(self.profiler(), schedule, slo, target_qps, options, cached)?;
        let usage = &report.merged.cache;
        Ok(CachedCapacityPlan {
            plan,
            prefix_hit_rate: usage.prefix.hit_rate(),
            retrieval_hit_rate: usage.retrieval.hit_rate(),
            prefix_tokens_saved: usage.prefix.tokens_saved,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::evaluate_fleet_dynamic_with;
    use crate::placement::PlacementPlan;
    use crate::schedule::{BatchingPolicy, ResourceAllocation};
    use rago_cache::{EvictionPolicy, PrefixKvCacheConfig, RetrievalCacheConfig};
    use rago_hardware::ClusterSpec;
    use rago_schema::presets::{self, LlmSize};
    use rago_schema::{FleetConfig, RouterPolicy, SequenceProfile, Stage};
    use rago_serving_sim::MetricsMode;
    use rago_workloads::{ArrivalProcess, PopularityModel, Trace, TraceSpec};

    fn case1_rago() -> Rago {
        Rago::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        )
    }

    fn case1_schedule() -> Schedule {
        Schedule {
            placement: PlacementPlan {
                predecode_groups: vec![vec![Stage::Prefix]],
            },
            allocation: ResourceAllocation {
                group_xpus: vec![8],
                decode_xpus: 8,
                retrieval_servers: 32,
            },
            batching: BatchingPolicy::new(8, 64),
        }
    }

    fn hot_cache() -> CacheConfig {
        CacheConfig {
            prefix: Some(PrefixKvCacheConfig::new(64 * 1024, EvictionPolicy::Lru)),
            retrieval: Some(RetrievalCacheConfig::new(256, EvictionPolicy::Lru)),
        }
    }

    fn zero_cache() -> CacheConfig {
        CacheConfig {
            prefix: Some(PrefixKvCacheConfig::new(0, EvictionPolicy::Lru)),
            retrieval: Some(RetrievalCacheConfig::new(0, EvictionPolicy::Lru)),
        }
    }

    fn content() -> ContentSpec {
        ContentSpec {
            prefixes: PopularityModel::zipf(8, 1.1),
            shared_prefix_fraction: 0.8,
            docs: PopularityModel::zipf(32, 1.0),
            seed: 91,
        }
    }

    fn poisson_trace(n: usize, rate: f64, seed: u64) -> Trace {
        TraceSpec {
            num_requests: n,
            profile: SequenceProfile::paper_default().with_decode_tokens(32),
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            length_jitter: 0.2,
            seed,
        }
        .generate()
    }

    /// The acceptance-criterion equivalence: zero-capacity caches on a
    /// tagged trace reproduce the cache-less engine bit-exactly (timelines,
    /// metrics, per-class rows — the cache counters record the misses).
    #[test]
    fn zero_capacity_caches_match_the_dynamic_path_bit_exactly() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = content().tag(&poisson_trace(80, 30.0, 5));
        let plain = rago
            .evaluate_dynamic(&schedule, &trace, &slo, None)
            .unwrap();
        let cached = rago
            .evaluate_dynamic(&schedule, &trace, &slo, Some(&zero_cache()))
            .unwrap();
        assert_eq!(cached.report.timelines, plain.report.timelines);
        assert_eq!(cached.report.metrics, plain.report.metrics);
        assert_eq!(cached.report.per_class, plain.report.per_class);
        assert_eq!(cached.attainment, plain.attainment);
        assert_eq!(cached.goodput_rps, plain.goodput_rps);
        // The zero-capacity caches looked up and missed every time.
        assert_eq!(cached.report.cache.prefix.hits, 0);
        assert_eq!(cached.report.cache.prefix.lookups, 80);
        assert_eq!(cached.report.cache.retrieval.hits, 0);
        // The cache-less run never looked anything up.
        assert_eq!(plain.report.cache.prefix.lookups, 0);
    }

    /// The other acceptance-criterion equivalence: an identity-free trace
    /// under real cache capacities never touches the caches and reproduces
    /// the cache-less path bit-exactly — including all-zero counters.
    #[test]
    fn identity_free_traces_match_the_dynamic_path_bit_exactly() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = poisson_trace(80, 30.0, 5); // no content tagging
        let plain = rago
            .evaluate_dynamic(&schedule, &trace, &slo, None)
            .unwrap();
        let cached = rago
            .evaluate_dynamic(&schedule, &trace, &slo, Some(&hot_cache()))
            .unwrap();
        assert_eq!(cached.report, plain.report);
        let fleet = FleetConfig::new(3, RouterPolicy::LeastOutstanding);
        let plain_fleet = evaluate_fleet_dynamic_with(
            rago.profiler(),
            &schedule,
            &fleet,
            &trace,
            &slo,
            &MetricsMode::Exact,
        )
        .unwrap();
        let cached_fleet = rago
            .evaluate_fleet_cached(&schedule, &fleet, &trace, &slo, &hot_cache())
            .unwrap();
        assert_eq!(cached_fleet.report, plain_fleet.report);
    }

    /// A disabled cache config is the dynamic path by construction.
    #[test]
    fn disabled_cache_config_matches_bit_exactly() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = content().tag(&poisson_trace(60, 25.0, 9));
        let plain = rago
            .evaluate_dynamic(&schedule, &trace, &slo, None)
            .unwrap();
        let cached = rago
            .evaluate_dynamic(&schedule, &trace, &slo, Some(&CacheConfig::disabled()))
            .unwrap();
        assert_eq!(cached.report, plain.report);
    }

    /// Caching on a skewed trace strictly reduces prefill + retrieval work:
    /// hit rates are real, TTFT improves, goodput does not degrade.
    #[test]
    fn hot_caches_improve_ttft_under_skewed_traffic() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = content().tag(&poisson_trace(150, 60.0, 13));
        let plain = rago
            .evaluate_dynamic(&schedule, &trace, &slo, None)
            .unwrap();
        let cached = rago
            .evaluate_dynamic(&schedule, &trace, &slo, Some(&hot_cache()))
            .unwrap();
        let usage = &cached.report.cache;
        assert!(
            usage.prefix.hit_rate() > 0.5,
            "prefix hit rate {}",
            usage.prefix.hit_rate()
        );
        assert!(
            usage.retrieval.hit_rate() > 0.5,
            "retrieval hit rate {}",
            usage.retrieval.hit_rate()
        );
        assert!(usage.prefix.tokens_saved > 0);
        assert!(
            cached.report.metrics.ttft.mean_s < plain.report.metrics.ttft.mean_s,
            "cached mean TTFT {} vs plain {}",
            cached.report.metrics.ttft.mean_s,
            plain.report.metrics.ttft.mean_s
        );
        assert!(cached.attainment >= plain.attainment);
    }

    /// Caches on a prefill/decode split live on the prefill pool. The
    /// degenerate configurations reproduce the cache-less split run
    /// bit-exactly (a disabled config down to the whole report, zero
    /// capacities everywhere but the miss counters), and hot caches on a
    /// content-tagged trace hit.
    #[test]
    fn split_fleet_caches_follow_the_degenerate_case_rule() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let trace = content().tag(&poisson_trace(80, 40.0, 7));
        let split = FleetConfig::split(2, 1, RouterPolicy::LeastOutstanding);
        let plain = evaluate_fleet_dynamic_with(
            rago.profiler(),
            &schedule,
            &split,
            &trace,
            &slo,
            &MetricsMode::Exact,
        )
        .unwrap();
        let cached = |cache: &CacheConfig| {
            rago.evaluate_fleet_cached(&schedule, &split, &trace, &slo, cache)
                .unwrap()
        };

        let disabled = cached(&CacheConfig::disabled());
        assert_eq!(disabled, plain);

        let zero = cached(&zero_cache());
        assert_eq!(zero.report.merged.timelines, plain.report.merged.timelines);
        assert_eq!(zero.report.merged.metrics, plain.report.merged.metrics);
        assert_eq!(zero.report.merged.per_class, plain.report.merged.per_class);
        assert_eq!(zero.report.assignments, plain.report.assignments);
        assert_eq!(zero.attainment, plain.attainment);
        assert_eq!(zero.goodput_rps, plain.goodput_rps);
        assert_eq!(zero.report.merged.cache.prefix.lookups, 80);
        assert_eq!(zero.report.merged.cache.prefix.hits, 0);
        assert_eq!(zero.report.merged.cache.retrieval.hits, 0);

        let hot = cached(&hot_cache());
        assert!(
            hot.report.merged.cache.prefix.hits > 0,
            "no prefix hits on a split fleet: {:?}",
            hot.report.merged.cache.prefix
        );
        assert_eq!(hot.report.merged.metrics.completed, 80);
    }

    /// The tentpole's capacity claim: at a rate where the cache-less plan
    /// needs a fleet, the cached plan needs no more replicas — and reports
    /// the hit rates it was sized under.
    #[test]
    fn cached_capacity_plan_needs_no_more_replicas() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let options = CapacityOptions {
            max_replicas: 8,
            num_requests: 120,
            ..CapacityOptions::default()
        };
        let target = 40.0;
        let plain = rago
            .plan_capacity(&schedule, &slo, target, &options)
            .unwrap();
        let cached = rago
            .plan_capacity_cached(&schedule, &slo, target, &options, &hot_cache(), &content())
            .unwrap();
        assert!(
            cached.plan.replicas <= plain.replicas,
            "caching increased the fleet: {} vs {}",
            cached.plan.replicas,
            plain.replicas
        );
        assert!(cached.prefix_hit_rate > 0.0);
        assert!(cached.retrieval_hit_rate > 0.0);
        assert!(cached.plan.attainment >= slo.attainment);
        assert_eq!(
            cached.plan.total_xpus,
            schedule.allocation.total_xpus() * cached.plan.replicas
        );
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let empty = Trace { requests: vec![] };
        assert!(matches!(
            rago.evaluate_dynamic(&schedule, &empty, &slo, Some(&hot_cache())),
            Err(RagoError::InvalidConfig { .. })
        ));
        let options = CapacityOptions::default();
        assert!(matches!(
            rago.plan_capacity_cached(
                &schedule,
                &slo,
                f64::NAN,
                &options,
                &hot_cache(),
                &content()
            ),
            Err(RagoError::InvalidConfig { .. })
        ));
        let no_requests = CapacityOptions {
            num_requests: 0,
            ..options
        };
        assert!(matches!(
            rago.plan_capacity_cached(
                &schedule,
                &slo,
                10.0,
                &no_requests,
                &hot_cache(),
                &content()
            ),
            Err(RagoError::InvalidConfig { .. })
        ));
    }

    /// A malformed content model is a configuration error of the cached
    /// planner, returned before any simulation, not a panic in the trace
    /// tagger or a trace whose requests all share one identity.
    #[test]
    fn malformed_content_models_are_rejected() {
        let rago = case1_rago();
        let schedule = case1_schedule();
        let slo = SloTarget::new(1.0, 0.1);
        let options = CapacityOptions {
            max_replicas: 4,
            num_requests: 40,
            ..CapacityOptions::default()
        };
        let empty = PopularityModel {
            items: 0,
            exponent: 1.0,
        };
        let nan_skew = PopularityModel {
            items: 8,
            exponent: f64::NAN,
        };
        let malformed = [
            ContentSpec {
                shared_prefix_fraction: 1.5,
                ..content()
            },
            ContentSpec {
                shared_prefix_fraction: f64::NAN,
                ..content()
            },
            ContentSpec {
                prefixes: empty,
                ..content()
            },
            ContentSpec {
                docs: nan_skew,
                ..content()
            },
        ];
        for spec in malformed {
            let plan =
                rago.plan_capacity_cached(&schedule, &slo, 10.0, &options, &hot_cache(), &spec);
            assert!(
                matches!(&plan, Err(RagoError::InvalidConfig { reason }) if reason.starts_with("content model: ")),
                "{spec:?}: {plan:?}"
            );
        }
    }
}
