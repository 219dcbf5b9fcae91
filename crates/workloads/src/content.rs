//! Content identity: which requests share prompt prefixes and retrieval
//! results, drawn from popularity-skewed (Zipfian) distributions.
//!
//! The trace generators in this crate describe *how much* work each request
//! carries (token lengths, arrivals). Caching needs to know *which* work is
//! shared: two requests instantiating the same prompt template can reuse
//! prefix-KV state, and two requests about the same hot document can reuse a
//! retrieval result. A [`ContentSpec`] assigns that identity to an existing
//! trace — a template id and a retrieval key per request, each drawn from
//! its own seeded [`PopularityModel`] — without touching arrivals, lengths,
//! ids, or class tags. Traces without identity (`Request::identity ==
//! None`) behave exactly as before everywhere in the stack.
//!
//! Popularity follows a Zipf law: the rank-`k` item (1-based) has weight
//! `1 / k^s`. `s = 0` is uniform; real template and query popularity is
//! typically `s ≈ 0.8–1.2` (the skew regimes where caching pays).

use crate::request::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Seed offset of the prefix-identity RNG stream. Independent from the
/// arrival, length, and class streams so tagging never perturbs them.
const PREFIX_SEED_OFFSET: u64 = 0xCAFE_5EED;

/// Seed offset of the document-key RNG stream.
const DOC_SEED_OFFSET: u64 = 0xD0C_5EED;

/// The content identity of one request: what it shares with other requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentIdentity {
    /// Shared-prefix/template id: requests with the same id instantiate the
    /// same prompt template and can reuse its prefix-KV state.
    pub prefix_id: u64,
    /// How many of the request's `prefix_tokens` belong to the shared
    /// template (the cacheable prefix; the rest is the per-request suffix).
    pub shared_prefix_tokens: u32,
    /// Retrieval key: requests with the same key retrieve (and rerank) the
    /// same result.
    pub doc_key: u64,
}

/// A Zipfian popularity distribution over `items` distinct items.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopularityModel {
    /// Number of distinct items (templates or retrieval keys); at least 1.
    pub items: u32,
    /// Zipf exponent `s ≥ 0`: weight of rank `k` is `1 / k^s` (0 = uniform).
    pub exponent: f64,
}

impl PopularityModel {
    /// Creates a popularity model.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero or `exponent` is negative or non-finite.
    pub fn zipf(items: u32, exponent: f64) -> Self {
        assert!(items >= 1, "a popularity model needs at least one item");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "the Zipf exponent must be non-negative and finite"
        );
        Self { items, exponent }
    }

    /// The uniform special case (`s = 0`).
    pub fn uniform(items: u32) -> Self {
        Self::zipf(items, 0.0)
    }

    /// Builds the cumulative distribution used for sampling: `cdf[i]` is the
    /// probability of drawing an item of rank ≤ `i` (0-based, most popular
    /// first).
    fn cdf(&self) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(self.items as usize);
        let mut acc = 0.0;
        for rank in 1..=self.items {
            acc += f64::from(rank).powf(-self.exponent);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("at least one item");
        for p in &mut cdf {
            *p /= total;
        }
        cdf
    }

    /// Probability of the most popular item (rank 0) — how concentrated the
    /// distribution is.
    pub fn top_item_probability(&self) -> f64 {
        self.cdf()[0]
    }
}

/// A stateful sampler of one [`PopularityModel`], drawing item indices from
/// its own RNG stream (0 = most popular).
#[derive(Debug, Clone)]
pub struct PopularitySampler {
    cdf: Vec<f64>,
    rng: StdRng,
}

impl PopularitySampler {
    /// Creates a sampler with its own seeded stream.
    pub fn new(model: &PopularityModel, seed: u64) -> Self {
        Self {
            cdf: model.cdf(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one item index in `0..items`, most popular = 0.
    pub fn sample(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&p| p < u) as u64
    }
}

/// Assigns content identity to the requests of a trace: a template id and a
/// retrieval key per request, drawn from two seeded Zipfian streams.
///
/// # Examples
///
/// ```
/// use rago_workloads::{ArrivalProcess, ContentSpec, PopularityModel, TraceSpec};
/// use rago_schema::SequenceProfile;
///
/// let trace = TraceSpec {
///     num_requests: 50,
///     profile: SequenceProfile::paper_default(),
///     arrival: ArrivalProcess::Poisson { rate_rps: 20.0 },
///     length_jitter: 0.1,
///     seed: 7,
/// }
/// .generate();
/// let content = ContentSpec {
///     prefixes: PopularityModel::zipf(8, 1.0),
///     shared_prefix_fraction: 0.75,
///     docs: PopularityModel::zipf(16, 1.0),
///     seed: 11,
/// };
/// let tagged = content.tag(&trace);
/// // Identity is added; everything else is untouched.
/// assert!(tagged.requests.iter().all(|r| r.identity.is_some()));
/// for (a, b) in trace.requests.iter().zip(tagged.requests.iter()) {
///     assert_eq!(a.arrival_s, b.arrival_s);
///     assert_eq!(a.prefix_tokens, b.prefix_tokens);
/// }
/// assert_eq!(content.tag(&trace), tagged); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentSpec {
    /// Popularity of the shared prompt templates.
    pub prefixes: PopularityModel,
    /// Fraction of each request's `prefix_tokens` covered by its shared
    /// template, in `[0, 1]` (the cacheable share of prefill work).
    pub shared_prefix_fraction: f64,
    /// Popularity of the retrieval keys.
    pub docs: PopularityModel,
    /// RNG seed. The template and key streams are derived independently, so
    /// changing one model never perturbs the other's draws.
    pub seed: u64,
}

impl ContentSpec {
    /// Checks the spec: `shared_prefix_fraction` must lie in `[0, 1]`, and
    /// each popularity model needs at least one item and a non-negative,
    /// finite exponent — what [`PopularityModel::zipf`] asserts, for specs
    /// built as struct literals or deserialized.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the spec is invalid.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.shared_prefix_fraction) {
            return Err(format!(
                "shared_prefix_fraction must be in [0, 1], got {}",
                self.shared_prefix_fraction
            ));
        }
        for (name, model) in [("prefixes", &self.prefixes), ("docs", &self.docs)] {
            if model.items == 0 {
                return Err(format!(
                    "{name}: a popularity model needs at least one item"
                ));
            }
            if !(model.exponent >= 0.0 && model.exponent.is_finite()) {
                return Err(format!(
                    "{name}: the Zipf exponent must be non-negative and finite, got {}",
                    model.exponent
                ));
            }
        }
        Ok(())
    }

    /// Returns `trace` with every request tagged with content identity
    /// drawn from the two popularity streams. Arrivals, token lengths, ids,
    /// and class tags are bit-identical to the input; only
    /// [`crate::Request::identity`] changes. Deterministic in the seed.
    ///
    /// # Panics
    ///
    /// Panics if `shared_prefix_fraction` is outside `[0, 1]`.
    pub fn tag(&self, trace: &Trace) -> Trace {
        assert!(
            (0.0..=1.0).contains(&self.shared_prefix_fraction),
            "shared_prefix_fraction must be in [0, 1]"
        );
        let mut prefix_sampler =
            PopularitySampler::new(&self.prefixes, self.seed.wrapping_add(PREFIX_SEED_OFFSET));
        let mut doc_sampler =
            PopularitySampler::new(&self.docs, self.seed.wrapping_add(DOC_SEED_OFFSET));
        let requests = trace
            .requests
            .iter()
            .map(|r| {
                let prefix_id = prefix_sampler.sample();
                let doc_key = doc_sampler.sample();
                let shared =
                    (self.shared_prefix_fraction * f64::from(r.prefix_tokens)).round() as u32;
                let mut tagged = *r;
                tagged.identity = Some(ContentIdentity {
                    prefix_id,
                    shared_prefix_tokens: shared.min(r.prefix_tokens),
                    doc_key,
                });
                tagged
            })
            .collect();
        Trace { requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::request::TraceSpec;
    use rago_schema::SequenceProfile;

    fn base_trace() -> Trace {
        TraceSpec {
            num_requests: 2_000,
            profile: SequenceProfile::paper_default(),
            arrival: ArrivalProcess::Poisson { rate_rps: 100.0 },
            length_jitter: 0.2,
            seed: 3,
        }
        .generate()
    }

    fn spec() -> ContentSpec {
        ContentSpec {
            prefixes: PopularityModel::zipf(10, 1.0),
            shared_prefix_fraction: 0.8,
            docs: PopularityModel::zipf(50, 1.0),
            seed: 17,
        }
    }

    #[test]
    fn tagging_preserves_everything_but_identity() {
        let trace = base_trace();
        let tagged = spec().tag(&trace);
        assert_eq!(tagged.requests.len(), trace.requests.len());
        for (a, b) in trace.requests.iter().zip(tagged.requests.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival_s, b.arrival_s);
            assert_eq!(a.question_tokens, b.question_tokens);
            assert_eq!(a.prefix_tokens, b.prefix_tokens);
            assert_eq!(a.decode_tokens, b.decode_tokens);
            assert_eq!(a.class, b.class);
            assert!(a.identity.is_none());
            let id = b.identity.expect("tagged");
            assert!(id.prefix_id < 10);
            assert!(id.doc_key < 50);
            assert!(id.shared_prefix_tokens <= b.prefix_tokens);
        }
    }

    #[test]
    fn zipf_skew_concentrates_mass_on_low_ranks() {
        let trace = base_trace();
        let tagged = spec().tag(&trace);
        let n = tagged.requests.len() as f64;
        let share_of = |rank: u64| {
            tagged
                .requests
                .iter()
                .filter(|r| r.identity.expect("tagged").prefix_id == rank)
                .count() as f64
                / n
        };
        // Harmonic-sum shares for s=1 over 10 items: rank 0 ≈ 34 %,
        // rank 9 ≈ 3.4 %.
        assert!(share_of(0) > 0.27, "top share {}", share_of(0));
        assert!(share_of(0) > 4.0 * share_of(9));
        // Uniform tagging flattens it.
        let flat = ContentSpec {
            prefixes: PopularityModel::uniform(10),
            ..spec()
        }
        .tag(&trace);
        let flat_top = flat
            .requests
            .iter()
            .filter(|r| r.identity.expect("tagged").prefix_id == 0)
            .count() as f64
            / n;
        assert!(
            (flat_top - 0.1).abs() < 0.04,
            "uniform top share {flat_top}"
        );
    }

    #[test]
    fn streams_are_independent_and_deterministic() {
        let trace = base_trace();
        let a = spec().tag(&trace);
        assert_eq!(a, spec().tag(&trace));
        // Changing the doc model must not perturb the prefix draws.
        let other_docs = ContentSpec {
            docs: PopularityModel::zipf(7, 0.5),
            ..spec()
        }
        .tag(&trace);
        for (x, y) in a.requests.iter().zip(other_docs.requests.iter()) {
            assert_eq!(
                x.identity.expect("tagged").prefix_id,
                y.identity.expect("tagged").prefix_id
            );
        }
        // A different seed changes the draws.
        let reseeded = ContentSpec { seed: 18, ..spec() }.tag(&trace);
        assert_ne!(a, reseeded);
    }

    #[test]
    fn popularity_model_basics() {
        let m = PopularityModel::zipf(4, 1.0);
        // Weights 1, 1/2, 1/3, 1/4 → top share 12/25 = 0.48.
        assert!((m.top_item_probability() - 0.48).abs() < 1e-12);
        assert!((PopularityModel::uniform(4).top_item_probability() - 0.25).abs() < 1e-12);
        let mut sampler = PopularitySampler::new(&m, 1);
        for _ in 0..1_000 {
            assert!(sampler.sample() < 4);
        }
    }

    #[test]
    fn shared_fraction_bounds_are_enforced() {
        let trace = base_trace();
        let full = ContentSpec {
            shared_prefix_fraction: 1.0,
            ..spec()
        }
        .tag(&trace);
        assert!(full
            .requests
            .iter()
            .all(|r| r.identity.expect("tagged").shared_prefix_tokens == r.prefix_tokens));
        let none = ContentSpec {
            shared_prefix_fraction: 0.0,
            ..spec()
        }
        .tag(&trace);
        assert!(none
            .requests
            .iter()
            .all(|r| r.identity.expect("tagged").shared_prefix_tokens == 0));
    }

    #[test]
    #[should_panic(expected = "shared_prefix_fraction")]
    fn out_of_range_fractions_panic() {
        let _ = ContentSpec {
            shared_prefix_fraction: 1.5,
            ..spec()
        }
        .tag(&base_trace());
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_popularity_models_panic() {
        let _ = PopularityModel::zipf(0, 1.0);
    }

    /// `validate` accepts the edges of every range and names each field a
    /// struct literal can get wrong.
    #[test]
    fn validate_checks_every_field() {
        assert_eq!(spec().validate(), Ok(()));
        for fraction in [0.0, 1.0] {
            let edge = ContentSpec {
                shared_prefix_fraction: fraction,
                ..spec()
            };
            assert_eq!(edge.validate(), Ok(()));
        }
        let uniform = ContentSpec {
            docs: PopularityModel::uniform(1),
            ..spec()
        };
        assert_eq!(uniform.validate(), Ok(()));
        let bad = |s: ContentSpec, needle: &str| {
            let reason = s.validate().unwrap_err();
            assert!(reason.contains(needle), "{reason}");
        };
        for fraction in [-0.1, 1.5, f64::NAN] {
            let s = ContentSpec {
                shared_prefix_fraction: fraction,
                ..spec()
            };
            bad(s, "shared_prefix_fraction");
        }
        let empty = PopularityModel {
            items: 0,
            exponent: 1.0,
        };
        bad(
            ContentSpec {
                prefixes: empty,
                ..spec()
            },
            "prefixes: a popularity model needs at least one item",
        );
        for exponent in [-1.0, f64::NAN, f64::INFINITY] {
            let skew = PopularityModel { items: 4, exponent };
            bad(
                ContentSpec {
                    docs: skew,
                    ..spec()
                },
                "docs: the Zipf exponent",
            );
        }
    }
}
