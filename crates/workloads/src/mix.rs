//! Multi-tenant workload mixes: weighted request classes with per-class
//! sequence profiles and SLO targets.
//!
//! One [`crate::TraceSpec`] describes a homogeneous tenant. Real fleets
//! serve a *mix* — an interactive chatbot tenant with a tight TTFT target
//! sharing replicas with a long-form summarization tenant that tolerates
//! latency but decodes far more tokens. A [`WorkloadMix`] captures that as
//! weighted [`RequestClass`]es, and a [`MixTraceSpec`] samples one tagged
//! trace from it: arrivals come from any [`ArrivalProcess`] (including the
//! time-varying ones), each arrival draws a class by weight, and the
//! request's token lengths are sampled from that class's profile. Every
//! request carries its class tag ([`crate::Request::class`]) through the
//! serving simulation, so reports can score each tenant against its *own*
//! SLO.
//!
//! A one-class mix is bit-identical to the untagged path: it generates
//! exactly the trace `TraceSpec` with the same profile, jitter, and seed
//! would (the equivalence is property-tested in
//! `rago-serving-sim/tests/proptest_tenant.rs`).

use crate::arrival::ArrivalProcess;
use crate::request::{Request, RequestGenerator, Trace};
use rago_schema::{SequenceProfile, SloTarget};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Seed offset of the class-selection RNG stream, kept separate from the
/// arrival and length streams so tagging never perturbs them.
const CLASS_SEED_OFFSET: u64 = 0xC1A5_5EED;

/// One tenant class of a workload mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestClass {
    /// Human-readable tenant name (reports carry it alongside the class id).
    pub name: String,
    /// Relative sampling weight (need not be normalized; must be positive).
    pub weight: f64,
    /// Sequence-length profile requests of this class are sampled around.
    pub profile: SequenceProfile,
    /// Relative token-length jitter in `[0, 1)`.
    pub length_jitter: f64,
    /// The latency SLO this tenant is scored against.
    pub slo: SloTarget,
    /// Admission priority under load shedding: higher keeps traffic longer
    /// when the fleet is degraded (0 = best-effort, shed first). Ignored
    /// everywhere except the chaos/admission path in `rago-serving-sim`,
    /// so existing mixes (priority 0 throughout) behave exactly as before.
    #[serde(default)]
    pub priority: u32,
}

impl RequestClass {
    /// Creates a class with best-effort admission priority (0).
    pub fn new(
        name: impl Into<String>,
        weight: f64,
        profile: SequenceProfile,
        length_jitter: f64,
        slo: SloTarget,
    ) -> Self {
        Self {
            name: name.into(),
            weight,
            profile,
            length_jitter,
            slo,
            priority: 0,
        }
    }

    /// Sets the admission priority (higher = shed later).
    ///
    /// ```
    /// use rago_workloads::RequestClass;
    /// use rago_schema::{SequenceProfile, SloTarget};
    ///
    /// let premium = RequestClass::new(
    ///     "premium", 1.0, SequenceProfile::paper_default(), 0.1,
    ///     SloTarget::new(2.0, 0.05),
    /// )
    /// .with_priority(2);
    /// assert_eq!(premium.priority, 2);
    /// ```
    #[must_use]
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }
}

/// A weighted set of tenant classes.
///
/// # Examples
///
/// ```
/// use rago_workloads::{RequestClass, WorkloadMix};
/// use rago_schema::{SequenceProfile, SloTarget};
///
/// let mix = WorkloadMix::new(vec![
///     RequestClass::new(
///         "chat", 3.0,
///         SequenceProfile::paper_default().with_decode_tokens(64),
///         0.1, SloTarget::new(2.0, 0.05),
///     ),
///     RequestClass::new(
///         "report", 1.0,
///         SequenceProfile::paper_default().with_decode_tokens(256),
///         0.1, SloTarget::new(10.0, 0.2),
///     ),
/// ]);
/// assert_eq!(mix.num_classes(), 2);
/// assert!((mix.weight_fraction(0) - 0.75).abs() < 1e-12);
/// assert_eq!(mix.slo_of(1).ttft_s, 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    /// The classes; a request's `class` tag indexes into this vector.
    pub classes: Vec<RequestClass>,
}

impl WorkloadMix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix has no classes, any weight is not positive and
    /// finite, or any jitter is outside `[0, 1)`.
    pub fn new(classes: Vec<RequestClass>) -> Self {
        assert!(
            !classes.is_empty(),
            "a workload mix needs at least one class"
        );
        for c in &classes {
            assert!(
                c.weight > 0.0 && c.weight.is_finite(),
                "class `{}` weight must be positive and finite",
                c.name
            );
            assert!(
                (0.0..1.0).contains(&c.length_jitter),
                "class `{}` length_jitter must be in [0, 1)",
                c.name
            );
        }
        Self { classes }
    }

    /// A mix with one class — the multi-tenant view of a homogeneous
    /// workload.
    pub fn single(
        name: impl Into<String>,
        profile: SequenceProfile,
        length_jitter: f64,
        slo: SloTarget,
    ) -> Self {
        Self::new(vec![RequestClass::new(
            name,
            1.0,
            profile,
            length_jitter,
            slo,
        )])
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The SLO of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if the class id is out of range.
    pub fn slo_of(&self, class: u32) -> &SloTarget {
        &self.classes[class as usize].slo
    }

    /// Normalized weight of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if the class id is out of range.
    pub fn weight_fraction(&self, class: u32) -> f64 {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        self.classes[class as usize].weight / total
    }

    /// Samples one class index by weight.
    fn sample_class(&self, rng: &mut StdRng) -> u32 {
        let total: f64 = self.classes.iter().map(|c| c.weight).sum();
        let mut draw: f64 = rng.gen_range(0.0..total);
        for (i, c) in self.classes.iter().enumerate() {
            if draw < c.weight {
                return i as u32;
            }
            draw -= c.weight;
        }
        (self.classes.len() - 1) as u32
    }
}

/// A reproducible multi-tenant trace specification: the tagged analogue of
/// [`crate::TraceSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixTraceSpec {
    /// Number of requests to generate.
    pub num_requests: usize,
    /// The workload mix requests are drawn from.
    pub mix: WorkloadMix,
    /// Arrival process (stationary or time-varying).
    pub arrival: ArrivalProcess,
    /// RNG seed.
    pub seed: u64,
}

impl MixTraceSpec {
    /// Generates the tagged trace: arrivals from the arrival process, a
    /// class drawn per arrival by weight, and token lengths sampled from the
    /// drawn class's profile. Deterministic in the seed.
    ///
    /// The three RNG streams (arrivals, class selection, per-class lengths)
    /// are independent, and class selection is skipped entirely for a
    /// one-class mix — so a one-class `MixTraceSpec` generates **exactly**
    /// the trace of the `TraceSpec` with the same profile, jitter, arrival
    /// process, and seed, with every request tagged class 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use rago_workloads::{ArrivalProcess, MixTraceSpec, RequestClass, WorkloadMix};
    /// use rago_schema::{SequenceProfile, SloTarget};
    ///
    /// let spec = MixTraceSpec {
    ///     num_requests: 40,
    ///     mix: WorkloadMix::new(vec![
    ///         RequestClass::new("a", 1.0, SequenceProfile::paper_default(), 0.0,
    ///                           SloTarget::paper_default()),
    ///         RequestClass::new("b", 1.0, SequenceProfile::paper_default(), 0.0,
    ///                           SloTarget::paper_default()),
    ///     ]),
    ///     arrival: ArrivalProcess::Poisson { rate_rps: 20.0 },
    ///     seed: 5,
    /// };
    /// let trace = spec.generate();
    /// assert_eq!(trace.requests.len(), 40);
    /// assert!(trace.requests.iter().any(|r| r.class == 0));
    /// assert!(trace.requests.iter().any(|r| r.class == 1));
    /// assert_eq!(spec.generate(), trace); // deterministic
    /// ```
    pub fn generate(&self) -> Trace {
        Trace {
            requests: self.requests().collect(),
        }
    }

    /// Lazily generates the tagged requests in arrival order, one per
    /// `next()` — bit for bit the requests of [`Self::generate`], from the
    /// same RNG streams, without materializing the trace.
    ///
    /// # Panics
    ///
    /// As [`ArrivalProcess::times`].
    pub fn requests(&self) -> impl ExactSizeIterator<Item = Request> + '_ {
        let arrivals = self
            .arrival
            .times(self.num_requests, StdRng::seed_from_u64(self.seed));
        let mut class_rng = StdRng::seed_from_u64(self.seed.wrapping_add(CLASS_SEED_OFFSET));
        // One generator per class, each with its own stream, so adding a
        // class never perturbs another class's length draws.
        let mut generators: Vec<RequestGenerator> = self
            .mix
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                RequestGenerator::new(
                    c.profile,
                    c.length_jitter,
                    self.seed.wrapping_add(1 + i as u64),
                )
            })
            .collect();
        arrivals.enumerate().map(move |(i, t)| {
            let class = if self.mix.classes.len() == 1 {
                0
            } else {
                self.mix.sample_class(&mut class_rng)
            };
            let mut r = generators[class as usize].sample(i as u64, t);
            r.class = class;
            r
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TraceSpec;

    fn two_class_mix() -> WorkloadMix {
        WorkloadMix::new(vec![
            RequestClass::new(
                "chat",
                3.0,
                SequenceProfile::paper_default().with_decode_tokens(64),
                0.1,
                SloTarget::new(2.0, 0.05),
            ),
            RequestClass::new(
                "report",
                1.0,
                SequenceProfile::paper_default().with_decode_tokens(256),
                0.1,
                SloTarget::new(10.0, 0.2),
            ),
        ])
    }

    #[test]
    fn class_shares_track_the_weights() {
        let spec = MixTraceSpec {
            num_requests: 4_000,
            mix: two_class_mix(),
            arrival: ArrivalProcess::Poisson { rate_rps: 100.0 },
            seed: 9,
        };
        let trace = spec.generate();
        let chat = trace.requests.iter().filter(|r| r.class == 0).count() as f64
            / trace.requests.len() as f64;
        assert!((chat - 0.75).abs() < 0.03, "chat share {chat}");
        // Class profiles drive the lengths: the report class decodes ~4x.
        let mean = |class: u32| {
            let rs: Vec<f64> = trace
                .requests
                .iter()
                .filter(|r| r.class == class)
                .map(|r| f64::from(r.decode_tokens))
                .collect();
            rs.iter().sum::<f64>() / rs.len() as f64
        };
        assert!(mean(1) > 3.0 * mean(0), "{} vs {}", mean(1), mean(0));
    }

    #[test]
    fn one_class_mix_equals_the_untagged_trace_exactly() {
        let profile = SequenceProfile::paper_default().with_decode_tokens(48);
        let mix_trace = MixTraceSpec {
            num_requests: 300,
            mix: WorkloadMix::single("only", profile, 0.25, SloTarget::paper_default()),
            arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
            seed: 33,
        }
        .generate();
        let plain = TraceSpec {
            num_requests: 300,
            profile,
            arrival: ArrivalProcess::Poisson { rate_rps: 40.0 },
            length_jitter: 0.25,
            seed: 33,
        }
        .generate();
        assert_eq!(mix_trace, plain);
        assert!(mix_trace.requests.iter().all(|r| r.class == 0));
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = MixTraceSpec {
            num_requests: 200,
            mix: two_class_mix(),
            arrival: ArrivalProcess::Diurnal {
                base_rps: 5.0,
                peak_rps: 50.0,
                period_s: 20.0,
            },
            seed: 4,
        };
        assert_eq!(spec.generate(), spec.generate());
        let other = MixTraceSpec {
            seed: 5,
            ..spec.clone()
        }
        .generate();
        assert_ne!(spec.generate(), other);
    }

    #[test]
    fn weight_fractions_normalize() {
        let mix = two_class_mix();
        assert!((mix.weight_fraction(0) + mix.weight_fraction(1) - 1.0).abs() < 1e-12);
        assert_eq!(mix.num_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mixes_are_rejected() {
        let _ = WorkloadMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn non_positive_weights_are_rejected() {
        let _ = WorkloadMix::new(vec![RequestClass::new(
            "bad",
            0.0,
            SequenceProfile::paper_default(),
            0.0,
            SloTarget::paper_default(),
        )]);
    }
}
