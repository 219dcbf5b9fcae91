//! Request and trace generation.

use crate::arrival::ArrivalProcess;
use rago_schema::SequenceProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One synthetic serving request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Request identifier (position in the trace).
    pub id: u64,
    /// Arrival time in seconds from the start of the trace.
    pub arrival_s: f64,
    /// Question length in tokens.
    pub question_tokens: u32,
    /// Prompt length of the main LLM prefix (question + retrieved content).
    pub prefix_tokens: u32,
    /// Output (decode) length in tokens.
    pub decode_tokens: u32,
    /// Workload-class tag: index into the [`crate::WorkloadMix`] the request
    /// was sampled from (0 for single-class / untagged traces). Carried
    /// through the serving simulation so reports can break metrics and SLO
    /// attainment down per tenant class.
    pub class: u32,
    /// Content identity (shared-prefix template and retrieval key), or
    /// `None` for identity-free requests, which behave exactly as before
    /// caching existed. Assigned by [`crate::ContentSpec::tag`] and carried
    /// through every trace composition
    /// ([`Trace::split_round_robin`]/[`Trace::merge_tagged`]/
    /// [`Trace::with_arrival_offset`]).
    pub identity: Option<crate::ContentIdentity>,
}

/// A generated request trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The requests, sorted by arrival time.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Mean prefix length of the trace.
    pub fn mean_prefix_tokens(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| f64::from(r.prefix_tokens))
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Mean decode length of the trace.
    pub fn mean_decode_tokens(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| f64::from(r.decode_tokens))
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Offered load in requests per second (requests divided by the span of
    /// arrival times; infinite for instantaneous traces).
    pub fn offered_load_rps(&self) -> f64 {
        let span = match (self.requests.first(), self.requests.last()) {
            (Some(first), Some(last)) => last.arrival_s - first.arrival_s,
            _ => 0.0,
        };
        if span <= 0.0 {
            return f64::INFINITY;
        }
        self.requests.len() as f64 / span
    }

    /// Splits the trace across `replicas` round-robin **without
    /// re-sampling**: the i-th request (in arrival order) goes to replica
    /// `i % replicas`, keeping its id, arrival time, and lengths. The union
    /// of the splits is exactly this trace, so per-replica evaluations stay
    /// comparable to the fleet-level run (a state-aware router in
    /// `rago-serving-sim::cluster` does this dynamically; this static split
    /// is the offline baseline).
    ///
    /// # Examples
    ///
    /// ```
    /// use rago_workloads::{ArrivalProcess, TraceSpec};
    /// use rago_schema::SequenceProfile;
    ///
    /// let trace = TraceSpec {
    ///     num_requests: 10,
    ///     profile: SequenceProfile::paper_default(),
    ///     arrival: ArrivalProcess::Poisson { rate_rps: 5.0 },
    ///     length_jitter: 0.1,
    ///     seed: 1,
    /// }
    /// .generate();
    /// let splits = trace.split_round_robin(3);
    /// assert_eq!(splits.iter().map(|t| t.requests.len()).sum::<usize>(), 10);
    /// // No re-sampling: request 4 is bit-identical wherever it lands.
    /// assert_eq!(splits[1].requests[1], trace.requests[4]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn split_round_robin(&self, replicas: usize) -> Vec<Trace> {
        assert!(replicas > 0, "cannot split a trace across zero replicas");
        let mut splits = vec![
            Trace {
                requests: Vec::with_capacity(self.requests.len().div_ceil(replicas)),
            };
            replicas
        ];
        for (i, r) in self.requests.iter().enumerate() {
            splits[i % replicas].requests.push(*r);
        }
        splits
    }

    /// Merges class-tagged traces into one: every request of `parts[i].1`
    /// is re-tagged with class `parts[i].0`, the union is sorted by arrival
    /// time (stable — ties keep part order, then within-part order), and ids
    /// are re-assigned by merged position so the result is a well-formed
    /// trace with unique ids. Arrival times and token lengths are untouched,
    /// so the merged trace exercises exactly the union of the parts' work.
    ///
    /// This is how multi-tenant scenarios are composed from independently
    /// generated per-tenant traces (e.g. a steady tenant plus a spiky one).
    ///
    /// # Examples
    ///
    /// ```
    /// use rago_workloads::{ArrivalProcess, Trace, TraceSpec};
    /// use rago_schema::SequenceProfile;
    ///
    /// let spec = TraceSpec {
    ///     num_requests: 5,
    ///     profile: SequenceProfile::paper_default(),
    ///     arrival: ArrivalProcess::Poisson { rate_rps: 10.0 },
    ///     length_jitter: 0.0,
    ///     seed: 1,
    /// };
    /// let a = spec.clone().generate();
    /// let b = TraceSpec { seed: 2, ..spec }.generate();
    /// let merged = Trace::merge_tagged(&[(0, a), (7, b)]);
    /// assert_eq!(merged.requests.len(), 10);
    /// assert!(merged.requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
    /// assert_eq!(merged.requests.iter().filter(|r| r.class == 7).count(), 5);
    /// assert!(merged.requests.iter().enumerate().all(|(i, r)| r.id == i as u64));
    /// ```
    pub fn merge_tagged(parts: &[(u32, Trace)]) -> Trace {
        let total = parts.iter().map(|(_, t)| t.requests.len()).sum();
        let mut requests: Vec<Request> = Vec::with_capacity(total);
        for (class, part) in parts {
            requests.extend(part.requests.iter().map(|r| Request {
                class: *class,
                ..*r
            }));
        }
        // Stable sort keeps part order, then within-part order, on ties.
        requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = i as u64;
        }
        Trace { requests }
    }

    /// Returns the same trace with every arrival shifted by `offset_s`
    /// seconds — e.g. a burst that lands late. Lengths and ids are
    /// untouched, so the shifted trace exercises exactly the same work.
    ///
    /// # Panics
    ///
    /// Panics if the offset is non-finite or would make any arrival
    /// negative.
    pub fn with_arrival_offset(&self, offset_s: f64) -> Trace {
        assert!(offset_s.is_finite(), "arrival offset must be finite");
        let requests: Vec<Request> = self
            .requests
            .iter()
            .map(|r| {
                let arrival_s = r.arrival_s + offset_s;
                assert!(
                    arrival_s >= 0.0,
                    "offset {offset_s} makes request {} arrive before time zero",
                    r.id
                );
                Request { arrival_s, ..*r }
            })
            .collect();
        Trace { requests }
    }
}

/// Generates per-request token lengths around a [`SequenceProfile`].
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    profile: SequenceProfile,
    /// Relative jitter applied to every length (0.0 = deterministic lengths,
    /// 0.2 = lengths uniform in ±20 % of the profile value).
    length_jitter: f64,
    rng: StdRng,
}

impl RequestGenerator {
    /// Creates a generator with the given jitter and seed.
    ///
    /// # Panics
    ///
    /// Panics if `length_jitter` is not in `[0, 1)`.
    pub fn new(profile: SequenceProfile, length_jitter: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&length_jitter),
            "length_jitter must be in [0, 1)"
        );
        Self {
            profile,
            length_jitter,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples one request with the given id and arrival time.
    pub fn sample(&mut self, id: u64, arrival_s: f64) -> Request {
        let question = self.jitter(self.profile.question_tokens);
        let prefix = self.jitter(self.profile.prefix_tokens());
        let decode = self.jitter(self.profile.decode_tokens);
        Request {
            id,
            arrival_s,
            question_tokens: question,
            prefix_tokens: prefix.max(question),
            decode_tokens: decode.max(1),
            class: 0,
            identity: None,
        }
    }

    fn jitter(&mut self, value: u32) -> u32 {
        if self.length_jitter == 0.0 || value == 0 {
            return value.max(1);
        }
        let v = f64::from(value);
        let low = v * (1.0 - self.length_jitter);
        let high = v * (1.0 + self.length_jitter);
        self.rng.gen_range(low..=high).round().max(1.0) as u32
    }
}

/// A reproducible trace specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Number of requests to generate.
    pub num_requests: usize,
    /// Length profile requests are sampled around.
    pub profile: SequenceProfile,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Relative length jitter in `[0, 1)`.
    pub length_jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TraceSpec {
    /// Generates the trace: arrival timestamps from the arrival process,
    /// per-request lengths jittered around the profile, deterministic in the
    /// seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use rago_workloads::{ArrivalProcess, TraceSpec};
    /// use rago_schema::SequenceProfile;
    ///
    /// let spec = TraceSpec {
    ///     num_requests: 10,
    ///     profile: SequenceProfile::paper_default(),
    ///     arrival: ArrivalProcess::Instantaneous,
    ///     length_jitter: 0.0,
    ///     seed: 1,
    /// };
    /// let trace = spec.generate();
    /// assert_eq!(trace.requests.len(), 10);
    /// assert!(trace.requests.iter().all(|r| r.arrival_s == 0.0));
    /// assert_eq!(spec.generate(), trace); // deterministic
    /// ```
    pub fn generate(&self) -> Trace {
        Trace {
            requests: self.requests().collect(),
        }
    }

    /// Lazily generates the trace's requests in arrival order, one per
    /// `next()` — bit for bit the requests of [`Self::generate`], from the
    /// same RNG streams, without materializing the trace.
    ///
    /// ```
    /// use rago_workloads::{ArrivalProcess, TraceSpec};
    /// use rago_schema::SequenceProfile;
    ///
    /// let spec = TraceSpec {
    ///     num_requests: 1_000,
    ///     profile: SequenceProfile::paper_default(),
    ///     arrival: ArrivalProcess::Poisson { rate_rps: 50.0 },
    ///     length_jitter: 0.2,
    ///     seed: 9,
    /// };
    /// let mut requests = spec.requests();
    /// assert_eq!(requests.len(), 1_000);
    /// assert_eq!(requests.next(), Some(spec.generate().requests[0]));
    /// ```
    ///
    /// # Panics
    ///
    /// As [`ArrivalProcess::times`], and if the length jitter is not in
    /// `[0, 1)`.
    pub fn requests(&self) -> impl ExactSizeIterator<Item = Request> + '_ {
        let arrivals = self
            .arrival
            .times(self.num_requests, StdRng::seed_from_u64(self.seed));
        let mut generator =
            RequestGenerator::new(self.profile, self.length_jitter, self.seed.wrapping_add(1));
        arrivals
            .enumerate()
            .map(move |(i, t)| generator.sample(i as u64, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TraceSpec {
        TraceSpec {
            num_requests: 500,
            profile: SequenceProfile::paper_default(),
            arrival: ArrivalProcess::Poisson { rate_rps: 100.0 },
            length_jitter: 0.2,
            seed: 3,
        }
    }

    #[test]
    fn trace_has_requested_size_and_sorted_arrivals() {
        let trace = spec().generate();
        assert_eq!(trace.requests.len(), 500);
        assert!(trace
            .requests
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(trace.offered_load_rps() > 50.0);
    }

    #[test]
    fn mean_lengths_track_the_profile() {
        let trace = spec().generate();
        let profile = SequenceProfile::paper_default();
        let mean_prefix = trace.mean_prefix_tokens();
        let mean_decode = trace.mean_decode_tokens();
        assert!((mean_prefix - f64::from(profile.prefix_tokens())).abs() < 30.0);
        assert!((mean_decode - 256.0).abs() < 15.0);
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let spec = TraceSpec {
            length_jitter: 0.0,
            ..spec()
        };
        let trace = spec.generate();
        assert!(trace
            .requests
            .iter()
            .all(|r| r.prefix_tokens == SequenceProfile::paper_default().prefix_tokens()));
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        assert_eq!(spec().generate(), spec().generate());
        let other = TraceSpec { seed: 4, ..spec() }.generate();
        assert_ne!(spec().generate(), other);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let trace = TraceSpec {
            num_requests: 0,
            ..spec()
        }
        .generate();
        assert!(trace.requests.is_empty());
        assert_eq!(trace.mean_prefix_tokens(), 0.0);
        assert_eq!(trace.mean_decode_tokens(), 0.0);
        assert!(trace.offered_load_rps().is_infinite());
    }

    #[test]
    #[should_panic(expected = "length_jitter")]
    fn invalid_jitter_panics() {
        let _ = RequestGenerator::new(SequenceProfile::paper_default(), 1.5, 0);
    }

    #[test]
    fn round_robin_split_conserves_every_request() {
        let trace = spec().generate();
        let splits = trace.split_round_robin(7);
        assert_eq!(splits.len(), 7);
        let mut merged: Vec<Request> = splits.iter().flat_map(|t| t.requests.clone()).collect();
        merged.sort_by_key(|r| r.id);
        assert_eq!(merged, trace.requests);
        // Splits stay sorted by arrival (the trace is arrival-sorted).
        for split in &splits {
            assert!(split
                .requests
                .windows(2)
                .all(|w| w[0].arrival_s <= w[1].arrival_s));
        }
        // Near-even counts: sizes differ by at most one.
        let sizes: Vec<usize> = splits.iter().map(|t| t.requests.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1);
    }

    #[test]
    fn arrival_offset_shifts_without_resampling() {
        let trace = spec().generate();
        let shifted = trace.with_arrival_offset(100.0);
        assert_eq!(shifted.requests.len(), trace.requests.len());
        for (a, b) in trace.requests.iter().zip(shifted.requests.iter()) {
            assert!((b.arrival_s - a.arrival_s - 100.0).abs() < 1e-12);
            assert_eq!(a.id, b.id);
            assert_eq!(a.prefix_tokens, b.prefix_tokens);
            assert_eq!(a.decode_tokens, b.decode_tokens);
        }
        let (load, shifted_load) = (trace.offered_load_rps(), shifted.offered_load_rps());
        assert!(
            (shifted_load - load).abs() <= 1e-9 * load,
            "{shifted_load} vs {load}"
        );
    }

    #[test]
    #[should_panic(expected = "zero replicas")]
    fn zero_replica_split_panics() {
        let _ = spec().generate().split_round_robin(0);
    }

    #[test]
    #[should_panic(expected = "before time zero")]
    fn negative_arrivals_from_offset_panic() {
        let _ = spec().generate().with_arrival_offset(-1e9);
    }
}
