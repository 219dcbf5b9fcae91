//! The request-level discrete-event simulation of one RAG pipeline
//! replica.
//!
//! The replica simulation drives **whole requests** — encode → rewrite →
//! retrieve → rerank → prefix → decode, with optional iterative retrieval —
//! from their arrival timestamps to their last generated token, under any
//! arrival process from `rago-workloads`. It is the one model of the
//! crate: the micro-batched bursts of Figures 14 and 19 are a burst at
//! t = 0 through the pre-decode stages, and the decode-stall study of
//! [`crate::iterative`] runs on it too.
//!
//! * **Per-resource queues.** Every pipeline stage is mapped to a resource
//!   (an accelerator group or the retrieval CPU pool). A resource executes
//!   one micro-batch at a time; stages collocated on the same resource
//!   compete for it, and the dispatcher prefers the *latest* stage (the
//!   optimal collocation execution order of Figure 14). Dispatch is
//!   work-conserving: a free resource immediately takes up to
//!   [`StageSpec::batch`] queued requests rather than waiting for a full
//!   batch.
//! * **Continuous batching for decode.** Requests join the decode batch as
//!   soon as a slot frees up and leave on their final token; membership
//!   changes at step boundaries, and the step latency follows the current
//!   batch fill through a [`LatencyTable`].
//! * **Iterative retrieval.** With an [`IterativeSpec`], sequences pause at
//!   sampled token positions and their retrievals dispatch in batches of
//!   [`IterativeSpec::iterative_batch`], or earlier when nothing else can
//!   make progress. [`crate::iterative::simulate`] is this mechanism on
//!   one decode batch with every request present at t = 0; it matches a
//!   step-by-step reference loop (`tests/engine_equivalence.rs`,
//!   `tests/proptest_serving.rs`).
//!
//! Every run goes through [`crate::fleet::FleetEngine`]: one pipeline is a
//! one-replica static fleet, whose merged report is the replica's own. The
//! result is a [`ServingReport`]: a per-request [`RequestTimeline`] and
//! aggregate [`ServingMetrics`] — TTFT/TPOT distributions (p50/p95/p99),
//! queueing-versus-service breakdown, and throughput — plus SLO attainment
//! and goodput against a [`rago_schema::SloTarget`].
//!
//! # Examples
//!
//! ```
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_serving_sim::faults::ScaleDriver;
//! use rago_serving_sim::fleet::FleetEngine;
//! use rago_schema::{RouterPolicy, SequenceProfile, SloTarget};
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//!
//! // Retrieval on its own CPU pool, then prefix on an XPU group.
//! let spec = PipelineSpec::new(
//!     vec![
//!         StageSpec::new("retrieval", 0, 16, LatencyTable::from_fn(16, |b| 0.02 + 1e-4 * f64::from(b))),
//!         StageSpec::new("prefix", 1, 8, LatencyTable::from_fn(8, |b| 0.01 * f64::from(b))),
//!     ],
//!     DecodeSpec::new(64, LatencyTable::constant(64, 5e-3)),
//! );
//! let trace = TraceSpec {
//!     num_requests: 50,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(32),
//!     arrival: ArrivalProcess::Poisson { rate_rps: 20.0 },
//!     length_jitter: 0.0,
//!     seed: 7,
//! }
//! .generate();
//! let one = ScaleDriver::Static { replicas: 1 };
//! let report = FleetEngine::new(spec, RouterPolicy::default(), one)
//!     .run_trace(&trace)
//!     .fleet
//!     .merged;
//! assert_eq!(report.metrics.completed, 50);
//! assert!(report.metrics.ttft.p99_s >= report.metrics.ttft.p50_s);
//! let slo = SloTarget::new(1.0, 0.05);
//! assert!(report.attainment(&slo) > 0.0);
//! ```

use crate::equeue::EventQueue;
use crate::sink::{MetricsMode, RequestOutcome, RunSink, ScopeFold};
use rago_cache::{
    CacheConfig, CacheCounters, PrefixKvCache, PrefixLookup, RetrievalLookup, RetrievalResultCache,
};
use rago_schema::{SloTarget, Stage};
use rago_workloads::{ContentIdentity, Request};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

/// Tolerance used when comparing event timestamps: events this close
/// apply together, so a retrieval returning at a step boundary resumes
/// before the next step forms.
const TIME_EPS: f64 = 1e-12;

/// A latency model as a table indexed by batch fill (1-based), saturating at
/// the largest entry.
///
/// Tables keep the engine configuration concrete and cheap to evaluate: the
/// caller (typically `rago-core`) samples its analytical cost models once per
/// fill level instead of handing the engine a closure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyTable {
    per_fill: Vec<f64>,
}

impl LatencyTable {
    /// Builds a table from per-fill latencies (`per_fill[b - 1]` is the
    /// latency of a batch of `b`).
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or any entry is negative or non-finite.
    pub fn from_table(per_fill: Vec<f64>) -> Self {
        let table = Self { per_fill };
        if let Err(e) = table.validate() {
            panic!("{e}");
        }
        table
    }

    /// Checks that the table has an entry and that every entry is finite
    /// and non-negative (a deserialized table skips
    /// [`Self::from_table`]'s check).
    fn validate(&self) -> Result<(), String> {
        if self.per_fill.is_empty() {
            return Err("a latency table needs at least one entry".into());
        }
        if !self.per_fill.iter().all(|l| l.is_finite() && *l >= 0.0) {
            return Err("latencies must be finite and non-negative".into());
        }
        Ok(())
    }

    /// Samples `f` at every fill in `1..=max_batch`.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or `f` produces a negative or non-finite
    /// latency.
    pub fn from_fn(max_batch: u32, f: impl Fn(u32) -> f64) -> Self {
        assert!(max_batch > 0, "max_batch must be at least 1");
        Self::from_table((1..=max_batch).map(f).collect())
    }

    /// A fill-independent latency.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or the latency is negative or
    /// non-finite.
    pub fn constant(max_batch: u32, latency_s: f64) -> Self {
        Self::from_fn(max_batch, |_| latency_s)
    }

    /// The latency of a batch of `fill` requests (saturating above the
    /// table).
    pub fn latency(&self, fill: u32) -> f64 {
        let idx = (fill.max(1) as usize - 1).min(self.per_fill.len() - 1);
        self.per_fill[idx]
    }

    /// The largest fill the table distinguishes.
    pub fn max_fill(&self) -> u32 {
        self.per_fill.len() as u32
    }
}

/// One pre-decode pipeline stage: its resource, micro-batch cap, and latency
/// model.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Stage name used in reports (e.g. `"retrieval"`, `"prefix"`).
    pub name: String,
    /// Index of the resource executing this stage. Stages sharing an index
    /// are collocated (time-multiplexed with latest-stage-first priority);
    /// distinct indices run disaggregated (pipelined).
    pub resource: usize,
    /// Maximum micro-batch size dispatched to this stage at once.
    pub batch: u32,
    /// Latency of one micro-batch as a function of its fill.
    pub latency: LatencyTable,
}

impl StageSpec {
    /// Creates a stage spec.
    ///
    /// # Panics
    ///
    /// Panics if the batch cap is zero.
    pub fn new(
        name: impl Into<String>,
        resource: usize,
        batch: u32,
        latency: LatencyTable,
    ) -> Self {
        let stage = Self {
            name: name.into(),
            resource,
            batch,
            latency,
        };
        if let Err(e) = stage.validate() {
            panic!("{e}");
        }
        stage
    }

    /// Checks the batch cap and the latency table.
    fn validate(&self) -> Result<(), String> {
        if self.batch == 0 {
            return Err("stage micro-batch must be at least 1".into());
        }
        self.latency.validate()
    }
}

/// The decode stage under continuous batching.
#[derive(Debug, Clone)]
pub struct DecodeSpec {
    /// Maximum number of resident sequences (active or paused) in the decode
    /// batch — paused sequences keep their slot because their KV cache stays
    /// on the accelerator.
    pub max_batch: u32,
    /// Latency of one decode step as a function of the number of sequences
    /// actively stepping.
    pub step_latency: LatencyTable,
}

impl DecodeSpec {
    /// Creates a decode spec.
    ///
    /// # Panics
    ///
    /// Panics if the batch cap is zero or any step latency is not strictly
    /// positive (a zero-latency decode step would let simulated time stall).
    pub fn new(max_batch: u32, step_latency: LatencyTable) -> Self {
        let decode = Self {
            max_batch,
            step_latency,
        };
        if let Err(e) = decode.validate() {
            panic!("{e}");
        }
        decode
    }

    /// Checks the batch cap and that every step latency is finite and
    /// strictly positive.
    fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("decode batch must be at least 1".into());
        }
        self.step_latency.validate()?;
        let table = &self.step_latency;
        if !(1..=table.max_fill()).all(|f| table.latency(f) > 0.0) {
            return Err("decode step latency must be strictly positive".into());
        }
        Ok(())
    }
}

/// Iterative mid-generation retrieval configuration (Case III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterativeSpec {
    /// Retrievals each sequence issues *during* generation (beyond the
    /// pre-decode retrieval). Zero disables pausing.
    pub retrievals_per_sequence: u32,
    /// Batch size of the iterative retrieval + re-prefix pass.
    pub iterative_batch: u32,
    /// Latency of one iterative retrieval + re-prefix pass, in seconds.
    pub retrieval_prefix_latency_s: f64,
    /// RNG seed controlling the per-sequence trigger positions: each
    /// request draws its positions from this stream at injection, in
    /// injection order, uniformly among its tokens but the last.
    pub seed: u64,
}

impl IterativeSpec {
    /// Checks the retrieval batch and latency.
    fn validate(&self) -> Result<(), String> {
        if self.retrievals_per_sequence > 0 && self.iterative_batch == 0 {
            return Err("iterative_batch must be at least 1 when retrievals are issued".into());
        }
        let latency = self.retrieval_prefix_latency_s;
        if !(latency.is_finite() && latency >= 0.0) {
            return Err("retrieval latency must be finite and non-negative".into());
        }
        Ok(())
    }
}

/// How the caches of `rago-cache` attach to a pipeline: which capacities to
/// provision per replica, and which stage indices they act on.
///
/// Every replica built from a spec with a cache plan owns *its own* cache
/// state, created cold — a freshly provisioned autoscaler replica therefore
/// pays cache warm-up on top of its provisioning warm-up window.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePlan {
    /// The cache capacities and policies (a zero-capacity half always
    /// misses, reproducing the cache-less run bit-exactly).
    pub config: CacheConfig,
    /// Index of the main-prefix stage in [`PipelineSpec::stages`]: a
    /// prefix-KV hit charges this stage's latency only for the uncached
    /// token suffix of the micro-batch. Required when
    /// [`CacheConfig::prefix`] is configured.
    pub prefix_stage: Option<usize>,
    /// Stage indices a retrieval-result hit skips entirely (retrieve +
    /// rerank), strictly ascending.
    pub retrieval_stages: Vec<usize>,
}

/// A complete serving pipeline: the ordered pre-decode stages, the decode
/// stage, optional iterative retrieval, and optional caches.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Pre-decode stages in pipeline order (may be empty for decode-only
    /// studies).
    pub stages: Vec<StageSpec>,
    /// The decode stage.
    pub decode: DecodeSpec,
    /// Iterative retrieval, or `None` when decoding never pauses.
    pub iterative: Option<IterativeSpec>,
    /// Cache plan, or `None` for the cache-less pipeline.
    pub cache: Option<CachePlan>,
    /// `true` for a prefill-pool replica in a disaggregated fleet: a
    /// request *completes* at the end of its last pre-decode stage —
    /// emitting its first token and a KV-handoff record for the cross-pool
    /// transfer — instead of joining decode admission. The decode spec is
    /// carried but never exercised.
    pub handoff: bool,
}

impl PipelineSpec {
    /// Creates a pipeline without iterative retrieval or caches.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::validate`] fails.
    pub fn new(stages: Vec<StageSpec>, decode: DecodeSpec) -> Self {
        let spec = Self {
            stages,
            decode,
            iterative: None,
            cache: None,
            handoff: false,
        };
        spec.assert_valid();
        spec
    }

    /// Checks what the constructors of the parts assert, which a struct
    /// literal skips: there are no more pre-decode stages than pipeline
    /// stages ([`Stage::PIPELINE_ORDER`]), every stage's micro-batch is at
    /// least 1, the decode batch is at least 1, every latency table is well
    /// formed, every decode step takes strictly positive time, and an
    /// iterative spec that issues retrievals has a batch of at least 1 and
    /// a finite, non-negative latency. A spec that breaks one of these
    /// would stall the simulation, report zero-time decoding, or overflow
    /// a timeline's [`StageTimes`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first rule the spec breaks.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.len() > Stage::PIPELINE_ORDER.len() {
            return Err(format!(
                "{} pre-decode stages; a pipeline has at most {}",
                self.stages.len(),
                Stage::PIPELINE_ORDER.len()
            ));
        }
        for stage in &self.stages {
            stage
                .validate()
                .map_err(|e| format!("stage `{}`: {e}", stage.name))?;
        }
        self.decode.validate()?;
        self.iterative
            .as_ref()
            .map_or(Ok(()), IterativeSpec::validate)
    }

    /// Panics with the message of a failed [`Self::validate`].
    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }

    /// Marks the pipeline as a prefill-pool replica (see
    /// [`PipelineSpec::handoff`]).
    ///
    /// # Panics
    ///
    /// Panics when the pipeline has no pre-decode stages (nothing to
    /// prefill) or carries iterative retrieval (a decode-phase feature).
    #[must_use]
    pub fn with_handoff(mut self) -> Self {
        assert!(
            !self.stages.is_empty(),
            "a prefill-pool replica needs at least one pre-decode stage"
        );
        assert!(
            self.iterative.is_none(),
            "iterative retrieval is a decode-phase feature; a prefill-pool \
             replica cannot carry it"
        );
        self.handoff = true;
        self
    }

    /// The decode-only counterpart of a prefill-pool replica: no pre-decode
    /// stages, so every arriving request (a completed KV transfer) goes
    /// straight to decode admission.
    pub fn decode_only(decode: DecodeSpec, iterative: Option<IterativeSpec>) -> Self {
        let base = Self::new(Vec::new(), decode);
        match iterative {
            Some(it) => base.with_iterative(it),
            None => base,
        }
    }

    /// Attaches a cache plan. Each replica simulation instantiates its own
    /// cold caches from it.
    ///
    /// # Panics
    ///
    /// Panics if a referenced stage index is out of range, the retrieval
    /// stages are not strictly ascending, the prefix stage is also listed as
    /// a retrieval stage, or a prefix cache is configured without naming a
    /// prefix stage.
    pub fn with_cache(mut self, plan: CachePlan) -> Self {
        if let Some(stage) = plan.prefix_stage {
            assert!(
                stage < self.stages.len(),
                "prefix stage {stage} is out of range for {} stages",
                self.stages.len()
            );
        }
        assert!(
            plan.config.prefix.is_none() || plan.prefix_stage.is_some(),
            "a prefix-KV cache needs a prefix stage to act on"
        );
        assert!(
            plan.config.retrieval.is_none() || !plan.retrieval_stages.is_empty(),
            "a retrieval-result cache needs at least one retrieval stage to skip \
             (otherwise it would report hits that save no work)"
        );
        assert!(
            plan.retrieval_stages.windows(2).all(|w| w[0] < w[1]),
            "retrieval stages must be strictly ascending"
        );
        for &stage in &plan.retrieval_stages {
            assert!(
                stage < self.stages.len(),
                "retrieval stage {stage} is out of range for {} stages",
                self.stages.len()
            );
            assert!(
                plan.prefix_stage != Some(stage),
                "stage {stage} cannot be both the prefix stage and a skipped retrieval stage"
            );
        }
        self.cache = Some(plan);
        self
    }

    /// Adds iterative mid-generation retrieval.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::validate`] fails: for instance, the iterative
    /// batch is zero while retrievals are requested, or the retrieval
    /// latency is negative or non-finite.
    pub fn with_iterative(mut self, iterative: IterativeSpec) -> Self {
        self.iterative = Some(iterative);
        self.assert_valid();
        self
    }

    /// Number of distinct resources referenced by the pre-decode stages.
    pub fn num_resources(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.resource + 1)
            .max()
            .unwrap_or(0)
    }
}

/// One request entering the engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineRequest {
    /// Request identifier carried through to the timeline.
    pub id: u64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Prompt-prefix length in tokens. Only consulted by the prefix-KV
    /// cache (to apportion prefill cost between cached prefix and uncached
    /// suffix); cache-less pipelines ignore it entirely, so untagged test
    /// requests may leave it zero.
    pub prefix_tokens: u32,
    /// Output tokens to generate.
    pub decode_tokens: u32,
    /// Workload-class tag (0 for untagged traffic), carried through to the
    /// timeline so reports can break metrics down per tenant class.
    pub class: u32,
    /// Content identity (shared-prefix template and retrieval key), or
    /// `None` for identity-free requests, which never touch any cache and
    /// behave exactly as before caching existed.
    pub identity: Option<ContentIdentity>,
}

impl From<&Request> for EngineRequest {
    fn from(r: &Request) -> Self {
        Self {
            id: r.id,
            arrival_s: r.arrival_s,
            prefix_tokens: r.prefix_tokens,
            decode_tokens: r.decode_tokens.max(1),
            class: r.class,
            identity: r.identity,
        }
    }
}

/// The pre-decode stage times of one request: the start of service at each
/// executed stage, then each stage's completion, both in pipeline order,
/// in one immutable buffer.
///
/// A clone shares the buffer instead of copying it. A fleet moves each
/// timeline into its merged report, and a split fleet's stitched timeline
/// takes its prefill leg's buffer, so each request's times are allocated
/// once. An empty value allocates nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTimes {
    /// The starts, then the ends.
    times: Arc<[f64]>,
    /// How many of `times` are starts.
    split: u32,
}

impl StageTimes {
    /// The stage times `starts` then `ends`, in one allocation.
    ///
    /// # Panics
    ///
    /// Panics if either slice holds more times than there are pipeline
    /// stages ([`Stage::PIPELINE_ORDER`]).
    pub fn new(starts: &[f64], ends: &[f64]) -> Self {
        let split = stage_count(starts.len());
        stage_count(ends.len());
        let times = if starts.is_empty() && ends.is_empty() {
            Arc::default()
        } else {
            starts.iter().chain(ends).copied().collect()
        };
        Self { times, split }
    }

    /// Start of service at each executed pre-decode stage.
    pub fn starts(&self) -> &[f64] {
        &self.times[..self.split as usize]
    }

    /// Completion of each executed pre-decode stage.
    pub fn ends(&self) -> &[f64] {
        &self.times[self.split as usize..]
    }

    /// Bytes of the buffer's allocation: its two reference counts and the
    /// times, or nothing for an empty value.
    fn heap_bytes(&self) -> usize {
        if self.times.is_empty() {
            0
        } else {
            2 * std::mem::size_of::<usize>() + std::mem::size_of_val(&*self.times)
        }
    }
}

/// `n` stage times as a count.
///
/// # Panics
///
/// Panics if `n` exceeds the number of pipeline stages
/// ([`Stage::PIPELINE_ORDER`]): no request executes a stage twice.
pub(crate) fn stage_count(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(count) if n <= Stage::PIPELINE_ORDER.len() => count,
        _ => panic!(
            "{n} stage times; a pipeline has at most {} stages",
            Stage::PIPELINE_ORDER.len()
        ),
    }
}

/// The per-request record of a simulated lifetime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTimeline {
    /// Request identifier.
    pub id: u64,
    /// Arrival time, in seconds.
    pub arrival_s: f64,
    /// Start and completion of each executed pre-decode stage.
    pub stages: StageTimes,
    /// Workload-class tag of the request (0 for untagged traffic).
    pub class: u32,
    /// Time the request joined the decode batch.
    pub decode_join_s: f64,
    /// Time the first output token was emitted (end of the main prefix, or
    /// of the first decode step when the pipeline has no pre-decode stages).
    pub first_token_s: f64,
    /// Time the final token was emitted.
    pub completion_s: f64,
    /// Total time spent waiting in queues (stage queues and decode
    /// admission).
    pub queueing_s: f64,
    /// Output tokens generated.
    pub decode_tokens: u32,
}

impl RequestTimeline {
    /// This request as a sink records it, borrowing its stage slices. The
    /// latency methods below read [`RequestOutcome`]'s one definition.
    pub(crate) fn outcome(&self) -> RequestOutcome<'_> {
        RequestOutcome {
            id: self.id,
            class: self.class,
            arrival_s: self.arrival_s,
            stage_starts_s: self.stages.starts(),
            stage_ends_s: self.stages.ends(),
            decode_join_s: self.decode_join_s,
            first_token_s: self.first_token_s,
            completion_s: self.completion_s,
            queueing_s: self.queueing_s,
            decode_tokens: self.decode_tokens,
        }
    }

    /// Time-to-first-token of this request.
    pub fn ttft_s(&self) -> f64 {
        self.outcome().ttft_s()
    }

    /// Achieved time-per-output-token: decode residency divided by tokens
    /// generated (the quantity [`crate::iterative::simulate`] reports).
    pub fn tpot_s(&self) -> f64 {
        self.outcome().tpot_s()
    }

    /// End-to-end latency from arrival to final token.
    pub fn latency_s(&self) -> f64 {
        self.outcome().latency_s()
    }

    /// Time in service (everything not spent queueing).
    pub fn service_s(&self) -> f64 {
        self.outcome().service_s()
    }
}

/// Summary statistics of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Arithmetic mean, in seconds.
    pub mean_s: f64,
    /// Median (nearest-rank), in seconds.
    pub p50_s: f64,
    /// 95th percentile (nearest-rank), in seconds.
    pub p95_s: f64,
    /// 99th percentile (nearest-rank), in seconds.
    pub p99_s: f64,
    /// Maximum, in seconds.
    pub max_s: f64,
}

impl LatencyStats {
    /// The stats of no samples.
    pub(crate) const ZERO: Self = Self {
        mean_s: 0.0,
        p50_s: 0.0,
        p95_s: 0.0,
        p99_s: 0.0,
        max_s: 0.0,
    };

    /// Computes the stats of `samples` (order irrelevant; empty input yields
    /// all-zero stats).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self::from_sorted(&sorted)
    }

    /// Computes the stats of an already ascending-sorted sample buffer
    /// without copying it. The mean is summed over the *sorted* order —
    /// the same order [`Self::from_samples`] has always summed in — so the
    /// two constructors are bit-identical on equal sample sets.
    ///
    /// The engine sorts each sample buffer once in place at report time and
    /// slices it here for p50/p95/p99, instead of cloning the buffer per
    /// metric family.
    pub fn from_sorted(sorted: &[f64]) -> Self {
        if sorted.is_empty() {
            return Self::ZERO;
        }
        debug_assert!(sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Self {
            mean_s: mean,
            p50_s: percentile(sorted, 50.0),
            p95_s: percentile(sorted, 95.0),
            p99_s: percentile(sorted, 99.0),
            max_s: *sorted.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// The rank is `ceil(p/100 · n)`, computed with a small downward tolerance
/// so a floating-point product that lands an epsilon *above* an exact
/// integer does not bump the rank (e.g. `0.2 × 5 = 1.0000000000000002`
/// must select rank 1, not 2).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregate metrics of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingMetrics {
    /// Requests submitted.
    pub requests: usize,
    /// Requests that finished generation (the engine always runs to
    /// completion, so this equals `requests`).
    pub completed: usize,
    /// Earliest arrival time, in seconds (zero when no requests ran).
    pub first_arrival_s: f64,
    /// Latest arrival time, in seconds (zero when no requests ran).
    pub last_arrival_s: f64,
    /// Time of the last completion, in seconds.
    pub makespan_s: f64,
    /// Span from the first arrival to the last completion, in seconds — the
    /// window the system actually served traffic. Rates are measured over
    /// this window so a trace whose first arrival is late (e.g. a shifted
    /// burst) does not deflate them.
    pub serving_duration_s: f64,
    /// Time spent draining in-flight requests after the last arrival, in
    /// seconds. Capacity planning can discount this tail: it is paid once
    /// per trace, not per unit of sustained traffic.
    pub drain_tail_s: f64,
    /// Completed requests divided by the serving duration (first arrival to
    /// last completion).
    pub throughput_rps: f64,
    /// Time-to-first-token distribution.
    pub ttft: LatencyStats,
    /// Time-per-output-token distribution.
    pub tpot: LatencyStats,
    /// End-to-end request latency distribution.
    pub latency: LatencyStats,
    /// Mean per-request time spent waiting in queues.
    pub queueing_mean_s: f64,
    /// Mean per-request time in service.
    pub service_mean_s: f64,
    /// Time-weighted mean number of actively stepping decode sequences.
    pub mean_decode_fill: f64,
    /// Iterative retrieval batches dispatched.
    pub retrieval_batches: u32,
    /// Mean fill of dispatched iterative retrieval batches.
    pub mean_retrieval_batch_fill: f64,
    /// Discrete events the simulation processed (arrivals, stage and step
    /// completions, retrieval completions). Like the retrieval counters this
    /// describes the shared pipeline: fleet reports sum it across replicas
    /// and per-class rows repeat the run-level value. The `scale_stress`
    /// bench divides it by wall-clock time for its events/sec figure.
    pub events_processed: u64,
    /// Event-queue pops the simulation made, summed like
    /// `events_processed`. A decode run of `k` steps is one pop but `k`
    /// events, so `events_processed − queue_pops` is the decode-step
    /// boundaries that passed inside runs.
    #[serde(default)]
    pub queue_pops: u64,
    /// Requests shed by fleet-level admission control before reaching a
    /// replica. Always zero without admission control; the fleet engine
    /// ([`crate::fleet`]) patches it into merged and per-class rows.
    /// Shed requests are excluded from `requests`/`completed` and from every
    /// latency distribution — they never executed.
    #[serde(default)]
    pub shed: usize,
}

/// One workload class's slice of a run's metrics.
///
/// Request-level quantities (counts, TTFT/TPOT/latency distributions,
/// queueing, throughput over the class's own serving window) are computed
/// from the class's timelines alone. Shared-resource quantities
/// (`mean_decode_fill`, `retrieval_batches`, `mean_retrieval_batch_fill`)
/// describe the pipeline the classes share and repeat the run-level values
/// in every row — a tenant does not have a decode fill of its own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassMetrics {
    /// The workload-class tag.
    pub class: u32,
    /// The class's serving metrics (see the struct docs for which fields
    /// are class-local versus shared).
    pub metrics: ServingMetrics,
}

/// One workload class's cache accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCacheUsage {
    /// The workload-class tag.
    pub class: u32,
    /// Prefix-KV cache counters of this class's accesses.
    pub prefix: CacheCounters,
    /// Retrieval-result cache counters of this class's accesses.
    pub retrieval: CacheCounters,
}

/// Cache accounting of one run (all-zero for cache-less runs). Like the
/// iterative-retrieval counters, these describe the shared pipeline: a
/// fleet report sums them across replicas, and the per-class rows slice the
/// same accesses by the requesting tenant.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheUsage {
    /// Prefix-KV cache counters (hits save prefill tokens).
    pub prefix: CacheCounters,
    /// Retrieval-result cache counters (hits skip retrieve + rerank).
    pub retrieval: CacheCounters,
    /// Per-class slices, ascending by class id — only classes that
    /// performed at least one lookup appear.
    pub per_class: Vec<ClassCacheUsage>,
}

/// The full result of one engine run: per-request timelines plus aggregate
/// metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Per-request lifetimes, in arrival order.
    pub timelines: Vec<RequestTimeline>,
    /// Aggregate distributions and throughput.
    pub metrics: ServingMetrics,
    /// Per-workload-class breakdowns, sorted by class id — one row per
    /// distinct class tag in the run. For a single-class (or untagged) run
    /// this is one row whose metrics equal [`Self::metrics`] exactly.
    pub per_class: Vec<ClassMetrics>,
    /// Cache hit/miss/eviction accounting (all-zero when the pipeline has
    /// no cache plan).
    pub cache: CacheUsage,
    /// Online SLO scores when the run used the streaming metrics pipeline
    /// ([`crate::sink::MetricsMode::Streaming`]); `None` for exact runs,
    /// whose timelines answer any SLO query after the fact. When set,
    /// [`Self::timelines`] is empty and the SLO accessors answer from
    /// these counts instead.
    pub streamed: Option<crate::sink::StreamedScores>,
}

impl ServingReport {
    /// Builds the report of an exact (timeline-retaining) run: every
    /// request's timeline, in retirement order.
    pub(crate) fn from_exact_sink(mut sink: crate::sink::ExactSink) -> Self {
        sink.build_timelines();
        build_report(sink.timelines, &sink.acc)
    }

    /// Fraction of requests meeting both latency targets of `slo`.
    ///
    /// # Panics
    ///
    /// For a streaming report, panics unless `slo` is the SLO that was
    /// configured in the run's [`crate::sink::StreamingConfig`].
    pub fn attainment(&self, slo: &SloTarget) -> f64 {
        if self.metrics.requests == 0 {
            return 1.0;
        }
        self.met_count(slo) as f64 / self.metrics.requests as f64
    }

    /// Requests meeting both latency targets of `slo`: scored from the
    /// retained timelines, or read from the streaming sink's online count.
    ///
    /// # Panics
    ///
    /// For a streaming report, panics unless `slo` is the SLO that was
    /// configured in the run's [`crate::sink::StreamingConfig`].
    pub(crate) fn met_count(&self, slo: &SloTarget) -> usize {
        match &self.streamed {
            Some(streamed) => streamed.run_met(slo) as usize,
            None => self
                .timelines
                .iter()
                .filter(|t| slo.meets(t.ttft_s(), t.tpot_s()))
                .count(),
        }
    }

    /// The distinct workload-class tags of the run, ascending.
    pub fn classes(&self) -> Vec<u32> {
        self.per_class.iter().map(|c| c.class).collect()
    }

    /// Fraction of class `class`'s requests meeting both latency targets of
    /// `slo` (1.0 when the class has no requests, mirroring
    /// [`Self::attainment`] on an empty run).
    ///
    /// # Panics
    ///
    /// As [`Self::class_slo_counts`].
    pub fn class_attainment(&self, class: u32, slo: &SloTarget) -> f64 {
        let (met, total) = self.class_slo_counts(class, slo);
        if total == 0 {
            return 1.0;
        }
        met as f64 / total as f64
    }

    /// Class `class`'s SLO goodput: its requests meeting `slo` divided by
    /// the *class's own* serving window (its first arrival to its last
    /// completion), in requests per second. Zero when the class has no
    /// requests or a degenerate window.
    ///
    /// # Panics
    ///
    /// As [`Self::class_slo_counts`].
    pub fn class_goodput_rps(&self, class: u32, slo: &SloTarget) -> f64 {
        let duration = self
            .per_class
            .iter()
            .find(|c| c.class == class)
            .map(|c| c.metrics.serving_duration_s)
            .unwrap_or(0.0);
        if duration <= 0.0 {
            return 0.0;
        }
        let (met, _) = self.class_slo_counts(class, slo);
        met as f64 / duration
    }

    /// `(met, total)`: how many of class `class`'s requests meet both
    /// latency targets of `slo`, and how many requests the class has at
    /// all. The counting primitive behind [`Self::class_attainment`] and
    /// [`Self::class_goodput_rps`] — public so the multi-tenant scoring in
    /// `rago-core` shares this single definition of per-class SLO
    /// accounting.
    ///
    /// # Panics
    ///
    /// For a streaming report, panics if the class has requests and `slo`
    /// is not the SLO they were counted against (the class's
    /// [`crate::sink::StreamingConfig`] override, else the run-level SLO)
    /// — including when no SLO was configured for the class at all.
    pub fn class_slo_counts(&self, class: u32, slo: &SloTarget) -> (usize, usize) {
        if let Some(streamed) = &self.streamed {
            let total = self
                .per_class
                .iter()
                .find(|c| c.class == class)
                .map_or(0, |c| c.metrics.requests);
            if total == 0 {
                return (0, 0);
            }
            return (streamed.class_met(class, slo) as usize, total);
        }
        let mut met = 0;
        let mut total = 0;
        for t in self.timelines.iter().filter(|t| t.class == class) {
            total += 1;
            if slo.meets(t.ttft_s(), t.tpot_s()) {
                met += 1;
            }
        }
        (met, total)
    }

    /// SLO goodput: requests meeting the latency targets divided by the
    /// serving duration (first arrival to last completion), in requests per
    /// second.
    ///
    /// # Panics
    ///
    /// For a streaming report, panics unless `slo` is the SLO that was
    /// configured in the run's [`crate::sink::StreamingConfig`].
    pub fn goodput_rps(&self, slo: &SloTarget) -> f64 {
        if self.metrics.serving_duration_s <= 0.0 {
            return 0.0;
        }
        self.met_count(slo) as f64 / self.metrics.serving_duration_s
    }

    /// Whether the run meets `slo` including its attainment requirement.
    pub fn meets_slo(&self, slo: &SloTarget) -> bool {
        self.attainment(slo) >= slo.attainment
    }

    /// An estimate of the bytes this report retains after the run — the
    /// quantity the `scale_stress` bench tracks as its peak-memory proxy.
    /// Exact reports grow `O(requests)` (one [`RequestTimeline`] plus its
    /// [`StageTimes`] buffer per request); streaming reports stay
    /// `O(classes)`.
    ///
    /// A fleet's merged report owns its timelines outright, and its
    /// replicas keep none; [`crate::FleetReport::retained_bytes`] counts a
    /// whole fleet report.
    pub fn retained_bytes(&self) -> usize {
        let timelines = std::mem::size_of::<RequestTimeline>() * self.timelines.capacity()
            + self
                .timelines
                .iter()
                .map(|t| t.stages.heap_bytes())
                .sum::<usize>();
        std::mem::size_of::<Self>()
            + timelines
            + self.per_class.capacity() * std::mem::size_of::<ClassMetrics>()
            + self
                .streamed
                .as_ref()
                .map_or(0, crate::sink::StreamedScores::retained_bytes)
    }
}

/// Finds the sustained-throughput knee of a rate sweep: the largest offered
/// rate, **below the first SLO-violating rate**, whose attainment meets
/// `slo.attainment`.
///
/// `points` are `(offered_rate_rps, attainment)` pairs from independent
/// engine runs (any order; they are sorted by rate internally). A sweep is
/// rarely perfectly monotone — measurement noise or burst artifacts can make
/// an overloaded rate *appear* to recover — so the knee is capped at the
/// first violation: once any rate misses the attainment target, higher rates
/// are not trusted even if their measured attainment recovers. Returns
/// `None` when the smallest swept rate already violates the target (or the
/// sweep is empty).
///
/// # Examples
///
/// ```
/// use rago_serving_sim::engine::sustained_throughput_knee;
/// use rago_schema::SloTarget;
///
/// let slo = SloTarget::new(2.0, 0.05); // 90 % attainment required
/// let sweep = [(10.0, 1.0), (20.0, 0.97), (40.0, 0.91), (80.0, 0.4)];
/// assert_eq!(sustained_throughput_knee(&sweep, &slo), Some(40.0));
/// // A noisy recovery beyond the first violation does not extend the knee.
/// let noisy = [(10.0, 1.0), (20.0, 0.6), (40.0, 0.95)];
/// assert_eq!(sustained_throughput_knee(&noisy, &slo), Some(10.0));
/// assert_eq!(sustained_throughput_knee(&[(10.0, 0.1)], &slo), None);
/// ```
pub fn sustained_throughput_knee(points: &[(f64, f64)], slo: &SloTarget) -> Option<f64> {
    let mut sweep = points.to_vec();
    sweep.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut knee = None;
    for (rate, attainment) in sweep {
        if attainment >= slo.attainment {
            knee = Some(rate);
        } else {
            break;
        }
    }
    knee
}

/// One cache probe observed during a traced run: a retrieval-result
/// lookup at request arrival, or a per-member prefix-KV access at
/// micro-batch dispatch. Recorded only when probe tracking is enabled
/// (traced runs); reading a cache never depends on the log, so traced and
/// untraced runs stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheProbe {
    /// When the probe happened (arrival time for retrieval probes,
    /// dispatch time for prefix probes), in seconds.
    pub time_s: f64,
    /// The request id.
    pub id: u64,
    /// The request's workload class.
    pub class: u32,
    /// `true` for a prefix-KV probe, `false` for a retrieval-result probe.
    pub prefix: bool,
    /// Whether the probe hit.
    pub hit: bool,
    /// Prefix tokens served from cache (always 0 for retrieval probes).
    pub hit_tokens: u32,
}

/// Discrete events. Same-timestamp events are applied together (state first,
/// then one dispatch pass), so a retrieval completing exactly at a step
/// boundary resumes before the next step forms, as in a step-by-step loop
/// that resumes sequences before it steps.
///
/// Events carry no member lists: the requests an event covers live in
/// reusable buffers on the simulation ([`ReplicaSim::stage_batches`] per
/// resource, the decode batch's [`ReplicaSim::changes`], the
/// retrieval-batch pool), so the inner loop schedules and applies events
/// without allocating. Ordering at
/// equal timestamps is `(time, class, step-last, seq)` — faults, then
/// arrivals, then stage and retrieval completions, then the decode step —
/// enforced structurally by the lanes of [`EventQueue`]; see
/// `crate::equeue` for why that order is independent of push time.
///
/// The decode batch is one [`DecodeRun`]: consecutive steps over one
/// membership, and one [`Ev::StepDone`] at the last step's boundary. The
/// queue never holds the boundaries before it. Each of them is still one
/// logical event — it counts in `events_processed`, and it joins the group
/// of any event within [`TIME_EPS`] of it exactly as a queued step event
/// would (see [`ReplicaSim::process_group`]).
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Request `r` arrives and joins the first stage queue (or decode
    /// admission when the pipeline has no pre-decode stages).
    Arrival(u32),
    /// The micro-batch running on `resource` finishes; its stage and
    /// members are in the resource's [`StageBatch`] buffer.
    StageDone { resource: u32 },
    /// The decode run in flight ends with its step in flight: a member
    /// finishes or pauses for a retrieval, or the next step changes (see
    /// [`DecodeRun`]).
    StepDone,
    /// The iterative retrieval batch in pool slot `slot` completes; its
    /// members resume decoding.
    RetrievalDone(u32),
    /// Fault-lane event: the replica's service-time slowdown factor becomes
    /// `f64::from_bits(factor_bits)` (straggler onset sets it above 1, the
    /// recovery resets it to exactly 1). Carried as bits so `Ev` stays
    /// `Copy + Debug` without an `Eq`-hostile float field.
    SlowdownChange { factor_bits: u64 },
}

/// The decode run in flight: consecutive decode steps over one
/// membership. Under continuous batching, sequences join and leave the
/// batch only at step boundaries, so until the next membership change
/// every step has the same fill and the same duration. The run's one
/// scheduled event is its last boundary, the earliest step at which a
/// member finishes or reaches its next retrieval trigger. The boundaries
/// before it pass as counters.
///
/// Members keep no running token count. Each active member's next change
/// is an absolute step count on [`ReplicaSim::changes`], and its
/// `generated` column already holds its count at that step, so neither a
/// run's start nor its end touches a member that does not join or leave.
///
/// An admission, a resume or a slowdown change alters the next step, so it
/// cuts the run short at the step in flight. Boundaries are computed by
/// repeated addition, one `+= dur` per step, and each step's share of the
/// fill accumulators is added when the step starts, so every timestamp
/// and sum has the bits of a step-by-step loop.
#[derive(Debug, Clone, Copy)]
struct DecodeRun {
    /// Duration of every step of the run.
    dur: f64,
    /// End of the step in flight.
    step_end: f64,
    /// Steps whose boundary has passed.
    passed: u32,
    /// Steps in the run. The last one ends at the queued [`Ev::StepDone`].
    len: u32,
}

/// The micro-batch in flight on one resource: which stage it runs and the
/// request slots it contains. One buffer per resource, reused across
/// dispatches — `resource_busy` guarantees at most one batch in flight per
/// resource, so the buffer is free whenever a new batch forms.
#[derive(Debug, Clone, Default)]
struct StageBatch {
    stage: u32,
    members: Vec<u32>,
}

/// Sentinel for "not yet recorded" timestamps in the arena. All simulated
/// times are finite and non-negative, so a negative sentinel is
/// unambiguous.
const UNSET: f64 = f64::NEG_INFINITY;

/// Retired slots the arena lets accumulate before it compacts them away,
/// so a compaction's fixed cost — one drain per column — is spread over at
/// least this many slots.
const COMPACT_MIN: usize = 64;

/// Per-request simulation state in struct-of-arrays layout: one dense slot
/// per in-flight request, each field a parallel `Vec`. The hot loop
/// touches narrow field groups per event — admission writes
/// `decode_join_s`/`queueing_s`, a decode run touches `generated` — so
/// splitting the fields keeps those writes on dense cache lines, and slot
/// creation is a handful of `Vec` pushes instead of a per-request struct
/// with three heap-allocated vectors.
///
/// A request's *slot id* is its injection (= arrival) index on the
/// replica, monotone over the run: event payloads, the decode batch and
/// the stage/retrieval queues all hold slot ids, so member iteration and the
/// arrival-order tie-break reproduce the original engine exactly. Slots
/// are retired in that same order — the head slot once it completes (see
/// [`ReplicaSim::retire`]) — and a full arena drains its retired prefix
/// before it would grow, so its capacity stays within twice the replica's
/// peak of live requests (or [`COMPACT_MIN`]). Local index `i` holds slot
/// id `base + i`.
#[derive(Debug, Clone, Default)]
struct ReqArena {
    /// Pre-decode stage count of the pipeline (stage slices are
    /// `num_stages` wide per request).
    num_stages: usize,
    /// Slot id of local index 0.
    base: usize,
    /// Local index of the oldest slot not yet retired.
    head: usize,
    /// The injected requests.
    requests: Vec<EngineRequest>,
    queue_entry_s: Vec<f64>,
    decode_join_s: Vec<f64>,
    first_token_s: Vec<f64>,
    completion_s: Vec<f64>,
    queueing_s: Vec<f64>,
    /// Tokens generated: for an active decode member, the count it will
    /// have at its next membership change (see [`DecodeRun`]).
    generated: Vec<u32>,
    /// Dense copy of each request's `decode_tokens` — the decode batch
    /// reads only this field of the request, and the dense copy keeps that
    /// read off the 48-byte `EngineRequest` stride.
    tokens: Vec<u32>,
    next_retrieval: Vec<u32>,
    /// The request's retrieval result was cached at arrival, so the plan's
    /// retrieval stages are skipped as zero-duration pass-throughs.
    skip_retrieval: Vec<bool>,
    /// Flat `num_stages`-strided stage service start times; only the first
    /// `stage_starts_len[i]` entries of slot `i`'s slice are recorded.
    stage_starts_s: Vec<f64>,
    stage_starts_len: Vec<u32>,
    /// Flat `num_stages`-strided stage completion times, like the starts.
    stage_ends_s: Vec<f64>,
    stage_ends_len: Vec<u32>,
    /// Flat pool of iterative-retrieval trigger positions; slot `i` owns
    /// `retrieval_pos[retrieval_pos_off[i] .. retrieval_pos_off[i + 1]]`.
    retrieval_pos: Vec<u32>,
    retrieval_pos_off: Vec<u32>,
}

impl ReqArena {
    fn new(num_stages: usize) -> Self {
        Self {
            num_stages,
            retrieval_pos_off: vec![0],
            ..Self::default()
        }
    }

    /// Slots held: in flight, plus retired ones not yet compacted away.
    fn len(&self) -> usize {
        self.requests.len()
    }

    /// Requests ever injected — the next slot id.
    fn injected(&self) -> usize {
        self.base + self.len()
    }

    /// Slots injected and not yet retired.
    fn live(&self) -> usize {
        self.len() - self.head
    }

    /// The local index of slot id `slot`.
    fn at(&self, slot: u32) -> usize {
        debug_assert!(
            slot as usize >= self.base + self.head,
            "slot already retired"
        );
        slot as usize - self.base
    }

    /// Appends one request slot, returning its slot id.
    fn push_slot(&mut self, req: EngineRequest, positions: &[u32]) -> u32 {
        let slot = self.injected();
        assert!(slot < u32::MAX as usize, "request arena is full");
        self.compact_before_growth(1);
        self.requests.push(req);
        self.queue_entry_s.push(0.0);
        self.decode_join_s.push(0.0);
        self.first_token_s.push(UNSET);
        self.completion_s.push(UNSET);
        self.queueing_s.push(0.0);
        self.generated.push(0);
        self.tokens.push(req.decode_tokens);
        self.next_retrieval.push(0);
        self.skip_retrieval.push(false);
        self.stage_starts_s
            .resize(self.stage_starts_s.len() + self.num_stages, 0.0);
        self.stage_starts_len.push(0);
        self.stage_ends_s
            .resize(self.stage_ends_s.len() + self.num_stages, 0.0);
        self.stage_ends_len.push(0);
        self.retrieval_pos.extend_from_slice(positions);
        self.retrieval_pos_off.push(self.retrieval_pos.len() as u32);
        slot as u32
    }

    /// Records a stage service start for slot `i`.
    fn push_stage_start(&mut self, i: usize, t: f64) {
        let n = self.stage_starts_len[i] as usize;
        debug_assert!(n < self.num_stages, "more stage starts than stages");
        self.stage_starts_s[i * self.num_stages + n] = t;
        self.stage_starts_len[i] = (n + 1) as u32;
    }

    /// Records a stage completion for slot `i`.
    fn push_stage_end(&mut self, i: usize, t: f64) {
        let n = self.stage_ends_len[i] as usize;
        debug_assert!(n < self.num_stages, "more stage ends than stages");
        self.stage_ends_s[i * self.num_stages + n] = t;
        self.stage_ends_len[i] = (n + 1) as u32;
    }

    /// The finished outcome of completed slot `i`, borrowing its stage
    /// slices.
    fn outcome(&self, i: usize) -> RequestOutcome<'_> {
        let req = &self.requests[i];
        let stride = i * self.num_stages;
        debug_assert!(
            self.first_token_s[i] != UNSET,
            "completed without a first token"
        );
        RequestOutcome {
            id: req.id,
            class: req.class,
            arrival_s: req.arrival_s,
            stage_starts_s: &self.stage_starts_s
                [stride..stride + self.stage_starts_len[i] as usize],
            stage_ends_s: &self.stage_ends_s[stride..stride + self.stage_ends_len[i] as usize],
            decode_join_s: self.decode_join_s[i],
            first_token_s: self.first_token_s[i],
            completion_s: self.completion_s[i],
            queueing_s: self.queueing_s[i],
            decode_tokens: req.decode_tokens,
        }
    }

    /// Makes room for `additional` slots by dropping the retired prefix
    /// instead of growing, when the columns are full and the prefix is at
    /// least [`COMPACT_MIN`] slots and no shorter than the live suffix.
    /// Each compaction moves at most as many slots as it frees, and at
    /// least half the capacity is free after it — amortised `O(1)` per
    /// slot — and the capacity stays within twice the peak of live slots.
    fn compact_before_growth(&mut self, additional: usize) {
        let k = self.head;
        let full = self.len() + additional > self.requests.capacity();
        if !full || k < COMPACT_MIN || k < self.live() {
            return;
        }
        let strided = k * self.num_stages;
        self.requests.drain(..k);
        self.queue_entry_s.drain(..k);
        self.decode_join_s.drain(..k);
        self.first_token_s.drain(..k);
        self.completion_s.drain(..k);
        self.queueing_s.drain(..k);
        self.generated.drain(..k);
        self.tokens.drain(..k);
        self.next_retrieval.drain(..k);
        self.skip_retrieval.drain(..k);
        self.stage_starts_s.drain(..strided);
        self.stage_starts_len.drain(..k);
        self.stage_ends_s.drain(..strided);
        self.stage_ends_len.drain(..k);
        // Rebase the trigger-position offsets onto the surviving pool.
        let dropped = self.retrieval_pos_off[k];
        self.retrieval_pos.drain(..dropped as usize);
        self.retrieval_pos_off.drain(..k);
        if dropped > 0 {
            for off in &mut self.retrieval_pos_off {
                *off -= dropped;
            }
        }
        self.base += k;
        self.head = 0;
    }
}

/// Cache accounting a simulation accumulates as it consults its caches:
/// run-level counters plus per-class slices (the engine attributes each
/// access to the requesting class; the caches themselves only count
/// totals).
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheAcc {
    prefix: CacheCounters,
    retrieval: CacheCounters,
    per_class: BTreeMap<u32, (CacheCounters, CacheCounters)>,
}

impl CacheAcc {
    fn record_prefix(&mut self, class: u32, lookup: &PrefixLookup) {
        let delta = CacheCounters {
            lookups: 1,
            hits: u64::from(lookup.hit),
            insertions: u64::from(lookup.inserted),
            evictions: u64::from(lookup.evictions),
            tokens_saved: u64::from(lookup.hit_tokens),
        };
        self.prefix.absorb(&delta);
        self.per_class.entry(class).or_default().0.absorb(&delta);
    }

    fn record_retrieval(&mut self, class: u32, lookup: &RetrievalLookup) {
        let delta = CacheCounters {
            lookups: 1,
            hits: u64::from(lookup.hit),
            insertions: u64::from(lookup.inserted),
            evictions: u64::from(lookup.evictions),
            tokens_saved: 0,
        };
        self.retrieval.absorb(&delta);
        self.per_class.entry(class).or_default().1.absorb(&delta);
    }

    fn merge_from(&mut self, other: &CacheAcc) {
        self.prefix.absorb(&other.prefix);
        self.retrieval.absorb(&other.retrieval);
        for (class, (p, r)) in &other.per_class {
            let slot = self.per_class.entry(*class).or_default();
            slot.0.absorb(p);
            slot.1.absorb(r);
        }
    }

    pub(crate) fn to_usage(&self) -> CacheUsage {
        CacheUsage {
            prefix: self.prefix,
            retrieval: self.retrieval,
            per_class: self
                .per_class
                .iter()
                .map(|(class, (prefix, retrieval))| ClassCacheUsage {
                    class: *class,
                    prefix: *prefix,
                    retrieval: *retrieval,
                })
                .collect(),
        }
    }
}

/// Aggregate accumulators a simulation carries besides its timelines. Kept
/// separate so fleet-level reports (see [`crate::fleet`]) can sum them
/// across replicas before building merged [`ServingMetrics`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SimAccumulators {
    pub(crate) retrieval_batches: u32,
    pub(crate) retrieval_fill: u64,
    pub(crate) fill_weighted_time: f64,
    pub(crate) stepping_time: f64,
    /// Discrete events applied by the simulation loop — the unit the
    /// `scale_stress` bench divides by wall time for its events/sec figure.
    /// A decode run of `k` steps counts `k`.
    pub(crate) events: u64,
    /// Events popped from the event queue: `events` less the decode-step
    /// boundaries that passed inside a run.
    pub(crate) queue_pops: u64,
    pub(crate) cache: CacheAcc,
}

impl SimAccumulators {
    /// Element-wise sum, used when merging replica runs into a fleet report.
    pub(crate) fn merge_from(&mut self, other: &Self) {
        self.retrieval_batches += other.retrieval_batches;
        self.retrieval_fill += other.retrieval_fill;
        self.fill_weighted_time += other.fill_weighted_time;
        self.stepping_time += other.stepping_time;
        self.events += other.events;
        self.queue_pops += other.queue_pops;
        self.cache.merge_from(&other.cache);
    }

    /// `metrics` with its pipeline-level fields — decode and retrieval
    /// batch fill, events and queue pops — set from these accumulators:
    /// the one definition the exact and streaming reports share.
    pub(crate) fn with_pipeline_fields(&self, metrics: ServingMetrics) -> ServingMetrics {
        ServingMetrics {
            mean_decode_fill: if self.stepping_time > 0.0 {
                self.fill_weighted_time / self.stepping_time
            } else {
                0.0
            },
            retrieval_batches: self.retrieval_batches,
            mean_retrieval_batch_fill: if self.retrieval_batches == 0 {
                0.0
            } else {
                self.retrieval_fill as f64 / f64::from(self.retrieval_batches)
            },
            events_processed: self.events,
            queue_pops: self.queue_pops,
            ..metrics
        }
    }
}

/// A replica's running count of its completions scored against one SLO:
/// what the fleet's attainment trigger and miss budget read, in place of a
/// per-request log.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SloTally {
    pub(crate) slo: SloTarget,
    /// Completions scored since the tally was seeded or last restarted.
    pub(crate) completed: usize,
    /// Those that met `slo`.
    pub(crate) met: usize,
}

impl SloTally {
    /// An empty tally against `slo`.
    pub(crate) fn new(slo: SloTarget) -> Self {
        Self {
            slo,
            completed: 0,
            met: 0,
        }
    }

    fn record(&mut self, ttft_s: f64, tpot_s: f64) {
        self.completed += 1;
        self.met += usize::from(self.slo.meets(ttft_s, tpot_s));
    }

    /// Scored completions that missed `slo`.
    pub(crate) fn misses(&self) -> usize {
        self.completed - self.met
    }
}

/// One pipeline's discrete-event simulation as a steppable state machine.
///
/// The fleet engine ([`crate::fleet`]) drives its replicas from a shared
/// clock — injecting each routed request at its arrival time after
/// advancing every replica to just before that instant, so router policies
/// can observe live queue and decode state. That is the same simulation
/// as injecting every request up front and running to completion: event
/// order is `(time, class, seq)` with arrivals ordered before
/// same-instant completions, which makes the order independent of *when*
/// the arrival event was pushed (pinned by the `cluster` unit tests).
///
/// The simulation owns its run's sink from construction and retires each
/// request into it as soon as that request and every one injected before
/// it have completed, so per-request state lives only while requests are
/// in flight.
pub(crate) struct ReplicaSim {
    spec: PipelineSpec,
    /// RNG for iterative trigger positions, sampled per request at injection
    /// in arrival order by [`sample_positions`].
    iterative_rng: Option<StdRng>,
    arena: ReqArena,
    /// Where retired requests go, in injection order.
    sink: RunSink,
    /// The most slots injected and not yet retired at any one time.
    peak_live: usize,
    stage_queues: Vec<VecDeque<u32>>,
    resource_busy: Vec<bool>,
    /// The micro-batch in flight on each resource, valid while the
    /// resource is busy; the buffers are reused across dispatches.
    stage_batches: Vec<StageBatch>,
    /// Requests holding a decode slot (active or paused).
    resident: usize,
    admission: VecDeque<u32>,
    /// Decode steps completed before the run in flight.
    decode_steps: u64,
    /// `(step, slot)` of each member of the run in flight: the absolute
    /// step count at which it finishes or reaches its next retrieval
    /// trigger, earliest first. Equal steps pop in slot order, the order a
    /// step-by-step loop walks the batch.
    changes: BinaryHeap<Reverse<(u64, u32)>>,
    /// Requests admitted or resumed since the last run started; they join
    /// the next one.
    joining: Vec<u32>,
    /// The decode run in flight, if any.
    run: Option<DecodeRun>,
    retrieval_queue: VecDeque<u32>,
    /// Member buffers of in-flight iterative-retrieval batches, indexed by
    /// the pool slot carried in [`Ev::RetrievalDone`]. `retrieval_free`
    /// recycles drained slots, so the pool stays as small as the peak
    /// number of concurrent retrieval batches.
    retrieval_pool: Vec<Vec<u32>>,
    retrieval_free: Vec<u32>,
    in_flight_retrievals: usize,
    completed: usize,
    /// Every completion — a prefill handoff (scored with a zero TPOT) or a
    /// finished decode — is scored into each of these tallies as it
    /// happens. Empty by default: only the fleet's attainment trigger and
    /// miss budget seed any, so an unwatched run scores nothing.
    pub(crate) tallies: Vec<SloTally>,
    /// Whether cache probes are appended to `probe_log`. Off by default:
    /// only traced runs pay for the log, and reading a cache never depends
    /// on whether the probe was logged, so traced and untraced runs stay
    /// bit-identical.
    pub(crate) track_probes: bool,
    /// Every cache probe in simulation order (retrieval-result probes at
    /// arrival, prefix-KV probes at micro-batch dispatch). Empty unless
    /// `track_probes` is set.
    probe_log: Vec<CacheProbe>,
    /// `(ready_s, request)` of every prefill handoff not yet drained, in
    /// completion order — only a handoff-mode replica
    /// ([`PipelineSpec::handoff`]) records any. The pool engine drains it
    /// with [`ReplicaSim::take_handoffs`].
    handoff_log: Vec<(f64, EngineRequest)>,
    /// Replica-local prefix-KV cache, created cold from the spec's cache
    /// plan (a scaled-out replica starts with nothing resident).
    prefix_cache: Option<PrefixKvCache>,
    /// Replica-local retrieval-result cache, created cold likewise.
    retrieval_cache: Option<RetrievalResultCache>,
    /// Service-time multiplier applied to every newly scheduled stage batch
    /// and decode step. Exactly `1.0` on a healthy replica — the scaling is
    /// skipped entirely then, keeping fault-free runs bit-identical —
    /// and above `1.0` while the chaos layer marks the replica a straggler.
    slowdown: f64,
    acc: SimAccumulators,
    queue: EventQueue<Ev>,
}

impl ReplicaSim {
    /// Creates an idle simulation of `spec` with no requests, retiring
    /// into a fresh sink of `mode`.
    pub(crate) fn new(spec: PipelineSpec, mode: &MetricsMode) -> Self {
        let iterative_rng = spec
            .iterative
            .as_ref()
            .map(|it| StdRng::seed_from_u64(it.seed));
        let num_stages = spec.stages.len();
        let num_resources = spec.num_resources();
        let prefix_cache = spec
            .cache
            .as_ref()
            .and_then(|plan| plan.config.prefix)
            .map(PrefixKvCache::new);
        let retrieval_cache = spec
            .cache
            .as_ref()
            .and_then(|plan| plan.config.retrieval)
            .map(RetrievalResultCache::new);
        Self {
            spec,
            iterative_rng,
            arena: ReqArena::new(num_stages),
            sink: RunSink::new(mode, 0),
            peak_live: 0,
            stage_queues: vec![VecDeque::new(); num_stages],
            resource_busy: vec![false; num_resources],
            stage_batches: vec![StageBatch::default(); num_resources],
            resident: 0,
            admission: VecDeque::new(),
            decode_steps: 0,
            changes: BinaryHeap::new(),
            joining: Vec::new(),
            run: None,
            retrieval_queue: VecDeque::new(),
            retrieval_pool: Vec::new(),
            retrieval_free: Vec::new(),
            in_flight_retrievals: 0,
            completed: 0,
            tallies: Vec::new(),
            track_probes: false,
            probe_log: Vec::new(),
            handoff_log: Vec::new(),
            prefix_cache,
            retrieval_cache,
            slowdown: 1.0,
            acc: SimAccumulators::default(),
            queue: EventQueue::new(),
        }
    }

    /// Adds one request to the simulation, scheduling its arrival event.
    /// Requests must be injected in non-decreasing arrival order, and never
    /// earlier than the time the simulation has already been advanced to.
    ///
    /// # Panics
    ///
    /// Panics if the arrival time is negative or non-finite, or the request
    /// generates zero tokens.
    pub(crate) fn inject(&mut self, req: EngineRequest) {
        let positions = self.draw_positions(&req);
        self.inject_at_positions(req, &positions);
    }

    /// `req`'s retrieval trigger positions, drawn from the replica's RNG
    /// (none when the pipeline has no iterative retrievals).
    fn draw_positions(&mut self, req: &EngineRequest) -> Vec<u32> {
        match (&self.spec.iterative, &mut self.iterative_rng) {
            (Some(it), Some(rng)) => {
                sample_positions(rng, req.decode_tokens, it.retrievals_per_sequence)
            }
            _ => Vec::new(),
        }
    }

    /// As [`ReplicaSim::inject`], with the request's retrieval trigger
    /// positions given rather than drawn from the replica's RNG, which this
    /// leaves untouched. Given the positions `inject` would draw, the run
    /// is the same.
    ///
    /// # Panics
    ///
    /// As [`ReplicaSim::inject`].
    pub(crate) fn inject_at_positions(&mut self, req: EngineRequest, positions: &[u32]) {
        assert!(
            req.arrival_s.is_finite() && req.arrival_s >= 0.0,
            "arrival times must be finite and non-negative"
        );
        assert!(
            req.decode_tokens > 0,
            "every request must generate at least one token"
        );
        self.push_arrival(req, positions, req.arrival_s);
    }

    /// Appends `req`'s slot and schedules its arrival event at `at`.
    fn push_arrival(&mut self, req: EngineRequest, positions: &[u32], at: f64) {
        let slot = self.arena.push_slot(req, positions);
        self.peak_live = self.peak_live.max(self.arena.live());
        self.queue.push_arrival(at, Ev::Arrival(slot));
    }

    /// Requests injected but not yet fully decoded.
    pub(crate) fn outstanding(&self) -> usize {
        self.arena.injected() - self.completed
    }

    /// Events applied per queue lane (for [`crate::EventQueueStats`]-based
    /// self-profiling). Step boundaries that passed inside a decode run
    /// count as scheduled events, so a `k`-step run counts `k`.
    pub(crate) fn equeue_stats(&self) -> crate::equeue::EventQueueStats {
        // Every event applied is a pop except the step boundaries passed
        // inside a run, and those are scheduled events.
        let mut stats = self.queue.stats();
        stats.scheduled_pops = self.acc.events - stats.fault_pops - stats.arrival_pops;
        stats
    }

    /// Takes the cache-probe log recorded so far (empty unless
    /// `track_probes` was set before the run).
    pub(crate) fn drain_probe_log(&mut self) -> Vec<CacheProbe> {
        std::mem::take(&mut self.probe_log)
    }

    /// Requests waiting in a pre-decode stage queue or for decode admission
    /// (excludes requests currently in service).
    pub(crate) fn queued(&self) -> usize {
        self.stage_queues.iter().map(VecDeque::len).sum::<usize>() + self.admission.len()
    }

    /// Fraction of decode slots occupied, in `[0, 1]`.
    pub(crate) fn decode_fill_fraction(&self) -> f64 {
        self.resident as f64 / f64::from(self.spec.decode.max_batch)
    }

    /// Whether this replica's prefix-KV cache currently holds `prefix_id` —
    /// the signal cache-affinity routing probes (false when the replica has
    /// no prefix cache).
    pub(crate) fn owns_prefix(&self, prefix_id: u64) -> bool {
        self.prefix_cache
            .as_ref()
            .is_some_and(|c| c.contains(prefix_id))
    }

    /// Processes every event group strictly before `t` (by more than the
    /// event-grouping tolerance). Events within [`TIME_EPS`] of `t` are left
    /// queued so an arrival injected at `t` joins their group — exactly as
    /// it would have had the arrival been scheduled up front.
    pub(crate) fn advance_before(&mut self, t: f64) {
        while let Some((head_t, _)) = self.peek_next() {
            if head_t + TIME_EPS < t {
                self.process_group(t);
            } else {
                break;
            }
        }
    }

    /// Drains the event queue, completing every injected request.
    pub(crate) fn run_to_completion(&mut self) {
        while self.process_group(f64::INFINITY) {}
    }

    /// The next logical event: its time, and whether it is a boundary of
    /// the decode run in flight that the queue does not hold (any but the
    /// run's last). At equal times a queued event comes first, since the
    /// step orders last (see `crate::equeue`).
    fn peek_next(&self) -> Option<(f64, bool)> {
        match self.run.filter(|run| run.passed + 1 < run.len) {
            Some(run) => Some(match self.queue.peek_time_without_step() {
                Some(t) if t.total_cmp(&run.step_end).is_le() => (t, false),
                _ => (run.step_end, true),
            }),
            None => self.queue.peek_time().map(|t| (t, false)),
        }
    }

    /// Pops one event group — every event within the timestamp tolerance of
    /// the head — applies it, then runs a single dispatch pass, so state
    /// changes (resumes, arrivals, routing) at one instant are all visible
    /// to that pass. Returns `false` when the queue is empty.
    ///
    /// A run boundary that no other event comes within the tolerance of is
    /// a group of its own that changes nothing but the step count: its
    /// dispatch pass would start the same step again. Such boundaries pass
    /// as counters, as many in a row as come before `limit` by more than
    /// the tolerance. A boundary that does meet another event joins its
    /// group as that group's [`Ev::StepDone`], and the run ends there.
    fn process_group(&mut self, limit: f64) -> bool {
        let Some((head_t, boundary)) = self.peek_next() else {
            return false;
        };
        if boundary && self.pass_steps(limit) {
            return true;
        }
        let mut now = head_t;
        self.take_next(boundary);
        while let Some((t, boundary)) = self.peek_next() {
            if t <= now + TIME_EPS {
                now = now.max(t);
                self.take_next(boundary);
            } else {
                break;
            }
        }
        self.dispatch_stages(now);
        self.decode_tick(now);
        self.retire();
        true
    }

    /// Passes the decode run's boundaries that come before `limit` and
    /// before the run's last by more than the tolerance, and that no
    /// queued event comes within the tolerance of. Returns whether it
    /// passed any. The queue does not change while steps pass, so its
    /// head is read once.
    fn pass_steps(&mut self, limit: f64) -> bool {
        let next = self.queue.peek_time_without_step();
        let Some(run) = self.run.as_mut() else {
            return false;
        };
        let fill = f64::from(self.changes.len() as u32);
        let passed = run.passed;
        while run.passed + 1 < run.len
            && run.step_end + TIME_EPS < limit
            && next.map_or(true, |t| t > run.step_end + TIME_EPS)
        {
            run.passed += 1;
            run.step_end += run.dur;
            self.acc.fill_weighted_time += fill * run.dur;
            self.acc.stepping_time += run.dur;
        }
        self.acc.events += u64::from(run.passed - passed);
        run.passed > passed
    }

    /// Applies the next logical event: the queue head, or the run boundary
    /// before it, which ends the run early and supersedes its queued event.
    fn take_next(&mut self, boundary: bool) {
        if boundary {
            let t = self.run.expect("a boundary needs a run in flight").step_end;
            self.apply(t, Ev::StepDone);
        } else if let Some((t, ev)) = self.queue.pop() {
            self.apply(t, ev);
        }
    }

    /// Retires every completed slot at the head of the arena into the
    /// sink, oldest first; the arena reuses their room as it fills. A
    /// completed request never changes again, so each sink sees exactly
    /// the injection-order sequence of outcomes a post-run walk would feed
    /// it.
    fn retire(&mut self) {
        let arena = &mut self.arena;
        while arena.head < arena.len() && arena.completion_s[arena.head] != UNSET {
            self.sink.record(&arena.outcome(arena.head));
            arena.head += 1;
        }
    }

    /// Consults the retrieval-result cache for request `r` at its arrival.
    /// A hit marks the plan's retrieval stages for zero-duration
    /// pass-through; identity-free requests (or cache-less pipelines) are
    /// untouched.
    fn lookup_retrieval_cache(&mut self, i: usize, t: f64) {
        let Some(cache) = self.retrieval_cache.as_mut() else {
            return;
        };
        let req = &self.arena.requests[i];
        let Some(identity) = req.identity else {
            return;
        };
        let lookup = cache.access(identity.doc_key);
        self.acc.cache.record_retrieval(req.class, &lookup);
        if self.track_probes {
            self.probe_log.push(CacheProbe {
                time_s: t,
                id: req.id,
                class: req.class,
                prefix: false,
                hit: lookup.hit,
                hit_tokens: 0,
            });
        }
        if lookup.hit {
            self.arena.skip_retrieval[i] = true;
        }
    }

    /// Routes request `r` toward stage `from` at time `t`: stages marked
    /// skippable (a retrieval-cache hit) are recorded as zero-duration
    /// pass-throughs, and the request lands in the first remaining stage
    /// queue — or in decode admission when none remain. A request whose
    /// *last* pipeline stage actually executes gets its first token there
    /// (the `StageDone` path); one that skips past the end behaves like a
    /// no-pre-decode request, emitting its first token at its first decode
    /// step.
    fn route_to_stage(&mut self, r: u32, from: usize, t: f64) {
        let num_stages = self.spec.stages.len();
        let i = self.arena.at(r);
        let mut stage = from;
        if self.arena.skip_retrieval[i] {
            let plan = self
                .spec
                .cache
                .as_ref()
                .expect("skip_retrieval is only set when a cache plan exists");
            while stage < num_stages && plan.retrieval_stages.contains(&stage) {
                self.arena.push_stage_start(i, t);
                self.arena.push_stage_end(i, t);
                stage += 1;
            }
        }
        self.arena.queue_entry_s[i] = t;
        if stage < num_stages {
            self.stage_queues[stage].push_back(r);
        } else if self.spec.handoff {
            // Every remaining stage was skipped by a cache hit: the prefill
            // state is already resident, so the handoff is ready at once
            // (zero-work prefill, first token at the handoff instant).
            self.arena.first_token_s[i] = t;
            self.complete_handoff(i, t);
        } else {
            self.admission.push_back(r);
        }
    }

    /// Completes slot `i` at its prefill handoff at `t`: its KV state
    /// becomes ready for the cross-pool transfer instead of joining decode
    /// admission.
    fn complete_handoff(&mut self, i: usize, t: f64) {
        self.arena.decode_join_s[i] = t;
        self.arena.completion_s[i] = t;
        self.completed += 1;
        self.handoff_log.push((t, self.arena.requests[i]));
        self.score(i);
    }

    /// Scores completed slot `i` into every SLO tally (a handoff's zero
    /// decode residency scores a zero TPOT).
    fn score(&mut self, i: usize) {
        if self.tallies.is_empty() {
            return;
        }
        let outcome = self.arena.outcome(i);
        let (ttft, tpot) = (outcome.ttft_s(), outcome.tpot_s());
        for tally in &mut self.tallies {
            tally.record(ttft, tpot);
        }
    }

    /// Pure state mutation for one event; no dispatching. Events that cover
    /// a member set (`StageDone`, `RetrievalDone`) temporarily take their
    /// member buffer out of `self`, walk it, then clear and restore it —
    /// the buffers are guaranteed idle once their event fires
    /// (`resource_busy` / the pool free-list), so no allocation happens per
    /// event. `StepDone` pops the members that change at the run's end off
    /// [`ReplicaSim::changes`].
    fn apply(&mut self, t: f64, ev: Ev) {
        self.acc.events += 1;
        match ev {
            Ev::Arrival(r) => {
                self.lookup_retrieval_cache(self.arena.at(r), t);
                self.route_to_stage(r, 0, t);
            }
            Ev::StageDone { resource } => {
                let resource = resource as usize;
                self.resource_busy[resource] = false;
                let members = std::mem::take(&mut self.stage_batches[resource].members);
                let stage = self.stage_batches[resource].stage as usize;
                let last_stage = stage + 1 == self.spec.stages.len();
                for &r in &members {
                    let i = self.arena.at(r);
                    self.arena.push_stage_end(i, t);
                    if last_stage {
                        // The main prefix emits the first output token.
                        self.arena.queue_entry_s[i] = t;
                        self.arena.first_token_s[i] = t;
                        if self.spec.handoff {
                            // Prefill-pool replica: the request is done here.
                            self.complete_handoff(i, t);
                        } else {
                            self.admission.push_back(r);
                        }
                    } else {
                        self.route_to_stage(r, stage + 1, t);
                    }
                }
                let mut members = members;
                members.clear();
                self.stage_batches[resource].members = members;
            }
            Ev::StepDone => self.end_run(t),
            Ev::RetrievalDone(slot) => {
                self.in_flight_retrievals -= 1;
                let mut members = std::mem::take(&mut self.retrieval_pool[slot as usize]);
                self.joining.extend_from_slice(&members);
                members.clear();
                self.retrieval_pool[slot as usize] = members;
                self.retrieval_free.push(slot);
                self.cut_run();
            }
            Ev::SlowdownChange { factor_bits } => {
                // Work already in flight keeps its scheduled completion;
                // only batches and steps dispatched after this instant see
                // the new factor.
                self.slowdown = f64::from_bits(factor_bits);
                self.cut_run();
            }
        }
    }

    /// Ends the decode run in flight at its step boundary `t`. By the
    /// run's length, no member finished or reached a retrieval trigger
    /// before this step. The members whose change falls on it finish, or
    /// pause until their retrieval returns; the others step on.
    fn end_run(&mut self, t: f64) {
        let run = self.run.take().expect("a step event ends a run in flight");
        debug_assert!(
            run.step_end.to_bits() == t.to_bits(),
            "run ends off its grid"
        );
        // The boundary may come before the run's queued last one.
        self.queue.clear_step();
        self.decode_steps += u64::from(run.passed + 1);
        while let Some(&Reverse((step, r))) = self.changes.peek() {
            if step != self.decode_steps {
                debug_assert!(step > self.decode_steps, "a member outran its change");
                break;
            }
            self.changes.pop();
            let ri = self.arena.at(r);
            let tokens = self.arena.tokens[ri];
            if self.arena.generated[ri] < tokens {
                // Short of its last token, the change is a retrieval
                // trigger: the member pauses until its batch returns.
                self.arena.next_retrieval[ri] += 1;
                self.retrieval_queue.push_back(r);
                continue;
            }
            self.arena.completion_s[ri] = t;
            self.resident -= 1;
            self.completed += 1;
            self.score(ri);
        }
    }

    /// Work-conserving micro-batch dispatch: every free resource takes up to
    /// `batch` requests from its latest non-empty stage queue.
    fn dispatch_stages(&mut self, now: f64) {
        for resource in 0..self.resource_busy.len() {
            if self.resource_busy[resource] {
                continue;
            }
            // Latest stage first (the optimal collocation order); FIFO
            // within a stage.
            let Some(stage) = (0..self.spec.stages.len()).rev().find(|&s| {
                self.spec.stages[s].resource == resource && !self.stage_queues[s].is_empty()
            }) else {
                continue;
            };
            let cap = self.spec.stages[stage].batch as usize;
            let take = self.stage_queues[stage].len().min(cap);
            let mut members = std::mem::take(&mut self.stage_batches[resource].members);
            debug_assert!(members.is_empty(), "free resource has a live batch buffer");
            members.extend(self.stage_queues[stage].drain(..take));
            for &r in &members {
                let i = self.arena.at(r);
                self.arena.push_stage_start(i, now);
                self.arena.queueing_s[i] += now - self.arena.queue_entry_s[i];
            }
            let full = self.spec.stages[stage].latency.latency(take as u32);
            let charged = self.charge_prefix_cache(stage, &members, full, now);
            let latency = self.scaled(charged);
            self.resource_busy[resource] = true;
            self.stage_batches[resource].stage = stage as u32;
            self.stage_batches[resource].members = members;
            self.queue.push_scheduled(
                now + latency,
                Ev::StageDone {
                    resource: resource as u32,
                },
            );
        }
    }

    /// Consults the prefix-KV cache for a micro-batch dispatched to the
    /// plan's prefix stage, and returns the latency actually charged:
    /// prefill cost is proportional to the tokens processed, so the batch
    /// latency scales by the uncached share of its members' prefix tokens.
    /// Members access the cache in batch order — the first instance of a
    /// template misses and inserts it, and later same-batch instances hit
    /// (they share the KV being computed). Returns `base` untouched when no
    /// tokens were served from cache, keeping identity-free and
    /// zero-capacity runs bit-identical to the cache-less path.
    fn charge_prefix_cache(&mut self, stage: usize, members: &[u32], base: f64, now: f64) -> f64 {
        let prefix_stage = self.spec.cache.as_ref().and_then(|plan| plan.prefix_stage);
        if prefix_stage != Some(stage) {
            return base;
        }
        let Some(cache) = self.prefix_cache.as_mut() else {
            return base;
        };
        let mut total_tokens: u64 = 0;
        let mut saved_tokens: u64 = 0;
        for &r in members {
            let req = &self.arena.requests[self.arena.at(r)];
            total_tokens += u64::from(req.prefix_tokens);
            if let Some(identity) = req.identity {
                let shared = identity.shared_prefix_tokens.min(req.prefix_tokens);
                let lookup = cache.access(identity.prefix_id, shared);
                saved_tokens += u64::from(lookup.hit_tokens);
                self.acc.cache.record_prefix(req.class, &lookup);
                if self.track_probes {
                    self.probe_log.push(CacheProbe {
                        time_s: now,
                        id: req.id,
                        class: req.class,
                        prefix: true,
                        hit: lookup.hit,
                        hit_tokens: lookup.hit_tokens,
                    });
                }
            }
        }
        if saved_tokens == 0 {
            return base;
        }
        base * ((total_tokens - saved_tokens) as f64 / total_tokens as f64)
    }

    /// Decode bookkeeping at one instant: admit, dispatch iterative
    /// retrievals, and start the next run unless one is in flight.
    fn decode_tick(&mut self, now: f64) {
        // Admit waiting requests into free decode slots (continuous
        // batching join).
        while self.resident < self.spec.decode.max_batch as usize {
            let Some(r) = self.admission.pop_front() else {
                break;
            };
            let ri = self.arena.at(r);
            self.arena.decode_join_s[ri] = now;
            self.arena.queueing_s[ri] += now - self.arena.queue_entry_s[ri];
            self.resident += 1;
            self.joining.push(r);
            self.cut_run();
        }

        // Dispatch the iterative retrieval queue: when full, or when decode
        // is stalled (nothing active, nothing in flight) and waiting would
        // deadlock the tail.
        if let Some(it) = self.spec.iterative {
            loop {
                let queued = self.retrieval_queue.len();
                if queued == 0 {
                    break;
                }
                let active_empty =
                    self.run.is_none() && self.changes.is_empty() && self.joining.is_empty();
                let full = queued >= it.iterative_batch as usize;
                let stalled = active_empty && self.in_flight_retrievals == 0;
                if !(full || stalled) {
                    break;
                }
                let take = queued.min(it.iterative_batch as usize);
                self.acc.retrieval_batches += 1;
                self.acc.retrieval_fill += take as u64;
                if it.retrieval_prefix_latency_s <= TIME_EPS {
                    // A zero-latency batch completes within this instant:
                    // resume inline so the members join the very next step,
                    // exactly as the reference simulator's loop does.
                    self.joining.extend(self.retrieval_queue.drain(..take));
                    self.cut_run();
                } else {
                    self.in_flight_retrievals += 1;
                    let slot = match self.retrieval_free.pop() {
                        Some(slot) => slot,
                        None => {
                            self.retrieval_pool.push(Vec::new());
                            (self.retrieval_pool.len() - 1) as u32
                        }
                    };
                    let buf = &mut self.retrieval_pool[slot as usize];
                    debug_assert!(buf.is_empty(), "recycled retrieval slot not drained");
                    buf.extend(self.retrieval_queue.drain(..take));
                    self.queue.push_scheduled(
                        now + it.retrieval_prefix_latency_s,
                        Ev::RetrievalDone(slot),
                    );
                }
            }
        }

        if self.run.is_none() {
            self.start_run(now);
        }
    }

    /// Ends the run in flight with its current step, whose boundary stays:
    /// an admission, a resume or a slowdown change alters the next step.
    fn cut_run(&mut self) {
        if let Some(run) = self.run.as_mut().filter(|run| run.passed + 1 < run.len) {
            run.len = run.passed + 1;
            self.queue.set_step(run.step_end, Ev::StepDone);
        }
    }

    /// Starts a decode run at `now` over the active members and the
    /// joining ones, lasting until the first step at which one of them
    /// finishes or reaches its next retrieval trigger. A joining member
    /// that has no first token gets it at the end of the run's first step.
    fn start_run(&mut self, now: f64) {
        let fill = (self.changes.len() + self.joining.len()) as u32;
        if fill == 0 {
            return;
        }
        let dur = self.scaled(self.spec.decode.step_latency.latency(fill));
        self.acc.fill_weighted_time += f64::from(fill) * dur;
        self.acc.stepping_time += dur;
        let first_end = now + dur;
        let arena = &mut self.arena;
        for r in self.joining.drain(..) {
            let i = arena.at(r);
            let generated = arena.generated[i];
            let tokens = arena.tokens[i];
            let mut steps = tokens - generated;
            let cursor = arena.retrieval_pos_off[i] as usize + arena.next_retrieval[i] as usize;
            if cursor < arena.retrieval_pos_off[i + 1] as usize {
                let pos = arena.retrieval_pos[cursor];
                if pos > generated && pos < tokens {
                    steps = pos - generated;
                }
            }
            arena.generated[i] = generated + steps;
            if arena.first_token_s[i] == UNSET {
                arena.first_token_s[i] = first_end;
            }
            self.changes
                .push(Reverse((self.decode_steps + u64::from(steps), r)));
        }
        let Some(&Reverse((next, _))) = self.changes.peek() else {
            unreachable!("a run has members");
        };
        let len = (next - self.decode_steps) as u32;
        let mut end = first_end;
        for _ in 1..len {
            end += dur;
        }
        self.run = Some(DecodeRun {
            dur,
            step_end: first_end,
            passed: 0,
            len,
        });
        self.queue.set_step(end, Ev::StepDone);
    }

    /// Applies the straggler slowdown to a service duration. The healthy
    /// factor of exactly `1.0` returns `d` untouched — not `d * 1.0`, whose
    /// rounding is also exact but whose branch would still perturb nothing;
    /// the early return documents the bit-identity contract explicitly.
    fn scaled(&self, d: f64) -> f64 {
        if self.slowdown == 1.0 {
            d
        } else {
            d * self.slowdown
        }
    }

    /// Schedules a future slowdown change at `t` on the fault lane, which
    /// orders before same-instant arrivals (see `crate::equeue`): a
    /// degradation landing exactly at an arrival instant is in force before
    /// that request is processed. Changes must be scheduled in
    /// non-decreasing time order.
    pub(crate) fn schedule_slowdown(&mut self, t: f64, factor: f64) {
        debug_assert!(factor.is_finite() && factor > 0.0);
        self.queue.push_fault(
            t,
            Ev::SlowdownChange {
                factor_bits: factor.to_bits(),
            },
        );
    }

    /// Injects a request whose arrival event fires at `now` rather than at
    /// its recorded `arrival_s` — the re-queue path after a replica crash.
    /// The stored request keeps its original arrival time, so TTFT and
    /// end-to-end latency include the time lost to the crash; only the
    /// event that hands it to the pipeline is deferred.
    pub(crate) fn inject_delayed(&mut self, req: EngineRequest, now: f64) {
        assert!(
            now.is_finite() && now >= 0.0 && now >= req.arrival_s,
            "delayed injection must not precede the request's arrival"
        );
        assert!(
            req.decode_tokens > 0,
            "every request must generate at least one token"
        );
        let positions = self.draw_positions(&req);
        self.push_arrival(req, &positions, now);
    }

    /// Tears down a crashed or preempted replica at its current instant:
    /// every request that already completed retires into the sink (in
    /// injection order, exactly as [`ReplicaSim::finish`] would have
    /// retired it), every request still in flight or queued is returned as
    /// its original [`EngineRequest`] for the caller to re-queue or fail,
    /// and the accumulators keep the work the replica did perform.
    /// Unprocessed events die with the replica — including work that would
    /// have completed at the very crash instant, which
    /// [`ReplicaSim::advance_before`] leaves unprocessed; the crash wins
    /// that tie by construction, and the chaos goldens pin it.
    pub(crate) fn dismantle(mut self) -> (Retired, Vec<EngineRequest>) {
        let mut in_flight = Vec::new();
        for i in self.arena.head..self.arena.len() {
            if self.arena.completion_s[i] == UNSET {
                in_flight.push(self.arena.requests[i]);
            } else {
                self.sink.record(&self.arena.outcome(i));
            }
        }
        (self.into_retired(), in_flight)
    }

    /// Drains the prefill-handoff records accumulated since the last call:
    /// `(ready_s, request)` pairs in handoff-completion order. Only a
    /// handoff-mode replica ([`PipelineSpec::handoff`]) ever records any.
    /// The returned requests are the original injected [`EngineRequest`]s —
    /// ids, arrival times, classes, and content identity all preserved for
    /// re-injection into a decode-pool replica.
    pub(crate) fn take_handoffs(&mut self, out: &mut Vec<(f64, EngineRequest)>) {
        out.append(&mut self.handoff_log);
    }

    /// Simulation events processed so far.
    pub(crate) fn events(&self) -> u64 {
        self.acc.events
    }

    /// Consumes the finished simulation into its sink — every request
    /// retired, the accumulators moved in — and its live-slot peak.
    ///
    /// # Panics
    ///
    /// Panics if any request has not completed — call
    /// [`ReplicaSim::run_to_completion`] first.
    pub(crate) fn finish(self) -> Retired {
        debug_assert!(
            self.queue.is_empty(),
            "finish() requires the event queue to be drained"
        );
        // The event loop drains the queue only after every request has
        // generated its final token and retired; a request left over would
        // be an engine bug, so fail loudly rather than emit a silently
        // wrong report.
        assert!(
            self.arena.live() == 0,
            "every request completes before the engine finishes"
        );
        self.into_retired()
    }

    fn into_retired(mut self) -> Retired {
        if let RunSink::Exact(sink) = &mut self.sink {
            sink.build_timelines();
        }
        let pops = self.queue.stats();
        self.acc.queue_pops = pops.fault_pops + pops.arrival_pops + pops.scheduled_pops;
        *self.sink.acc_mut() = self.acc;
        Retired {
            sink: self.sink,
            peak_live: self.peak_live,
        }
    }
}

/// A consumed replica simulation: its sink, holding every retired request
/// and the run's accumulators, and the most request slots it held at once.
pub(crate) struct Retired {
    pub(crate) sink: RunSink,
    /// The most requests injected and not yet retired at any one time.
    pub(crate) peak_live: usize,
}

/// Samples `count` distinct retrieval positions uniformly from
/// `[1, decode_len - 1]`, sorted ascending (retrievals never trigger on the
/// final token — there is nothing left to generate). Draws nothing from
/// `rng` when `count` is zero or `decode_len` at most 1.
///
/// A replica calls it once per request, at injection, so a request's
/// positions depend only on the seed, its decode length, the retrieval
/// count and the draws of the requests injected before it.
/// [`crate::iterative::TriggerTable::draw`] makes the same calls in the
/// same order.
pub(crate) fn sample_positions(rng: &mut StdRng, decode_len: u32, count: u32) -> Vec<u32> {
    if count == 0 || decode_len <= 1 {
        return Vec::new();
    }
    let mut candidates: Vec<u32> = (1..decode_len).collect();
    candidates.shuffle(rng);
    let take = (count as usize).min(candidates.len());
    let mut positions = candidates[..take].to_vec();
    positions.sort_unstable();
    positions
}

/// Builds a [`ServingReport`] from completed timelines and the simulation
/// accumulators. Shared by each replica's own report and the fleet-level
/// merge in [`crate::fleet`], so replica and fleet metrics are computed by
/// one definition: each scope folds its timelines, in order, into a
/// [`ScopeFold`] and takes exact latency statistics from its sorted
/// samples ([`LatencyStats::from_sorted`]).
pub(crate) fn build_report(
    timelines: Vec<RequestTimeline>,
    acc: &SimAccumulators,
) -> ServingReport {
    let classes: Vec<u32> = timelines
        .iter()
        .map(|t| t.class)
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();
    let (metrics, per_class) = crate::sink::scope_rows(classes, |class| {
        let mut fold = ScopeFold::EMPTY;
        let mut samples: [Vec<f64>; 3] =
            std::array::from_fn(|_| Vec::with_capacity(timelines.len()));
        for t in timelines
            .iter()
            .filter(|t| class.map_or(true, |c| t.class == c))
        {
            for (buf, v) in samples.iter_mut().zip(fold.observe(&t.outcome(), None)) {
                buf.push(v);
            }
        }
        fold.metrics(
            acc,
            samples.map(|mut buf| {
                buf.sort_by(f64::total_cmp);
                LatencyStats::from_sorted(&buf)
            }),
        )
    });
    ServingReport {
        timelines,
        metrics,
        per_class,
        cache: acc.cache.to_usage(),
        streamed: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ScaleDriver;
    use crate::fleet::FleetEngine;
    use rago_schema::{RouterPolicy, SequenceProfile};
    use rago_telemetry::NullRecorder;
    use rago_workloads::{ArrivalProcess, Trace, TraceSpec};

    /// Runs `requests` through `spec` alone: a one-replica static fleet,
    /// whose merged report is the replica's own.
    fn run(spec: PipelineSpec, requests: Vec<EngineRequest>) -> ServingReport {
        alone(spec)
            .run(requests, &MetricsMode::Exact, &mut NullRecorder)
            .fleet
            .merged
    }

    /// [`run`] over a generated trace.
    fn run_trace(spec: PipelineSpec, trace: &Trace) -> ServingReport {
        alone(spec).run_trace(trace).fleet.merged
    }

    fn alone(spec: PipelineSpec) -> FleetEngine {
        let one = ScaleDriver::Static { replicas: 1 };
        FleetEngine::new(spec, RouterPolicy::default(), one)
    }

    #[test]
    fn sample_positions_are_sorted_unique_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let pos = sample_positions(&mut rng, 256, 8);
        assert_eq!(pos.len(), 8);
        for w in pos.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(pos.iter().all(|&p| (1..256).contains(&p)));
        assert!(sample_positions(&mut rng, 1, 5).is_empty());
        assert!(sample_positions(&mut rng, 256, 0).is_empty());
    }

    fn one_stage_spec(
        stage_latency: f64,
        batch: u32,
        decode_step: f64,
        decode_batch: u32,
    ) -> PipelineSpec {
        PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                batch,
                LatencyTable::constant(batch, stage_latency),
            )],
            DecodeSpec::new(
                decode_batch,
                LatencyTable::constant(decode_batch, decode_step),
            ),
        )
    }

    fn req(id: u64, arrival: f64, tokens: u32) -> EngineRequest {
        EngineRequest {
            id,
            arrival_s: arrival,
            prefix_tokens: 0,
            decode_tokens: tokens,
            class: 0,
            identity: None,
        }
    }

    #[test]
    fn single_request_passes_through_cleanly() {
        let spec = one_stage_spec(0.1, 8, 0.01, 4);
        let report = run(spec, vec![req(0, 0.0, 10)]);
        let t = &report.timelines[0];
        assert!((t.ttft_s() - 0.1).abs() < 1e-12);
        assert!((t.completion_s - (0.1 + 10.0 * 0.01)).abs() < 1e-12);
        assert!((t.tpot_s() - 0.01).abs() < 1e-12);
        assert!(t.queueing_s.abs() < 1e-12);
        assert_eq!(report.metrics.completed, 1);
    }

    #[test]
    fn queueing_builds_when_the_stage_is_saturated() {
        // Stage takes 1 s per batch of 1; three simultaneous arrivals queue.
        let spec = one_stage_spec(1.0, 1, 0.01, 8);
        let report = run(spec, vec![req(0, 0.0, 1), req(1, 0.0, 1), req(2, 0.0, 1)]);
        let ttfts: Vec<f64> = report
            .timelines
            .iter()
            .map(RequestTimeline::ttft_s)
            .collect();
        assert!((ttfts[0] - 1.0).abs() < 1e-12);
        assert!((ttfts[1] - 2.0).abs() < 1e-12);
        assert!((ttfts[2] - 3.0).abs() < 1e-12);
        assert!((report.timelines[2].queueing_s - 2.0).abs() < 1e-12);
        assert!(report.metrics.queueing_mean_s > 0.9);
    }

    #[test]
    fn microbatching_bounds_the_dispatch_size() {
        let spec = one_stage_spec(0.5, 2, 0.01, 16);
        let report = run(spec, (0..6).map(|i| req(i, 0.0, 1)).collect());
        // Three sequential micro-batches of 2: TTFTs 0.5, 0.5, 1.0, 1.0, 1.5, 1.5.
        let mut ttfts: Vec<f64> = report
            .timelines
            .iter()
            .map(RequestTimeline::ttft_s)
            .collect();
        ttfts.sort_by(f64::total_cmp);
        assert!((ttfts[1] - 0.5).abs() < 1e-12);
        assert!((ttfts[3] - 1.0).abs() < 1e-12);
        assert!((ttfts[5] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn continuous_batching_joins_mid_flight_and_respects_slots() {
        // Decode slot cap of 1: the second request must wait for the first
        // to finish decoding before joining.
        let spec = one_stage_spec(0.1, 8, 0.1, 1);
        let report = run(spec, vec![req(0, 0.0, 5), req(1, 0.0, 5)]);
        let a = &report.timelines[0];
        let b = &report.timelines[1];
        // Both prefix together (batch 8 holds both), but decode serializes.
        assert!((a.ttft_s() - 0.1).abs() < 1e-12);
        assert!((b.ttft_s() - 0.1).abs() < 1e-12);
        assert!((a.completion_s - 0.6).abs() < 1e-12);
        assert!((b.completion_s - 1.1).abs() < 1e-12);
        assert!((b.decode_join_s - 0.6).abs() < 1e-12);
        assert!(b.queueing_s > 0.49); // admission wait
    }

    #[test]
    fn late_arrival_joins_the_running_decode_batch() {
        // First request decodes alone; second arrives mid-decode and joins
        // at the next step boundary (continuous batching).
        let spec = PipelineSpec::new(
            Vec::new(),
            DecodeSpec::new(4, LatencyTable::constant(4, 0.1)),
        );
        let report = run(spec, vec![req(0, 0.0, 10), req(1, 0.25, 3)]);
        let b = &report.timelines[1];
        // Arrives at 0.25 during the step ending 0.3; first own step ends 0.4.
        assert!((b.first_token_s - 0.4).abs() < 1e-12);
        assert!((b.completion_s - 0.6).abs() < 1e-12);
        assert!(report.metrics.mean_decode_fill > 1.0);
    }

    #[test]
    fn collocated_stages_prefer_the_latest_stage() {
        // Two stages share one resource; micro-batch of 1, two requests.
        // Latest-stage-first finishes request 0 entirely before starting
        // request 1's first stage.
        let spec = PipelineSpec::new(
            vec![
                StageSpec::new("s1", 0, 1, LatencyTable::constant(1, 0.1)),
                StageSpec::new("s2", 0, 1, LatencyTable::constant(1, 0.1)),
            ],
            DecodeSpec::new(8, LatencyTable::constant(8, 1e-3)),
        );
        let report = run(spec, vec![req(0, 0.0, 1), req(1, 0.0, 1)]);
        assert!((report.timelines[0].ttft_s() - 0.2).abs() < 1e-12);
        assert!((report.timelines[1].ttft_s() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn disaggregated_stages_pipeline() {
        // Same stages on distinct resources: stage 1 of request 1 overlaps
        // stage 2 of request 0.
        let spec = PipelineSpec::new(
            vec![
                StageSpec::new("s1", 0, 1, LatencyTable::constant(1, 0.1)),
                StageSpec::new("s2", 1, 1, LatencyTable::constant(1, 0.1)),
            ],
            DecodeSpec::new(8, LatencyTable::constant(8, 1e-3)),
        );
        let report = run(spec, vec![req(0, 0.0, 1), req(1, 0.0, 1)]);
        assert!((report.timelines[0].ttft_s() - 0.2).abs() < 1e-12);
        assert!((report.timelines[1].ttft_s() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn iterative_retrievals_pause_and_resume() {
        let spec = PipelineSpec::new(
            Vec::new(),
            DecodeSpec::new(8, LatencyTable::constant(8, 1e-3)),
        )
        .with_iterative(IterativeSpec {
            retrievals_per_sequence: 2,
            iterative_batch: 4,
            retrieval_prefix_latency_s: 0.05,
            seed: 9,
        });
        let report = run(spec, (0..8).map(|i| req(i, 0.0, 64)).collect());
        assert!(report.metrics.retrieval_batches >= 4); // 16 retrievals / batch 4
        assert!(report.metrics.mean_retrieval_batch_fill <= 4.0 + 1e-12);
        // Pauses necessarily stretch decode beyond the unobstructed time.
        let unobstructed = 64.0 * 1e-3;
        assert!(report.metrics.tpot.max_s * 64.0 > unobstructed + 0.05);
    }

    #[test]
    fn from_trace_runs_all_requests_under_poisson_load() {
        let spec = PipelineSpec::new(
            vec![StageSpec::new(
                "prefix",
                0,
                8,
                LatencyTable::from_fn(8, |b| 0.01 + 0.002 * f64::from(b)),
            )],
            DecodeSpec::new(
                32,
                LatencyTable::from_fn(32, |b| 2e-3 + 1e-5 * f64::from(b)),
            ),
        );
        let trace = TraceSpec {
            num_requests: 200,
            profile: SequenceProfile::paper_default().with_decode_tokens(16),
            arrival: ArrivalProcess::Poisson { rate_rps: 50.0 },
            length_jitter: 0.3,
            seed: 21,
        }
        .generate();
        let report = run_trace(spec, &trace);
        assert_eq!(report.metrics.completed, 200);
        assert!(report.metrics.throughput_rps > 0.0);
        // Percentiles are ordered.
        let m = &report.metrics;
        assert!(m.ttft.p50_s <= m.ttft.p95_s && m.ttft.p95_s <= m.ttft.p99_s);
        assert!(m.ttft.p99_s <= m.ttft.max_s);
        assert!(m.tpot.p50_s <= m.tpot.max_s);
        // Timelines are internally consistent.
        for t in &report.timelines {
            assert!(t.first_token_s >= t.arrival_s);
            assert!(t.completion_s >= t.first_token_s);
            assert!(t.queueing_s >= -1e-12);
            assert!(t.queueing_s <= t.latency_s() + 1e-12);
        }
    }

    #[test]
    fn attainment_and_goodput_follow_the_targets() {
        let spec = one_stage_spec(0.1, 8, 0.01, 8);
        let report = run(spec, (0..8).map(|i| req(i, 0.0, 10)).collect());
        let generous = SloTarget::new(10.0, 1.0);
        let impossible = SloTarget::new(1e-6, 1e-9);
        assert!((report.attainment(&generous) - 1.0).abs() < 1e-12);
        assert!(report.attainment(&impossible).abs() < 1e-12);
        assert!(report.goodput_rps(&generous) > 0.0);
        assert!(report.goodput_rps(&impossible).abs() < 1e-12);
        assert!(report.meets_slo(&generous));
        assert!(!report.meets_slo(&impossible));
        assert!((report.goodput_rps(&generous) - report.metrics.throughput_rps).abs() < 1e-12);
    }

    #[test]
    fn knee_picks_the_largest_conforming_rate() {
        let slo = SloTarget::new(1.0, 0.1).with_attainment(0.9);
        let sweep = [(5.0, 1.0), (10.0, 0.95), (20.0, 0.89), (40.0, 0.2)];
        assert_eq!(sustained_throughput_knee(&sweep, &slo), Some(10.0));
        assert_eq!(sustained_throughput_knee(&[], &slo), None);
    }

    /// Regression: a non-monotone sweep (noise or burst artifacts making an
    /// overloaded rate *appear* to recover) must not report a knee beyond
    /// the first SLO-violating rate. The old implementation took the global
    /// max conforming rate and returned 40 rps here.
    #[test]
    fn knee_stops_at_the_first_violation_in_a_non_monotone_sweep() {
        let slo = SloTarget::new(1.0, 0.1).with_attainment(0.9);
        let sweep = [(5.0, 1.0), (10.0, 0.7), (20.0, 0.95), (40.0, 0.93)];
        assert_eq!(sustained_throughput_knee(&sweep, &slo), Some(5.0));
        // Order independence: the sweep is sorted internally.
        let shuffled = [(40.0, 0.93), (5.0, 1.0), (20.0, 0.95), (10.0, 0.7)];
        assert_eq!(sustained_throughput_knee(&shuffled, &slo), Some(5.0));
        // First swept rate already violating: no sustained region at all.
        assert_eq!(
            sustained_throughput_knee(&[(5.0, 0.5), (10.0, 0.95)], &slo),
            None
        );
    }

    /// Regression: rates are measured over the serving window (first arrival
    /// to last completion), so a trace shifted +100 s reports the same
    /// throughput and goodput as the unshifted one, and the drain tail is
    /// exposed for capacity planning.
    #[test]
    fn throughput_is_measured_from_the_first_arrival() {
        let spec = one_stage_spec(0.1, 4, 0.01, 8);
        let base: Vec<EngineRequest> = (0..12).map(|i| req(i, 0.05 * i as f64, 10)).collect();
        let shifted: Vec<EngineRequest> = base
            .iter()
            .map(|r| EngineRequest {
                arrival_s: r.arrival_s + 100.0,
                ..*r
            })
            .collect();
        let a = run(spec.clone(), base);
        let b = run(spec, shifted);
        assert!((b.metrics.first_arrival_s - 100.0).abs() < 1e-12);
        assert!((b.metrics.serving_duration_s - a.metrics.serving_duration_s).abs() < 1e-9);
        assert!(
            (b.metrics.throughput_rps - a.metrics.throughput_rps).abs() < 1e-9,
            "shifted trace deflated throughput: {} vs {}",
            b.metrics.throughput_rps,
            a.metrics.throughput_rps
        );
        let slo = SloTarget::new(10.0, 1.0);
        assert!((b.goodput_rps(&slo) - a.goodput_rps(&slo)).abs() < 1e-9);
        // The drain tail is the post-last-arrival completion time.
        assert!(b.metrics.drain_tail_s > 0.0);
        assert!(
            (b.metrics.drain_tail_s - (b.metrics.makespan_s - b.metrics.last_arrival_s)).abs()
                < 1e-12
        );
        assert!(b.metrics.serving_duration_s >= b.metrics.drain_tail_s);
    }

    #[test]
    fn latency_table_saturates() {
        let t = LatencyTable::from_fn(4, f64::from);
        assert_eq!(t.latency(1), 1.0);
        assert_eq!(t.latency(4), 4.0);
        assert_eq!(t.latency(9), 4.0); // saturates
        assert_eq!(t.max_fill(), 4);
    }

    #[test]
    fn latency_stats_percentiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
        let empty = LatencyStats::from_samples(&[]);
        assert_eq!(empty.max_s, 0.0);
    }

    #[test]
    fn deterministic_given_identical_inputs() {
        let build = || {
            let spec = PipelineSpec::new(
                vec![StageSpec::new(
                    "prefix",
                    0,
                    4,
                    LatencyTable::constant(4, 0.02),
                )],
                DecodeSpec::new(16, LatencyTable::constant(16, 2e-3)),
            )
            .with_iterative(IterativeSpec {
                retrievals_per_sequence: 2,
                iterative_batch: 4,
                retrieval_prefix_latency_s: 0.03,
                seed: 5,
            });
            let trace = TraceSpec {
                num_requests: 64,
                profile: SequenceProfile::paper_default().with_decode_tokens(32),
                arrival: ArrivalProcess::Poisson { rate_rps: 100.0 },
                length_jitter: 0.2,
                seed: 3,
            }
            .generate();
            run_trace(spec, &trace)
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_token_requests_are_rejected() {
        let _ = run(one_stage_spec(0.1, 1, 0.01, 1), vec![req(0, 0.0, 0)]);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_step_latency_is_rejected() {
        let _ = DecodeSpec::new(4, LatencyTable::constant(4, 0.0));
    }

    /// One 5 ms prefix stage of batch 4 and a decode batch of 4 at 2 ms
    /// per step: valid until a test breaks one field of it, as a struct
    /// literal can. Building the fleet must then fail, where a run would
    /// hang, panic mid-run or report zero-time decoding.
    fn literal_spec() -> PipelineSpec {
        one_stage_spec(0.005, 4, 0.002, 4)
    }

    fn iterative(batch: u32, latency_s: f64) -> Option<IterativeSpec> {
        Some(IterativeSpec {
            retrievals_per_sequence: 1,
            iterative_batch: batch,
            retrieval_prefix_latency_s: latency_s,
            seed: 1,
        })
    }

    #[test]
    #[should_panic(expected = "stage `prefix`: stage micro-batch must be at least 1")]
    fn a_zero_stage_batch_is_rejected_when_the_fleet_is_built() {
        let mut spec = literal_spec();
        spec.stages[0].batch = 0;
        let _ = alone(spec);
    }

    #[test]
    #[should_panic(expected = "iterative_batch must be at least 1")]
    fn a_zero_iterative_batch_is_rejected_when_the_fleet_is_built() {
        let mut spec = literal_spec();
        spec.iterative = iterative(0, 0.01);
        let _ = alone(spec);
    }

    #[test]
    #[should_panic(expected = "decode batch must be at least 1")]
    fn a_zero_decode_batch_is_rejected_when_the_fleet_is_built() {
        let mut spec = literal_spec();
        spec.decode = DecodeSpec {
            max_batch: 0,
            step_latency: LatencyTable::constant(4, 0.002),
        };
        let _ = alone(spec);
    }

    #[test]
    #[should_panic(expected = "decode step latency must be strictly positive")]
    fn a_zero_latency_decode_literal_is_rejected_when_the_fleet_is_built() {
        let mut spec = literal_spec();
        spec.decode = DecodeSpec {
            max_batch: 4,
            step_latency: LatencyTable::constant(4, 0.0),
        };
        let _ = alone(spec);
    }

    #[test]
    #[should_panic(expected = "retrieval latency must be finite and non-negative")]
    fn a_nan_retrieval_latency_is_rejected_when_the_fleet_is_built() {
        let mut spec = literal_spec();
        spec.iterative = iterative(4, f64::NAN);
        assert!(spec.validate().is_err());
        let _ = alone(spec);
    }

    /// Audit pin: every percentile of a single-sample distribution is the
    /// sample itself (nearest-rank with n = 1 selects rank 1 for any p).
    #[test]
    fn single_sample_stats_collapse_to_the_sample() {
        let s = LatencyStats::from_samples(&[0.125]);
        assert_eq!(s.mean_s, 0.125);
        assert_eq!(s.p50_s, 0.125);
        assert_eq!(s.p95_s, 0.125);
        assert_eq!(s.p99_s, 0.125);
        assert_eq!(s.max_s, 0.125);
    }

    /// Audit pin: duplicate values collapse every percentile to that value,
    /// and ties never push a rank past the duplicates.
    #[test]
    fn duplicate_values_collapse_percentiles() {
        let s = LatencyStats::from_samples(&[2.0; 7]);
        assert_eq!((s.p50_s, s.p95_s, s.p99_s, s.max_s), (2.0, 2.0, 2.0, 2.0));
        // Mixed duplicates: p50 of [1,1,1,9] is rank ceil(2) = 2 → 1.0.
        let s = LatencyStats::from_samples(&[9.0, 1.0, 1.0, 1.0]);
        assert_eq!(s.p50_s, 1.0);
        assert_eq!(s.max_s, 9.0);
    }

    /// Regression for the nearest-rank rounding fix: `0.2 × 5` is
    /// `1.0000000000000002` in f64, so a naive `ceil` bumped the p20 of five
    /// samples from rank 1 to rank 2. The tolerance keeps exact-integer
    /// products at their true rank without disturbing non-integer ones.
    #[test]
    fn percentile_rank_survives_float_noise() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 20.0), 1.0);
        assert_eq!(percentile(&sorted, 40.0), 2.0);
        assert_eq!(percentile(&sorted, 41.0), 3.0); // ceil(2.05) = 3
        assert_eq!(percentile(&sorted, 100.0), 5.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0); // clamped to rank 1
    }

    /// Audit pin: a trace whose requests request *zero* decode tokens is
    /// clamped to one token per request at the engine boundary, and the
    /// drain tail stays consistent (`makespan − last arrival`, never
    /// negative, never exceeding the serving duration).
    #[test]
    fn zero_decode_requests_are_clamped_and_drain_tail_holds() {
        let trace = Trace {
            requests: (0..5)
                .map(|i| Request {
                    id: i,
                    arrival_s: 0.1 * i as f64,
                    question_tokens: 16,
                    prefix_tokens: 64,
                    decode_tokens: 0,
                    class: 0,
                    identity: None,
                })
                .collect(),
        };
        let spec = one_stage_spec(0.05, 4, 0.01, 8);
        let report = run_trace(spec, &trace);
        assert_eq!(report.metrics.completed, 5);
        assert!(report.timelines.iter().all(|t| t.decode_tokens == 1));
        let m = &report.metrics;
        assert!(m.drain_tail_s >= 0.0);
        assert!((m.drain_tail_s - (m.makespan_s - m.last_arrival_s)).abs() < 1e-12);
        assert!(m.serving_duration_s >= m.drain_tail_s);
        // One decode step after the last arrival's prefix: the tail is the
        // remaining service time, strictly positive here.
        assert!(m.drain_tail_s > 0.0);
        // TPOT divides by the clamped token count, so it stays finite.
        assert!(m.tpot.max_s.is_finite() && m.tpot.max_s > 0.0);
    }

    #[test]
    fn per_class_rows_partition_the_run() {
        let spec = one_stage_spec(0.05, 4, 5e-3, 8);
        let mut requests: Vec<EngineRequest> = (0..30)
            .map(|i| EngineRequest {
                id: i,
                arrival_s: 0.02 * i as f64,
                prefix_tokens: 0,
                decode_tokens: 8 + (i as u32 % 5),
                class: (i % 3) as u32,
                identity: None,
            })
            .collect();
        requests[0].class = 2; // classes need not start at 0
        let report = run(spec, requests);
        assert_eq!(report.classes(), vec![0, 1, 2]);
        let total: usize = report.per_class.iter().map(|c| c.metrics.requests).sum();
        assert_eq!(total, 30);
        for row in &report.per_class {
            let count = report
                .timelines
                .iter()
                .filter(|t| t.class == row.class)
                .count();
            assert_eq!(row.metrics.requests, count);
            assert_eq!(row.metrics.completed, count);
            // Shared-resource fields repeat the run-level value.
            assert_eq!(
                row.metrics.mean_decode_fill,
                report.metrics.mean_decode_fill
            );
            // Class windows nest inside the run's window.
            assert!(row.metrics.first_arrival_s >= report.metrics.first_arrival_s);
            assert!(row.metrics.makespan_s <= report.metrics.makespan_s);
        }
        // Attainment per class is a partition of overall attainment.
        let slo = SloTarget::new(0.5, 0.02);
        let met_total: f64 = report
            .per_class
            .iter()
            .map(|c| report.class_attainment(c.class, &slo) * c.metrics.requests as f64)
            .sum();
        assert!((met_total / 30.0 - report.attainment(&slo)).abs() < 1e-12);
        // Absent classes behave like empty runs.
        assert_eq!(report.class_attainment(99, &slo), 1.0);
        assert_eq!(report.class_goodput_rps(99, &slo), 0.0);
    }

    #[test]
    fn single_class_runs_have_one_row_equal_to_the_aggregate() {
        let spec = one_stage_spec(0.03, 4, 2e-3, 8);
        let report = run(spec, (0..12).map(|i| req(i, 0.0, 10)).collect());
        assert_eq!(report.per_class.len(), 1);
        assert_eq!(report.per_class[0].class, 0);
        assert_eq!(report.per_class[0].metrics, report.metrics);
    }

    #[test]
    fn stage_times_split_one_buffer_that_clones_share() {
        let times = StageTimes::new(&[1.0, 2.0], &[1.5]);
        assert_eq!(times.starts(), [1.0, 2.0]);
        assert_eq!(times.ends(), [1.5]);
        let copy = times.clone();
        assert_eq!(copy.starts().as_ptr(), times.starts().as_ptr());
        assert_eq!(copy.ends().as_ptr(), times.ends().as_ptr());
        assert_eq!(times.heap_bytes(), 16 + 3 * 8);
        let none = StageTimes::new(&[], &[]);
        assert!(none.starts().is_empty() && none.ends().is_empty());
        assert_eq!(none.heap_bytes(), 0);
        assert_eq!(none, StageTimes::new(&[], &[]));
        assert_ne!(times, StageTimes::new(&[1.0], &[2.0, 1.5]));
    }

    #[test]
    #[should_panic(expected = "8 stage times; a pipeline has at most 7 stages")]
    fn stage_times_hold_at_most_one_time_per_pipeline_stage() {
        let _ = StageTimes::new(&[], &[0.0; 8]);
    }

    /// An exact report retains, per request, an 80-byte timeline and one
    /// stage buffer: 16 bytes of reference counts and 8 bytes per stage
    /// time, 128 bytes in all for a two-stage pipeline.
    #[test]
    fn exact_reports_retain_one_stage_buffer_per_request() {
        let spec = PipelineSpec::new(
            vec![
                StageSpec::new("retrieval", 0, 4, LatencyTable::constant(4, 0.01)),
                StageSpec::new("prefix", 1, 2, LatencyTable::constant(2, 0.02)),
            ],
            DecodeSpec::new(8, LatencyTable::constant(8, 2e-3)),
        );
        let report = run(spec, (0..50).map(|i| req(i, 0.01 * i as f64, 4)).collect());
        assert_eq!(std::mem::size_of::<RequestTimeline>(), 80);
        assert_eq!(report.timelines.capacity(), 50);
        let fixed = std::mem::size_of::<ServingReport>()
            + report.per_class.capacity() * std::mem::size_of::<ClassMetrics>();
        assert_eq!(report.retained_bytes() - fixed, 50 * 128);
    }
}
