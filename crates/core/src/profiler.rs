//! Step 1 of Algorithm 1: per-stage performance profiling.
//!
//! The profiler maps every stage of a RAGSchema onto the appropriate cost
//! model — the XPU inference simulator for model stages, the CPU retrieval
//! simulator for the retrieval stage — and evaluates it for a given resource
//! count and batch size. The optimizer assembles end-to-end schedules from
//! these profiles.
//!
//! # Memoization
//!
//! Stage profiles are pure functions of `(stage, resource count, batch
//! size)` — for XPU stages the resource count is the group's chip count, for
//! retrieval it is the CPU-server count. The search grid is a cross product,
//! so millions of candidate schedules share a few thousand distinct stage
//! profiles; the profiler memoizes them behind an [`std::sync::RwLock`], so
//! threads that evaluate schedules one at a time share one cache. Each
//! entry is a [`OnceLock`], so threads that miss on the same key at the
//! same time wait for one evaluation: with memoization on, the misses equal
//! [`StageProfiler::cached_profiles`] whatever the thread count.
//!
//! Iterative workloads (Case III) also score candidates with a
//! decode-stall simulation ([`iterative::simulate`], a decode-only run of
//! the request-level replica engine), by far the most expensive part of
//! an evaluation. [`StageProfiler::decode_stall`] memoizes it by its full
//! input, an [`IterativeDecodeParams`] with each float keyed by bit
//! pattern. Those inputs are the decode and iterative batches, the decode
//! step latency and the iterative retrieval + re-prefix latency. The
//! pre-decode batch is not among them, so every pre-decode step of the
//! grid shares one simulation, and, as for profiles, each distinct input
//! is simulated once however many threads ask for it. Its counters
//! ([`StageProfiler::decode_stall_stats`]) are separate from the
//! stage-profile ones ([`StageProfiler::memo_stats`]).
//!
//! [`StageProfiler::with_memoization`] disables both caches, which exists
//! solely to benchmark the unmemoized search.
//!
//! # The exhaustive search's table
//!
//! The exhaustive search does not send its millions of lookups through the
//! shared cache: its workers would contend on the lock and on the hit
//! counter. Instead it profiles the grid up front, as Algorithm 1 does.
//! A crate-private `ProfileTable` is filled serially through
//! [`StageProfiler::profile`]: every pipeline stage at each of its resource
//! steps and at each batch the search can ask of it. Decode uses the decode
//! batches; prefix and retrieval, which iterative retrievals re-enter, the
//! pre-decode and iterative batches; every other stage the pre-decode
//! batches. Each profile is computed once, so after a cold search the memo
//! misses equal [`StageProfiler::cached_profiles`]. Scoring, one
//! pre-decode allocation's candidates per work unit, reads the immutable
//! table without a lock.
//!
//! # Simulating only the stalls the frontier needs
//!
//! A feasible Case III candidate reaches one of far fewer distinct stall
//! inputs than there are candidates, but most of those inputs still sit
//! behind candidates that no frontier keeps. So the search does not
//! simulate an input before scoring it. A table reader scores an input the
//! memo already holds with its simulated result, and any other input with
//! an optimistic one: the total time of
//! [`IterativeDecodeParams::min_total_time_s`], a lower bound on the
//! simulated one. Such a candidate has its true TTFT and a QPS/chip no
//! lower than its true one. After each round over the candidates, every
//! input behind a point the round kept that the memo lacks is simulated,
//! as one parallel wave. Each worker takes different inputs, and every one
//! reads its trigger positions from one [`TriggerTable`] per seed, decode
//! length and retrieval count, drawn for the largest decode batch of the
//! wave ([`iterative::simulate_with`], bit-identical to
//! [`iterative::simulate`]). The search then walks the candidates again.
//! Once no kept point is optimistic, no other candidate can beat one of
//! them, so they are the frontier of the full simulation. The wave reads
//! only the kept points, which the identity tie-break makes independent of
//! the thread count, and so does the number of simulations: on the
//! `bench_e2e` paper grid, 7 of the 1,220 inputs that its 9,760 feasible
//! Case III candidates reach. With memoization off no input is held, and
//! every decode half the search evaluates simulates its own, as through the
//! profiler: one per pre-decode allocation, server count and decode choice,
//! shared by all of its pre-decode batches.
//!
//! Each worker tallies its lookups, and the last round's total is added to
//! the memo hits once, at the end, less one per table entry: the fill's
//! request for an entry stands in for its first lookup, so the counters
//! add up to one request per lookup a one-round search makes. The search
//! looks a pre-decode half up once per pre-decode choice, a decode half
//! without iterative retrievals once per search, and one with them once per
//! pre-decode allocation, server count and decode choice, so it makes far
//! fewer lookups than candidates querying the profiler one by one: the
//! misses are the same, the hits fewer. A decode stall the last round
//! reads from the memo counts as a decode-stall hit; an optimistic score
//! counts as neither.

use crate::error::RagoError;
use crate::schedule::Schedule;
use crate::search::ScheduleSpace;
use rago_accel_sim::{AcceleratorGroup, InferenceSimulator};
use rago_hardware::ClusterSpec;
use rago_retrieval_sim::RetrievalSimulator;
use rago_schema::{RagSchema, Stage};
use rago_serving_sim::iterative::{
    self, IterativeDecodeParams, IterativeDecodeResult, TriggerTable,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// The profiled performance of one stage under a specific resource count and
/// batch size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StagePerf {
    /// The stage that was profiled.
    pub stage: Stage,
    /// Resources assigned: XPU chips for inference stages, CPU servers for
    /// retrieval.
    pub resources: u32,
    /// Requests per batch.
    pub batch: u32,
    /// Latency of pushing one batch through the stage, in seconds.
    pub latency_s: f64,
    /// Requests per second the stage sustains at this batch size and resource
    /// count (including pipeline overlap within the stage where applicable).
    pub throughput_rps: f64,
    /// Per-output-token step latency — populated only for decode stages.
    pub step_latency_s: Option<f64>,
}

impl StagePerf {
    /// The decode step latency, [`Self::step_latency_s`], read where a
    /// decode profile must carry one.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::CostModel`] when the profile has none.
    pub(crate) fn step_latency(&self) -> Result<f64, RagoError> {
        self.step_latency_s.ok_or_else(|| RagoError::CostModel {
            stage: self.stage.to_string(),
            reason: format!(
                "no decode step latency at {} resources and batch {}",
                self.resources, self.batch
            ),
        })
    }
}

/// Memoization key: `(stage, resource count, batch size)` — the full input
/// domain of a stage profile.
type ProfileKey = (Stage, u32, u32);
/// One memo cell: computed by the first caller to ask for its key, while
/// concurrent callers asking for the same key block on the cell instead of
/// computing it again.
type Memo<V> = Arc<OnceLock<V>>;
/// The shared profile cache (outcomes are memoized whether feasible or not).
type ProfileCache = RwLock<HashMap<ProfileKey, Memo<Result<StagePerf, RagoError>>>>;
/// Decode-stall memoization key: every field of an
/// [`IterativeDecodeParams`] — the batches, lengths and seed as they are, the
/// two latencies by bit pattern.
type StallKey = (u32, u32, u32, u32, u64, u64, u64);
/// The shared decode-stall cache.
type StallCache = RwLock<HashMap<StallKey, Memo<IterativeDecodeResult>>>;

/// `key`'s cell in `cache`, inserted empty by the first caller to ask.
fn memo_cell<K: Eq + std::hash::Hash, V>(cache: &RwLock<HashMap<K, Memo<V>>>, key: K) -> Memo<V> {
    let cached = cache
        .read()
        .expect("memo cache poisoned")
        .get(&key)
        .cloned();
    cached.unwrap_or_else(|| {
        Arc::clone(
            cache
                .write()
                .expect("memo cache poisoned")
                .entry(key)
                .or_default(),
        )
    })
}

/// `cell`'s value, computed by `init` for the one caller that finds it
/// empty: that caller counts a miss, every other caller a hit.
fn memo_get<V: Clone>(
    cell: &OnceLock<V>,
    (hits, misses): (&AtomicU64, &AtomicU64),
    init: impl FnOnce() -> V,
) -> V {
    let mut computed = false;
    let value = cell
        .get_or_init(|| {
            computed = true;
            init()
        })
        .clone();
    let counter = if computed { misses } else { hits };
    counter.fetch_add(1, Ordering::Relaxed);
    value
}

/// A copy of `cache`'s computed entries in fresh cells, so a clone never
/// waits on a computation the original is still running.
fn clone_memo<K: Eq + std::hash::Hash + Copy, V: Clone>(
    cache: &RwLock<HashMap<K, Memo<V>>>,
) -> RwLock<HashMap<K, Memo<V>>> {
    let cache = cache.read().expect("memo cache poisoned");
    let computed = cache.iter().filter_map(|(key, cell)| {
        cell.get()
            .map(|value| (*key, Arc::new(OnceLock::from(value.clone()))))
    });
    RwLock::new(computed.collect())
}

fn stall_key(p: &IterativeDecodeParams) -> StallKey {
    (
        p.decode_batch,
        p.iterative_batch,
        p.decode_len,
        p.retrievals_per_sequence,
        p.step_latency_s.to_bits(),
        p.retrieval_prefix_latency_s.to_bits(),
        p.seed,
    )
}

/// Profiles individual RAG stages using the analytical cost models.
///
/// The profiler is `Sync`: its memoization cache sits behind an `RwLock`, so
/// one profiler can serve every thread of the parallel schedule search.
#[derive(Debug)]
pub struct StageProfiler {
    schema: RagSchema,
    cluster: ClusterSpec,
    inference: InferenceSimulator,
    retrieval: RetrievalSimulator,
    cache: ProfileCache,
    stalls: StallCache,
    memoize: bool,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    stall_hits: AtomicU64,
    stall_misses: AtomicU64,
}

impl Clone for StageProfiler {
    fn clone(&self) -> Self {
        Self {
            schema: self.schema.clone(),
            cluster: self.cluster.clone(),
            inference: self.inference,
            retrieval: self.retrieval.clone(),
            cache: clone_memo(&self.cache),
            stalls: clone_memo(&self.stalls),
            memoize: self.memoize,
            memo_hits: AtomicU64::new(self.memo_hits.load(Ordering::Relaxed)),
            memo_misses: AtomicU64::new(self.memo_misses.load(Ordering::Relaxed)),
            stall_hits: AtomicU64::new(self.stall_hits.load(Ordering::Relaxed)),
            stall_misses: AtomicU64::new(self.stall_misses.load(Ordering::Relaxed)),
        }
    }
}

impl StageProfiler {
    /// Creates a profiler for one workload on one cluster.
    pub fn new(schema: RagSchema, cluster: ClusterSpec) -> Self {
        let retrieval = RetrievalSimulator::new(cluster.cpu.clone());
        Self {
            schema,
            cluster,
            inference: InferenceSimulator::new(),
            retrieval,
            cache: RwLock::new(HashMap::new()),
            stalls: RwLock::new(HashMap::new()),
            memoize: true,
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            stall_hits: AtomicU64::new(0),
            stall_misses: AtomicU64::new(0),
        }
    }

    /// Enables or disables memoization of stage profiles and decode-stall
    /// simulations (enabled by default). Disabling exists to measure the
    /// unmemoized search; there is no reason to turn the caches off in
    /// production use.
    pub fn with_memoization(mut self, enabled: bool) -> Self {
        self.memoize = enabled;
        self
    }

    /// Number of distinct `(stage, resources, batch)` points evaluated
    /// against the cost models so far — infeasible outcomes are memoized
    /// alongside feasible ones, so repeat rejections are also free. Compare
    /// against the number of schedules evaluated to see the memoization
    /// leverage.
    pub fn cached_profiles(&self) -> usize {
        self.cache.read().expect("memo cache poisoned").len()
    }

    /// Lifetime memoization counters: `(hits, misses)`. A hit answers a
    /// [`Self::profile`] call from the cache, including a call that waited
    /// while another thread evaluated the same key; a miss pays a cold
    /// cost-model evaluation, once per distinct key (with memoization
    /// disabled every call counts as a miss).
    /// Counters are relaxed atomics — exact totals once the search threads
    /// have joined, which is when the self-profiling report reads them.
    pub fn memo_stats(&self) -> (u64, u64) {
        (
            self.memo_hits.load(Ordering::Relaxed),
            self.memo_misses.load(Ordering::Relaxed),
        )
    }

    /// Lifetime decode-stall counters: `(hits, misses)`. A miss runs one
    /// [`iterative::simulate`]; a hit is answered from the cache, including a
    /// call that waited while another thread simulated the same input. Each
    /// distinct input is simulated once, so with memoization enabled the
    /// misses count the distinct inputs simulated. The exhaustive search
    /// simulates only the inputs behind the points it keeps (see the module
    /// docs). These counters are separate from [`Self::memo_stats`], which
    /// counts stage profiles only.
    pub fn decode_stall_stats(&self) -> (u64, u64) {
        (
            self.stall_hits.load(Ordering::Relaxed),
            self.stall_misses.load(Ordering::Relaxed),
        )
    }

    /// The workload being profiled.
    pub fn schema(&self) -> &RagSchema {
        &self.schema
    }

    /// The cluster being profiled against.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The minimum number of CPU servers able to hold the retrieval database
    /// (1 when the workload has no retrieval).
    pub fn min_retrieval_servers(&self) -> u32 {
        self.schema
            .retrieval
            .as_ref()
            .map(|cfg| self.retrieval.min_servers(cfg))
            .unwrap_or(1)
    }

    /// Profiles `stage` with `resources` XPU chips (or CPU servers for
    /// retrieval) at the given request `batch` size. Results are memoized,
    /// and each distinct key is evaluated once even when threads ask for it
    /// at the same time.
    ///
    /// # Errors
    ///
    /// Returns [`RagoError::InvalidConfig`] if the stage is not part of the
    /// workload, and [`RagoError::CostModel`] when the underlying cost model
    /// rejects the configuration (for example, the model does not fit in the
    /// group's memory).
    pub fn profile(
        &self,
        stage: Stage,
        resources: u32,
        batch: u32,
    ) -> Result<StagePerf, RagoError> {
        if !self.memoize {
            self.memo_misses.fetch_add(1, Ordering::Relaxed);
            return self.profile_uncached(stage, resources, batch);
        }
        let cell = memo_cell(&self.cache, (stage, resources, batch));
        memo_get(&cell, (&self.memo_hits, &self.memo_misses), || {
            self.profile_uncached(stage, resources, batch)
        })
    }

    /// Runs the decode-stall simulation of iterative retrieval (§5.3) for
    /// `params`. Results are memoized by the full input, and each distinct
    /// input is simulated exactly once even when search threads ask for it
    /// at the same time.
    ///
    /// # Panics
    ///
    /// Panics on the inputs [`iterative::simulate`] rejects.
    pub fn decode_stall(&self, params: IterativeDecodeParams) -> IterativeDecodeResult {
        self.memo_stall(params, || iterative::simulate(params))
    }

    /// As [`Self::decode_stall`], simulating a miss on the trigger
    /// positions of `triggers` instead of drawing them, which gives the
    /// same result.
    ///
    /// # Panics
    ///
    /// As [`iterative::simulate_with`].
    fn decode_stall_with(
        &self,
        params: IterativeDecodeParams,
        triggers: &TriggerTable,
    ) -> IterativeDecodeResult {
        self.memo_stall(params, || iterative::simulate_with(params, triggers))
    }

    /// `params`' decode-stall result, memoized unless memoization is off;
    /// `simulate` runs it on a miss.
    fn memo_stall(
        &self,
        params: IterativeDecodeParams,
        simulate: impl FnOnce() -> IterativeDecodeResult,
    ) -> IterativeDecodeResult {
        if !self.memoize {
            self.stall_misses.fetch_add(1, Ordering::Relaxed);
            return simulate();
        }
        let cell = memo_cell(&self.stalls, stall_key(&params));
        memo_get(&cell, (&self.stall_hits, &self.stall_misses), simulate)
    }

    /// `params`' simulated decode-stall result, if the memo holds one.
    fn simulated_stall(&self, params: &IterativeDecodeParams) -> Option<IterativeDecodeResult> {
        self.stalls
            .read()
            .expect("memo cache poisoned")
            .get(&stall_key(params))
            .and_then(|cell| cell.get().copied())
    }

    fn profile_uncached(
        &self,
        stage: Stage,
        resources: u32,
        batch: u32,
    ) -> Result<StagePerf, RagoError> {
        if !self.schema.pipeline().contains(&stage) {
            return Err(RagoError::InvalidConfig {
                reason: format!(
                    "stage `{stage}` is not part of workload `{}`",
                    self.schema.name
                ),
            });
        }
        if resources == 0 || batch == 0 {
            return Err(RagoError::InvalidConfig {
                reason: "resources and batch must be at least 1".into(),
            });
        }
        let seq = &self.schema.sequence;
        let group = AcceleratorGroup::new(self.cluster.xpu.clone(), resources)
            .with_interconnect(self.cluster.interconnect.clone());
        let map_accel = |e: rago_accel_sim::AccelSimError| RagoError::CostModel {
            stage: stage.to_string(),
            reason: e.to_string(),
        };
        let map_retr = |e: rago_retrieval_sim::RetrievalSimError| RagoError::CostModel {
            stage: stage.to_string(),
            reason: e.to_string(),
        };

        let perf = match stage {
            Stage::DatabaseEncode => {
                let model = self
                    .schema
                    .document_encoder
                    .as_ref()
                    .expect("stage present");
                let cost = self
                    .inference
                    .encoder_cost(
                        model,
                        seq.encoder_tokens(),
                        seq.chunk_tokens.max(1),
                        batch,
                        &group,
                    )
                    .map_err(map_accel)?;
                StagePerf {
                    stage,
                    resources,
                    batch,
                    latency_s: cost.latency_s,
                    throughput_rps: cost.throughput_rps,
                    step_latency_s: None,
                }
            }
            Stage::RewritePrefix => {
                let model = self.schema.query_rewriter.as_ref().expect("stage present");
                let cost = self
                    .inference
                    .best_prefix_cost(model, seq.question_tokens, batch, &group)
                    .map_err(map_accel)?;
                StagePerf {
                    stage,
                    resources,
                    batch,
                    latency_s: cost.latency_s,
                    throughput_rps: cost.throughput_rps,
                    step_latency_s: None,
                }
            }
            Stage::RewriteDecode => {
                let model = self.schema.query_rewriter.as_ref().expect("stage present");
                let cost = self
                    .inference
                    .best_decode_cost(
                        model,
                        seq.question_tokens,
                        self.schema.rewriter_output_tokens.max(1),
                        batch,
                        &group,
                    )
                    .map_err(map_accel)?;
                StagePerf {
                    stage,
                    resources,
                    batch,
                    latency_s: cost.total_latency_s,
                    throughput_rps: cost.throughput_rps,
                    step_latency_s: Some(cost.step_latency_s),
                }
            }
            Stage::Retrieval => {
                let cfg = self.schema.retrieval.as_ref().expect("stage present");
                let query_batch = batch.saturating_mul(cfg.queries_per_retrieval).max(1);
                let cost = self
                    .retrieval
                    .retrieval_cost(cfg, query_batch, resources)
                    .map_err(map_retr)?;
                let retrievals_per_request = f64::from(cfg.retrievals_per_sequence.max(1));
                StagePerf {
                    stage,
                    resources,
                    batch,
                    latency_s: cost.latency_s,
                    throughput_rps: cost.retrievals_per_second(cfg.queries_per_retrieval)
                        / retrievals_per_request,
                    step_latency_s: None,
                }
            }
            Stage::Rerank => {
                let model = self.schema.reranker.as_ref().expect("stage present");
                let candidate_tokens = u64::from(self.schema.rerank_candidates.max(1))
                    * u64::from(seq.chunk_tokens + seq.question_tokens);
                let cost = self
                    .inference
                    .encoder_cost(
                        model,
                        candidate_tokens,
                        seq.chunk_tokens + seq.question_tokens,
                        batch,
                        &group,
                    )
                    .map_err(map_accel)?;
                StagePerf {
                    stage,
                    resources,
                    batch,
                    latency_s: cost.latency_s,
                    throughput_rps: cost.throughput_rps,
                    step_latency_s: None,
                }
            }
            Stage::Prefix => {
                let model = &self.schema.generative_llm;
                let cost = self
                    .inference
                    .best_prefix_cost(model, self.schema.main_prefix_tokens(), batch, &group)
                    .map_err(map_accel)?;
                StagePerf {
                    stage,
                    resources,
                    batch,
                    latency_s: cost.latency_s,
                    throughput_rps: cost.throughput_rps,
                    step_latency_s: None,
                }
            }
            Stage::Decode => {
                let model = &self.schema.generative_llm;
                let cost = self
                    .inference
                    .best_decode_cost(
                        model,
                        self.schema.main_prefix_tokens(),
                        seq.decode_tokens,
                        batch,
                        &group,
                    )
                    .map_err(map_accel)?;
                StagePerf {
                    stage,
                    resources,
                    batch,
                    latency_s: cost.total_latency_s,
                    throughput_rps: cost.throughput_rps,
                    step_latency_s: Some(cost.step_latency_s),
                }
            }
        };
        Ok(perf)
    }
}

/// Where [`Schedule::evaluate`] reads its costs from: the profiler itself,
/// or the exhaustive search's table, filled from the profiler up front.
pub(crate) trait CostSource {
    /// The profiler behind the costs, which also knows the workload and the
    /// cluster.
    fn profiler(&self) -> &StageProfiler;

    /// As [`StageProfiler::profile`].
    fn profile(&self, stage: Stage, resources: u32, batch: u32) -> Result<StagePerf, RagoError>;

    /// As [`StageProfiler::decode_stall`].
    fn decode_stall(&self, params: IterativeDecodeParams) -> IterativeDecodeResult {
        self.profiler().decode_stall(params)
    }
}

impl CostSource for StageProfiler {
    fn profiler(&self) -> &StageProfiler {
        self
    }

    fn profile(&self, stage: Stage, resources: u32, batch: u32) -> Result<StagePerf, RagoError> {
        StageProfiler::profile(self, stage, resources, batch)
    }
}

/// One stage's profiles over its resource steps × its batch axis.
struct StageGrid {
    resources: Vec<u32>,
    batches: Vec<u32>,
    /// Row-major: resource step outer, batch inner.
    profiles: Vec<Result<StagePerf, RagoError>>,
}

/// Every stage profile a search grid can ask for, computed once before the
/// candidates are scored (see the module docs). It is immutable once
/// filled, so search workers read it without a lock.
pub(crate) struct ProfileTable<'p> {
    profiler: &'p StageProfiler,
    /// Indexed by `stage as usize`; `None` for stages outside the workload.
    grids: [Option<StageGrid>; Stage::PIPELINE_ORDER.len()],
}

impl<'p> ProfileTable<'p> {
    /// Profiles every pipeline stage of `profiler`'s workload over the axes
    /// of `space`. With memoization disabled the table stays empty and every
    /// lookup goes straight to the profiler.
    pub(crate) fn fill(profiler: &'p StageProfiler, space: &ScheduleSpace) -> Self {
        let mut grids = std::array::from_fn(|_| None);
        if profiler.memoize {
            let mut reentrant = space.predecode_batches.clone();
            for &b in space.iterative_batches.iter().flatten() {
                if !reentrant.contains(&b) {
                    reentrant.push(b);
                }
            }
            for stage in profiler.schema.pipeline() {
                let resources = if stage == Stage::Retrieval {
                    &space.server_steps
                } else {
                    &space.xpu_steps
                };
                let batches = match stage {
                    Stage::Decode => &space.decode_batches,
                    Stage::Prefix | Stage::Retrieval => &reentrant,
                    _ => &space.predecode_batches,
                };
                let profiles = resources
                    .iter()
                    .flat_map(|&r| batches.iter().map(move |&b| profiler.profile(stage, r, b)))
                    .collect();
                grids[stage as usize] = Some(StageGrid {
                    resources: resources.clone(),
                    batches: batches.clone(),
                    profiles,
                });
            }
        }
        Self { profiler, grids }
    }

    /// The profile of `stage` at `resources` and `batch`, from the table
    /// when it holds the point and from the profiler otherwise. The flag is
    /// whether the table answered.
    fn lookup(
        &self,
        stage: Stage,
        resources: u32,
        batch: u32,
    ) -> (Result<StagePerf, RagoError>, bool) {
        let hit = self.grids[stage as usize].as_ref().and_then(|grid| {
            let r = grid.resources.iter().position(|&x| x == resources)?;
            let b = grid.batches.iter().position(|&x| x == batch)?;
            Some(&grid.profiles[r * grid.batches.len() + b])
        });
        match hit {
            Some(profile) => (profile.clone(), true),
            None => (self.profiler.profile(stage, resources, batch), false),
        }
    }

    /// A cost source for one candidate that counts the lookups the table
    /// and the decode-stall memo answer.
    pub(crate) fn reader(&self) -> TableReader<'_> {
        TableReader {
            table: self,
            lookups: Cell::new(Lookups::default()),
        }
    }

    /// Counts a search's `lookups` answered by the table and by the
    /// decode-stall memo as memo hits, once the workers have tallied them.
    /// Filling the table asked the profiler for each entry once, and that
    /// request stands in for the entry's first lookup: the memo then counts
    /// one request per lookup the search made.
    pub(crate) fn count_hits(&self, lookups: Lookups) {
        let filled: usize = self
            .grids
            .iter()
            .flatten()
            .map(|grid| grid.profiles.len())
            .sum();
        let hits = lookups.profiles.saturating_sub(filled as u64);
        self.profiler.memo_hits.fetch_add(hits, Ordering::Relaxed);
        self.profiler
            .stall_hits
            .fetch_add(lookups.stalls, Ordering::Relaxed);
    }

    /// Simulates, in parallel, every decode-stall input behind the `kept`
    /// schedules that the memo lacks, and returns whether there was one. A
    /// reader scores such an input with an optimistic result instead (see
    /// [`TableReader`]), so a kept schedule whose input is simulated here
    /// may leave the frontier when the search walks again. Does nothing for
    /// workloads without iterative retrievals or with memoization disabled,
    /// whose readers never score optimistically.
    pub(crate) fn simulate_stalls<'s>(&self, kept: impl Iterator<Item = &'s Schedule>) -> bool {
        if !self.profiler.memoize || !self.profiler.schema.is_iterative() {
            return false;
        }
        let reader = self.reader();
        let mut inputs: Vec<IterativeDecodeParams> = Vec::new();
        for schedule in kept {
            let Ok(Some(params)) = schedule.stall_input(&reader) else {
                continue;
            };
            let fresh = self.profiler.simulated_stall(&params).is_none()
                && !inputs.iter().any(|p| stall_key(p) == stall_key(&params));
            if fresh {
                inputs.push(params);
            }
        }
        if inputs.is_empty() {
            return false;
        }
        // Larger decode batches simulate for longer: start them first so
        // the workers run out of inputs at about the same time.
        inputs.sort_by_key(|p| Reverse(p.decode_batch));
        // Draw the trigger positions once per seed, decode length and
        // retrieval count, for the largest batch that shares them (the
        // first in this order); every simulation reads its prefix rows.
        let mut tables: Vec<TriggerTable> = Vec::new();
        for p in &inputs {
            if !tables.iter().any(|table| table.fits(p)) {
                tables.push(TriggerTable::draw(
                    p.seed,
                    p.decode_len,
                    p.retrievals_per_sequence,
                    p.decode_batch,
                ));
            }
        }
        let tables = &tables;
        inputs
            .into_iter()
            .par_bridge()
            .fold(
                || (),
                |(), params| {
                    let triggers = tables
                        .iter()
                        .find(|table| table.fits(&params))
                        .expect("a table is drawn for every input");
                    self.profiler.decode_stall_with(params, triggers);
                },
            )
            .reduce(|| (), |(), ()| ());
        true
    }
}

/// Lookups a search answered without computing: stage profiles from a
/// [`ProfileTable`], decode stalls from the memo.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lookups {
    profiles: u64,
    stalls: u64,
}

impl std::ops::Add for Lookups {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            profiles: self.profiles + other.profiles,
            stalls: self.stalls + other.stalls,
        }
    }
}

/// One candidate's view of a [`ProfileTable`], counting the lookups the
/// table and the decode-stall memo answer.
///
/// With memoization on, it never simulates a decode stall: an input the
/// memo holds scores with its simulated result, and any other with an
/// optimistic one, whose total time is
/// [`IterativeDecodeParams::min_total_time_s`]. A candidate scored
/// optimistically has its true TTFT and a QPS/chip no lower than its true
/// one. With memoization off, every input is simulated, as through the
/// profiler.
pub(crate) struct TableReader<'t> {
    table: &'t ProfileTable<'t>,
    lookups: Cell<Lookups>,
}

impl TableReader<'_> {
    /// Lookups the table and the memo answered.
    pub(crate) fn lookups(&self) -> Lookups {
        self.lookups.get()
    }
}

impl CostSource for TableReader<'_> {
    fn profiler(&self) -> &StageProfiler {
        self.table.profiler
    }

    fn profile(&self, stage: Stage, resources: u32, batch: u32) -> Result<StagePerf, RagoError> {
        let (profile, hit) = self.table.lookup(stage, resources, batch);
        let mut lookups = self.lookups.get();
        lookups.profiles += u64::from(hit);
        self.lookups.set(lookups);
        profile
    }

    fn decode_stall(&self, params: IterativeDecodeParams) -> IterativeDecodeResult {
        let profiler = self.table.profiler;
        if !profiler.memoize {
            return profiler.decode_stall(params);
        }
        match profiler.simulated_stall(&params) {
            Some(result) => {
                let mut lookups = self.lookups.get();
                lookups.stalls += 1;
                self.lookups.set(lookups);
                result
            }
            None => optimistic_stall(&params),
        }
    }
}

/// The result a [`TableReader`] scores an unsimulated decode stall with:
/// no simulation finishes sooner, and no sequence decodes faster than one
/// token per step.
fn optimistic_stall(params: &IterativeDecodeParams) -> IterativeDecodeResult {
    let total_time_s = params.min_total_time_s();
    IterativeDecodeResult {
        total_time_s,
        tpot_mean_s: params.step_latency_s,
        tpot_worst_s: params.step_latency_s,
        normalized_decode_latency: total_time_s
            / (f64::from(params.decode_len) * params.step_latency_s),
        ..IterativeDecodeResult::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rago_schema::presets::{self, LlmSize};

    fn profiler_case1() -> StageProfiler {
        StageProfiler::new(
            presets::case1_hyperscale(LlmSize::B8, 1),
            ClusterSpec::paper_default(),
        )
    }

    #[test]
    fn profiles_all_stages_of_case1() {
        let p = profiler_case1();
        for stage in [Stage::Retrieval, Stage::Prefix, Stage::Decode] {
            let servers = if stage == Stage::Retrieval { 32 } else { 8 };
            let perf = p.profile(stage, servers, 4).unwrap();
            assert!(perf.latency_s > 0.0, "{stage} latency");
            assert!(perf.throughput_rps > 0.0, "{stage} throughput");
        }
    }

    #[test]
    fn decode_reports_step_latency() {
        let p = profiler_case1();
        let perf = p.profile(Stage::Decode, 8, 32).unwrap();
        assert!(perf.step_latency_s.unwrap() > 0.0);
        assert!(perf.step_latency_s.unwrap() < perf.latency_s);
        let prefix = p.profile(Stage::Prefix, 8, 32).unwrap();
        assert!(prefix.step_latency_s.is_none());
    }

    fn stall_params() -> IterativeDecodeParams {
        IterativeDecodeParams {
            decode_batch: 32,
            iterative_batch: 4,
            decode_len: 64,
            retrievals_per_sequence: 2,
            step_latency_s: 1e-3,
            retrieval_prefix_latency_s: 0.01,
            seed: 1,
        }
    }

    #[test]
    fn decode_stalls_are_memoized_apart_from_stage_profiles() {
        let params = stall_params();
        let direct = iterative::simulate(params);
        let p = profiler_case1();
        assert_eq!(p.decode_stall(params), direct);
        assert_eq!(p.decode_stall(params), direct);
        assert_eq!(p.decode_stall_stats(), (1, 1));
        assert_eq!(p.memo_stats(), (0, 0), "stage-profile counters moved");
        // A clone carries the memo and its counters.
        let clone = p.clone();
        assert_eq!(clone.decode_stall(params), direct);
        assert_eq!(clone.decode_stall_stats(), (2, 1));
        // Without memoization every call simulates.
        let off = profiler_case1().with_memoization(false);
        assert_eq!(off.decode_stall(params), direct);
        assert_eq!(off.decode_stall(params), direct);
        assert_eq!(off.decode_stall_stats(), (0, 2));
    }

    #[test]
    fn concurrent_decode_stall_misses_simulate_once() {
        // The threads start together on a simulation that takes
        // milliseconds, so the later ones ask while the first simulates.
        let params = IterativeDecodeParams {
            decode_batch: 1024,
            decode_len: 256,
            ..stall_params()
        };
        let p = profiler_case1();
        let start = std::sync::Barrier::new(4);
        let results: Vec<IterativeDecodeResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        p.decode_stall(params)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|r| *r == results[0]));
        assert_eq!(p.decode_stall_stats(), (3, 1));
    }

    #[test]
    fn concurrent_profile_misses_compute_once() {
        // Each round, 8 threads released together ask for one fresh key:
        // exactly one of them may pay the cost-model evaluation.
        const THREADS: u64 = 8;
        const ROUNDS: u32 = 32;
        let p = profiler_case1();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for batch in 1..=ROUNDS {
                        start.wait();
                        p.profile(Stage::Decode, 8, batch).unwrap();
                    }
                });
            }
        });
        let rounds = u64::from(ROUNDS);
        assert_eq!(p.memo_stats(), ((THREADS - 1) * rounds, rounds));
        assert_eq!(p.cached_profiles(), ROUNDS as usize);
    }

    #[test]
    fn stages_not_in_the_workload_are_rejected() {
        let p = profiler_case1();
        assert!(matches!(
            p.profile(Stage::DatabaseEncode, 8, 4),
            Err(RagoError::InvalidConfig { .. })
        ));
        assert!(matches!(
            p.profile(Stage::Prefix, 0, 4),
            Err(RagoError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn retrieval_needs_enough_servers() {
        let p = profiler_case1();
        assert!(p.min_retrieval_servers() >= 16);
        assert!(matches!(
            p.profile(Stage::Retrieval, 2, 4),
            Err(RagoError::CostModel { .. })
        ));
        assert!(p.profile(Stage::Retrieval, 32, 4).is_ok());
    }

    #[test]
    fn memoization_returns_identical_results() {
        let p = profiler_case1();
        let a = p.profile(Stage::Prefix, 4, 8).unwrap();
        let b = p.profile(Stage::Prefix, 4, 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn case2_encoder_profile_scales_with_context() {
        let p100k = StageProfiler::new(
            presets::case2_long_context(LlmSize::B70, 100_000),
            ClusterSpec::paper_default(),
        );
        let p1m = StageProfiler::new(
            presets::case2_long_context(LlmSize::B70, 1_000_000),
            ClusterSpec::paper_default(),
        );
        let e100k = p100k.profile(Stage::DatabaseEncode, 16, 2).unwrap();
        let e1m = p1m.profile(Stage::DatabaseEncode, 16, 2).unwrap();
        assert!(e1m.latency_s > e100k.latency_s * 5.0);
    }

    #[test]
    fn case4_profiles_rewriter_and_reranker() {
        let p = StageProfiler::new(
            presets::case4_rewriter_reranker(LlmSize::B70),
            ClusterSpec::paper_default(),
        );
        let rw_prefix = p.profile(Stage::RewritePrefix, 4, 4).unwrap();
        let rw_decode = p.profile(Stage::RewriteDecode, 4, 4).unwrap();
        let rerank = p.profile(Stage::Rerank, 4, 4).unwrap();
        // The autoregressive rewrite-decode is far slower than the rewrite
        // prefix over the same short question (§5.4).
        assert!(rw_decode.latency_s > rw_prefix.latency_s * 3.0);
        assert!(rerank.latency_s > 0.0);
    }
}
