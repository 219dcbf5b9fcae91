//! Discrete-event simulation of RAG serving pipelines.
//!
//! The analytical cost models (`rago-accel-sim`, `rago-retrieval-sim`) give
//! the steady-state cost of each stage in isolation. The effects studied by
//! the RAGO paper's system-level evaluation are inherently *dynamic* and need
//! simulation on top of those per-batch costs:
//!
//! * **Iterative-retrieval stalls** (§5.3, Figures 9 and 10): when decoding
//!   pauses to issue mid-generation retrievals, the achieved TPOT depends on
//!   how retrieval requests are batched against the set of actively decoding
//!   sequences. [`iterative::simulate`] reproduces that behaviour on the
//!   request-level [`engine`], including the pure batching-idleness study
//!   of Figure 10 (zero-latency retrieval + prefix).
//! * **Micro-batched execution of the pre-decode stages** (§6.1, Figures 14
//!   and 19): a burst of requests can be split into micro-batches that flow
//!   through the encoder/rewriter/retrieval/rerank/prefix stages either on
//!   disaggregated resources (pipelined) or on one collocated resource
//!   (time-multiplexed with an execution-order policy). Both run on the
//!   [`engine`] below: one [`engine::StageSpec`] per stage, on its own
//!   resource or all on one, with the whole burst arriving at t = 0
//!   (`bin/fig19` in `rago-bench`).
//! * **Request streams** — the general case subsuming both: [`engine`] is a
//!   request-level discrete-event simulation that drives whole requests
//!   through the full pipeline (encode → rewrite → retrieve → rerank →
//!   prefix → decode, with optional iterative retrieval) under any
//!   [`rago_workloads::ArrivalProcess`], with per-resource queues,
//!   continuous batching for decode, and per-request timelines. It reports
//!   TTFT/TPOT distributions, queueing-versus-service breakdown, and SLO
//!   attainment/goodput against a [`rago_schema::SloTarget`]. It
//!   reproduces a step-by-step decode loop and the closed-form burst
//!   models as degenerate cases (`tests/engine_equivalence.rs`).
//! * **Fleets** — the scale dimension on top of all three: one loop,
//!   [`fleet::FleetEngine`], runs N replicas of a pipeline (flat, or split
//!   into a prefill pool feeding a decode pool) behind a state-aware router
//!   ([`rago_schema::RouterPolicy`], [`cluster`]), dispatching a shared
//!   arrival stream and merging the runs into a [`cluster::FleetReport`]
//!   with per-replica breakdowns and load-imbalance statistics. What makes
//!   a fleet plain, elastic, or faulted is configuration of that loop:
//!   a [`faults::ScaleDriver`] sizes it — `Static`, the reactive
//!   [`autoscaler::AutoscalerPolicy`] (scale out on queue-depth or
//!   recent-attainment triggers, scale in after a cooldown, new replicas
//!   held out of the router while they warm up), or a
//!   [`faults::PredictivePolicy`] executing a precomputed
//!   [`faults::ScalingPlan`]; a deterministic [`faults::FaultSchedule`]
//!   injects replica crashes with cold restarts, stragglers, and spot
//!   preemptions with advance notice; and SLO-aware admission control
//!   sheds excess load in priority order ([`faults::AdmissionConfig`]).
//!   Requests carry workload-class tags ([`rago_workloads::WorkloadMix`]),
//!   and every report breaks metrics down per tenant class
//!   ([`engine::ClassMetrics`]); a [`faults::ChaosReport`] adds the
//!   scaling history, a fault ledger, per-class shed counts, windowed
//!   attainment timelines, and per-disruption recovery metrics
//!   ([`faults::RecoveryMetrics`]). Both metrics modes run through the same
//!   loop, and it is the only run path: a single pipeline is a one-replica
//!   static fleet, which runs exactly as the replica alone would with
//!   every request scheduled up front (pinned in [`cluster`]'s tests).
//! * **Disaggregated prefill/decode pools** — the placement dimension, as
//!   a configuration of the same loop: [`fleet::FleetEngine::disaggregated`]
//!   splits the fleet into a Prefill pool and a Decode pool
//!   (Splitwise/DistServe style). A request finishing its pre-decode stages
//!   on a prefill replica emits its first token there and hands its KV
//!   state across the interconnect — priced by a
//!   [`rago_schema::KvTransferModel`] on the loop's transfer lane — before
//!   the decode pool's own router re-injects it into a decode replica.
//!   Crashes are slot-indexed [`faults::FaultEvent`]s (prefill slots
//!   first, then decode), and a crashed replica's work re-queues within
//!   its own pool: un-transferred work to prefill survivors only.
//!   [`pools::DisaggReport`] is the two-pool view of the run, and a 1+1
//!   split at zero transfer cost reproduces a one-replica flat fleet's
//!   per-request timings exactly (`tests/proptest_pools.rs`).
//! * **Caching** — the content-reuse dimension on top of everything: a
//!   [`engine::CachePlan`] attaches the deterministic cache simulators of
//!   `rago-cache` to a pipeline. Each replica owns cold, replica-local
//!   cache state: a prefix-KV hit charges the prefix stage only for the
//!   uncached token suffix, a retrieval-result hit skips the retrieve and
//!   rerank stages outright, and the content-aware router policies
//!   (`PrefixHash`, `CacheAffinity`) steer requests toward the replica
//!   owning their template. Reports carry hit/miss/eviction counters
//!   ([`engine::CacheUsage`]), and identity-free or zero-capacity runs are
//!   bit-identical to the cache-less engine.
//!
//! # Examples
//!
//! ```
//! use rago_serving_sim::iterative::{simulate, IterativeDecodeParams};
//!
//! // 64 decoding sequences, 4 retrievals each, retrieval batch of 16.
//! let params = IterativeDecodeParams {
//!     decode_batch: 64,
//!     iterative_batch: 16,
//!     decode_len: 256,
//!     retrievals_per_sequence: 4,
//!     step_latency_s: 5e-3,
//!     retrieval_prefix_latency_s: 0.05,
//!     seed: 7,
//! };
//! let result = simulate(params);
//! assert!(result.tpot_worst_s >= result.tpot_mean_s);
//! assert!(result.normalized_decode_latency >= 1.0);
//! ```
//!
//! Driving a Poisson request stream through one replica of a pipeline — a
//! one-replica fleet:
//!
//! ```
//! use rago_serving_sim::engine::{DecodeSpec, LatencyTable, PipelineSpec, StageSpec};
//! use rago_serving_sim::{FleetEngine, ScaleDriver};
//! use rago_workloads::{ArrivalProcess, TraceSpec};
//! use rago_schema::{RouterPolicy, SequenceProfile};
//!
//! let spec = PipelineSpec::new(
//!     vec![StageSpec::new("prefix", 0, 8, LatencyTable::constant(8, 0.02))],
//!     DecodeSpec::new(32, LatencyTable::constant(32, 3e-3)),
//! );
//! let trace = TraceSpec {
//!     num_requests: 40,
//!     profile: SequenceProfile::paper_default().with_decode_tokens(16),
//!     arrival: ArrivalProcess::Poisson { rate_rps: 30.0 },
//!     length_jitter: 0.0,
//!     seed: 1,
//! }
//! .generate();
//! let engine = FleetEngine::new(spec, RouterPolicy::default(), ScaleDriver::Static { replicas: 1 });
//! let report = engine.run_trace(&trace).fleet.merged;
//! assert_eq!(report.metrics.completed, 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscaler;
pub mod cluster;
pub mod engine;
mod equeue;
pub mod faults;
pub mod fleet;
pub mod iterative;
pub mod pools;
pub mod sink;
mod telemetry;

pub use autoscaler::{
    AttainmentTrigger, AutoscalerPolicy, ReplicaLifetime, ScalingAction, ScalingEvent,
};
pub use cluster::{FleetReport, LoadImbalance, ReplicaReport};
pub use engine::{
    sustained_throughput_knee, CachePlan, CacheProbe, CacheUsage, ClassCacheUsage, ClassMetrics,
    DecodeSpec, EngineRequest, IterativeSpec, LatencyStats, LatencyTable, PipelineSpec,
    RequestTimeline, ServingMetrics, ServingReport, StageSpec, StageTimes,
};
pub use equeue::EventQueueStats;
pub use faults::{
    AdmissionConfig, AttainmentWindow, ChaosReport, ClassShed, CrashPolicy, Disruption, FaultEvent,
    FaultKind, FaultReport, FaultSchedule, PlanStep, PredictivePolicy, RecoveryMetrics,
    ScaleDriver, ScalingPlan, ShedEvent,
};
pub use fleet::{arrivals, FleetEngine, LostVerdict};
pub use iterative::{IterativeDecodeParams, IterativeDecodeResult, TriggerTable};
pub use pools::{DisaggReport, PoolReport, TransferStats};
pub use sink::{
    ClassSloScore, HistogramSink, LatencyHistogram, MetricsMode, RequestOutcome, StreamedScores,
    StreamingConfig,
};
