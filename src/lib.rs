//! Umbrella crate of the RAGO reproduction.
//!
//! Re-exports every workspace crate under one roof so examples, integration
//! tests, and downstream users can depend on a single package:
//!
//! * [`schema`] — the RAGSchema workload abstraction (§3 of the paper);
//! * [`hardware`] — XPU / CPU / cluster models (Table 2, §4);
//! * [`cache`] — deterministic prefix-KV and retrieval-result cache
//!   simulators (capacity in tokens / entries, LRU/LFU/size-aware
//!   eviction), driven by popularity-skewed content identity from
//!   [`workloads`];
//! * [`accel_sim`] — the operator-roofline inference cost model (§4(a));
//! * [`retrieval_sim`] — the ScaNN-style retrieval cost model (§4(b));
//! * [`serving_sim`] — discrete-event serving simulation (§5.3, §6.1),
//!   including the request-level engine with continuous batching and SLO
//!   metrics, and the fleet engine (replicas behind a router, sized
//!   statically, by the reactive autoscaler, or by a capacity plan, with
//!   fault injection and admission control);
//! * [`telemetry`] — the zero-cost-when-off tracing layer: statically
//!   dispatched recorders, span/gauge/decision/profile events, Perfetto
//!   (Chrome trace) and JSONL exporters, and trace summaries;
//! * [`core`] — the RAGO optimizer itself (§6), with static and dynamic
//!   (request-level) schedule evaluation, fleet evaluation, multi-tenant
//!   time-varying evaluation, and SLO-driven capacity planning (single
//!   rates and rate profiles);
//! * [`workloads`] — case-study presets, arrival processes (stationary and
//!   diurnal/spike/piecewise), multi-tenant workload mixes, and request
//!   generators.
//!
//! # Quickstart
//!
//! ```
//! use rago::core::{Rago, SearchOptions};
//! use rago::hardware::ClusterSpec;
//! use rago::schema::presets;
//!
//! let schema = presets::case1_hyperscale(presets::LlmSize::B8, 1);
//! let rago = Rago::new(schema, ClusterSpec::paper_default());
//! let pareto = rago.optimize(&SearchOptions::fast())?;
//! println!("frontier points: {}", pareto.len());
//! # Ok::<(), rago::core::RagoError>(())
//! ```

pub use rago_accel_sim as accel_sim;
pub use rago_cache as cache;
pub use rago_core as core;
pub use rago_hardware as hardware;
pub use rago_retrieval_sim as retrieval_sim;
pub use rago_schema as schema;
pub use rago_serving_sim as serving_sim;
pub use rago_telemetry as telemetry;
pub use rago_workloads as workloads;
