//! RAGO: systematic performance optimization for RAG serving.
//!
//! This crate is the paper's primary contribution: given a workload described
//! by a [`rago_schema::RagSchema`] and a resource budget, RAGO searches the
//! scheduling-policy space — **task placement** (which inference components
//! are collocated on the same accelerators), **resource allocation** (how many
//! XPUs or CPU servers each component gets), and **batching policy** (the
//! batch size of every stage) — and returns the Pareto frontier of
//! time-to-first-token versus QPS-per-chip, together with the schedules that
//! achieve it (Algorithm 1).
//!
//! The crate also provides the LLM-system-extension [`baseline`] the paper
//! compares against, and the resource-normalized time [`breakdown`] used in
//! the workload-characterization figures.
//!
//! # Examples
//!
//! ```
//! use rago_core::{Rago, SearchOptions};
//! use rago_hardware::ClusterSpec;
//! use rago_schema::presets;
//!
//! let schema = presets::case1_hyperscale(presets::LlmSize::B8, 1);
//! let cluster = ClusterSpec::paper_default();
//! let rago = Rago::new(schema, cluster);
//! let pareto = rago.optimize(&SearchOptions::fast())?;
//! assert!(!pareto.points.is_empty());
//! let best_qps = pareto.max_qps_per_chip().unwrap();
//! assert!(best_qps.performance.qps_per_chip > 0.0);
//! # Ok::<(), rago_core::RagoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod breakdown;
pub mod cached;
pub mod capacity;
pub mod disagg;
pub mod dynamic;
pub mod error;
pub mod faulted;
pub mod metrics;
pub mod optimizer;
pub mod pareto;
pub mod placement;
pub mod profiler;
pub mod schedule;
pub mod search;

pub use baseline::BaselineSystem;
pub use breakdown::{stage_breakdown, StageShare};
pub use cached::{CacheConfig, CachedCapacityPlan};
pub use capacity::{
    CapacityInterval, CapacityOptions, CapacityPlan, CapacityProfile, PoolCapacityPlan,
    MAX_PLANNER_REPLICAS,
};
pub use disagg::{transfer_model_from_interconnect, DisaggChoice, DisaggEvaluation};
pub use dynamic::{
    evaluate_fleet_dynamic_traced, evaluate_fleet_dynamic_with, DynamicEvaluation, FleetEvaluation,
};
pub use error::RagoError;
pub use faulted::{
    scaling_plan_from_profile, FaultScenario, FaultedClassOutcome, FaultedEvaluation,
};
pub use metrics::RagPerformance;
pub use optimizer::{Rago, SearchOptions};
pub use pareto::{ParetoAccumulator, ParetoFrontier, ParetoPoint};
pub use placement::PlacementPlan;
pub use profiler::{StagePerf, StageProfiler};
pub use rago_serving_sim::{MetricsMode, StreamingConfig};
pub use schedule::{BatchingPolicy, ResourceAllocation, Schedule};
pub use search::ScheduleIter;
