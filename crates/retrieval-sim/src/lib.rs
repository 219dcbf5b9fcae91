//! ScaNN-style retrieval performance model for the RAGO reproduction.
//!
//! Implements the retrieval half of the paper's analytical cost model
//! (§4(b)): a query descends a multi-level tree index, executing a vector
//! *scan operator* at each level; each scan is costed with a roofline over the
//! host CPU's per-core PQ-scanning throughput and its memory bandwidth. ScaNN
//! assigns one thread per query, so small query batches cannot use the whole
//! socket; large databases are sharded across servers and every query is
//! processed by all shards.
//!
//! Two search modes are covered, matching [`rago_schema::SearchMode`]:
//! tree-based IVF-PQ search over quantized codes (Case I/III/IV's 64-billion
//! vector corpus) and brute-force full-precision search (Case II's tiny
//! per-request databases).
//!
//! # Examples
//!
//! ```
//! use rago_retrieval_sim::RetrievalSimulator;
//! use rago_schema::RetrievalConfig;
//!
//! let sim = RetrievalSimulator::default();
//! let cfg = RetrievalConfig::hyperscale_64b();
//! // One retrieval query, database sharded over 32 servers.
//! let cost = sim.retrieval_cost(&cfg, 1, 32)?;
//! assert!(cost.latency_s > 0.0);
//! assert!(cost.throughput_qps > 0.0);
//! # Ok::<(), rago_retrieval_sim::RetrievalSimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod simulator;

pub use cost::RetrievalCost;
pub use error::RetrievalSimError;
pub use simulator::RetrievalSimulator;
