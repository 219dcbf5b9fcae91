//! # rago-telemetry
//!
//! A zero-cost-when-off tracing and profiling layer for the RAGO
//! simulators.
//!
//! The design has three pieces:
//!
//! - **[`Recorder`]** — a statically-dispatched sink trait. Engines are
//!   generic over it; every hook is guarded by `R::ENABLED`, so the
//!   [`NullRecorder`] instantiation compiles to exactly the recorder-free
//!   engine (disabled runs stay bit-identical, and hooks can never mutate
//!   simulation state because they only *read*).
//! - **[`TraceRecorder`]** — buffers [`TraceEvent`]s keyed `(time_s, seq)`
//!   in deterministic recording order, honouring a [`TelemetryConfig`]'s
//!   per-category gates and gauge cadence. Export with
//!   [`export_chrome_trace`] (Perfetto-loadable) or [`export_jsonl`], and
//!   summarize with [`TelemetryReport`].
//! - **[`SimProfile`]** — self-profiling counters for the simulator's own
//!   event loop (events processed and per-lane event-queue pops).
//!
//! All JSON is rendered by hand and checked by the bundled
//! [`validate_json`] parser — the workspace `serde` is a no-op shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod json;
mod profile;
mod recorder;
mod report;

pub use event::{sort_events, Lane, Phase, TraceEvent, FLEET_TRACK};
pub use export::{export_chrome_trace, export_jsonl};
pub use json::{escape_json, validate_json, validate_jsonl};
pub use profile::SimProfile;
pub use recorder::{NullRecorder, Recorder, TelemetryConfig, TraceRecorder};
pub use report::{ClassQueueing, StateTime, TelemetryReport};
