//! Statically-dispatched recorders: [`NullRecorder`] compiles to nothing,
//! [`TraceRecorder`] buffers a deterministic event stream.

use crate::event::TraceEvent;
use serde::{Deserialize, Serialize};

/// What a traced run should capture: the engine takes its gauge cadence,
/// and the [`TraceRecorder`] built from it applies the per-category
/// gates.
///
/// The *zero-cost* guarantee is static, not runtime: engines are generic
/// over [`Recorder`], every hook is guarded by `R::ENABLED`, and the
/// [`NullRecorder`] instantiation dead-code-eliminates to the recorder-free
/// engine. `TelemetryConfig::disabled()` additionally gates the
/// [`TraceRecorder`] at runtime so a disabled config records nothing even
/// through the traced entry points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch. When false the [`TraceRecorder`] drops every event.
    pub enabled: bool,
    /// Capture per-request spans (queue wait, stage service, decode
    /// residency, cache probes, shed/requeue markers).
    pub spans: bool,
    /// Capture periodic gauges.
    pub gauges: bool,
    /// Capture decision events (router picks, sheds, scaling, faults).
    pub decisions: bool,
    /// Capture simulator self-profiling counters.
    pub profile: bool,
    /// Gauge sampling cadence, in simulated seconds: finite and
    /// non-negative ([`Self::validate`]). Ignored when zero or when
    /// `gauges` is off.
    pub gauge_cadence_s: f64,
}

impl TelemetryConfig {
    /// Everything off — runs are pinned bit-identical to the untraced
    /// stack.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            spans: false,
            gauges: false,
            decisions: false,
            profile: false,
            gauge_cadence_s: 0.0,
        }
    }

    /// Everything on, sampling gauges every `gauge_cadence_s` simulated
    /// seconds.
    pub fn full(gauge_cadence_s: f64) -> Self {
        TelemetryConfig {
            enabled: true,
            spans: true,
            gauges: true,
            decisions: true,
            profile: true,
            gauge_cadence_s,
        }
    }

    /// Checks that gauges can be sampled: the cadence must be finite and
    /// non-negative (a gauge at `k · ∞` has no valid timestamp).
    ///
    /// # Errors
    ///
    /// Returns the reason when the cadence is NaN, infinite or negative.
    pub fn validate(&self) -> Result<(), String> {
        if self.gauge_cadence_s.is_finite() && self.gauge_cadence_s >= 0.0 {
            Ok(())
        } else {
            Err(format!(
                "telemetry gauge cadence must be finite and non-negative, got {}",
                self.gauge_cadence_s
            ))
        }
    }

    /// Whether a given lane should be captured under this config.
    pub fn captures(&self, lane: crate::Lane) -> bool {
        if !self.enabled {
            return false;
        }
        match lane {
            crate::Lane::Request => self.spans,
            crate::Lane::Gauge => self.gauges && self.gauge_cadence_s > 0.0,
            crate::Lane::Decision => self.decisions,
            crate::Lane::Transfer => self.spans,
            crate::Lane::Profile => self.profile,
        }
    }
}

impl Default for TelemetryConfig {
    /// The default is everything on at a 0.5 s gauge cadence.
    fn default() -> Self {
        TelemetryConfig::full(0.5)
    }
}

/// A sink for [`TraceEvent`]s. Engines are generic over this trait; every
/// recording site is guarded by `if R::ENABLED { .. }` so the
/// [`NullRecorder`] instantiation compiles to the recorder-free code and
/// the event stream can never influence simulation state.
pub trait Recorder {
    /// Whether this recorder captures anything at all. `false` turns every
    /// hook into dead code.
    const ENABLED: bool;

    /// Records one event. The recorder assigns the deterministic `seq`.
    fn record(&mut self, ev: TraceEvent);
}

/// The recorder that records nothing and compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

/// A buffering recorder. Events keep their recording order as `seq`, so a
/// seeded run replays to a byte-identical export.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    config: TelemetryConfig,
    events: Vec<TraceEvent>,
    next_seq: u64,
}

impl TraceRecorder {
    /// A recorder honouring `config`'s gates and cadence.
    pub fn new(config: TelemetryConfig) -> Self {
        TraceRecorder {
            config,
            events: Vec::new(),
            next_seq: 0,
        }
    }

    /// The config this recorder was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The buffered events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder and returns its events in canonical export
    /// order `(time_s, seq)`.
    pub fn into_events(self) -> Vec<TraceEvent> {
        let mut events = self.events;
        // `seq` is unique per recorder, so no two keys tie and the
        // unstable sort yields the same order as `sort_events`.
        events.sort_unstable_by_key(TraceEvent::sort_key);
        events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Recorder for TraceRecorder {
    const ENABLED: bool = true;

    fn record(&mut self, mut ev: TraceEvent) {
        if !self.config.captures(ev.lane) {
            return;
        }
        ev.seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_requires_a_finite_non_negative_cadence() {
        for cadence in [0.0, 0.25, 1e6] {
            assert_eq!(TelemetryConfig::full(cadence).validate(), Ok(()));
        }
        assert_eq!(TelemetryConfig::disabled().validate(), Ok(()));
        for cadence in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.5] {
            let err = TelemetryConfig::full(cadence).validate().unwrap_err();
            assert!(err.contains("gauge cadence"), "{err}");
        }
    }
}
