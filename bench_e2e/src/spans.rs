//! Host-time spans around each layer call of a journey, and the self-time
//! arithmetic over them.
//!
//! Spans are `rago_telemetry` trace events stamped with host seconds since
//! the journey began, kept in memory and written out once the rep is over,
//! so the trace is loadable in Perfetto like the simulator's own traces.
//! With tracing off a span is a plain call and nothing is recorded.

use crate::api::{self, Phase, Recorder, TraceEvent, TraceRecorder, BENCH_LANE, FLEET_TRACK};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span wrapping a whole journey.
pub const JOURNEY: &str = "journey";

/// Collects a journey's work counters and, when tracing, its layer spans.
pub struct Tracer {
    recording: Option<(Instant, TraceRecorder)>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    /// A tracer that only sums counters.
    pub fn off() -> Self {
        Tracer {
            recording: None,
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that also records spans, timed from now.
    pub fn on() -> Self {
        Tracer {
            recording: Some((Instant::now(), api::span_recorder())),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.recording.is_some()
    }

    fn record(&mut self, build: impl FnOnce(f64) -> TraceEvent) {
        if let Some((origin, rec)) = &mut self.recording {
            rec.record(build(origin.elapsed().as_secs_f64()));
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(|t| TraceEvent::begin(t, FLEET_TRACK, BENCH_LANE, name));
        let out = f(self);
        self.record(|t| TraceEvent::end(t, FLEET_TRACK, BENCH_LANE, name));
        out
    }

    /// Adds `value` to the counter `name`, recording the increment at the
    /// current instant.
    pub fn count(&mut self, name: &str, value: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += value;
        self.record(|t| TraceEvent::counter(t, FLEET_TRACK, BENCH_LANE, name, value));
    }

    /// The summed counters.
    pub fn counts(&self) -> &BTreeMap<String, f64> {
        &self.counts
    }

    /// The recorded spans and counters in export order (empty when
    /// tracing is off).
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.recording
            .map(|(_, rec)| rec.into_events())
            .unwrap_or_default()
    }
}

/// Time spent in every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Span name.
    pub name: String,
    /// Nesting depth of the span's first occurrence (the journey is 0).
    pub depth: usize,
    /// Wall time summed over the name's spans, in seconds.
    pub wall_s: f64,
    /// Wall time minus the time covered by child spans, in seconds.
    pub self_s: f64,
}

/// Folds balanced begin/end events (in export order) into per-name wall
/// and self times, in order of first appearance. A span's self time is its
/// duration minus the summed durations of the spans directly inside it.
pub fn layer_times(events: &[TraceEvent]) -> Vec<LayerTime> {
    let mut totals: Vec<LayerTime> = Vec::new();
    // Open spans: (index into totals, begin time, time covered by children).
    let mut stack: Vec<(usize, f64, f64)> = Vec::new();
    for ev in events {
        match ev.phase {
            Phase::Begin => {
                let idx = match totals.iter().position(|l| l.name == ev.name) {
                    Some(i) => i,
                    None => {
                        totals.push(LayerTime {
                            name: ev.name.clone(),
                            depth: stack.len(),
                            wall_s: 0.0,
                            self_s: 0.0,
                        });
                        totals.len() - 1
                    }
                };
                stack.push((idx, ev.time_s, 0.0));
            }
            Phase::End => {
                let Some((idx, begin, children)) = stack.pop() else {
                    continue;
                };
                let dur = ev.time_s - begin;
                totals[idx].wall_s += dur;
                totals[idx].self_s += dur - children;
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            }
            Phase::Instant | Phase::Counter => {}
        }
    }
    totals
}

/// The share of the journey's wall time covered by its direct child spans.
pub fn coverage(layers: &[LayerTime]) -> f64 {
    let journey: f64 = layers
        .iter()
        .filter(|l| l.depth == 0)
        .map(|l| l.wall_s)
        .sum();
    let covered: f64 = layers
        .iter()
        .filter(|l| l.depth == 1)
        .map(|l| l.wall_s)
        .sum();
    if journey > 0.0 {
        covered / journey
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(phase: Phase, t: f64, name: &str, seq: u64) -> TraceEvent {
        let mut e = match phase {
            Phase::Begin => TraceEvent::begin(t, FLEET_TRACK, BENCH_LANE, name),
            _ => TraceEvent::end(t, FLEET_TRACK, BENCH_LANE, name),
        };
        e.seq = seq;
        e
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        use Phase::{Begin, End};
        // journey 0..10 { search 1..9 { case1 1..3, case3 3..8 { inner 4..5 } } }
        let events = vec![
            ev(Begin, 0.0, "journey", 0),
            ev(Begin, 1.0, "search", 1),
            ev(Begin, 1.0, "case1", 2),
            ev(End, 3.0, "case1", 3),
            ev(Begin, 3.0, "case3", 4),
            ev(Begin, 4.0, "inner", 5),
            ev(End, 5.0, "inner", 6),
            ev(End, 8.0, "case3", 7),
            ev(End, 9.0, "search", 8),
            ev(End, 10.0, "journey", 9),
        ];
        let layers = layer_times(&events);
        let get = |n: &str| layers.iter().find(|l| l.name == n).unwrap().clone();
        assert_eq!(get("journey").depth, 0);
        assert!((get("journey").self_s - 2.0).abs() < 1e-12);
        assert!((get("search").wall_s - 8.0).abs() < 1e-12);
        assert!((get("search").self_s - 1.0).abs() < 1e-12);
        assert!((get("case3").self_s - 4.0).abs() < 1e-12);
        assert_eq!(get("inner").depth, 3);
        assert!((coverage(&layers) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn repeated_spans_accumulate_under_one_name() {
        use Phase::{Begin, End};
        let events = vec![
            ev(Begin, 0.0, "journey", 0),
            ev(Begin, 0.0, "rank", 1),
            ev(End, 1.5, "rank", 2),
            ev(Begin, 2.0, "rank", 3),
            ev(End, 2.5, "rank", 4),
            ev(End, 3.0, "journey", 5),
        ];
        let layers = layer_times(&events);
        assert_eq!(layers.len(), 2);
        assert!((layers[1].wall_s - 2.0).abs() < 1e-12);
        assert!((layers[0].self_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_balanced_spans_only_when_on() {
        let mut off = Tracer::off();
        off.span("a", |t| t.count("n", 2.0));
        off.count("n", 3.0);
        assert_eq!(off.counts()["n"], 5.0);
        assert!(off.into_events().is_empty());

        let mut on = Tracer::on();
        on.span(JOURNEY, |t| t.span("a", |t| t.count("n", 1.0)));
        let events = on.into_events();
        assert_eq!(events.len(), 5);
        let layers = layer_times(&events);
        assert_eq!(layers[1].name, "a");
        assert_eq!(layers[1].depth, 1);
    }
}
