//! Post-hoc summarization of an event stream into a [`TelemetryReport`]:
//! time-in-state breakdowns and per-class queueing attribution.

use crate::event::{canonical_order, Lane, Phase, TraceEvent};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// Total time spent in one named state across all requests and tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct StateTime {
    /// The span name ("queue", "stage 0", "decode", "kv_transfer", ...).
    pub name: String,
    /// Number of completed spans with this name.
    pub spans: usize,
    /// Sum of span durations, in seconds.
    pub total_s: f64,
}

/// Queueing attribution for one workload class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassQueueing {
    /// The workload class.
    pub class: u32,
    /// Requests of this class with a completed queue span.
    pub requests: usize,
    /// Sum of their queue-wait durations, in seconds.
    pub total_queue_s: f64,
}

impl ClassQueueing {
    /// Mean queue wait per request of this class, in seconds.
    pub fn mean_queue_s(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_queue_s / self.requests as f64
        }
    }
}

/// A summary of one recorded run: where time went, which classes queued,
/// and how many events of each kind were captured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Time-in-state totals over every completed span, sorted by name.
    pub time_in_state: Vec<StateTime>,
    /// Per-class queue-wait attribution, sorted by class.
    pub class_queueing: Vec<ClassQueueing>,
    /// Completed (begin/end matched) spans.
    pub spans: usize,
    /// Begin events left open at the end of the stream (requests still in
    /// flight when the run ended).
    pub open_spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter samples (gauges + profile counters).
    pub counters: usize,
    /// Decision events.
    pub decisions: usize,
}

impl TelemetryReport {
    /// Builds the report from an event stream in any order. The events are
    /// read by reference in canonical `(time_s, seq)` order, sorting only
    /// references and only when the stream is out of order. Each span
    /// closes the most recent open begin with the same `(track, lane,
    /// name, req)`; an end without one is ignored.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut report = TelemetryReport::default();
        let mut states: BTreeMap<&str, StateTime> = BTreeMap::new();
        let mut classes: BTreeMap<u32, ClassQueueing> = BTreeMap::new();
        // Open spans keyed (track, lane, name, req) — LIFO within a key; a
        // key is dropped once its last open span closes.
        let mut open: HashMap<(u32, Lane, &str, Option<u64>), Vec<&TraceEvent>> = HashMap::new();

        for ev in canonical_order(events) {
            if ev.lane == Lane::Decision {
                report.decisions += 1;
            }
            let key = (ev.track, ev.lane, ev.name.as_str(), ev.req);
            match ev.phase {
                Phase::Begin => open.entry(key).or_default().push(ev),
                Phase::End => {
                    let begin = match open.entry(key) {
                        Entry::Occupied(mut stack) => {
                            let begin = stack.get_mut().pop();
                            if stack.get().is_empty() {
                                stack.remove();
                            }
                            begin
                        }
                        Entry::Vacant(_) => None,
                    };
                    if let Some(begin) = begin {
                        report.spans += 1;
                        let dur = (ev.time_s - begin.time_s).max(0.0);
                        let state = states.entry(&ev.name).or_insert_with(|| StateTime {
                            name: ev.name.clone(),
                            spans: 0,
                            total_s: 0.0,
                        });
                        state.spans += 1;
                        state.total_s += dur;
                        if ev.name == "queue" {
                            if let Some(class) = ev.class.or(begin.class) {
                                let cq = classes.entry(class).or_insert_with(|| ClassQueueing {
                                    class,
                                    requests: 0,
                                    total_queue_s: 0.0,
                                });
                                cq.requests += 1;
                                cq.total_queue_s += dur;
                            }
                        }
                    }
                }
                Phase::Instant => report.instants += 1,
                Phase::Counter => report.counters += 1,
            }
        }

        report.open_spans = open.values().map(Vec::len).sum();
        report.time_in_state = states.into_values().collect();
        report.class_queueing = classes.into_values().collect();
        report
    }

    /// Renders the report as aligned plain text, one line per state and
    /// class.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "spans={} open={} instants={} counters={} decisions={}",
            self.spans, self.open_spans, self.instants, self.counters, self.decisions
        );
        for st in &self.time_in_state {
            let _ = writeln!(
                out,
                "state {:<12} spans={:<7} total_s={:.6}",
                st.name, st.spans, st.total_s
            );
        }
        for cq in &self.class_queueing {
            let _ = writeln!(
                out,
                "class {:<3} queued_requests={:<7} total_queue_s={:.6} mean_queue_s={:.6}",
                cq.class,
                cq.requests,
                cq.total_queue_s,
                cq.mean_queue_s()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_queue_time_per_class() {
        let mut evs = vec![
            TraceEvent::begin(0.0, 0, Lane::Request, "queue")
                .with_req(1)
                .with_class(7),
            TraceEvent::end(2.0, 0, Lane::Request, "queue")
                .with_req(1)
                .with_class(7),
            TraceEvent::begin(2.0, 0, Lane::Request, "stage 0").with_req(1),
            TraceEvent::end(3.0, 0, Lane::Request, "stage 0").with_req(1),
            TraceEvent::begin(9.0, 0, Lane::Request, "queue")
                .with_req(2)
                .with_class(7),
            TraceEvent::instant(1.0, 0, Lane::Decision, "route"),
            TraceEvent::counter(1.0, 0, Lane::Gauge, "queue_depth", 1.0),
        ];
        for (i, ev) in evs.iter_mut().enumerate() {
            ev.seq = i as u64;
        }
        let report = TelemetryReport::from_events(&evs);
        assert_eq!(report.spans, 2);
        assert_eq!(report.open_spans, 1);
        assert_eq!(report.instants, 1);
        assert_eq!(report.counters, 1);
        assert_eq!(report.decisions, 1);
        assert_eq!(report.class_queueing.len(), 1);
        let cq = &report.class_queueing[0];
        assert_eq!((cq.class, cq.requests), (7, 1));
        assert!((cq.total_queue_s - 2.0).abs() < 1e-12);
        assert_eq!(report.time_in_state.len(), 2);
        assert!(!report.render().is_empty());
    }
}
