//! Self-profiling of the simulator's own internals ([`SimProfile`]):
//! event-queue lane throughput. Where [`crate::TraceRecorder`] answers "why
//! did the fleet behave like this", `SimProfile` answers "why was the
//! simulator fast or slow" — perf regressions become observable counters
//! instead of inferred bench deltas. A fleet builds it from its event
//! queue's counters; the `StageProfiler`'s memoization counters are
//! emitted by `rago-core` itself, on the same lane and `sim.` prefix.

/// Counters describing one simulator run's internal work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimProfile {
    /// Simulated seconds covered by the run (makespan).
    pub sim_time_s: f64,
    /// Total DES events processed.
    pub events: u64,
    /// Events applied from the fault lane of the event queue.
    pub fault_pops: u64,
    /// Events applied from the FIFO arrival lane.
    pub arrival_pops: u64,
    /// Events applied from the scheduled (in-flight) lane. These counters
    /// count applied events, not queue pops: a decode run of `k` steps is
    /// one pop but counts `k` here, as each of its steps is an event
    /// (`ServingMetrics::queue_pops` in `rago-serving-sim` counts pops).
    pub scheduled_pops: u64,
}

impl SimProfile {
    /// DES events processed per simulated second (0 for an empty run).
    pub fn events_per_sim_second(&self) -> f64 {
        if self.sim_time_s <= 0.0 {
            0.0
        } else {
            self.events as f64 / self.sim_time_s
        }
    }

    /// Accumulates another profile into this one (counters add; simulated
    /// time keeps the maximum).
    pub fn merge_from(&mut self, other: &SimProfile) {
        self.sim_time_s = self.sim_time_s.max(other.sim_time_s);
        self.events += other.events;
        self.fault_pops += other.fault_pops;
        self.arrival_pops += other.arrival_pops;
        self.scheduled_pops += other.scheduled_pops;
    }

    /// Emits every counter as `Counter` events on the [`crate::Lane::Profile`]
    /// lane at `time_s`, prefixed `sim.` — so self-profiling rides in the
    /// same trace file as the request spans.
    pub fn record_into<R: crate::Recorder>(&self, rec: &mut R, time_s: f64, track: u32) {
        if !R::ENABLED {
            return;
        }
        use crate::event::{Lane, TraceEvent};
        let mut emit = |name: &str, value: f64| {
            rec.record(TraceEvent::counter(
                time_s,
                track,
                Lane::Profile,
                name,
                value,
            ));
        };
        emit("sim.events", self.events as f64);
        emit("sim.events_per_sim_s", self.events_per_sim_second());
        emit("sim.fault_pops", self.fault_pops as f64);
        emit("sim.arrival_pops", self.arrival_pops as f64);
        emit("sim.scheduled_pops", self.scheduled_pops as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullRecorder, TelemetryConfig, TraceRecorder};

    fn sample() -> SimProfile {
        SimProfile {
            sim_time_s: 10.0,
            events: 1000,
            fault_pops: 2,
            arrival_pops: 500,
            scheduled_pops: 498,
        }
    }

    #[test]
    fn rates_and_merge() {
        let mut p = sample();
        assert!((p.events_per_sim_second() - 100.0).abs() < 1e-12);
        p.merge_from(&sample());
        assert_eq!(p.events, 2000);
        assert_eq!(p.scheduled_pops, 996);
        assert_eq!(p.sim_time_s, 10.0);
    }

    #[test]
    fn null_recorder_is_silent() {
        let p = sample();
        p.record_into(&mut NullRecorder, 10.0, 0);
        let mut rec = TraceRecorder::new(TelemetryConfig::full(0.5));
        p.record_into(&mut rec, 10.0, 0);
        // Two event counters and three lane pops.
        assert_eq!(rec.len(), 5);
    }
}
