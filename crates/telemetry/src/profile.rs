//! Self-profiling of the simulator's own internals ([`SimProfile`]):
//! event-queue lane throughput, memoization hit rates,
//! and stochastic-search round dynamics. Where [`crate::TraceRecorder`]
//! answers "why did the fleet behave like this", `SimProfile` answers "why
//! was the simulator fast or slow" — perf regressions become observable
//! counters instead of inferred bench deltas.

use crate::json::escape_json;
use std::fmt::Write as _;

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
    /// `StageProfiler` memoization hits.
    pub profiler_memo_hits: u64,
    /// `StageProfiler` memoization misses (cold cost-model evaluations).
    pub profiler_memo_misses: u64,
    /// Stochastic-search rounds completed.
    pub search_rounds: u64,
    /// Novel candidate evaluations per search round, oldest first.
    pub search_round_evals: Vec<u64>,
    /// Beam admissions (churn) per search round, oldest first.
    pub search_beam_churn: Vec<u64>,
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

    /// `StageProfiler` memoization hit rate in `[0, 1]` (0 when the
    /// profiler was never consulted).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.profiler_memo_hits + self.profiler_memo_misses;
        if total == 0 {
            0.0
        } else {
            self.profiler_memo_hits as f64 / total as f64
        }
    }

    /// Accumulates another profile into this one (counters add; simulated
    /// time keeps the maximum; round vectors concatenate).
    pub fn merge_from(&mut self, other: &SimProfile) {
        self.sim_time_s = self.sim_time_s.max(other.sim_time_s);
        self.events += other.events;
        self.fault_pops += other.fault_pops;
        self.arrival_pops += other.arrival_pops;
        self.scheduled_pops += other.scheduled_pops;
        self.profiler_memo_hits += other.profiler_memo_hits;
        self.profiler_memo_misses += other.profiler_memo_misses;
        self.search_rounds += other.search_rounds;
        self.search_round_evals
            .extend_from_slice(&other.search_round_evals);
        self.search_beam_churn
            .extend_from_slice(&other.search_beam_churn);
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
        if self.profiler_memo_hits + self.profiler_memo_misses > 0 {
            emit("sim.profiler_memo_hits", self.profiler_memo_hits as f64);
            emit("sim.profiler_memo_misses", self.profiler_memo_misses as f64);
            emit("sim.profiler_memo_hit_rate", self.memo_hit_rate());
        }
        if self.search_rounds > 0 {
            emit("sim.search_rounds", self.search_rounds as f64);
        }
    }

    /// Hand-rendered JSON object (the workspace `serde` is a no-op shim).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"sim_time_s\":{:.9},\"events\":{},\"fault_pops\":{},\"arrival_pops\":{},\
             \"scheduled_pops\":{},\"profiler_memo_hits\":{},\"profiler_memo_misses\":{},\
             \"memo_hit_rate\":{:.9},\"search_rounds\":{}",
            self.sim_time_s,
            self.events,
            self.fault_pops,
            self.arrival_pops,
            self.scheduled_pops,
            self.profiler_memo_hits,
            self.profiler_memo_misses,
            self.memo_hit_rate(),
            self.search_rounds,
        );
        let list = |items: &[u64]| {
            let mut s = String::from("[");
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{v}");
            }
            s.push(']');
            s
        };
        let _ = write!(
            out,
            ",\"search_round_evals\":{},\"search_beam_churn\":{}",
            list(&self.search_round_evals),
            list(&self.search_beam_churn)
        );
        out.push('}');
        debug_assert!(
            crate::json::validate_json(&out).is_ok(),
            "{}",
            escape_json(&out)
        );
        out
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
            profiler_memo_hits: 90,
            profiler_memo_misses: 10,
            search_rounds: 2,
            search_round_evals: vec![256, 128],
            search_beam_churn: vec![8, 3],
        }
    }

    #[test]
    fn rates_and_merge() {
        let mut p = sample();
        assert!((p.events_per_sim_second() - 100.0).abs() < 1e-12);
        assert!((p.memo_hit_rate() - 0.9).abs() < 1e-12);
        p.merge_from(&sample());
        assert_eq!(p.events, 2000);
        assert_eq!(p.sim_time_s, 10.0);
        assert_eq!(p.search_round_evals.len(), 4);
    }

    #[test]
    fn json_parses_and_null_recorder_is_silent() {
        let p = sample();
        crate::json::validate_json(&p.to_json()).expect("profile json parses");
        p.record_into(&mut NullRecorder, 10.0, 0);
        let mut rec = TraceRecorder::new(TelemetryConfig::full(0.5));
        p.record_into(&mut rec, 10.0, 0);
        // Two event counters, three lane pops, three memo counters and the
        // round count.
        assert_eq!(rec.len(), 9);
    }
}
