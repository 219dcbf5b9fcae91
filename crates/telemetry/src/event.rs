//! The flat trace-event model shared by every recorder and exporter.
//!
//! One simulator run produces a single stream of [`TraceEvent`]s. Events
//! are keyed `(time_s, seq)`: `time_s` is simulated time and `seq` is the
//! deterministic recording order assigned by the recorder, so a seeded run
//! exports a byte-identical stream no matter how many worker threads
//! advanced the replicas (recording only ever happens in serial
//! orchestration code or in post-hoc derivation over per-replica logs
//! merged in replica order).

/// The track (Perfetto "process") an event belongs to. Replica-scoped
/// events use the replica/slot index; fleet-scoped events use
/// [`FLEET_TRACK`].
pub const FLEET_TRACK: u32 = u32::MAX;

/// Event category — maps to the Perfetto "thread" within a track, and to
/// the `cat` field of exported Chrome-trace events. The per-lane timestamp
/// monotonicity property (`tests/proptest_telemetry.rs`) is stated over
/// `(track, lane)` pairs of the export-sorted stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Per-request lifecycle spans: queue wait, stage service, decode
    /// residency, plus instant markers (first token, cache probes, shed,
    /// requeue).
    Request,
    /// Periodic counter samples: queue depth, decode fill, routable
    /// replicas, cache hit rates.
    Gauge,
    /// Policy decisions with reasons: router picks, admission sheds,
    /// autoscaler actions, fault injections/recoveries.
    Decision,
    /// KV-handoff transfer spans between disaggregated pools.
    Transfer,
    /// Simulator self-profiling counters (event-queue internals, memo
    /// rates, search rounds).
    Profile,
}

impl Lane {
    /// Stable lane id used as the Chrome-trace `tid`.
    pub fn id(self) -> u32 {
        match self {
            Lane::Request => 0,
            Lane::Gauge => 1,
            Lane::Decision => 2,
            Lane::Transfer => 3,
            Lane::Profile => 4,
        }
    }

    /// Stable lowercase name used as the Chrome-trace `cat` and the JSONL
    /// `lane` field.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Request => "request",
            Lane::Gauge => "gauge",
            Lane::Decision => "decision",
            Lane::Transfer => "transfer",
            Lane::Profile => "profile",
        }
    }
}

/// Chrome-trace phase of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Span open (`ph: "B"`). Every `Begin` has a matching [`Phase::End`]
    /// on the same `(track, lane, name, req)` key.
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`); the sample value lives in
    /// [`TraceEvent::value`].
    Counter,
}

impl Phase {
    /// The Chrome-trace `ph` letter.
    pub fn letter(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }

    /// Stable lowercase name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Begin => "begin",
            Phase::End => "end",
            Phase::Instant => "instant",
            Phase::Counter => "counter",
        }
    }
}

/// One telemetry event. Construct with the [`TraceEvent::begin`],
/// [`TraceEvent::end`], [`TraceEvent::instant`], or [`TraceEvent::counter`]
/// builders and refine with the `with_*` setters; the recorder assigns
/// `seq` on [`crate::Recorder::record`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event, in seconds.
    pub time_s: f64,
    /// Recording order, assigned by the recorder — the deterministic
    /// tie-break for equal timestamps.
    pub seq: u64,
    /// Track (replica/slot index, or [`FLEET_TRACK`] for fleet scope).
    pub track: u32,
    /// Event category.
    pub lane: Lane,
    /// Chrome-trace phase.
    pub phase: Phase,
    /// Event name (span name, gauge name, decision kind).
    pub name: String,
    /// Request id, for request-scoped events.
    pub req: Option<u64>,
    /// Workload class, for request-scoped events.
    pub class: Option<u32>,
    /// Sample value for counters, metric value for decisions (for example
    /// the queue depth that triggered a scale-out).
    pub value: Option<f64>,
    /// Free-text reason ("why"), for decision events.
    pub detail: String,
}

impl TraceEvent {
    fn new(time_s: f64, track: u32, lane: Lane, phase: Phase, name: impl Into<String>) -> Self {
        TraceEvent {
            time_s,
            seq: 0,
            track,
            lane,
            phase,
            name: name.into(),
            req: None,
            class: None,
            value: None,
            detail: String::new(),
        }
    }

    /// A span-open event.
    pub fn begin(time_s: f64, track: u32, lane: Lane, name: impl Into<String>) -> Self {
        Self::new(time_s, track, lane, Phase::Begin, name)
    }

    /// A span-close event.
    pub fn end(time_s: f64, track: u32, lane: Lane, name: impl Into<String>) -> Self {
        Self::new(time_s, track, lane, Phase::End, name)
    }

    /// A point event.
    pub fn instant(time_s: f64, track: u32, lane: Lane, name: impl Into<String>) -> Self {
        Self::new(time_s, track, lane, Phase::Instant, name)
    }

    /// A counter sample.
    pub fn counter(
        time_s: f64,
        track: u32,
        lane: Lane,
        name: impl Into<String>,
        value: f64,
    ) -> Self {
        let mut ev = Self::new(time_s, track, lane, Phase::Counter, name);
        ev.value = Some(value);
        ev
    }

    /// Attaches a request id.
    pub fn with_req(mut self, req: u64) -> Self {
        self.req = Some(req);
        self
    }

    /// Attaches a workload class.
    pub fn with_class(mut self, class: u32) -> Self {
        self.class = Some(class);
        self
    }

    /// Attaches a metric value.
    pub fn with_value(mut self, value: f64) -> Self {
        self.value = Some(value);
        self
    }

    /// Attaches a free-text reason.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// The export sort key: time first, recording order as the
    /// deterministic tie-break. `time_s` is finite in every event the
    /// simulators emit, so the bit-level comparison equals numeric order.
    pub fn sort_key(&self) -> (u64, u64) {
        debug_assert!(self.time_s.is_finite(), "non-finite event time");
        // Monotone map from finite f64 to u64 (all sim times are >= 0).
        (self.time_s.max(0.0).to_bits(), self.seq)
    }
}

/// Sorts events into the canonical export order `(time_s, seq)`.
pub fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| e.sort_key());
}

/// Borrows `events` in the canonical export order `(time_s, seq)` without
/// copying one. Input that is already in order is returned as is;
/// otherwise the references are stable-sorted, so ties keep their input
/// order exactly as [`sort_events`] does. The sort reads each key once
/// (`sort_by_cached_key` is stable), not once per comparison through a
/// reference.
pub(crate) fn canonical_order(events: &[TraceEvent]) -> Vec<&TraceEvent> {
    let mut refs: Vec<&TraceEvent> = events.iter().collect();
    if refs.windows(2).any(|w| w[0].sort_key() > w[1].sort_key()) {
        refs.sort_by_cached_key(|e| e.sort_key());
    }
    refs
}
