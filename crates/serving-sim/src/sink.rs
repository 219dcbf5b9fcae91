//! Online metrics sinks: exact (timeline-retaining) and streaming
//! (histogram) consumers of completed-request outcomes.
//!
//! A run's default report retains every [`RequestTimeline`] — perfect
//! fidelity, `O(requests)` memory. A million-request capacity sweep does
//! not need per-request timelines; it needs percentiles and SLO counts.
//! Each replica records every completed request exactly once, in injection
//! order, into the sink of the run's [`MetricsMode`]:
//!
//! * the crate-private exact sink reconstructs the timelines and reproduces
//!   the default report **bit for bit** — it is the identity path, pinned
//!   against the golden outputs.
//! * [`HistogramSink`] folds each outcome into fixed-resolution linear
//!   histograms ([`rago_schema::HistogramSpec`]), holding `O(buckets)`
//!   state regardless of trace length. Percentiles reported from it are
//!   within one bucket width of the exact nearest-rank values (for samples
//!   under the histogram cap), means and maxima are tracked exactly, and
//!   SLO attainment/goodput are counted online against the SLOs named up
//!   front in the [`StreamingConfig`].
//!
//! Both modes compute a scope's request-level metrics (the whole run, or
//! one workload class) with one fold, `ScopeFold`: counts, queueing and
//! service sums, the arrival window and makespan, and the SLO-met count.
//! An exact report folds each scope's timelines in arrival order and takes
//! its latency statistics from the sorted samples; the streaming sink
//! folds each outcome online, beside its histograms. `scope_rows` builds
//! the per-class rows of either report, and [`RequestOutcome`] holds the
//! one definition of TTFT, TPOT, latency and service time.
//!
//! The choice is the `mode` argument of the fleet's one run method,
//! `FleetEngine::run`, and of the fleet evaluators in `rago-core`.

use crate::engine::{
    stage_count, ClassMetrics, LatencyStats, RequestTimeline, ServingMetrics, ServingReport,
    SimAccumulators, StageTimes,
};
use rago_schema::{HistogramSpec, SloTarget};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which metrics pipeline a run feeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum MetricsMode {
    /// Retain every request timeline and compute exact metrics — the
    /// default, and the mode of `FleetEngine::run_trace`.
    #[default]
    Exact,
    /// Stream outcomes into fixed-resolution histograms; the report holds
    /// `O(buckets)` state, no timelines, and approximate percentiles.
    Streaming(StreamingConfig),
}

/// Configuration of the streaming (histogram) metrics pipeline.
///
/// Streaming reports cannot answer "what is the attainment under SLO X?"
/// after the fact — the timelines are gone. Every SLO that will be queried
/// must be named here so the sink counts it online; the report's SLO
/// accessors then verify the queried target matches the counted one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamingConfig {
    /// Histogram resolution and size cap.
    pub spec: HistogramSpec,
    /// Run-level SLO to count attainment against (also the per-class
    /// fallback when a class has no override).
    pub slo: Option<SloTarget>,
    /// Per-class SLO overrides, `(class, slo)` — multi-tenant runs score
    /// each tenant against its own target.
    pub class_slos: Vec<(u32, SloTarget)>,
}

impl StreamingConfig {
    /// Streaming with the given histogram spec and no SLO counting.
    pub fn new(spec: HistogramSpec) -> Self {
        Self {
            spec,
            slo: None,
            class_slos: Vec::new(),
        }
    }

    /// Adds the run-level SLO to count attainment against.
    #[must_use]
    pub fn with_slo(mut self, slo: SloTarget) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Adds a per-class SLO override.
    #[must_use]
    pub fn with_class_slo(mut self, class: u32, slo: SloTarget) -> Self {
        self.class_slos.push((class, slo));
        self
    }

    /// The SLO class `class` is scored against: its override, else the
    /// run-level SLO.
    fn slo_for_class(&self, class: u32) -> Option<SloTarget> {
        self.class_slos
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, slo)| *slo)
            .or(self.slo)
    }
}

/// One completed request as a sink records it: the scalar outcome
/// plus borrowed stage timing slices (so the exact sink can reconstruct the
/// full timeline while the histogram sink reads only scalars, with no
/// allocation either way).
#[derive(Debug, Clone, Copy)]
pub struct RequestOutcome<'a> {
    /// Trace-level request id.
    pub id: u64,
    /// Workload-class tag (0 for untagged traffic).
    pub class: u32,
    /// Arrival time, in seconds.
    pub arrival_s: f64,
    /// Start of each executed pre-decode stage, in pipeline order.
    pub stage_starts_s: &'a [f64],
    /// Completion of each executed pre-decode stage, in pipeline order.
    pub stage_ends_s: &'a [f64],
    /// Time the request joined the decode batch.
    pub decode_join_s: f64,
    /// Time of the first output token.
    pub first_token_s: f64,
    /// Time of the final token.
    pub completion_s: f64,
    /// Total time spent waiting in queues.
    pub queueing_s: f64,
    /// Output tokens generated.
    pub decode_tokens: u32,
}

impl RequestOutcome<'_> {
    /// Time-to-first-token.
    pub fn ttft_s(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// Achieved time-per-output-token.
    pub fn tpot_s(&self) -> f64 {
        (self.completion_s - self.decode_join_s) / f64::from(self.decode_tokens.max(1))
    }

    /// End-to-end latency.
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }

    /// Time in service (everything not spent queueing).
    pub fn service_s(&self) -> f64 {
        (self.latency_s() - self.queueing_s).max(0.0)
    }
}

/// The identity sink: rebuilds every [`RequestTimeline`] and reports
/// exactly what the default engine path reports, bit for bit.
///
/// Outcomes are recorded flat — scalars plus one pool of stage times — and
/// built into timelines in one pass when the report is made, so a run that
/// retires requests as it goes does not interleave a small allocation per
/// request with the rest of its working set. Each built timeline then owns
/// one [`StageTimes`] buffer. A fleet moves the timelines into its merged
/// report or, for a split fleet, into the stitch, whose timeline takes its
/// prefill leg's buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSink {
    pub(crate) timelines: Vec<RequestTimeline>,
    pub(crate) acc: SimAccumulators,
    /// Outcomes recorded since the last [`ExactSink::build_timelines`].
    recorded: Vec<Recorded>,
    /// Each recorded outcome's stage starts, then its stage ends.
    stage_times: Vec<f64>,
}

/// The scalar half of one outcome an [`ExactSink`] has not yet built into
/// a timeline.
#[derive(Debug, Clone, Copy)]
struct Recorded {
    id: u64,
    class: u32,
    arrival_s: f64,
    starts: u32,
    ends: u32,
    decode_join_s: f64,
    first_token_s: f64,
    completion_s: f64,
    queueing_s: f64,
    decode_tokens: u32,
}

impl ExactSink {
    /// Builds the recorded outcomes into [`RequestTimeline`]s, appended in
    /// recording order, and frees the flat buffers.
    pub(crate) fn build_timelines(&mut self) {
        self.timelines.reserve_exact(self.recorded.len());
        let mut stages = self.stage_times.as_slice();
        for r in &self.recorded {
            let (starts, rest) = stages.split_at(r.starts as usize);
            let (ends, rest) = rest.split_at(r.ends as usize);
            stages = rest;
            self.timelines.push(RequestTimeline {
                id: r.id,
                arrival_s: r.arrival_s,
                stages: StageTimes::new(starts, ends),
                class: r.class,
                decode_join_s: r.decode_join_s,
                first_token_s: r.first_token_s,
                completion_s: r.completion_s,
                queueing_s: r.queueing_s,
                decode_tokens: r.decode_tokens,
            });
        }
        self.recorded = Vec::new();
        self.stage_times = Vec::new();
    }

    fn record(&mut self, outcome: &RequestOutcome<'_>) {
        self.recorded.push(Recorded {
            id: outcome.id,
            class: outcome.class,
            arrival_s: outcome.arrival_s,
            starts: stage_count(outcome.stage_starts_s.len()),
            ends: stage_count(outcome.stage_ends_s.len()),
            decode_join_s: outcome.decode_join_s,
            first_token_s: outcome.first_token_s,
            completion_s: outcome.completion_s,
            queueing_s: outcome.queueing_s,
            decode_tokens: outcome.decode_tokens,
        });
        self.stage_times.extend_from_slice(outcome.stage_starts_s);
        self.stage_times.extend_from_slice(outcome.stage_ends_s);
    }
}

/// The sink of one run in its metrics mode: what a replica retires its
/// completed requests into as the run goes, and what a fleet merges its
/// replicas' sinks into.
#[derive(Debug, Clone)]
pub(crate) enum RunSink {
    /// Retains every timeline ([`MetricsMode::Exact`]).
    Exact(Box<ExactSink>),
    /// Folds outcomes into histograms ([`MetricsMode::Streaming`]).
    Streaming(Box<HistogramSink>),
}

impl RunSink {
    /// An empty sink for `mode`; an exact one reserves room for
    /// `timelines` requests.
    pub(crate) fn new(mode: &MetricsMode, timelines: usize) -> Self {
        match mode {
            MetricsMode::Exact => RunSink::Exact(Box::new(ExactSink {
                timelines: Vec::with_capacity(timelines),
                ..ExactSink::default()
            })),
            MetricsMode::Streaming(config) => {
                RunSink::Streaming(Box::new(HistogramSink::new(config)))
            }
        }
    }

    /// The run's accumulators.
    pub(crate) fn acc_mut(&mut self) -> &mut SimAccumulators {
        match self {
            RunSink::Exact(sink) => &mut sink.acc,
            RunSink::Streaming(sink) => &mut sink.acc,
        }
    }

    /// Records one retired request.
    pub(crate) fn record(&mut self, outcome: &RequestOutcome<'_>) {
        match self {
            RunSink::Exact(sink) => sink.record(outcome),
            RunSink::Streaming(sink) => sink.record(outcome),
        }
    }
}

/// A fixed-resolution linear histogram over non-negative latency samples.
///
/// Bucket `k` covers `[k·w, (k+1)·w)`; storage grows on demand up to the
/// spec's cap, beyond which samples clamp into the final bucket. The mean
/// and maximum are tracked exactly; percentiles are answered by a
/// cumulative walk and report the bucket's upper edge clamped to the exact
/// maximum — within one bucket width of the exact nearest-rank value for
/// unclamped samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    width_s: f64,
    max_buckets: usize,
    counts: Vec<u64>,
    count: u64,
    sum_s: f64,
    max_s: f64,
}

impl LatencyHistogram {
    /// An empty histogram with the given resolution.
    pub fn new(spec: &HistogramSpec) -> Self {
        Self {
            width_s: spec.bucket_width_s,
            max_buckets: spec.max_buckets.max(1),
            counts: Vec::new(),
            count: 0,
            sum_s: 0.0,
            max_s: 0.0,
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Live bucket storage (buckets allocated so far, not the cap).
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Folds one sample in. Negative samples (impossible for simulated
    /// latencies, but the sink does not panic on them) count into the
    /// first bucket.
    pub fn record(&mut self, v: f64) {
        let idx = if v.is_finite() && v > 0.0 {
            ((v / self.width_s) as usize).min(self.max_buckets - 1)
        } else {
            0
        };
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_s += v;
        self.max_s = self.max_s.max(v);
    }

    /// Nearest-rank percentile estimate: the upper edge of the bucket
    /// holding the ranked sample, clamped to the exact maximum. Zero for an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Same rank rule as the exact path (`engine::percentile`), so the
        // two estimators rank the identical sample.
        let rank = (((p / 100.0) * self.count as f64 - 1e-9).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                // The final bucket is open-ended (samples past the cap
                // clamp into it), so its only sound upper bound is the
                // tracked exact maximum.
                if idx + 1 == self.max_buckets {
                    return self.max_s;
                }
                return ((idx as f64 + 1.0) * self.width_s).min(self.max_s);
            }
        }
        self.max_s
    }

    /// The summary statistics of the folded distribution (mean and max are
    /// exact; percentiles within one bucket width for unclamped samples).
    pub fn stats(&self) -> LatencyStats {
        if self.count == 0 {
            return LatencyStats::ZERO;
        }
        LatencyStats {
            mean_s: self.sum_s / self.count as f64,
            p50_s: self.percentile(50.0),
            p95_s: self.percentile(95.0),
            p99_s: self.percentile(99.0),
            max_s: self.max_s,
        }
    }

    /// Element-wise merge of another histogram with the same resolution.
    ///
    /// # Panics
    ///
    /// Panics if the resolutions differ.
    pub fn merge_from(&mut self, other: &Self) {
        assert!(
            self.width_s == other.width_s && self.max_buckets == other.max_buckets,
            "histograms with different resolutions cannot be merged"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
        self.max_s = self.max_s.max(other.max_s);
    }

    /// Bytes of retained state (the bucket array).
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.counts.capacity() * std::mem::size_of::<u64>()
    }
}

/// The running totals of one scope's completed requests (the whole run,
/// or one workload class): the one fold behind every request-level field
/// of [`ServingMetrics`] in both metrics modes. An exact report folds it
/// over the scope's timelines in arrival order and takes its latency
/// statistics from the sorted samples; a streaming sink folds it online,
/// beside its histograms. Every term summed is non-negative, so folding
/// from `0.0` matches `Iterator::sum` bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScopeFold {
    count: u64,
    /// Requests meeting the scope's SLO, when one is counted.
    met: u64,
    queueing_sum_s: f64,
    service_sum_s: f64,
    first_arrival_s: f64,
    last_arrival_s: f64,
    makespan_s: f64,
}

impl ScopeFold {
    /// The fold of no requests.
    pub(crate) const EMPTY: Self = Self {
        count: 0,
        met: 0,
        queueing_sum_s: 0.0,
        service_sum_s: 0.0,
        first_arrival_s: f64::INFINITY,
        last_arrival_s: 0.0,
        makespan_s: 0.0,
    };

    /// Folds one request in, counting it against `slo` if given, and
    /// returns its `[ttft, tpot, latency]` samples.
    pub(crate) fn observe(
        &mut self,
        outcome: &RequestOutcome<'_>,
        slo: Option<&SloTarget>,
    ) -> [f64; 3] {
        let samples = [outcome.ttft_s(), outcome.tpot_s(), outcome.latency_s()];
        self.count += 1;
        self.met += u64::from(slo.is_some_and(|s| s.meets(samples[0], samples[1])));
        self.queueing_sum_s += outcome.queueing_s;
        self.service_sum_s += outcome.service_s();
        self.first_arrival_s = self.first_arrival_s.min(outcome.arrival_s);
        self.last_arrival_s = self.last_arrival_s.max(outcome.arrival_s);
        self.makespan_s = self.makespan_s.max(outcome.completion_s);
        samples
    }

    fn merge_from(&mut self, other: &Self) {
        self.count += other.count;
        self.met += other.met;
        self.queueing_sum_s += other.queueing_sum_s;
        self.service_sum_s += other.service_sum_s;
        self.first_arrival_s = self.first_arrival_s.min(other.first_arrival_s);
        self.last_arrival_s = self.last_arrival_s.max(other.last_arrival_s);
        self.makespan_s = self.makespan_s.max(other.makespan_s);
    }

    /// The scope's [`ServingMetrics`] from its `[ttft, tpot, latency]`
    /// statistics, with the pipeline-level fields from `acc`.
    pub(crate) fn metrics(
        &self,
        acc: &SimAccumulators,
        stats: [LatencyStats; 3],
    ) -> ServingMetrics {
        let n = self.count as usize;
        let mean = |sum: f64| if n == 0 { 0.0 } else { sum / n as f64 };
        let first_arrival = if n == 0 { 0.0 } else { self.first_arrival_s };
        let serving_duration = (self.makespan_s - first_arrival).max(0.0);
        let [ttft, tpot, latency] = stats;
        acc.with_pipeline_fields(ServingMetrics {
            requests: n,
            completed: n,
            first_arrival_s: first_arrival,
            last_arrival_s: self.last_arrival_s,
            makespan_s: self.makespan_s,
            serving_duration_s: serving_duration,
            drain_tail_s: (self.makespan_s - self.last_arrival_s).max(0.0),
            throughput_rps: if serving_duration > 0.0 {
                n as f64 / serving_duration
            } else {
                0.0
            },
            ttft,
            tpot,
            latency,
            queueing_mean_s: mean(self.queueing_sum_s),
            service_mean_s: mean(self.service_sum_s),
            mean_decode_fill: 0.0,
            retrieval_batches: 0,
            mean_retrieval_batch_fill: 0.0,
            events_processed: 0,
            queue_pops: 0,
            shed: 0,
        })
    }
}

/// A report's run-level metrics and its per-class rows, one per class of
/// the ascending `classes`: `scope(None)` measures the whole run and
/// `scope(Some(class))` one class. A single-class run repeats the run
/// metrics in its one row, which makes a one-class mix bit-identical to an
/// untagged run. Shared by the exact and streaming reports.
pub(crate) fn scope_rows(
    classes: Vec<u32>,
    scope: impl Fn(Option<u32>) -> ServingMetrics,
) -> (ServingMetrics, Vec<ClassMetrics>) {
    let metrics = scope(None);
    let single = classes.len() <= 1;
    let per_class = classes
        .into_iter()
        .map(|class| ClassMetrics {
            class,
            metrics: if single {
                metrics.clone()
            } else {
                scope(Some(class))
            },
        })
        .collect();
    (metrics, per_class)
}

/// One streaming scope: its fold, beside histograms of its TTFT, TPOT and
/// latency samples.
#[derive(Debug, Clone)]
struct HistScope {
    fold: ScopeFold,
    hists: [LatencyHistogram; 3],
}

impl HistScope {
    fn new(spec: &HistogramSpec) -> Self {
        Self {
            fold: ScopeFold::EMPTY,
            hists: std::array::from_fn(|_| LatencyHistogram::new(spec)),
        }
    }

    fn observe(&mut self, outcome: &RequestOutcome<'_>, slo: Option<&SloTarget>) {
        for (hist, v) in self.hists.iter_mut().zip(self.fold.observe(outcome, slo)) {
            hist.record(v);
        }
    }

    fn merge_from(&mut self, other: &Self) {
        self.fold.merge_from(&other.fold);
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge_from(theirs);
        }
    }

    fn metrics(&self, acc: &SimAccumulators) -> ServingMetrics {
        let [ttft, tpot, latency] = &self.hists;
        self.fold
            .metrics(acc, [ttft.stats(), tpot.stats(), latency.stats()])
    }
}

/// The streaming sink: folds outcomes into run-level and per-class
/// `ScopeFold`s and histograms, and emits an `O(buckets)`
/// [`ServingReport`] with no timelines.
#[derive(Debug, Clone)]
pub struct HistogramSink {
    config: StreamingConfig,
    run: HistScope,
    per_class: BTreeMap<u32, HistScope>,
    pub(crate) acc: SimAccumulators,
}

impl HistogramSink {
    /// An empty sink counting against `config`'s SLOs.
    pub fn new(config: &StreamingConfig) -> Self {
        config
            .spec
            .validate()
            .expect("streaming metrics need a valid histogram spec");
        Self {
            run: HistScope::new(&config.spec),
            per_class: BTreeMap::new(),
            config: config.clone(),
            acc: SimAccumulators::default(),
        }
    }

    /// Outcomes recorded so far.
    pub fn count(&self) -> u64 {
        self.run.fold.count
    }

    /// Merges another sink of the same configuration (used to fold
    /// per-replica sinks into a fleet sink, in replica-index order so the
    /// result is deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the configurations differ.
    pub fn merge_from(&mut self, other: &Self) {
        assert!(
            self.config == other.config,
            "only identically-configured streaming sinks can merge"
        );
        self.run.merge_from(&other.run);
        for (class, scope) in &other.per_class {
            self.per_class
                .entry(*class)
                .or_insert_with(|| HistScope::new(&self.config.spec))
                .merge_from(scope);
        }
        self.acc.merge_from(&other.acc);
    }

    /// Builds the streaming [`ServingReport`]: empty timelines, metrics
    /// from the histograms, per-class rows, and [`StreamedScores`] carrying
    /// the online SLO counts.
    pub fn into_report(self) -> ServingReport {
        let acc = &self.acc;
        let (metrics, per_class) = scope_rows(self.per_class.keys().copied().collect(), |class| {
            class
                .map_or(&self.run, |c| &self.per_class[&c])
                .metrics(acc)
        });
        let class_scores = self
            .per_class
            .iter()
            .filter_map(|(&class, scope)| {
                self.config.slo_for_class(class).map(|slo| ClassSloScore {
                    class,
                    slo,
                    met: scope.fold.met,
                })
            })
            .collect();
        let streamed = StreamedScores {
            spec: self.config.spec,
            slo: self.config.slo,
            met: self.run.fold.met,
            class_scores,
        };
        ServingReport {
            timelines: Vec::new(),
            metrics,
            per_class,
            cache: acc.cache.to_usage(),
            streamed: Some(streamed),
        }
    }

    /// Folds one completed request into the histograms and SLO counts.
    /// The engine records each request exactly once, in injection order,
    /// as it retires: once it and every request injected before it have
    /// completed.
    pub fn record(&mut self, outcome: &RequestOutcome<'_>) {
        self.run.observe(outcome, self.config.slo.as_ref());
        let class_slo = self.config.slo_for_class(outcome.class);
        let spec = self.config.spec;
        self.per_class
            .entry(outcome.class)
            .or_insert_with(|| HistScope::new(&spec))
            .observe(outcome, class_slo.as_ref());
    }
}

/// Online SLO scores carried by a streaming report in place of its
/// timelines. The report's SLO accessors answer from these counts — and
/// only for the SLOs that were configured up front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamedScores {
    /// The histogram resolution the report was computed at.
    pub spec: HistogramSpec,
    /// The run-level SLO counted online, if any.
    pub slo: Option<SloTarget>,
    /// Requests meeting the run-level SLO.
    pub met: u64,
    /// Per-class counts, ascending by class id, each against the class's
    /// effective SLO (its override, else the run-level SLO). Classes
    /// without any configured SLO have no row.
    pub class_scores: Vec<ClassSloScore>,
}

/// One class's online SLO count in a streaming report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassSloScore {
    /// The workload-class tag.
    pub class: u32,
    /// The SLO this class was counted against.
    pub slo: SloTarget,
    /// The class's requests meeting that SLO.
    pub met: u64,
}

impl StreamedScores {
    /// Requests meeting the run-level SLO.
    ///
    /// # Panics
    ///
    /// Panics if `slo` is not the SLO the run counted — a streaming report
    /// cannot re-score a different target after the fact.
    pub fn run_met(&self, slo: &SloTarget) -> u64 {
        assert!(
            self.slo.as_ref() == Some(slo),
            "streaming report counted SLO {:?}, not the queried {slo:?}; \
             configure the queried SLO in StreamingConfig before the run",
            self.slo,
        );
        self.met
    }

    /// Requests of `class` meeting that class's counted SLO.
    ///
    /// # Panics
    ///
    /// Panics unless the class has a row counted against `slo` — a class
    /// with no requests has no row, and neither has a class no SLO was
    /// configured for.
    pub fn class_met(&self, class: u32, slo: &SloTarget) -> u64 {
        let row = self.class_scores.iter().find(|c| c.class == class);
        assert!(
            row.is_some_and(|row| row.slo == *slo),
            "streaming report counted class {class} against SLO {:?}, \
             not the queried {slo:?}; configure the queried SLO in \
             StreamingConfig before the run",
            row.map(|row| row.slo),
        );
        row.map_or(0, |row| row.met)
    }

    /// Bytes of retained state.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.class_scores.capacity() * std::mem::size_of::<ClassSloScore>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(width: f64) -> HistogramSpec {
        HistogramSpec::with_width(width)
    }

    #[test]
    fn empty_histogram_reports_zero_stats() {
        let h = LatencyHistogram::new(&spec(0.01));
        let s = h.stats();
        assert_eq!(s.mean_s, 0.0);
        assert_eq!(s.p50_s, 0.0);
        assert_eq!(s.p99_s, 0.0);
        assert_eq!(s.max_s, 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
    }

    #[test]
    fn single_bucket_histogram_clamps_everything() {
        let one = HistogramSpec {
            bucket_width_s: 0.5,
            max_buckets: 1,
        };
        let mut h = LatencyHistogram::new(&one);
        for v in [0.1, 3.0, 42.0] {
            h.record(v);
        }
        assert_eq!(h.buckets(), 1);
        assert_eq!(h.count(), 3);
        // Percentiles clamp to the exact maximum, never past it.
        assert_eq!(h.percentile(99.0), 42.0);
        assert_eq!(h.stats().max_s, 42.0);
    }

    #[test]
    fn percentiles_are_within_one_bucket_width() {
        let w = 0.01;
        let mut h = LatencyHistogram::new(&spec(w));
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        for &v in &samples {
            h.record(v);
        }
        for p in [50.0, 95.0, 99.0] {
            let rank = ((p / 100.0) * samples.len() as f64 - 1e-9).ceil() as usize;
            let exact = samples[rank - 1];
            let est = h.percentile(p);
            // A sample exactly on a bucket boundary reports the next edge:
            // the error bound is one full width, inclusive (plus FP noise).
            assert!(
                (est - exact).abs() <= w * (1.0 + 1e-9),
                "p{p}: est {est} vs exact {exact} beyond width {w}"
            );
            assert!(est >= exact, "upper-edge estimate must not undershoot");
        }
    }

    #[test]
    fn merge_matches_single_pass() {
        let s = spec(0.02);
        let mut all = LatencyHistogram::new(&s);
        let mut a = LatencyHistogram::new(&s);
        let mut b = LatencyHistogram::new(&s);
        for i in 0..200 {
            let v = (i as f64) * 7e-3;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge_from(&b);
        // Counts, max, and every percentile merge exactly; the running sum
        // is FP addition in a different order, so the mean is approximate.
        assert_eq!(a.counts, all.counts);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.stats().max_s, all.stats().max_s);
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
        assert!((a.stats().mean_s - all.stats().mean_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different resolutions")]
    fn merging_mismatched_resolutions_panics() {
        let mut a = LatencyHistogram::new(&spec(0.01));
        let b = LatencyHistogram::new(&spec(0.02));
        a.merge_from(&b);
    }

    /// The streaming report of one class-0 request counted against
    /// `cfg`'s SLOs.
    fn one_request(cfg: &StreamingConfig) -> ServingReport {
        let mut sink = HistogramSink::new(cfg);
        sink.record(&RequestOutcome {
            id: 0,
            class: 0,
            arrival_s: 0.0,
            stage_starts_s: &[],
            stage_ends_s: &[],
            decode_join_s: 0.0,
            first_token_s: 0.1,
            completion_s: 0.2,
            queueing_s: 0.0,
            decode_tokens: 4,
        });
        sink.into_report()
    }

    #[test]
    fn streamed_scores_reject_unconfigured_slo() {
        let slo = SloTarget::new(2.0, 0.05);
        let cfg = StreamingConfig::new(HistogramSpec::default()).with_slo(slo);
        // Queried with the configured SLO: fine (empty run ⇒ attainment 1).
        assert_eq!(HistogramSink::new(&cfg).into_report().attainment(&slo), 1.0);
    }

    #[test]
    #[should_panic(expected = "streaming report counted SLO None")]
    fn querying_an_unconfigured_slo_panics() {
        let slo = SloTarget::new(2.0, 0.05);
        one_request(&StreamingConfig::new(HistogramSpec::default())).attainment(&slo);
    }

    #[test]
    #[should_panic(expected = "streaming report counted class 0 against SLO None")]
    fn class_queries_reject_an_unconfigured_slo() {
        let slo = SloTarget::new(2.0, 0.05);
        let report = one_request(&StreamingConfig::new(HistogramSpec::default()));
        // A class with no requests has nothing to score.
        assert_eq!(report.class_slo_counts(1, &slo), (0, 0));
        report.class_attainment(0, &slo);
    }

    #[test]
    #[should_panic(expected = "streaming report counted SLO")]
    fn querying_a_different_slo_panics() {
        let cfg =
            StreamingConfig::new(HistogramSpec::default()).with_slo(SloTarget::new(2.0, 0.05));
        one_request(&cfg).attainment(&SloTarget::new(9.0, 9.0));
    }
}
