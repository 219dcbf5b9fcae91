//! The benchmark's only seam into the program.
//!
//! Every call into the RAGO crates goes through this module, through public
//! items only: the [`Rago`] facade, the fleet evaluators of
//! `rago_core::dynamic`, and the `rago_telemetry` exporters. When the
//! program's API is renamed or consolidated, this file is the one to change;
//! the journeys, their timing and their checks stay as they are.
//!
//! Functions here build the program's inputs from plain numbers and hand
//! back the program's own result types; none of them times or checks
//! anything.

use rago::cache::{CacheConfig, EvictionPolicy, PrefixKvCacheConfig, RetrievalCacheConfig};
use rago::core::faulted::FaultScenario;
use rago::core::{
    evaluate_fleet_dynamic_traced, evaluate_fleet_dynamic_with, transfer_model_from_interconnect,
    CapacityOptions, MetricsMode, StreamingConfig,
};
use rago::hardware::{ClusterSpec, InterconnectSpec};
use rago::schema::presets::{self, LlmSize};
use rago::schema::{FleetConfig, HistogramSpec, RagSchema, RouterPolicy, SequenceProfile};
use rago::serving_sim::autoscaler::AutoscalerPolicy;
use rago::serving_sim::faults::{AdmissionConfig, FaultEvent, FaultSchedule, ScaleDriver};
use rago::telemetry::{Lane, TelemetryConfig};
use rago::workloads::{
    ArrivalProcess, ContentSpec, MixTraceSpec, PopularityModel, RequestClass, TraceSpec,
    WorkloadMix,
};

pub use rago::core::{
    CapacityPlan, DisaggChoice, DisaggEvaluation, DynamicEvaluation, FaultedEvaluation,
    FleetEvaluation, ParetoFrontier, ParetoPoint, PoolCapacityPlan, Rago, RagoError, Schedule,
    SearchOptions,
};
pub use rago::schema::SloTarget;
pub use rago::telemetry::{
    export_chrome_trace, export_jsonl, validate_json, validate_jsonl, Phase, Recorder,
    TelemetryReport, TraceEvent, TraceRecorder, FLEET_TRACK,
};
pub use rago::workloads::{Request, Trace};

/// The four case studies of the paper, at the sizes the benchmark plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Case I: hyperscale retrieval, 8B LLM, one query vector.
    Hyperscale,
    /// Case II: long-context processing, 70B LLM, 1M context tokens.
    LongContext,
    /// Case III: iterative retrieval, 8B LLM, four retrievals per sequence.
    Iterative,
    /// Case IV: query rewriter and reranker around an 8B LLM.
    RewriterReranker,
}

impl Case {
    /// Every case, in the paper's order.
    pub const ALL: [Case; 4] = [
        Case::Hyperscale,
        Case::LongContext,
        Case::Iterative,
        Case::RewriterReranker,
    ];

    /// The metric-name label of the case (`case1` … `case4`).
    pub fn label(self) -> &'static str {
        match self {
            Case::Hyperscale => "case1",
            Case::LongContext => "case2",
            Case::Iterative => "case3",
            Case::RewriterReranker => "case4",
        }
    }

    fn schema(self) -> RagSchema {
        match self {
            Case::Hyperscale => presets::case1_hyperscale(LlmSize::B8, 1),
            Case::LongContext => presets::case2_long_context(LlmSize::B70, 1_000_000),
            Case::Iterative => presets::case3_iterative(LlmSize::B8, 4),
            Case::RewriterReranker => presets::case4_rewriter_reranker(LlmSize::B8),
        }
    }
}

/// A fresh optimizer (cold stage profiler) for `case` on the paper's
/// 128-XPU / 32-server cluster.
pub fn optimizer(case: Case) -> Rago {
    Rago::new(case.schema(), ClusterSpec::paper_default())
}

/// The paper's powers-of-two search grid, written out so the benchmark
/// never depends on an environment switch.
pub fn paper_grid() -> SearchOptions {
    SearchOptions {
        xpu_steps: vec![1, 2, 4, 8, 16, 32, 64, 96, 128],
        server_steps: vec![32, 64],
        predecode_batch_steps: vec![1, 2, 4, 8, 16, 32, 64, 128],
        decode_batch_steps: vec![64, 128, 256, 512, 1024],
        iterative_batch_steps: vec![1, 4, 16, 64],
        placements: None,
    }
}

/// A coarse grid whose every axis is a subset of [`paper_grid`]'s, so the
/// paper-grid frontier must weakly dominate its frontier point by point.
pub fn coarse_grid() -> SearchOptions {
    SearchOptions {
        xpu_steps: vec![4, 16, 64],
        server_steps: vec![32],
        predecode_batch_steps: vec![1, 8, 32],
        decode_batch_steps: vec![64, 256],
        iterative_batch_steps: vec![4, 16],
        placements: None,
    }
}

/// A grid whose every axis is a subset of [`coarse_grid`]'s, for smoke
/// runs.
pub fn tiny_grid() -> SearchOptions {
    SearchOptions {
        xpu_steps: vec![16, 64],
        server_steps: vec![32],
        predecode_batch_steps: vec![8],
        decode_batch_steps: vec![256],
        iterative_batch_steps: vec![16],
        placements: None,
    }
}

/// The library's coarse exploration grid.
pub fn fast_grid() -> SearchOptions {
    SearchOptions::fast()
}

/// Algorithm 1: the exhaustive schedule search.
pub fn optimize(rago: &Rago, grid: &SearchOptions) -> Result<ParetoFrontier, RagoError> {
    rago.optimize(grid)
}

/// The optimizer's stage-profiler memoization counters `(hits, misses)`.
pub fn memo_stats(rago: &Rago) -> (u64, u64) {
    rago.profiler().memo_stats()
}

/// The request shape every generated trace uses: the paper's sequence
/// profile with `decode_tokens` output tokens.
fn profile(decode_tokens: u32) -> SequenceProfile {
    SequenceProfile::paper_default().with_decode_tokens(decode_tokens)
}

/// An open-loop Poisson trace of `requests` requests at `rate_rps`.
pub fn poisson_trace(requests: usize, rate_rps: f64, decode_tokens: u32, seed: u64) -> Trace {
    TraceSpec {
        num_requests: requests,
        profile: profile(decode_tokens),
        arrival: ArrivalProcess::Poisson { rate_rps },
        length_jitter: 0.2,
        seed,
    }
    .generate()
}

/// Goodput re-ranking of a frontier under `trace` (core::dynamic).
pub fn rank_by_goodput(
    rago: &Rago,
    frontier: &ParetoFrontier,
    trace: &Trace,
    slo: &SloTarget,
) -> Vec<(ParetoPoint, DynamicEvaluation)> {
    rago.rank_frontier_by_goodput(frontier, trace, slo)
}

/// How capacity planners size a fleet: Poisson sizing traces of `requests`
/// requests, fleets of at most `max_replicas` behind least-outstanding
/// routing.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Requests per sizing trace.
    pub requests: usize,
    /// Largest fleet the planner may size.
    pub max_replicas: u32,
    /// Output tokens per request.
    pub decode_tokens: u32,
    /// Sizing-trace seed.
    pub seed: u64,
}

impl Sizing {
    fn options(self) -> CapacityOptions {
        CapacityOptions {
            max_replicas: self.max_replicas,
            router: RouterPolicy::LeastOutstanding,
            num_requests: self.requests,
            profile: profile(self.decode_tokens),
            length_jitter: 0.2,
            seed: self.seed,
        }
    }
}

/// Cost re-ranking of a frontier: each point capacity-planned for
/// `target_qps` (core::capacity).
pub fn rank_by_cost(
    rago: &Rago,
    frontier: &ParetoFrontier,
    slo: &SloTarget,
    target_qps: f64,
    sizing: Sizing,
) -> Vec<(ParetoPoint, CapacityPlan)> {
    rago.rank_frontier_by_cost_at_qps(frontier, slo, target_qps, &sizing.options())
}

/// The interconnects a KV handoff is priced over: a 3D torus and the
/// datacenter network.
fn interconnects() -> [InterconnectSpec; 2] {
    [
        InterconnectSpec::torus_3d(),
        InterconnectSpec::datacenter_network(),
    ]
}

/// The cheapest prefill/decode split of `schedule` for `target_qps`, with
/// the KV handoff priced over a 3D torus (core::capacity).
pub fn plan_pools(
    rago: &Rago,
    schedule: &Schedule,
    slo: &SloTarget,
    target_qps: f64,
    sizing: Sizing,
) -> Result<PoolCapacityPlan, RagoError> {
    let transfer = transfer_model_from_interconnect(rago.profiler().schema(), &interconnects()[0]);
    rago.plan_capacity_pools(schedule, slo, target_qps, &transfer, &sizing.options())
}

/// The joint (schedule, split, interconnect) ranking by goodput per chip
/// over a torus and the datacenter network (core::disagg).
pub fn rank_disagg(
    rago: &Rago,
    frontier: &ParetoFrontier,
    trace: &Trace,
    slo: &SloTarget,
    splits: &[(u32, u32)],
) -> Vec<(ParetoPoint, DisaggChoice, DisaggEvaluation)> {
    rago.rank_frontier_by_goodput_disagg(frontier, trace, slo, splits, &interconnects())
}

/// One disaggregated fleet run of `schedule` under `choice`'s split and
/// transfer model (core::disagg, serving_sim::pools).
pub fn evaluate_disagg(
    rago: &Rago,
    schedule: &Schedule,
    choice: &DisaggChoice,
    trace: &Trace,
    slo: &SloTarget,
) -> Result<DisaggEvaluation, RagoError> {
    let fleet = FleetConfig::split(
        choice.prefill_replicas,
        choice.decode_replicas,
        RouterPolicy::default(),
    )
    .with_transfer(choice.transfer);
    rago.evaluate_fleet_disagg(schedule, &fleet, trace, slo)
}

fn streaming_mode(slo: &SloTarget) -> MetricsMode {
    MetricsMode::Streaming(StreamingConfig::new(HistogramSpec::default()).with_slo(*slo))
}

fn least_outstanding(replicas: u32) -> FleetConfig {
    FleetConfig::new(replicas, RouterPolicy::LeastOutstanding)
}

/// A least-outstanding fleet run in streaming (`O(buckets)`) metrics mode.
pub fn stream_fleet(
    rago: &Rago,
    schedule: &Schedule,
    replicas: u32,
    trace: &Trace,
    slo: &SloTarget,
) -> Result<FleetEvaluation, RagoError> {
    evaluate_fleet_dynamic_with(
        rago.profiler(),
        schedule,
        &least_outstanding(replicas),
        trace,
        slo,
        &streaming_mode(slo),
    )
}

/// [`stream_fleet`] recording only the simulator's self-profiling lane, so
/// the event-queue counters (`sim.calendar_*`) come back with the run.
pub fn stream_fleet_profiled(
    rago: &Rago,
    schedule: &Schedule,
    replicas: u32,
    trace: &Trace,
    slo: &SloTarget,
) -> Result<(FleetEvaluation, Vec<TraceEvent>), RagoError> {
    let profile_only = TelemetryConfig {
        enabled: true,
        profile: true,
        ..TelemetryConfig::disabled()
    };
    recorded_fleet(
        rago,
        schedule,
        replicas,
        trace,
        slo,
        &streaming_mode(slo),
        profile_only,
    )
}

/// A least-outstanding fleet run recording the lanes `config` captures.
fn recorded_fleet(
    rago: &Rago,
    schedule: &Schedule,
    replicas: u32,
    trace: &Trace,
    slo: &SloTarget,
    mode: &MetricsMode,
    config: TelemetryConfig,
) -> Result<(FleetEvaluation, Vec<TraceEvent>), RagoError> {
    let mut rec = TraceRecorder::new(config.clone());
    let eval = evaluate_fleet_dynamic_traced(
        rago.profiler(),
        schedule,
        &least_outstanding(replicas),
        trace,
        slo,
        mode,
        &config,
        &mut rec,
    )?;
    Ok((eval, rec.into_events()))
}

/// The two tenants of the operations day: latency-sensitive chat at
/// admission priority 1 and best-effort batch at priority 0. SLOs scale with
/// the schedule's static TTFT and TPOT.
fn two_tenants(ttft_s: f64, tpot_s: f64) -> WorkloadMix {
    WorkloadMix::new(vec![
        RequestClass::new(
            "batch",
            1.0,
            profile(96),
            0.1,
            SloTarget::new(8.0 * ttft_s, 4.0 * tpot_s),
        ),
        RequestClass::new(
            "chat",
            2.0,
            profile(32),
            0.1,
            SloTarget::new(3.0 * ttft_s, 2.0 * tpot_s),
        )
        .with_priority(1),
    ])
}

/// The inputs of the operations day: the tenant mix and its diurnal,
/// class-tagged trace over one `period_s` cycle.
pub struct OpsDay {
    /// The two tenants.
    pub mix: WorkloadMix,
    /// One diurnal cycle of both tenants' arrivals.
    pub trace: Trace,
    /// The cycle length, in seconds; the peak is at half of it.
    pub period_s: f64,
}

/// One diurnal day of the two tenants, `requests` arrivals between
/// `base_rps` and `peak_rps`.
pub fn ops_day(
    point: &ParetoPoint,
    requests: usize,
    base_rps: f64,
    peak_rps: f64,
    seed: u64,
) -> OpsDay {
    let mix = two_tenants(point.performance.ttft_s, point.performance.tpot_s);
    let period_s = 2.0 * requests as f64 / (base_rps + peak_rps);
    let trace = MixTraceSpec {
        num_requests: requests,
        mix: mix.clone(),
        arrival: ArrivalProcess::Diurnal {
            base_rps,
            peak_rps,
            period_s,
        },
        seed,
    }
    .generate();
    OpsDay {
        mix,
        trace,
        period_s,
    }
}

/// The day served by a reactive autoscaled fleet (1 to `max_replicas`)
/// while replica 0 crashes at the traffic peak, with admission control
/// shedding by tenant priority once fleet queue depth passes
/// `shed_queue_depth` (core::faulted, serving_sim::{faults, autoscaler}).
///
/// The fleet scales in only when nearly idle: a readier scale-in retires
/// replica 0 during the morning ramp on most seeds, and the crash then hits
/// a drained replica with nothing to re-queue.
pub fn faulted_day(
    rago: &Rago,
    schedule: &Schedule,
    day: &OpsDay,
    max_replicas: u32,
    shed_queue_depth: f64,
) -> Result<FaultedEvaluation, RagoError> {
    let policy = AutoscalerPolicy::new(1, max_replicas)
        .with_evaluation_interval(0.25)
        .with_scale_out_queue_depth(2.0)
        .with_scale_in_outstanding(0.5)
        .with_cooldown(5.0)
        .with_warmup(0.5);
    let scenario = FaultScenario::new(ScaleDriver::Reactive(policy))
        .with_faults(FaultSchedule::new(vec![FaultEvent::Crash {
            replica: 0,
            at_s: day.period_s / 2.0,
            restart_delay_s: day.period_s / 8.0,
        }]))
        .with_admission(AdmissionConfig::new(shed_queue_depth, shed_queue_depth))
        .with_recovery_window(day.period_s / 32.0);
    rago.evaluate_fleet_faulted(
        schedule,
        RouterPolicy::LeastOutstanding,
        &day.mix,
        &day.trace,
        &scenario,
    )
}

/// `trace` tagged with Zipf-popular prompt templates (80 % of each prefix
/// shared) and retrieval keys.
pub fn tag_content(trace: &Trace, seed: u64) -> Trace {
    ContentSpec {
        prefixes: PopularityModel::zipf(12, 1.0),
        shared_prefix_fraction: 0.8,
        docs: PopularityModel::zipf(48, 1.0),
        seed,
    }
    .tag(trace)
}

/// A fleet with per-replica prefix-KV and retrieval-result caches behind the
/// cache-affinity router (core::cached, cache).
pub fn cached_fleet(
    rago: &Rago,
    schedule: &Schedule,
    replicas: u32,
    trace: &Trace,
    slo: &SloTarget,
) -> Result<FleetEvaluation, RagoError> {
    let prefix_tokens = u64::from(profile(32).prefix_tokens());
    let cache = CacheConfig {
        prefix: Some(PrefixKvCacheConfig::new(
            6 * prefix_tokens,
            EvictionPolicy::Lru,
        )),
        retrieval: Some(RetrievalCacheConfig::new(48, EvictionPolicy::Lru)),
    };
    let fleet = FleetConfig::new(replicas, RouterPolicy::CacheAffinity);
    rago.evaluate_fleet_cached(schedule, &fleet, trace, slo, &cache)
}

/// A least-outstanding fleet run in exact metrics mode, untraced.
pub fn exact_fleet(
    rago: &Rago,
    schedule: &Schedule,
    replicas: u32,
    trace: &Trace,
    slo: &SloTarget,
) -> Result<FleetEvaluation, RagoError> {
    evaluate_fleet_dynamic_with(
        rago.profiler(),
        schedule,
        &least_outstanding(replicas),
        trace,
        slo,
        &MetricsMode::Exact,
    )
}

/// [`exact_fleet`] with every telemetry lane recorded, gauges every
/// `gauge_cadence_s` simulated seconds (telemetry).
pub fn traced_fleet(
    rago: &Rago,
    schedule: &Schedule,
    replicas: u32,
    trace: &Trace,
    slo: &SloTarget,
    gauge_cadence_s: f64,
) -> Result<(FleetEvaluation, Vec<TraceEvent>), RagoError> {
    let full = TelemetryConfig::full(gauge_cadence_s);
    recorded_fleet(
        rago,
        schedule,
        replicas,
        trace,
        slo,
        &MetricsMode::Exact,
        full,
    )
}

/// The value of the simulator self-profiling counter `name` (summed over
/// tracks) in a recorded event stream.
pub fn profile_counter(events: &[TraceEvent], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.lane == Lane::Profile && e.phase == Phase::Counter && e.name == name)
        .filter_map(|e| e.value)
        .sum()
}

/// A recorder for the benchmark's own host-time spans.
pub fn span_recorder() -> TraceRecorder {
    TraceRecorder::new(TelemetryConfig::full(0.0))
}

/// The lane the benchmark's own spans and counters are recorded on.
pub const BENCH_LANE: Lane = Lane::Profile;
