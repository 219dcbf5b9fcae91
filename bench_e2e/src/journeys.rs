//! The four workloads. Each rep of a workload pays a set-up (presets, fixed
//! frontiers and schedules, trace specs), then one user journey timed from
//! its first call into the program to its last return, then checks that run
//! after the timer stops.
//!
//! `--seed` feeds every trace, mix and content seed; the program receives
//! only the generated inputs. Traffic is open loop at stated multiples of
//! the serving schedule's static QPS, and every rep of a run has the same
//! input size, so reps are repeats of one batch job.

use crate::api::{self, Case, ParetoFrontier, ParetoPoint, Rago, SearchOptions, SloTarget};
use crate::spans::{Tracer, JOURNEY};
use std::collections::BTreeMap;
use std::error::Error;
use std::time::Instant;

/// A failure of the program or of the benchmark's own plumbing.
pub type Fail = Box<dyn Error>;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold-profiler, paper-grid schedule search of all four cases.
    Search,
    /// Goodput re-ranking, fleet sizing and pool planning on fixed
    /// frontiers with a warm profiler.
    Sizing,
    /// A million requests through a streaming-metrics fleet.
    Stream,
    /// A faulted, cached, traced operations day in exact mode.
    Ops,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Search,
        Workload::Sizing,
        Workload::Stream,
        Workload::Ops,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Search => "search",
            Workload::Sizing => "sizing",
            Workload::Stream => "stream",
            Workload::Ops => "ops",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed reps of a run that is given no time budget. A `search` rep
    /// takes about 18 s on two cores, the others 1 to 2 s.
    pub fn default_reps(self) -> usize {
        match self {
            Workload::Search => 5,
            Workload::Sizing | Workload::Stream | Workload::Ops => 20,
        }
    }
}

/// Input sizes: the benchmark's own, or a smoke size for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small enough for a debug build in a unit test, and used only there.
    #[cfg_attr(not(test), allow(dead_code))]
    Quick,
}

/// A 64-bit FNV-1a hash over the outputs a rep produced. Reps of one run
/// must agree on it, and a change meant only to speed the program up must
/// leave it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn int(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn float(&mut self, v: f64) {
        self.int(v.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What the post-rep checks found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Hash of the rep's outputs.
    pub digest: Digest,
    /// Simulated outputs (model results, not program performance), recorded
    /// for information and never gated.
    pub sims: Vec<(String, f64)>,
    /// Every failed check.
    pub failures: Vec<String>,
}

impl Checked {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Hashes `v` and fails the rep unless it is finite.
    fn finite(&mut self, name: &str, v: f64) {
        self.digest.float(v);
        self.require(v.is_finite(), || format!("{name} is not finite: {v}"));
    }

    /// Records the simulated output `sim.<name>`.
    fn sim(&mut self, name: &str, v: f64) {
        let name = format!("sim.{name}");
        self.finite(&name, v);
        self.sims.push((name, v));
    }
}

/// Everything one rep measured.
pub struct RepReport {
    /// Seconds from entering `main` to the start of the journey.
    pub setup_s: f64,
    /// Seconds from the journey's first call into the program until its
    /// last call returned.
    pub journey_s: f64,
    /// The process's peak resident set right after the journey, in MiB.
    pub peak_rss_mb: f64,
    /// Outcome of the post-rep checks.
    pub checked: Checked,
    /// Summed work counters of the journey's layers.
    pub counts: BTreeMap<String, f64>,
    /// The journey's spans and counters when traced (empty otherwise).
    pub events: Vec<api::TraceEvent>,
}

/// One workload's set-up, journey and checks.
trait Journey: Sized {
    /// What the journey hands to the checks.
    type Out;

    /// Everything the journey needs that a user would hold before calling
    /// the program.
    fn setup(seed: u64, scale: Scale) -> Result<Self, Fail>;

    /// The timed journey.
    fn run(&self, t: &mut Tracer) -> Result<Self::Out, Fail>;

    /// Post-rep checks and the digest of the outputs.
    fn check(&self, out: &Self::Out, c: &mut Checked);
}

/// Runs one rep of `workload` in this process. `started` is when the
/// process entered `main`, so set-up time includes argument handling.
///
/// # Errors
///
/// Returns the first error the program or the rep's plumbing raised.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
    started: Instant,
) -> Result<RepReport, Fail> {
    match workload {
        Workload::Search => rep::<SearchJourney>(seed, scale, traced, started),
        Workload::Sizing => rep::<SizingJourney>(seed, scale, traced, started),
        Workload::Stream => rep::<StreamJourney>(seed, scale, traced, started),
        Workload::Ops => rep::<OpsJourney>(seed, scale, traced, started),
    }
}

/// Sets `workload` up without running its journey and returns the set-up
/// time, for runs whose journeys are too long to repeat often.
///
/// # Errors
///
/// Returns the first error the set-up raised.
pub fn run_setup(
    workload: Workload,
    seed: u64,
    scale: Scale,
    started: Instant,
) -> Result<f64, Fail> {
    match workload {
        Workload::Search => SearchJourney::setup(seed, scale).map(drop),
        Workload::Sizing => SizingJourney::setup(seed, scale).map(drop),
        Workload::Stream => StreamJourney::setup(seed, scale).map(drop),
        Workload::Ops => OpsJourney::setup(seed, scale).map(drop),
    }?;
    Ok(started.elapsed().as_secs_f64())
}

fn rep<J: Journey>(
    seed: u64,
    scale: Scale,
    traced: bool,
    started: Instant,
) -> Result<RepReport, Fail> {
    let journey = J::setup(seed, scale)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut tracer = if traced { Tracer::on() } else { Tracer::off() };
    let clock = Instant::now();
    let out = tracer.span(JOURNEY, |t| journey.run(t))?;
    let journey_s = clock.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb()?;
    let mut checked = Checked::default();
    journey.check(&out, &mut checked);
    let counts = tracer.counts().clone();
    Ok(RepReport {
        setup_s,
        journey_s,
        peak_rss_mb,
        checked,
        counts,
        events: tracer.into_events(),
    })
}

/// The process's peak resident set size (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, Fail> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// An independent seed for input stream `k` of a run seeded `seed`.
fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k)
}

/// Counts the work of generating `trace`.
fn count_trace(t: &mut Tracer, trace: &api::Trace) {
    let n = trace.requests.len();
    t.count("tracegen.requests", n as f64);
    t.count(
        "tracegen.bytes",
        (n * std::mem::size_of::<api::Request>()) as f64,
    );
}

/// Counts the profiler memo hits and misses `rago` took since `before`.
fn count_memo(t: &mut Tracer, rago: &Rago, before: (u64, u64)) {
    let (hits, misses) = api::memo_stats(rago);
    t.count("profiler.memo_hits", (hits - before.0) as f64);
    t.count("profiler.memo_misses", (misses - before.1) as f64);
}

/// Hashes a frontier's schedules and static performance.
fn digest_frontier(c: &mut Checked, what: &str, frontier: &ParetoFrontier) {
    c.require(!frontier.is_empty(), || format!("{what}: empty frontier"));
    c.digest.int(frontier.evaluated_schedules as u64);
    for p in frontier.iter() {
        c.digest.text(&p.schedule.identity_key());
        c.finite(&format!("{what} TTFT"), p.performance.ttft_s);
        c.finite(&format!("{what} QPS/chip"), p.performance.qps_per_chip);
    }
}

/// `rago`'s frontier on the library's fast grid, its best-QPS/chip point,
/// and the SLO derived from that point: 3× its static TTFT and 2× its
/// static TPOT.
fn fast_frontier(rago: &Rago) -> Result<(ParetoFrontier, ParetoPoint, SloTarget), Fail> {
    let frontier = api::optimize(rago, &api::fast_grid())?;
    let best = frontier
        .max_qps_per_chip()
        .ok_or("empty fast-grid frontier")?
        .clone();
    let slo = SloTarget::new(3.0 * best.performance.ttft_s, 2.0 * best.performance.tpot_s);
    Ok((frontier, best, slo))
}

// ---------------------------------------------------------------- search --

/// `search`: a fresh optimizer per case and the exhaustive paper-grid
/// search. The checks search a coarse sub-grid of every axis, whose
/// frontier the paper-grid frontier must weakly dominate.
struct SearchJourney {
    grid: SearchOptions,
    reference: SearchOptions,
}

impl Journey for SearchJourney {
    type Out = Vec<ParetoFrontier>;

    fn setup(_seed: u64, scale: Scale) -> Result<Self, Fail> {
        let (grid, reference) = match scale {
            Scale::Full => (api::paper_grid(), api::coarse_grid()),
            Scale::Quick => (api::coarse_grid(), api::tiny_grid()),
        };
        Ok(SearchJourney { grid, reference })
    }

    fn run(&self, t: &mut Tracer) -> Result<Self::Out, Fail> {
        t.span("search", |t| {
            Case::ALL
                .iter()
                .map(|&case| {
                    t.span(&format!("search.{}", case.label()), |t| {
                        let rago = api::optimizer(case);
                        let frontier = api::optimize(&rago, &self.grid)?;
                        t.count("search.candidates", frontier.evaluated_schedules as f64);
                        t.count("search.frontier_points", frontier.len() as f64);
                        count_memo(t, &rago, (0, 0));
                        Ok(frontier)
                    })
                })
                .collect()
        })
    }

    fn check(&self, out: &Self::Out, c: &mut Checked) {
        for (&case, frontier) in Case::ALL.iter().zip(out) {
            let label = case.label();
            digest_frontier(c, label, frontier);
            let reference = match api::optimize(&api::optimizer(case), &self.reference) {
                Ok(reference) => reference,
                Err(e) => {
                    c.failures
                        .push(format!("{label}: coarse-grid search failed: {e}"));
                    continue;
                }
            };
            for r in reference.iter() {
                let dominated = frontier.iter().any(|p| {
                    p.performance.ttft_s <= r.performance.ttft_s
                        && p.performance.qps_per_chip >= r.performance.qps_per_chip
                });
                c.require(dominated, || {
                    format!(
                        "{label}: coarse-grid point {} beats the paper-grid frontier",
                        r.schedule.describe()
                    )
                });
            }
            c.sim(&format!("{label}.frontier_points"), frontier.len() as f64);
            if let (Some(fast), Some(best)) = (frontier.min_ttft(), frontier.max_qps_per_chip()) {
                c.sim(&format!("{label}.min_ttft_s"), fast.performance.ttft_s);
                c.sim(
                    &format!("{label}.max_qps_per_chip"),
                    best.performance.qps_per_chip,
                );
            }
        }
    }
}

// ---------------------------------------------------------------- sizing --

/// Prefill/decode splits the pool ranking considers.
const SPLITS: [(u32, u32); 6] = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)];

/// One case's fixed inputs: a warm optimizer, its fast-grid frontier, the
/// best-QPS/chip point and the SLO derived from it.
struct SizingCase {
    case: Case,
    rago: Rago,
    frontier: ParetoFrontier,
    best: ParetoPoint,
    slo: SloTarget,
}

/// `sizing`: per case, goodput re-ranking at 0.8× the best point's static
/// QPS, then sizing every frontier point for 2× that QPS; for case I also
/// the joint prefill/decode pool plan and ranking at a 0.4 s / 50 ms SLO,
/// and a run of the chosen split.
struct SizingJourney {
    cases: Vec<SizingCase>,
    seed: u64,
    goodput_requests: usize,
    sizing_seconds: f64,
    max_replicas: u32,
}

/// One case's outputs.
struct SizingOut {
    ranked: Vec<(ParetoPoint, api::DynamicEvaluation)>,
    costed: Vec<(ParetoPoint, api::CapacityPlan)>,
    pools: Option<PoolsOut>,
}

/// Case I's disaggregation outputs.
struct PoolsOut {
    plan: api::PoolCapacityPlan,
    ranked: Vec<(ParetoPoint, api::DisaggChoice, api::DisaggEvaluation)>,
    chosen: api::DisaggEvaluation,
}

impl Journey for SizingJourney {
    type Out = Vec<SizingOut>;

    fn setup(seed: u64, scale: Scale) -> Result<Self, Fail> {
        let cases = Case::ALL
            .iter()
            .map(|&case| {
                let rago = api::optimizer(case);
                let (frontier, best, slo) = fast_frontier(&rago)?;
                Ok(SizingCase {
                    case,
                    rago,
                    frontier,
                    best,
                    slo,
                })
            })
            .collect::<Result<_, Fail>>()?;
        let (goodput_requests, sizing_seconds, max_replicas) = match scale {
            Scale::Full => (4_000, 60.0, 16),
            Scale::Quick => (100, 2.0, 6),
        };
        Ok(SizingJourney {
            cases,
            seed,
            goodput_requests,
            sizing_seconds,
            max_replicas,
        })
    }

    fn run(&self, t: &mut Tracer) -> Result<Self::Out, Fail> {
        let mut outs = Vec::with_capacity(self.cases.len());
        for (k, sc) in (0u64..).zip(&self.cases) {
            let memo = api::memo_stats(&sc.rago);
            let qps = sc.best.performance.qps;
            let trace = t.span("tracegen", |t| {
                let trace = api::poisson_trace(
                    self.goodput_requests,
                    0.8 * qps,
                    64,
                    stream_seed(self.seed, 2 * k),
                );
                count_trace(t, &trace);
                trace
            });
            let ranked = t.span("rank", |t| {
                let ranked = api::rank_by_goodput(&sc.rago, &sc.frontier, &trace, &sc.slo);
                let events: u64 = ranked
                    .iter()
                    .map(|(_, e)| e.report.metrics.events_processed)
                    .sum();
                t.count("rank.evaluations", ranked.len() as f64);
                t.count("rank.des_events", events as f64);
                t.count("des.events", events as f64);
                ranked
            });
            let target_qps = 2.0 * qps;
            let sizing = api::Sizing {
                requests: (target_qps * self.sizing_seconds).ceil() as usize,
                max_replicas: self.max_replicas,
                decode_tokens: 64,
                seed: stream_seed(self.seed, 2 * k + 1),
            };
            let costed = t.span("capacity", |t| {
                let costed = api::rank_by_cost(&sc.rago, &sc.frontier, &sc.slo, target_qps, sizing);
                t.count("capacity.plans", costed.len() as f64);
                let replicas: u32 = costed.iter().map(|(_, p)| p.replicas).sum();
                t.count("capacity.replicas_planned", f64::from(replicas));
                costed
            });
            let pools = if sc.case == Case::Hyperscale {
                Some(self.pools(t, sc, &trace, target_qps, sizing)?)
            } else {
                None
            };
            count_memo(t, &sc.rago, memo);
            outs.push(SizingOut {
                ranked,
                costed,
                pools,
            });
        }
        Ok(outs)
    }

    fn check(&self, out: &Self::Out, c: &mut Checked) {
        for (sc, o) in self.cases.iter().zip(out) {
            let label = sc.case.label();
            c.require(o.ranked.len() == sc.frontier.len(), || {
                format!(
                    "{label}: goodput ranking kept {} of {} frontier points",
                    o.ranked.len(),
                    sc.frontier.len()
                )
            });
            for (p, e) in &o.ranked {
                c.digest.text(&p.schedule.identity_key());
                c.finite("ranked goodput", e.goodput_rps);
                c.finite("ranked attainment", e.attainment);
            }
            c.require(!o.costed.is_empty(), || {
                format!("{label}: no frontier point can be sized for 2x its QPS")
            });
            for (p, plan) in &o.costed {
                c.digest.text(&p.schedule.identity_key());
                c.digest.int(u64::from(plan.replicas));
                c.finite("planned attainment", plan.attainment);
            }
            if let Some((_, e)) = o.ranked.first() {
                c.sim(&format!("{label}.best_goodput_rps"), e.goodput_rps);
            }
            if let Some((_, plan)) = o.costed.first() {
                c.sim(
                    &format!("{label}.cheapest_xpus"),
                    f64::from(plan.total_xpus),
                );
            }
            if let Some(pools) = &o.pools {
                c.digest.int(u64::from(pools.plan.prefill_replicas));
                c.digest.int(u64::from(pools.plan.decode_replicas));
                c.finite("pool plan attainment", pools.plan.attainment);
                for (p, choice, e) in &pools.ranked {
                    c.digest.text(&p.schedule.identity_key());
                    c.digest.text(&choice.interconnect);
                    c.digest.int(u64::from(choice.prefill_replicas));
                    c.digest.int(u64::from(choice.decode_replicas));
                    c.finite("disaggregated goodput/chip", e.goodput_per_chip);
                }
                c.require(
                    pools.ranked.first().map(|r| &r.2) == Some(&pools.chosen),
                    || format!("{label}: re-running the chosen split changed its result"),
                );
                c.sim(
                    &format!("{label}.pool_plan_xpus"),
                    f64::from(pools.plan.total_xpus),
                );
                c.sim(
                    &format!("{label}.disagg_goodput_per_chip"),
                    pools.chosen.goodput_per_chip,
                );
            }
        }
    }
}

impl SizingJourney {
    fn pools(
        &self,
        t: &mut Tracer,
        sc: &SizingCase,
        trace: &api::Trace,
        target_qps: f64,
        sizing: api::Sizing,
    ) -> Result<PoolsOut, Fail> {
        let tight = SloTarget::new(0.4, 0.05);
        let plan = t.span("pools.plan", |_| {
            api::plan_pools(&sc.rago, &sc.best.schedule, &tight, target_qps, sizing)
        })?;
        let ranked = t.span("pools.rank", |t| {
            let ranked = api::rank_disagg(&sc.rago, &sc.frontier, trace, &tight, &SPLITS);
            let events: u64 = ranked
                .iter()
                .map(|(_, _, e)| e.report.merged.metrics.events_processed)
                .sum();
            t.count("pools.candidates", ranked.len() as f64);
            t.count("des.events", events as f64);
            ranked
        });
        let (point, choice, _) = ranked.first().ok_or("empty disaggregated ranking")?;
        let chosen = t.span("pools.eval", |t| {
            let eval = api::evaluate_disagg(&sc.rago, &point.schedule, choice, trace, &tight)?;
            t.count("pools.transfers", eval.report.transfers.transfers as f64);
            t.count(
                "des.events",
                eval.report.merged.metrics.events_processed as f64,
            );
            Ok::<_, Fail>(eval)
        })?;
        Ok(PoolsOut {
            plan,
            ranked,
            chosen,
        })
    }
}

// ---------------------------------------------------------------- stream --

/// `stream`: one long open-loop Poisson trace at 0.8 × 4 × static QPS
/// through a four-replica least-outstanding fleet in streaming metrics
/// mode.
struct StreamJourney {
    rago: Rago,
    best: ParetoPoint,
    slo: SloTarget,
    requests: usize,
    seed: u64,
}

/// Replicas of the streaming fleet.
const STREAM_REPLICAS: u32 = 4;

impl Journey for StreamJourney {
    type Out = api::FleetEvaluation;

    fn setup(seed: u64, scale: Scale) -> Result<Self, Fail> {
        let rago = api::optimizer(Case::Hyperscale);
        let (_, best, slo) = fast_frontier(&rago)?;
        let requests = match scale {
            Scale::Full => 1_000_000,
            Scale::Quick => 2_000,
        };
        Ok(StreamJourney {
            rago,
            best,
            slo,
            requests,
            seed,
        })
    }

    fn run(&self, t: &mut Tracer) -> Result<Self::Out, Fail> {
        let memo = api::memo_stats(&self.rago);
        let rate = 0.8 * f64::from(STREAM_REPLICAS) * self.best.performance.qps;
        let trace = t.span("tracegen", |t| {
            let trace = api::poisson_trace(self.requests, rate, 64, stream_seed(self.seed, 0));
            count_trace(t, &trace);
            trace
        });
        let eval = t.span("des", |t| {
            let schedule = &self.best.schedule;
            let eval = if t.is_on() {
                let (eval, events) = api::stream_fleet_profiled(
                    &self.rago,
                    schedule,
                    STREAM_REPLICAS,
                    &trace,
                    &self.slo,
                )?;
                count_equeue(t, &events);
                eval
            } else {
                api::stream_fleet(&self.rago, schedule, STREAM_REPLICAS, &trace, &self.slo)?
            };
            let report = &eval.report;
            t.count("des.events", report.merged.metrics.events_processed as f64);
            t.count("sink.retained_bytes", report.merged.retained_bytes() as f64);
            t.count(
                "cluster.imbalance_max_over_mean",
                report.imbalance.max_over_mean,
            );
            Ok::<_, Fail>(eval)
        })?;
        count_memo(t, &self.rago, memo);
        Ok(eval)
    }

    fn check(&self, eval: &Self::Out, c: &mut Checked) {
        let m = &eval.report.merged.metrics;
        c.require(
            m.requests == self.requests && m.completed == self.requests,
            || {
                format!(
                    "completed {} of {} injected requests ({} generated)",
                    m.completed, m.requests, self.requests
                )
            },
        );
        c.digest.int(m.events_processed);
        for r in &eval.report.per_replica {
            c.digest.int(r.assigned as u64);
        }
        c.finite("TTFT p99", m.ttft.p99_s);
        c.finite("makespan", m.makespan_s);
        c.sim("attainment", eval.attainment);
        c.sim("goodput_rps", eval.goodput_rps);
        c.sim("ttft_p50_s", m.ttft.p50_s);
    }
}

/// Counts the event-queue work the simulator reported about itself.
fn count_equeue(t: &mut Tracer, events: &[api::TraceEvent]) {
    t.count(
        "equeue.calendar_rebuilds",
        api::profile_counter(events, "sim.calendar_rebuilds"),
    );
    t.count(
        "equeue.fallback_scans",
        api::profile_counter(events, "sim.calendar_fallback_scans"),
    );
}

// ------------------------------------------------------------------- ops --

/// `ops`: one two-tenant diurnal day on a reactive autoscaled fleet with a
/// crash at the peak and priority admission control; then a content-tagged
/// Zipf trace through a cache-affinity fleet; then one fleet run untraced
/// and again with every telemetry lane on, exported to Perfetto and JSONL
/// and summarized. All runs keep exact per-request timelines.
struct OpsJourney {
    rago: Rago,
    best: ParetoPoint,
    slo: SloTarget,
    seed: u64,
    day_requests: usize,
    cache_requests: usize,
    telemetry_requests: usize,
}

/// Autoscaler ceiling of the operations day.
const OPS_MAX_REPLICAS: u32 = 4;
/// Fleet queue depth beyond which admission control sheds the lowest
/// priority (each priority level adds the same depth again).
const OPS_SHED_DEPTH: f64 = 2.0;
/// Replicas of the cached and of the traced fleet.
const OPS_FLEET: u32 = 2;

/// The operations journey's outputs.
struct OpsOut {
    chaos: api::FaultedEvaluation,
    cached: api::FleetEvaluation,
    untraced: api::FleetEvaluation,
    traced: api::FleetEvaluation,
    chrome: String,
    jsonl: String,
    summary: api::TelemetryReport,
}

impl Journey for OpsJourney {
    type Out = OpsOut;

    fn setup(seed: u64, scale: Scale) -> Result<Self, Fail> {
        let rago = api::optimizer(Case::Hyperscale);
        let (_, best, slo) = fast_frontier(&rago)?;
        let (day_requests, cache_requests, telemetry_requests) = match scale {
            Scale::Full => (100_000, 150_000, 10_000),
            Scale::Quick => (4_000, 1_000, 200),
        };
        Ok(OpsJourney {
            rago,
            best,
            slo,
            seed,
            day_requests,
            cache_requests,
            telemetry_requests,
        })
    }

    fn run(&self, t: &mut Tracer) -> Result<Self::Out, Fail> {
        let memo = api::memo_stats(&self.rago);
        let qps = self.best.performance.qps;
        let schedule = &self.best.schedule;
        let day = t.span("tracegen", |t| {
            let day = api::ops_day(
                &self.best,
                self.day_requests,
                0.3 * qps,
                2.2 * qps,
                stream_seed(self.seed, 0),
            );
            count_trace(t, &day.trace);
            day
        });
        let chaos = t.span("chaos", |t| {
            let eval =
                api::faulted_day(&self.rago, schedule, &day, OPS_MAX_REPLICAS, OPS_SHED_DEPTH)?;
            let fault = &eval.chaos.fault;
            let events = eval.chaos.fleet.merged.metrics.events_processed as f64;
            t.count("chaos.events", events);
            t.count("des.events", events);
            t.count("chaos.shed", fault.shed as f64);
            t.count("chaos.retried", fault.retried as f64);
            t.count("chaos.failed", fault.failed as f64);
            t.count("chaos.scale_events", eval.chaos.events.len() as f64);
            Ok::<_, Fail>(eval)
        })?;
        let content = t.span("tracegen", |t| {
            let plain = api::poisson_trace(
                self.cache_requests,
                1.6 * qps,
                32,
                stream_seed(self.seed, 1),
            );
            let tagged = api::tag_content(&plain, stream_seed(self.seed, 2));
            count_trace(t, &tagged);
            tagged
        });
        let cached = t.span("cache", |t| {
            let eval = api::cached_fleet(&self.rago, schedule, OPS_FLEET, &content, &self.slo)?;
            let usage = &eval.report.merged.cache;
            t.count("cache.prefix_probes", usage.prefix.lookups as f64);
            t.count("cache.prefix_hits", usage.prefix.hits as f64);
            t.count("cache.retrieval_probes", usage.retrieval.lookups as f64);
            t.count("cache.retrieval_hits", usage.retrieval.hits as f64);
            t.count(
                "des.events",
                eval.report.merged.metrics.events_processed as f64,
            );
            Ok::<_, Fail>(eval)
        })?;
        let fleet_trace = t.span("tracegen", |t| {
            let trace = api::poisson_trace(
                self.telemetry_requests,
                1.6 * qps,
                32,
                stream_seed(self.seed, 3),
            );
            count_trace(t, &trace);
            trace
        });
        let untraced = t.span("telemetry.untraced", |t| {
            let eval = api::exact_fleet(&self.rago, schedule, OPS_FLEET, &fleet_trace, &self.slo)?;
            t.count(
                "des.events",
                eval.report.merged.metrics.events_processed as f64,
            );
            Ok::<_, Fail>(eval)
        })?;
        let (traced, events) = t.span("telemetry.record", |t| {
            let (eval, events) = api::traced_fleet(
                &self.rago,
                schedule,
                OPS_FLEET,
                &fleet_trace,
                &self.slo,
                0.25,
            )?;
            t.count(
                "des.events",
                eval.report.merged.metrics.events_processed as f64,
            );
            t.count("telemetry.events", events.len() as f64);
            count_equeue(t, &events);
            Ok::<_, Fail>((eval, events))
        })?;
        let (chrome, jsonl) = t.span("telemetry.export", |t| {
            let chrome = api::export_chrome_trace(&events);
            let jsonl = api::export_jsonl(&events);
            t.count(
                "telemetry.export_bytes",
                (chrome.len() + jsonl.len()) as f64,
            );
            (chrome, jsonl)
        });
        let summary = t.span("telemetry.summary", |_| {
            api::TelemetryReport::from_events(&events)
        });
        count_memo(t, &self.rago, memo);
        Ok(OpsOut {
            chaos,
            cached,
            untraced,
            traced,
            chrome,
            jsonl,
            summary,
        })
    }

    fn check(&self, out: &Self::Out, c: &mut Checked) {
        let fault = &out.chaos.chaos.fault;
        c.require(
            fault.injected == fault.completed + fault.shed + fault.failed,
            || {
                format!(
                    "chaos run lost requests: injected {} != completed {} + shed {} + failed {}",
                    fault.injected, fault.completed, fault.shed, fault.failed
                )
            },
        );
        c.require(fault.injected == self.day_requests, || {
            format!(
                "chaos run injected {} of {}",
                fault.injected, self.day_requests
            )
        });
        c.require(fault.shed > 0, || "admission control shed nothing".into());
        c.require(fault.retried > 0, || {
            "the peak crash re-queued nothing".into()
        });
        for v in [fault.completed, fault.shed, fault.failed, fault.retried] {
            c.digest.int(v as u64);
        }
        c.digest.int(out.chaos.chaos.events.len() as u64);
        for class in &out.chaos.per_class {
            c.finite("class attainment", class.attainment);
        }
        c.finite("chip-seconds", out.chaos.chip_seconds);
        let cached = &out.cached.report.merged;
        c.require(cached.metrics.completed == self.cache_requests, || {
            format!(
                "cached fleet completed {} of {}",
                cached.metrics.completed, self.cache_requests
            )
        });
        for v in [
            cached.cache.prefix.hits,
            cached.cache.prefix.lookups,
            cached.cache.retrieval.hits,
        ] {
            c.digest.int(v);
        }
        c.require(out.untraced.report == out.traced.report, || {
            "recording telemetry changed the fleet's report".into()
        });
        if let Err(e) = api::validate_json(&out.chrome) {
            c.failures
                .push(format!("Perfetto export does not parse: {e}"));
        }
        if let Err(e) = api::validate_jsonl(&out.jsonl) {
            c.failures.push(format!("JSONL export does not parse: {e}"));
        }
        c.digest.text(&out.chrome);
        c.digest.text(&out.jsonl);
        c.digest.int(out.summary.spans as u64);
        c.sim("chaos_attainment", out.chaos.attainment);
        c.sim("chaos_shed", fault.shed as f64);
        c.sim("chaos_retried", fault.retried as f64);
        c.sim("cache_prefix_hit_rate", cached.cache.prefix.hit_rate());
        c.sim("cache_goodput_rps", out.cached.goodput_rps);
        c.sim("traced_fleet_attainment", out.traced.attainment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    /// A quick-size rep of every workload passes its checks, reports every
    /// declared per-layer metric, and repeats its digest.
    #[test]
    fn quick_reps_pass_their_checks() {
        for w in Workload::ALL {
            let rep = run_rep(w, 7, Scale::Quick, true, Instant::now()).unwrap();
            assert!(
                rep.checked.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                rep.checked.failures
            );
            assert!(rep.journey_s > 0.0 && rep.setup_s > 0.0 && rep.peak_rss_mb > 0.0);
            let layers = crate::spans::layer_times(&rep.events);
            assert!(
                crate::spans::coverage(&layers) > 0.9,
                "{}: spans miss the rep",
                w.name()
            );
            let metrics = crate::metrics::layer_metrics(&rep.counts, &layers);
            for m in &crate::metrics::PER_LAYER {
                if m.name != crate::metrics::TRACE_OVERHEAD {
                    let v = metrics.get(m.name).copied();
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{}: {} = {v:?}",
                        w.name(),
                        m.name
                    );
                }
            }
            assert!(metrics
                .keys()
                .all(|k| crate::metrics::PER_LAYER.iter().any(|m| m.name == k)));
            let again = run_rep(w, 7, Scale::Quick, false, Instant::now()).unwrap();
            assert_eq!(again.checked.digest, rep.checked.digest, "{}", w.name());
        }
    }

    #[test]
    fn digest_separates_strings_and_numbers() {
        let mut a = Digest::default();
        a.text("ab");
        a.text("c");
        let mut b = Digest::default();
        b.text("a");
        b.text("bc");
        assert_ne!(a, b);
        let mut x = Digest::default();
        x.float(0.0);
        let mut y = Digest::default();
        y.float(-0.0);
        assert_ne!(x, y);
        assert_eq!(Digest::default().hex().len(), 16);
    }
}
