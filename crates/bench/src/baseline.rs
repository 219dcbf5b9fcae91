//! Vendored copy of the serving engine's *pre-optimization* event loop, kept
//! as the speed reference for the `scale_stress` bench.
//!
//! This is the discrete-event core as it stood before the indexed event
//! queue and arena request state landed: a global `BinaryHeap` of boxed
//! event payloads (`Vec<usize>` member lists allocated per event), one
//! heap-allocated `ReqState` per request with growable stage vectors, and a
//! `BTreeSet` for the decode-resident set. It is deliberately *not* kept
//! API-compatible with the engine — it reimplements the loop against the
//! engine's public [`PipelineSpec`] types so the bench can drive both
//! engines from one spec and assert their timelines are bit-identical while
//! timing them separately.
//!
//! Scope: cache-less, non-iterative pipelines only (the tiers the scale
//! bench exercises). The loop schedules one event per decode step and
//! orders events `(time, class, seq)`, with arrivals (class 0) before
//! same-instant completions; events within `TIME_EPS` of the group head
//! apply together before one dispatch pass. The engine schedules one event
//! per decode run and orders a same-instant decode step after other
//! completions, so agreement with this loop is what shows both changes
//! leave every number as it was.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use rago_serving_sim::engine::{EngineRequest, PipelineSpec, RequestTimeline, StageTimes};

/// Same-instant grouping tolerance, mirroring the engine's constant.
const TIME_EPS: f64 = 1e-12;

/// The outcome of one baseline run: the per-request timelines (injection
/// order) and the number of events the loop applied.
#[derive(Debug)]
pub struct BaselineRun {
    /// Per-request records, bit-identical to the optimized engine's exact
    /// report for the same spec and requests.
    pub timelines: Vec<RequestTimeline>,
    /// Events applied by the loop — the denominator of the bench's
    /// events-per-second figure, counted the same way the engine counts
    /// `events_processed`.
    pub events: u64,
}

/// Discrete events of the old loop. Member lists are heap-allocated per
/// event — the allocation churn the optimized engine's reusable buffers
/// removed.
#[derive(Debug)]
enum Ev {
    Arrival(usize),
    StageDone {
        resource: usize,
        stage: usize,
        members: Vec<usize>,
    },
    StepDone(Vec<usize>),
}

struct EventEntry {
    t: f64,
    class: u8,
    seq: u64,
    ev: Ev,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.class == other.class && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t
            .total_cmp(&other.t)
            .then(self.class.cmp(&other.class))
            .then(self.seq.cmp(&other.seq))
    }
}

/// Per-request state, one growable struct per request.
#[derive(Debug, Clone)]
struct ReqState {
    queue_entry_s: f64,
    stage_starts_s: Vec<f64>,
    stage_ends_s: Vec<f64>,
    decode_join_s: f64,
    first_token_s: Option<f64>,
    completion_s: Option<f64>,
    queueing_s: f64,
    generated: u32,
}

/// The pre-optimization replica simulation.
struct OldSim {
    spec: PipelineSpec,
    requests: Vec<EngineRequest>,
    state: Vec<ReqState>,
    stage_queues: Vec<VecDeque<usize>>,
    resource_busy: Vec<bool>,
    resident: BTreeSet<usize>,
    admission: VecDeque<usize>,
    stepping: bool,
    completed: usize,
    heap: BinaryHeap<Reverse<EventEntry>>,
    seq: u64,
    events: u64,
}

impl OldSim {
    fn new(spec: PipelineSpec) -> Self {
        assert!(
            spec.iterative.is_none() && spec.cache.is_none(),
            "the vendored baseline covers cache-less, non-iterative pipelines only"
        );
        let num_stages = spec.stages.len();
        let num_resources = spec.num_resources();
        Self {
            spec,
            requests: Vec::new(),
            state: Vec::new(),
            stage_queues: vec![VecDeque::new(); num_stages],
            resource_busy: vec![false; num_resources],
            resident: BTreeSet::new(),
            admission: VecDeque::new(),
            stepping: false,
            completed: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            events: 0,
        }
    }

    fn inject(&mut self, req: EngineRequest) {
        assert!(
            req.arrival_s.is_finite() && req.arrival_s >= 0.0,
            "arrival times must be finite and non-negative"
        );
        assert!(
            req.decode_tokens > 0,
            "every request must generate at least one token"
        );
        let num_stages = self.spec.stages.len();
        self.state.push(ReqState {
            queue_entry_s: 0.0,
            stage_starts_s: Vec::with_capacity(num_stages),
            stage_ends_s: Vec::with_capacity(num_stages),
            decode_join_s: 0.0,
            first_token_s: None,
            completion_s: None,
            queueing_s: 0.0,
            generated: 0,
        });
        let idx = self.requests.len();
        self.requests.push(req);
        self.push_event(req.arrival_s, Ev::Arrival(idx));
    }

    fn push_event(&mut self, t: f64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        let class = u8::from(!matches!(ev, Ev::Arrival(_)));
        self.heap.push(Reverse(EventEntry { t, class, seq, ev }));
    }

    fn run_to_completion(&mut self) {
        while self.process_group() {}
        assert_eq!(
            self.completed,
            self.requests.len(),
            "baseline loop drained with unfinished requests"
        );
    }

    /// Pops one event group — every event within the timestamp tolerance of
    /// the head — applies it, then runs a single dispatch pass.
    fn process_group(&mut self) -> bool {
        let Some(Reverse(head)) = self.heap.pop() else {
            return false;
        };
        let mut now = head.t;
        self.apply(head.t, head.ev);
        while let Some(Reverse(next)) = self.heap.peek() {
            if next.t <= now + TIME_EPS {
                let Reverse(e) = self.heap.pop().expect("peeked");
                now = now.max(e.t);
                self.apply(e.t, e.ev);
            } else {
                break;
            }
        }
        self.dispatch_stages(now);
        self.decode_tick(now);
        true
    }

    fn apply(&mut self, t: f64, ev: Ev) {
        self.events += 1;
        match ev {
            Ev::Arrival(r) => {
                self.state[r].queue_entry_s = t;
                if self.spec.stages.is_empty() {
                    self.admission.push_back(r);
                } else {
                    self.stage_queues[0].push_back(r);
                }
            }
            Ev::StageDone {
                resource,
                stage,
                members,
            } => {
                self.resource_busy[resource] = false;
                let last_stage = stage + 1 == self.spec.stages.len();
                for r in members {
                    self.state[r].stage_ends_s.push(t);
                    self.state[r].queue_entry_s = t;
                    if last_stage {
                        // The main prefix emits the first output token.
                        self.state[r].first_token_s = Some(t);
                        self.admission.push_back(r);
                    } else {
                        self.stage_queues[stage + 1].push_back(r);
                    }
                }
            }
            Ev::StepDone(members) => {
                self.stepping = false;
                for r in members {
                    let tokens = self.requests[r].decode_tokens;
                    let st = &mut self.state[r];
                    st.generated += 1;
                    if st.first_token_s.is_none() {
                        st.first_token_s = Some(t);
                    }
                    if st.generated >= tokens {
                        st.completion_s = Some(t);
                        self.resident.remove(&r);
                        self.completed += 1;
                    }
                }
            }
        }
    }

    /// Work-conserving micro-batch dispatch: every free resource takes up
    /// to `batch` requests from its latest non-empty stage queue.
    fn dispatch_stages(&mut self, now: f64) {
        for resource in 0..self.resource_busy.len() {
            if self.resource_busy[resource] {
                continue;
            }
            let Some(stage) = (0..self.spec.stages.len()).rev().find(|&s| {
                self.spec.stages[s].resource == resource && !self.stage_queues[s].is_empty()
            }) else {
                continue;
            };
            let cap = self.spec.stages[stage].batch as usize;
            let take = self.stage_queues[stage].len().min(cap);
            let members: Vec<usize> = self.stage_queues[stage].drain(..take).collect();
            for &r in &members {
                self.state[r].stage_starts_s.push(now);
                self.state[r].queueing_s += now - self.state[r].queue_entry_s;
            }
            let latency = self.spec.stages[stage].latency.latency(take as u32);
            self.resource_busy[resource] = true;
            self.push_event(
                now + latency,
                Ev::StageDone {
                    resource,
                    stage,
                    members,
                },
            );
        }
    }

    /// Decode bookkeeping at one instant: admit into free slots, then start
    /// the next step over the resident set.
    fn decode_tick(&mut self, now: f64) {
        while self.resident.len() < self.spec.decode.max_batch as usize {
            let Some(r) = self.admission.pop_front() else {
                break;
            };
            self.state[r].decode_join_s = now;
            self.state[r].queueing_s += now - self.state[r].queue_entry_s;
            self.resident.insert(r);
        }
        if !self.stepping && !self.resident.is_empty() {
            let members: Vec<usize> = self.resident.iter().copied().collect();
            let fill = members.len() as u32;
            let dur = self.spec.decode.step_latency.latency(fill);
            self.stepping = true;
            self.push_event(now + dur, Ev::StepDone(members));
        }
    }

    fn finish(self) -> Vec<RequestTimeline> {
        self.requests
            .iter()
            .zip(self.state.iter())
            .map(|(req, st)| RequestTimeline {
                id: req.id,
                arrival_s: req.arrival_s,
                stages: StageTimes::new(&st.stage_starts_s, &st.stage_ends_s),
                class: req.class,
                decode_join_s: st.decode_join_s,
                first_token_s: st
                    .first_token_s
                    .expect("every request emits a first token before the loop finishes"),
                completion_s: st
                    .completion_s
                    .expect("every request completes before the loop finishes"),
                queueing_s: st.queueing_s,
                decode_tokens: req.decode_tokens,
            })
            .collect()
    }
}

/// Runs `requests` (non-decreasing arrival order) through the
/// pre-optimization loop and returns the finished timelines plus the event
/// count.
///
/// # Panics
///
/// Panics if the spec carries caches or iterative retrieval (out of the
/// baseline's scope), or any request has a non-finite/negative arrival or
/// zero decode tokens.
pub fn run_baseline(spec: &PipelineSpec, requests: &[EngineRequest]) -> BaselineRun {
    let mut sim = OldSim::new(spec.clone());
    for req in requests {
        sim.inject(*req);
    }
    sim.run_to_completion();
    let events = sim.events;
    BaselineRun {
        timelines: sim.finish(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rago_schema::RouterPolicy;
    use rago_serving_sim::engine::{DecodeSpec, LatencyTable, ServingReport, StageSpec};
    use rago_serving_sim::{FleetEngine, MetricsMode, ScaleDriver};
    use rago_telemetry::NullRecorder;

    /// Runs `requests` through one replica of `spec`: a one-replica static
    /// fleet, whose merged report is the replica's own.
    fn run_alone(spec: PipelineSpec, requests: Vec<EngineRequest>) -> ServingReport {
        let one = ScaleDriver::Static { replicas: 1 };
        FleetEngine::new(spec, RouterPolicy::default(), one)
            .run(requests, &MetricsMode::Exact, &mut NullRecorder)
            .fleet
            .merged
    }

    fn two_stage_spec() -> PipelineSpec {
        PipelineSpec::new(
            vec![
                StageSpec::new(
                    "retrieval",
                    0,
                    8,
                    LatencyTable::from_fn(8, |b| 0.004 + 0.001 * f64::from(b)),
                ),
                StageSpec::new(
                    "prefix",
                    1,
                    4,
                    LatencyTable::from_fn(4, |b| 0.010 + 0.002 * f64::from(b)),
                ),
            ],
            DecodeSpec::new(
                16,
                LatencyTable::from_fn(16, |b| 0.002 + 0.0001 * f64::from(b)),
            ),
        )
    }

    fn poissonish_requests(n: u64) -> Vec<EngineRequest> {
        (0..n)
            .map(|i| EngineRequest {
                id: i,
                arrival_s: i as f64 * 0.003,
                prefix_tokens: 0,
                decode_tokens: 8 + (i % 5) as u32,
                identity: None,
                class: 0,
            })
            .collect()
    }

    /// The vendored loop reproduces the optimized engine's exact timelines
    /// bit for bit — the property the scale bench asserts at every tier.
    #[test]
    fn baseline_matches_optimized_engine_bit_for_bit() {
        let spec = two_stage_spec();
        let requests = poissonish_requests(300);
        let baseline = run_baseline(&spec, &requests);
        let report = run_alone(spec, requests);
        assert_eq!(baseline.timelines, report.timelines);
        assert_eq!(baseline.events, report.metrics.events_processed);
    }

    /// The engine's decode runs against this per-step loop over a sweep
    /// of decode lengths (1 to 300 tokens), decode batches (1 to 64) and
    /// one- and two-stage pipelines. Constant step tables with arrivals
    /// and stage latencies on multiples of the step put step boundaries
    /// within the grouping tolerance of arrivals and stage completions:
    /// exactly on them for the power-of-two step, within a few ulps for
    /// the decimal one.
    #[test]
    fn decode_runs_match_the_per_step_loop_across_a_sweep() {
        let steps: [fn(u32) -> LatencyTable; 3] = [
            |batch| LatencyTable::constant(batch, 0.002),
            |batch| LatencyTable::constant(batch, 1.0 / 512.0),
            |batch| LatencyTable::from_fn(batch, |b| 0.001 + 0.0001 * f64::from(b)),
        ];
        let lengths: [fn(u64) -> u32; 3] = [
            |i| 1 + (i % 8) as u32,
            |i| 1 + (i * 37 % 300) as u32,
            |i| if i % 5 == 0 { 300 } else { 1 + (i % 3) as u32 },
        ];
        let mut cases = 0;
        for two_stage in [false, true] {
            for decode_batch in [1, 3, 16, 64] {
                for step in steps {
                    let table = step(decode_batch);
                    let grid = table.latency(1);
                    let stage = |name: &str, resource, batch, multiple: f64| {
                        StageSpec::new(
                            name,
                            resource,
                            batch,
                            LatencyTable::constant(batch, multiple * grid),
                        )
                    };
                    let stages = if two_stage {
                        vec![stage("retrieval", 0, 4, 1.0), stage("prefix", 1, 2, 3.0)]
                    } else {
                        vec![stage("prefix", 0, 4, 2.0)]
                    };
                    let spec = PipelineSpec::new(stages, DecodeSpec::new(decode_batch, table));
                    for length in lengths {
                        for gap in [1.0, 3.0] {
                            let requests: Vec<EngineRequest> = (0..48)
                                .map(|i| EngineRequest {
                                    id: i,
                                    // Pairs of arrivals share an instant.
                                    arrival_s: (i / 2) as f64 * gap * grid,
                                    prefix_tokens: 0,
                                    decode_tokens: length(i),
                                    identity: None,
                                    class: 0,
                                })
                                .collect();
                            let baseline = run_baseline(&spec, &requests);
                            let report = run_alone(spec.clone(), requests);
                            assert_eq!(baseline.timelines, report.timelines);
                            assert_eq!(baseline.events, report.metrics.events_processed);
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 144);
    }

    #[test]
    #[should_panic(expected = "cache-less, non-iterative")]
    fn iterative_specs_are_rejected() {
        use rago_serving_sim::engine::IterativeSpec;
        let spec = two_stage_spec().with_iterative(IterativeSpec {
            retrievals_per_sequence: 1,
            iterative_batch: 4,
            retrieval_prefix_latency_s: 0.01,
            seed: 1,
        });
        run_baseline(&spec, &poissonish_requests(4));
    }
}
