//! Trace derivation: turns a fleet run's deterministic ledgers —
//! [`RequestTimeline`]s, cache-probe logs, event-queue stats — into
//! [`rago_telemetry`] event streams.
//!
//! The design keeps the hot paths recorder-free: the DES loops record
//! almost nothing live (only router picks and KV-transfer deliveries,
//! which happen in serial orchestration code). Everything else is derived
//! from state the replicas already produce, in a deterministic order, so
//! a seeded run yields a byte-identical event stream on any worker count.
//! Request spans and load gauges are derived per replica, in slot order,
//! by the serial merge after the parallel drain — from each replica's own
//! timelines, in its order, just before they move into the fleet's merged
//! report. Cache probes, profile counters and the lifecycle lanes are
//! derived from the finished report afterwards.
//!
//! Spans and gauges need retained timelines, so they are only derivable
//! under [`crate::sink::MetricsMode::Exact`]; a streaming run still gets
//! decision events and self-profiling counters.

use crate::engine::{CacheProbe, EngineRequest, ReplicaSim, RequestTimeline};
use crate::equeue::EventQueueStats;
use rago_schema::RouterPolicy;
use rago_telemetry::{Lane, Recorder, SimProfile, TraceEvent};

/// Records one router decision: which replica the pick landed on (the
/// event's track), and *why* — the policy plus the chosen replica's live
/// load at pick time. Called from the serial routing loops only, so the
/// event order is the arrival order regardless of worker count.
pub(crate) fn record_route_pick<R: Recorder>(
    rec: &mut R,
    time_s: f64,
    router: RouterPolicy,
    replica: usize,
    req: &EngineRequest,
    sim: &ReplicaSim,
) {
    if !R::ENABLED {
        return;
    }
    rec.record(
        TraceEvent::instant(time_s, replica as u32, Lane::Decision, "route.pick")
            .with_req(req.id)
            .with_class(req.class)
            .with_value(replica as f64)
            .with_detail(format!(
                "policy={router} outstanding={} queued={} decode_fill={:.3}",
                sim.outstanding(),
                sim.queued(),
                sim.decode_fill_fraction(),
            )),
    );
}

/// Records one completed KV-cache handoff as a span on the Transfer lane
/// of the receiving decode replica's track: begin when the prefill leg
/// emitted the handoff, end at delivery, payload bytes as the value.
pub(crate) fn record_kv_transfer<R: Recorder>(
    rec: &mut R,
    track: u32,
    delivered_s: f64,
    latency_s: f64,
    bytes: f64,
    req: &EngineRequest,
) {
    if !R::ENABLED {
        return;
    }
    rec.record(
        TraceEvent::begin(
            delivered_s - latency_s,
            track,
            Lane::Transfer,
            "kv_transfer",
        )
        .with_req(req.id)
        .with_class(req.class),
    );
    rec.record(
        TraceEvent::end(delivered_s, track, Lane::Transfer, "kv_transfer")
            .with_req(req.id)
            .with_class(req.class)
            .with_value(bytes),
    );
}

/// When the request first entered service: its first executed pre-decode
/// stage, or its decode join for stage-less pipelines. `None` for a
/// request that died waiting.
fn service_start_s(tl: &RequestTimeline) -> Option<f64> {
    tl.stages
        .starts()
        .iter()
        .copied()
        .find(|s| s.is_finite())
        .or_else(|| tl.decode_join_s.is_finite().then_some(tl.decode_join_s))
}

/// Records the per-request lifecycle spans of `timelines` onto `track`:
/// a `queue` span from arrival to first service, one `stage N` span per
/// executed pre-decode stage, a `decode` residency span, and a
/// `first_token` instant. Unfinished phases (a request that died mid-run)
/// emit nothing, so every recorded begin has a matching end.
pub(crate) fn record_request_spans<R: Recorder>(
    rec: &mut R,
    track: u32,
    timelines: &[RequestTimeline],
) {
    if !R::ENABLED {
        return;
    }
    // "stage 0", "stage 1", ...: named once per call, not once per span.
    let mut stage_names: Vec<String> = Vec::new();
    for tl in timelines {
        if let Some(start) = service_start_s(tl) {
            rec.record(
                TraceEvent::begin(tl.arrival_s, track, Lane::Request, "queue")
                    .with_req(tl.id)
                    .with_class(tl.class),
            );
            rec.record(
                TraceEvent::end(start, track, Lane::Request, "queue")
                    .with_req(tl.id)
                    .with_class(tl.class),
            );
        }
        for (i, (&s, &e)) in tl.stages.starts().iter().zip(tl.stages.ends()).enumerate() {
            if s.is_finite() && e.is_finite() && e >= s {
                while stage_names.len() <= i {
                    stage_names.push(format!("stage {}", stage_names.len()));
                }
                let name = stage_names[i].as_str();
                rec.record(
                    TraceEvent::begin(s, track, Lane::Request, name)
                        .with_req(tl.id)
                        .with_class(tl.class),
                );
                rec.record(
                    TraceEvent::end(e, track, Lane::Request, name)
                        .with_req(tl.id)
                        .with_class(tl.class),
                );
            }
        }
        if tl.decode_join_s.is_finite() && tl.completion_s.is_finite() {
            rec.record(
                TraceEvent::begin(tl.decode_join_s, track, Lane::Request, "decode")
                    .with_req(tl.id)
                    .with_class(tl.class),
            );
            rec.record(
                TraceEvent::end(tl.completion_s, track, Lane::Request, "decode")
                    .with_req(tl.id)
                    .with_class(tl.class)
                    .with_value(f64::from(tl.decode_tokens)),
            );
        }
        if tl.first_token_s.is_finite() {
            rec.record(
                TraceEvent::instant(tl.first_token_s, track, Lane::Request, "first_token")
                    .with_req(tl.id)
                    .with_class(tl.class),
            );
        }
    }
}

/// Records one instant per cache probe (`cache.prefix.hit`,
/// `cache.retrieval.miss`, ...) onto `track`, with prefix hit-tokens as
/// the value.
pub(crate) fn record_cache_probes<R: Recorder>(rec: &mut R, track: u32, probes: &[CacheProbe]) {
    if !R::ENABLED {
        return;
    }
    for p in probes {
        let name = match (p.prefix, p.hit) {
            (true, true) => "cache.prefix.hit",
            (true, false) => "cache.prefix.miss",
            (false, true) => "cache.retrieval.hit",
            (false, false) => "cache.retrieval.miss",
        };
        let mut ev = TraceEvent::instant(p.time_s, track, Lane::Request, name)
            .with_req(p.id)
            .with_class(p.class);
        if p.prefix {
            ev = ev.with_value(f64::from(p.hit_tokens));
        }
        rec.record(ev);
    }
}

/// Samples `queue_depth` (arrived but not yet in service) and
/// `decode_fill` (resident in the decode batch) gauges from `timelines`
/// every `cadence_s` simulated seconds over `[0, end_s]`, onto `track`.
/// No-op when the cadence is zero or negative.
pub(crate) fn record_load_gauges<R: Recorder>(
    rec: &mut R,
    track: u32,
    timelines: &[RequestTimeline],
    cadence_s: f64,
    end_s: f64,
) {
    if !R::ENABLED || cadence_s <= 0.0 || !end_s.is_finite() {
        return;
    }
    let mut queue: Vec<(f64, i64)> = Vec::with_capacity(2 * timelines.len());
    let mut decode: Vec<(f64, i64)> = Vec::with_capacity(2 * timelines.len());
    for tl in timelines {
        if let Some(start) = service_start_s(tl) {
            queue.push((tl.arrival_s, 1));
            queue.push((start, -1));
        }
        if tl.decode_join_s.is_finite() && tl.completion_s.is_finite() {
            decode.push((tl.decode_join_s, 1));
            decode.push((tl.completion_s, -1));
        }
    }
    let queue = step_samples(queue, cadence_s, end_s);
    let decode = step_samples(decode, cadence_s, end_s);
    for ((t, queued), (_, decoding)) in queue.zip(decode) {
        rec.record(TraceEvent::counter(
            t,
            track,
            Lane::Gauge,
            "queue_depth",
            queued,
        ));
        rec.record(TraceEvent::counter(
            t,
            track,
            Lane::Gauge,
            "decode_fill",
            decoding,
        ));
    }
}

/// Records one decision instant per scaling action: `autoscale.scale_out`
/// or `autoscale.scale_in` on the affected replica's track, with the
/// observed mean queue depth (the queue trigger's input) as the value and
/// the full post-action fleet shape in the detail.
pub(crate) fn record_scaling_events<R: Recorder>(
    rec: &mut R,
    events: &[crate::autoscaler::ScalingEvent],
) {
    if !R::ENABLED {
        return;
    }
    for ev in events {
        let name = match ev.action {
            crate::autoscaler::ScalingAction::ScaleOut => "autoscale.scale_out",
            crate::autoscaler::ScalingAction::ScaleIn => "autoscale.scale_in",
        };
        rec.record(
            TraceEvent::instant(ev.time_s, ev.replica as u32, Lane::Decision, name)
                .with_value(ev.mean_queue_depth)
                .with_detail(format!(
                    "provisioned_after={} routable_after={} mean_outstanding={:.3}",
                    ev.provisioned_after, ev.routable_after, ev.mean_outstanding,
                )),
        );
    }
}

/// Records replica lifecycle instants from the provisioning ledger:
/// `replica.provisioned`, `replica.routable`, and (when it happened)
/// `replica.decommissioned`, each on the replica's own track.
pub(crate) fn record_replica_lifetimes<R: Recorder>(
    rec: &mut R,
    lifetimes: &[crate::autoscaler::ReplicaLifetime],
) {
    if !R::ENABLED {
        return;
    }
    for lt in lifetimes {
        let track = lt.replica as u32;
        rec.record(TraceEvent::instant(
            lt.provisioned_s,
            track,
            Lane::Decision,
            "replica.provisioned",
        ));
        rec.record(TraceEvent::instant(
            lt.routable_s,
            track,
            Lane::Decision,
            "replica.routable",
        ));
        if let Some(d) = lt.decommissioned_s {
            rec.record(TraceEvent::instant(
                d,
                track,
                Lane::Decision,
                "replica.decommissioned",
            ));
        }
    }
}

/// Records one decision instant per admission shed: `admission.shed` on
/// the fleet track, with the mean queue depth that triggered the shed as
/// the value and the request's priority in the detail.
pub(crate) fn record_shed_events<R: Recorder>(rec: &mut R, shed_log: &[crate::faults::ShedEvent]) {
    if !R::ENABLED {
        return;
    }
    for ev in shed_log {
        rec.record(
            TraceEvent::instant(
                ev.time_s,
                rago_telemetry::FLEET_TRACK,
                Lane::Decision,
                "admission.shed",
            )
            .with_req(ev.id)
            .with_class(ev.class)
            .with_value(ev.mean_queue_depth)
            .with_detail(format!("priority={}", ev.priority)),
        );
    }
}

/// Records one decision instant per capacity disruption (`fault.crash`,
/// `fault.preemption`) on the struck replica's track.
pub(crate) fn record_disruptions<R: Recorder>(
    rec: &mut R,
    disruptions: &[crate::faults::Disruption],
) {
    if !R::ENABLED {
        return;
    }
    for d in disruptions {
        let name = match d.kind {
            crate::faults::FaultKind::Crash => "fault.crash",
            crate::faults::FaultKind::Preemption => "fault.preemption",
        };
        rec.record(TraceEvent::instant(
            d.time_s,
            d.replica as u32,
            Lane::Decision,
            name,
        ));
    }
}

/// Samples a fleet-track `routable_replicas` gauge from the provisioning
/// ledger every `cadence_s` simulated seconds over `[0, end_s]`.
pub(crate) fn record_routable_gauge<R: Recorder>(
    rec: &mut R,
    lifetimes: &[crate::autoscaler::ReplicaLifetime],
    cadence_s: f64,
    end_s: f64,
) {
    if !R::ENABLED || cadence_s <= 0.0 || !end_s.is_finite() {
        return;
    }
    let mut deltas: Vec<(f64, i64)> = Vec::with_capacity(2 * lifetimes.len());
    for lt in lifetimes {
        deltas.push((lt.routable_s, 1));
        if let Some(d) = lt.decommissioned_s {
            deltas.push((d, -1));
        }
    }
    for (t, routable) in step_samples(deltas, cadence_s, end_s) {
        rec.record(TraceEvent::counter(
            t,
            rago_telemetry::FLEET_TRACK,
            Lane::Gauge,
            "routable_replicas",
            routable,
        ));
    }
}

/// Samples a step function at every `k * cadence_s` over `[0, end_s]`,
/// yielding `(t, level)`. `deltas` are `(time, +1)` when something enters
/// the state and `(time, -1)` when it leaves; a change at exactly `t`
/// counts.
fn step_samples(
    mut deltas: Vec<(f64, i64)>,
    cadence_s: f64,
    end_s: f64,
) -> impl Iterator<Item = (f64, f64)> {
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let samples = (end_s / cadence_s).floor() as u64;
    let (mut i, mut level) = (0usize, 0i64);
    (0..=samples).map(move |k| {
        let t = k as f64 * cadence_s;
        while i < deltas.len() && deltas[i].0 <= t {
            level += deltas[i].1;
            i += 1;
        }
        (t, level as f64)
    })
}

/// Folds one event queue's counters (plus the DES event total) into a
/// [`SimProfile`].
pub(crate) fn profile_from_stats(
    stats: &EventQueueStats,
    events: u64,
    sim_time_s: f64,
) -> SimProfile {
    SimProfile {
        sim_time_s,
        events,
        fault_pops: stats.fault_pops,
        arrival_pops: stats.arrival_pops,
        scheduled_pops: stats.scheduled_pops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageTimes;
    use rago_telemetry::{Phase, TelemetryConfig, TraceRecorder};

    fn finished(id: u64) -> RequestTimeline {
        RequestTimeline {
            id,
            arrival_s: 0.0,
            stages: StageTimes::new(&[1.0], &[2.0]),
            class: 3,
            decode_join_s: 2.0,
            first_token_s: 2.0,
            completion_s: 5.0,
            queueing_s: 1.0,
            decode_tokens: 16,
        }
    }

    fn dead_in_queue(id: u64) -> RequestTimeline {
        RequestTimeline {
            id,
            arrival_s: 0.5,
            stages: StageTimes::new(&[f64::NEG_INFINITY], &[f64::NEG_INFINITY]),
            class: 0,
            decode_join_s: f64::NEG_INFINITY,
            first_token_s: f64::NEG_INFINITY,
            completion_s: f64::NEG_INFINITY,
            queueing_s: 0.0,
            decode_tokens: 8,
        }
    }

    #[test]
    fn spans_balance_even_for_dead_requests() {
        let mut rec = TraceRecorder::new(TelemetryConfig::full(0.0));
        record_request_spans(&mut rec, 0, &[finished(1), dead_in_queue(2)]);
        let begins = rec
            .events()
            .iter()
            .filter(|e| e.phase == Phase::Begin)
            .count();
        let ends = rec
            .events()
            .iter()
            .filter(|e| e.phase == Phase::End)
            .count();
        assert_eq!(begins, ends);
        assert_eq!(
            begins, 3,
            "queue + stage 0 + decode for the finished request"
        );
        assert!(rec.events().iter().all(|e| e.req != Some(2)));
    }

    #[test]
    fn gauges_track_queue_and_decode_levels() {
        let mut rec = TraceRecorder::new(TelemetryConfig::full(1.0));
        record_load_gauges(&mut rec, 0, &[finished(1)], 1.0, 6.0);
        let at = |t: f64, name: &str| {
            rec.events()
                .iter()
                .find(|e| e.time_s == t && e.name == name)
                .and_then(|e| e.value)
                .expect("gauge sample present")
        };
        assert_eq!(at(0.0, "queue_depth"), 1.0);
        assert_eq!(at(1.0, "queue_depth"), 0.0);
        assert_eq!(at(2.0, "decode_fill"), 1.0);
        assert_eq!(at(5.0, "decode_fill"), 0.0);
        assert_eq!(rec.events().len(), 2 * 7);
    }
}
