//! The exporters and the summary against a reference implementation.
//!
//! The reference below is the straightforward rendering: clone the
//! events, stable-sort the copy with `sort_events`, and build every field
//! with `format!`; the summary keys open spans by an owned name in a
//! `BTreeMap`. `export_chrome_trace`, `export_jsonl` and
//! `TelemetryReport::from_events` borrow the events and write into one
//! buffer instead, and must match the reference byte for byte (field for
//! field for the summary) on unsorted input with duplicate `(time_s, seq)`
//! keys, on names and details that need escaping, on `FLEET_TRACK`, and
//! on nested same-key spans with an unmatched `End`.

use rago_telemetry::{
    export_chrome_trace, export_jsonl, sort_events, validate_json, validate_jsonl, ClassQueueing,
    Lane, Phase, StateTime, TelemetryReport, TraceEvent, FLEET_TRACK,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

mod reference {
    use super::*;

    pub fn escape_json(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn ts_us(time_s: f64) -> String {
        format!("{:.3}", time_s * 1e6)
    }

    fn f9(v: f64) -> String {
        format!("{v:.9}")
    }

    fn track_label(track: u32) -> String {
        if track == FLEET_TRACK {
            "fleet".to_string()
        } else {
            format!("replica {track}")
        }
    }

    pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
        let mut sorted = events.to_vec();
        sort_events(&mut sorted);

        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&line);
        };

        let mut pairs: BTreeSet<(u32, Lane)> = BTreeSet::new();
        for ev in &sorted {
            pairs.insert((ev.track, ev.lane));
        }
        let tracks: BTreeSet<u32> = pairs.iter().map(|&(t, _)| t).collect();
        for &track in &tracks {
            emit(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{track},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape_json(&track_label(track))
                ),
                &mut out,
            );
        }
        for &(track, lane) in &pairs {
            emit(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{track},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    lane.name(),
                    tid = lane.id()
                ),
                &mut out,
            );
        }

        for ev in &sorted {
            let mut args = String::new();
            if let Some(req) = ev.req {
                let _ = write!(args, "\"req\":{req}");
            }
            if let Some(class) = ev.class {
                if !args.is_empty() {
                    args.push(',');
                }
                let _ = write!(args, "\"class\":{class}");
            }
            if let Some(value) = ev.value {
                if !args.is_empty() {
                    args.push(',');
                }
                let _ = write!(args, "\"value\":{}", f9(value));
            }
            if !ev.detail.is_empty() {
                if !args.is_empty() {
                    args.push(',');
                }
                let _ = write!(args, "\"detail\":\"{}\"", escape_json(&ev.detail));
            }
            let ph = match (ev.phase, ev.req) {
                (Phase::Begin, Some(_)) => "b",
                (Phase::End, Some(_)) => "e",
                (phase, _) => phase.letter(),
            };
            let mut line = format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts},\
                 \"pid\":{pid},\"tid\":{tid}",
                name = escape_json(&ev.name),
                cat = ev.lane.name(),
                ts = ts_us(ev.time_s),
                pid = ev.track,
                tid = ev.lane.id(),
            );
            if let (Phase::Begin | Phase::End, Some(req)) = (ev.phase, ev.req) {
                let _ = write!(line, ",\"id\":{req}");
            }
            if ev.phase == Phase::Instant {
                line.push_str(",\"s\":\"t\"");
            }
            if !args.is_empty() {
                let _ = write!(line, ",\"args\":{{{args}}}");
            }
            line.push('}');
            emit(line, &mut out);
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn export_jsonl(events: &[TraceEvent]) -> String {
        let mut sorted = events.to_vec();
        sort_events(&mut sorted);

        let mut out = String::new();
        for ev in &sorted {
            let _ = write!(
                out,
                "{{\"t\":{t},\"seq\":{seq},\"track\":{track},\"lane\":\"{lane}\",\
                 \"phase\":\"{phase}\",\"name\":\"{name}\"",
                t = f9(ev.time_s),
                seq = ev.seq,
                track = ev.track,
                lane = ev.lane.name(),
                phase = ev.phase.name(),
                name = escape_json(&ev.name),
            );
            if let Some(req) = ev.req {
                let _ = write!(out, ",\"req\":{req}");
            }
            if let Some(class) = ev.class {
                let _ = write!(out, ",\"class\":{class}");
            }
            if let Some(value) = ev.value {
                let _ = write!(out, ",\"value\":{}", f9(value));
            }
            if !ev.detail.is_empty() {
                let _ = write!(out, ",\"detail\":\"{}\"", escape_json(&ev.detail));
            }
            out.push_str("}\n");
        }
        out
    }

    pub fn from_events(events: &[TraceEvent]) -> TelemetryReport {
        let mut sorted = events.to_vec();
        sort_events(&mut sorted);

        let mut report = TelemetryReport::default();
        let mut states: BTreeMap<String, StateTime> = BTreeMap::new();
        let mut classes: BTreeMap<u32, ClassQueueing> = BTreeMap::new();
        let mut open: BTreeMap<(u32, u32, String, Option<u64>), Vec<&TraceEvent>> = BTreeMap::new();

        for ev in &sorted {
            if ev.lane == Lane::Decision {
                report.decisions += 1;
            }
            match ev.phase {
                Phase::Begin => {
                    open.entry((ev.track, ev.lane.id(), ev.name.clone(), ev.req))
                        .or_default()
                        .push(ev);
                }
                Phase::End => {
                    let key = (ev.track, ev.lane.id(), ev.name.clone(), ev.req);
                    if let Some(begin) = open.get_mut(&key).and_then(Vec::pop) {
                        report.spans += 1;
                        let dur = (ev.time_s - begin.time_s).max(0.0);
                        let state = states.entry(ev.name.clone()).or_insert_with(|| StateTime {
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
}

/// Asserts that every output matches the reference on `events`.
fn assert_matches_reference(events: &[TraceEvent]) {
    let chrome = export_chrome_trace(events);
    assert_eq!(chrome, reference::export_chrome_trace(events));
    validate_json(&chrome).expect("chrome trace must parse");
    let jsonl = export_jsonl(events);
    assert_eq!(jsonl, reference::export_jsonl(events));
    validate_jsonl(&jsonl).expect("jsonl must parse");
    let report = TelemetryReport::from_events(events);
    let expected = reference::from_events(events);
    assert_eq!(report.open_spans, expected.open_spans);
    assert_eq!(report, expected);
}

/// A deterministic 64-bit generator (splitmix64).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Names and details that need every kind of escape, plus plain and
/// non-ASCII text.
const AWKWARD: [&str; 9] = [
    "queue",
    "stage 0",
    "say \"hi\"",
    "back\\slash",
    "line\nbreak\r\ttab",
    "bell\u{7}nul\u{0}unit\u{1f}",
    "naïve ✓ \u{7f}",
    "\"\\\u{1}",
    "",
];

/// A seeded stream in no particular order: every lane and phase, replica
/// and fleet tracks, repeated timestamps and repeated `seq` values,
/// escaped names and details, and spans that nest or never close.
fn random_events(seed: u64, n: usize) -> Vec<TraceEvent> {
    let mut mix = Mix(seed);
    let lanes = [
        Lane::Request,
        Lane::Gauge,
        Lane::Decision,
        Lane::Transfer,
        Lane::Profile,
    ];
    (0..n)
        .map(|_| {
            // Few distinct times and seqs, so `(time_s, seq)` keys repeat.
            let time_s = mix.below(40) as f64 * 0.125 + mix.below(3) as f64 * 1e-7;
            let track = if mix.below(5) == 0 {
                FLEET_TRACK
            } else {
                mix.below(3) as u32
            };
            let lane = lanes[mix.below(5) as usize];
            let name = AWKWARD[mix.below(AWKWARD.len() as u64) as usize];
            let mut ev = match mix.below(4) {
                0 => TraceEvent::begin(time_s, track, lane, name),
                1 => TraceEvent::end(time_s, track, lane, name),
                2 => TraceEvent::instant(time_s, track, lane, name),
                _ => TraceEvent::counter(time_s, track, lane, name, mix.below(1000) as f64 / 7.0),
            };
            if mix.below(2) == 0 {
                ev = ev.with_req(mix.below(4));
            }
            if mix.below(2) == 0 {
                ev = ev.with_class(mix.below(3) as u32);
            }
            if mix.below(4) == 0 {
                let value = match mix.below(3) {
                    0 => f64::from_bits(mix.next()),
                    1 => mix.below(1 << 40) as f64 * 1e-6,
                    _ => mix.below(1000) as f64 / 64.0,
                };
                // Any finite value, negative and subnormal ones included.
                ev = ev.with_value(if value.is_finite() { value } else { -0.0 });
            }
            if mix.below(3) == 0 {
                ev = ev.with_detail(AWKWARD[mix.below(AWKWARD.len() as u64) as usize]);
            }
            ev.seq = mix.below(8);
            ev
        })
        .collect()
}

#[test]
fn unsorted_streams_with_duplicate_keys_match_the_reference() {
    for seed in 0..40 {
        let events = random_events(seed, 300);
        assert_matches_reference(&events);
        let mut sorted = events.clone();
        sort_events(&mut sorted);
        assert_matches_reference(&sorted);
    }
}

#[test]
fn ties_keep_their_input_order() {
    // Same `(time_s, seq)`, different content: a stable sort keeps the
    // input order, in both orders of the input.
    let mut events = vec![
        TraceEvent::instant(1.0, 0, Lane::Decision, "second").with_detail("b"),
        TraceEvent::instant(0.5, 1, Lane::Decision, "first"),
        TraceEvent::instant(1.0, 0, Lane::Decision, "third").with_detail("c"),
    ];
    assert_matches_reference(&events);
    events.reverse();
    assert_matches_reference(&events);
    let jsonl = export_jsonl(&events);
    let names: Vec<&str> = jsonl
        .lines()
        .map(|l| {
            l.split("\"name\":\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
        })
        .collect();
    assert_eq!(names, ["first", "third", "second"]);
}

#[test]
fn escaped_names_and_details_match_the_reference() {
    let mut events: Vec<TraceEvent> = AWKWARD
        .iter()
        .enumerate()
        .map(|(i, name)| {
            TraceEvent::instant(i as f64, FLEET_TRACK, Lane::Decision, *name)
                .with_detail(AWKWARD[AWKWARD.len() - 1 - i])
        })
        .collect();
    for (i, ev) in events.iter_mut().enumerate() {
        ev.seq = i as u64;
    }
    assert_matches_reference(&events);
    for s in AWKWARD {
        assert_eq!(rago_telemetry::escape_json(s), reference::escape_json(s));
    }
}

#[test]
fn fleet_track_events_match_the_reference() {
    let events = vec![
        TraceEvent::counter(0.25, FLEET_TRACK, Lane::Gauge, "routable", 3.0),
        TraceEvent::instant(0.5, FLEET_TRACK, Lane::Decision, "scale.out")
            .with_value(4.0)
            .with_detail("queue depth 12 > 8"),
        TraceEvent::begin(0.5, FLEET_TRACK, Lane::Transfer, "kv_transfer").with_req(9),
        TraceEvent::end(0.75, FLEET_TRACK, Lane::Transfer, "kv_transfer")
            .with_req(9)
            .with_value(1.5e6),
        TraceEvent::counter(1.0, 2, Lane::Profile, "events_per_s", 123_456.789),
    ];
    assert_matches_reference(&events);
}

#[test]
fn nested_spans_and_an_unmatched_end_match_the_reference() {
    let mut events = vec![
        TraceEvent::begin(0.0, 0, Lane::Request, "queue").with_class(1),
        TraceEvent::begin(1.0, 0, Lane::Request, "queue").with_class(2),
        TraceEvent::end(2.0, 0, Lane::Request, "queue"),
        TraceEvent::end(4.0, 0, Lane::Request, "queue").with_class(1),
        // No begin is open for this key any more.
        TraceEvent::end(5.0, 0, Lane::Request, "queue"),
        // Same name, different request: a key of its own, left open.
        TraceEvent::begin(1.5, 0, Lane::Request, "queue").with_req(7),
        TraceEvent::begin(6.0, 0, Lane::Request, "stage 0").with_req(7),
        TraceEvent::end(6.5, 0, Lane::Request, "stage 0").with_req(7),
        TraceEvent::begin(7.0, 0, Lane::Request, "stage 0").with_req(7),
    ];
    for (i, ev) in events.iter_mut().enumerate() {
        ev.seq = i as u64;
    }
    assert_matches_reference(&events);
    let report = TelemetryReport::from_events(&events);
    assert_eq!((report.spans, report.open_spans), (3, 2));
    // The inner begin (class 2) closes first, LIFO.
    let classes: Vec<(u32, usize)> = report
        .class_queueing
        .iter()
        .map(|cq| (cq.class, cq.requests))
        .collect();
    assert_eq!(classes, [(1, 1), (2, 1)]);
}

#[test]
fn empty_input_matches_the_reference() {
    assert_matches_reference(&[]);
}
