//! Trace exporters: Chrome-trace/Perfetto JSON and JSONL.
//!
//! Both exporters borrow the events in the canonical `(time_s, seq)`
//! order (sorting references only when the input is out of order, never
//! cloning an event) and render every field straight into one output
//! buffer: escaped strings, integers, and fixed 3- and 9-decimal floats
//! with the exact text of `{:.3}`/`{:.9}`, so a seeded run exports
//! byte-identical text on every platform and worker count. All JSON is
//! rendered by hand (the workspace `serde` is a no-op shim);
//! `crate::json::validate_json` proves it parses.

use crate::event::{canonical_order, Lane, Phase, TraceEvent, FLEET_TRACK};
use crate::json::{push_escaped, push_fixed, push_u64};
use std::collections::BTreeSet;

/// Appends the optional `req`, `class`, `value` and `detail` members that
/// `ev` carries, writing `sep` before the first and `,` between the rest.
fn push_optional_fields(out: &mut String, ev: &TraceEvent, mut sep: &'static str) {
    if let Some(req) = ev.req {
        out.push_str(sep);
        out.push_str("\"req\":");
        push_u64(out, req);
        sep = ",";
    }
    if let Some(class) = ev.class {
        out.push_str(sep);
        out.push_str("\"class\":");
        push_u64(out, u64::from(class));
        sep = ",";
    }
    if let Some(value) = ev.value {
        out.push_str(sep);
        out.push_str("\"value\":");
        push_fixed(out, value, 9);
        sep = ",";
    }
    if !ev.detail.is_empty() {
        out.push_str(sep);
        out.push_str("\"detail\":\"");
        push_escaped(out, &ev.detail);
        out.push('"');
    }
}

/// Appends one Chrome-trace metadata event naming `pid` (and `tid`) as
/// `label`.
fn push_metadata(out: &mut String, kind: &str, pid: u32, tid: u32, label: &str) {
    out.push_str("{\"name\":\"");
    out.push_str(kind);
    out.push_str("\",\"ph\":\"M\",\"pid\":");
    push_u64(out, u64::from(pid));
    out.push_str(",\"tid\":");
    push_u64(out, u64::from(tid));
    out.push_str(",\"args\":{\"name\":\"");
    out.push_str(label);
    out.push_str("\"}}");
}

/// Renders events as a Chrome-trace / Perfetto-loadable JSON document
/// (`{"displayTimeUnit":"ms","traceEvents":[...]}`): spans as `B`/`E`
/// pairs, instants as `i`, counters as `C`, plus `M` metadata naming each
/// track and lane. Load it at <https://ui.perfetto.dev> or
/// `chrome://tracing`.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let sorted = canonical_order(events);

    let mut out = String::with_capacity(128 + 160 * sorted.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut sep = "\n";

    // Metadata: name every (track, lane) pair present so Perfetto shows
    // "replica 0 / request" instead of raw pid/tid integers.
    let mut pairs: BTreeSet<(u32, Lane)> = BTreeSet::new();
    for ev in &sorted {
        pairs.insert((ev.track, ev.lane));
    }
    let tracks: BTreeSet<u32> = pairs.iter().map(|&(t, _)| t).collect();
    let mut label = String::new();
    for &track in &tracks {
        label.clear();
        if track == FLEET_TRACK {
            label.push_str("fleet");
        } else {
            label.push_str("replica ");
            push_u64(&mut label, u64::from(track));
        }
        out.push_str(sep);
        sep = ",\n";
        push_metadata(&mut out, "process_name", track, 0, &label);
    }
    for &(track, lane) in &pairs {
        out.push_str(sep);
        push_metadata(&mut out, "thread_name", track, lane.id(), lane.name());
        sep = ",\n";
    }

    for ev in sorted {
        // Request-scoped spans become *async* events (`b`/`e` keyed by the
        // request id): unlike synchronous `B`/`E` pairs they need no stack
        // discipline per thread, so overlapping per-request spans render
        // correctly in Perfetto.
        let ph = match (ev.phase, ev.req) {
            (Phase::Begin, Some(_)) => "b",
            (Phase::End, Some(_)) => "e",
            (phase, _) => phase.letter(),
        };
        out.push_str(sep);
        sep = ",\n";
        out.push_str("{\"name\":\"");
        push_escaped(&mut out, &ev.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(ev.lane.name());
        out.push_str("\",\"ph\":\"");
        out.push_str(ph);
        out.push_str("\",\"ts\":");
        // Chrome-trace `ts` is in microseconds.
        push_fixed(&mut out, ev.time_s * 1e6, 3);
        out.push_str(",\"pid\":");
        push_u64(&mut out, u64::from(ev.track));
        out.push_str(",\"tid\":");
        push_u64(&mut out, u64::from(ev.lane.id()));
        if let (Phase::Begin | Phase::End, Some(req)) = (ev.phase, ev.req) {
            out.push_str(",\"id\":");
            push_u64(&mut out, req);
        }
        if ev.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if ev.req.is_some() || ev.class.is_some() || ev.value.is_some() || !ev.detail.is_empty() {
            out.push_str(",\"args\":{");
            push_optional_fields(&mut out, ev, "");
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Renders events as newline-delimited JSON, one event per line, in
/// canonical `(time_s, seq)` order. Optional fields (`req`, `class`,
/// `value`, `detail`) are omitted when absent.
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let sorted = canonical_order(events);

    let mut out = String::with_capacity(136 * sorted.len());
    for ev in sorted {
        out.push_str("{\"t\":");
        push_fixed(&mut out, ev.time_s, 9);
        out.push_str(",\"seq\":");
        push_u64(&mut out, ev.seq);
        out.push_str(",\"track\":");
        push_u64(&mut out, u64::from(ev.track));
        out.push_str(",\"lane\":\"");
        out.push_str(ev.lane.name());
        out.push_str("\",\"phase\":\"");
        out.push_str(ev.phase.name());
        out.push_str("\",\"name\":\"");
        push_escaped(&mut out, &ev.name);
        out.push('"');
        push_optional_fields(&mut out, ev, ",");
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{validate_json, validate_jsonl};

    fn sample() -> Vec<TraceEvent> {
        let mut evs = vec![
            TraceEvent::begin(0.5, 0, Lane::Request, "queue")
                .with_req(1)
                .with_class(0),
            TraceEvent::end(1.0, 0, Lane::Request, "queue")
                .with_req(1)
                .with_class(0),
            TraceEvent::instant(0.75, 1, Lane::Decision, "route")
                .with_req(1)
                .with_detail("policy=LeastOutstanding -> r1 \"quoted\""),
            TraceEvent::counter(1.0, 1, Lane::Gauge, "queue_depth", 3.0),
        ];
        for (i, ev) in evs.iter_mut().enumerate() {
            ev.seq = i as u64;
        }
        evs
    }

    #[test]
    fn chrome_trace_parses_and_is_sorted() {
        let text = export_chrome_trace(&sample());
        validate_json(&text).expect("chrome trace must parse");
        // Request-scoped spans export as async `b`/`e` keyed by the id.
        let b = text.find("\"ph\":\"b\"").unwrap();
        let i = text.find("\"ph\":\"i\"").unwrap();
        let e = text.find("\"ph\":\"e\"").unwrap();
        assert!(b < i && i < e, "events must be time-ordered");
        assert!(
            text.contains("\"id\":1"),
            "async spans carry the request id"
        );
    }

    #[test]
    fn jsonl_parses_line_by_line() {
        let text = export_jsonl(&sample());
        validate_jsonl(&text).expect("jsonl must parse");
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().next().unwrap().contains("\"name\":\"queue\""));
    }

    #[test]
    fn export_is_deterministic_under_input_order() {
        let evs = sample();
        let mut reversed = evs.clone();
        reversed.reverse();
        assert_eq!(export_chrome_trace(&evs), export_chrome_trace(&reversed));
        assert_eq!(export_jsonl(&evs), export_jsonl(&reversed));
    }
}
