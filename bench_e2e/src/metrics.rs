//! The metric catalogue: the names, units, directions and bounds
//! `BENCHMARK.json` declares (a unit test holds the two together), and the
//! per-layer metrics derived from a traced rep's spans and counters.

use crate::spans::{coverage, LayerTime, JOURNEY};
use crate::stats::Better::{self, Higher, Lower};
use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it regresses (`None` for per-layer metrics).
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of untraced runs, with their regression bounds.
pub const END_TO_END: [Metric; 3] = [
    gated(JOURNEY_S, "s", 0.25),
    gated(SETUP_S, "s", 0.25),
    gated(PEAK_RSS_MB, "MiB", 0.15),
];

/// Metrics of the traced rep, without bounds.
pub const PER_LAYER: [Metric; 51] = [
    layer("search.share", "ratio", Lower),
    layer("search.case1.share", "ratio", Lower),
    layer("search.case2.share", "ratio", Lower),
    layer("search.case3.share", "ratio", Lower),
    layer("search.case4.share", "ratio", Lower),
    layer("search.candidates", "count", Lower),
    layer("search.frontier_points", "count", Higher),
    layer("search.candidates_per_s", "1/s", Higher),
    layer("profiler.memo_hits", "count", Higher),
    layer("profiler.memo_misses", "count", Lower),
    layer("profiler.hit_rate", "ratio", Higher),
    layer("tracegen.share", "ratio", Lower),
    layer("tracegen.requests", "count", Higher),
    layer("tracegen.bytes", "bytes", Lower),
    layer("rank.share", "ratio", Lower),
    layer("rank.evaluations", "count", Lower),
    layer("rank.des_events", "count", Lower),
    layer("capacity.share", "ratio", Lower),
    layer("capacity.plans", "count", Higher),
    layer("capacity.replicas_planned", "count", Lower),
    layer("pools.plan.share", "ratio", Lower),
    layer("pools.rank.share", "ratio", Lower),
    layer("pools.eval.share", "ratio", Lower),
    layer("pools.candidates", "count", Lower),
    layer("pools.transfers", "count", Lower),
    layer("des.share", "ratio", Lower),
    layer("des.events", "count", Lower),
    layer("des.events_per_s", "1/s", Higher),
    layer("equeue.calendar_rebuilds", "count", Lower),
    layer("equeue.fallback_scans", "count", Lower),
    layer("cluster.imbalance_max_over_mean", "ratio", Lower),
    layer("sink.retained_bytes", "bytes", Lower),
    layer("chaos.share", "ratio", Lower),
    layer("chaos.events", "count", Lower),
    layer("chaos.shed", "count", Lower),
    layer("chaos.retried", "count", Lower),
    layer("chaos.failed", "count", Lower),
    layer("chaos.scale_events", "count", Lower),
    layer("cache.share", "ratio", Lower),
    layer("cache.prefix_hit_rate", "ratio", Higher),
    layer("cache.retrieval_hit_rate", "ratio", Higher),
    layer("cache.prefix_probes", "count", Lower),
    layer("telemetry.untraced.share", "ratio", Lower),
    layer("telemetry.record.share", "ratio", Lower),
    layer("telemetry.export.share", "ratio", Lower),
    layer("telemetry.summary.share", "ratio", Lower),
    layer("telemetry.record_overhead_frac", "ratio", Lower),
    layer("telemetry.events", "count", Lower),
    layer("telemetry.export_bytes", "bytes", Lower),
    layer("bench.span_coverage", "ratio", Higher),
    layer(TRACE_OVERHEAD, "ratio", Lower),
];

/// End-to-end metric names, as reported by every untraced run.
pub const JOURNEY_S: &str = "journey_s";
/// Set-up time metric name.
pub const SETUP_S: &str = "setup_s";
/// Peak memory metric name.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Traced journey ÷ untraced median − 1; the runner adds it because only
/// it knows the untraced median.
pub const TRACE_OVERHEAD: &str = "bench.trace_overhead_frac";

/// Layers whose wall time is reported as `<layer>.share` of the traced
/// journey. Every workload reports every layer; a layer off a workload's
/// path reads 0.
const SHARE_LAYERS: [&str; 18] = [
    "search",
    "search.case1",
    "search.case2",
    "search.case3",
    "search.case4",
    "tracegen",
    "rank",
    "capacity",
    "pools.plan",
    "pools.rank",
    "pools.eval",
    "des",
    "chaos",
    "cache",
    "telemetry.untraced",
    "telemetry.record",
    "telemetry.export",
    "telemetry.summary",
];

/// Spans whose discrete-event runs `des.events` counts; their summed wall
/// time is the denominator of `des.events_per_s`.
const DES_SPANS: [&str; 8] = [
    "rank",
    "pools.rank",
    "pools.eval",
    "des",
    "chaos",
    "cache",
    "telemetry.untraced",
    "telemetry.record",
];

/// Work counters reported as summed.
const COUNTERS: [&str; 25] = [
    "search.candidates",
    "search.frontier_points",
    "profiler.memo_hits",
    "profiler.memo_misses",
    "tracegen.requests",
    "tracegen.bytes",
    "rank.evaluations",
    "rank.des_events",
    "capacity.plans",
    "capacity.replicas_planned",
    "pools.candidates",
    "pools.transfers",
    "des.events",
    "equeue.calendar_rebuilds",
    "equeue.fallback_scans",
    "cluster.imbalance_max_over_mean",
    "sink.retained_bytes",
    "chaos.events",
    "chaos.shed",
    "chaos.retried",
    "chaos.failed",
    "chaos.scale_events",
    "cache.prefix_probes",
    "telemetry.events",
    "telemetry.export_bytes",
];

/// `a / b`, or 0 when `b` is not positive (a layer off the workload's
/// path).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric except [`TRACE_OVERHEAD`], from a traced rep's
/// counters and span times.
pub fn layer_metrics(
    counts: &BTreeMap<String, f64>,
    layers: &[LayerTime],
) -> BTreeMap<String, f64> {
    let wall = |name: &str| {
        layers
            .iter()
            .find(|l| l.name == name)
            .map_or(0.0, |l| l.wall_s)
    };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let journey = wall(JOURNEY);
    let mut m = BTreeMap::new();
    for layer in SHARE_LAYERS {
        m.insert(format!("{layer}.share"), ratio(wall(layer), journey));
    }
    for name in COUNTERS {
        m.insert(name.to_string(), count(name));
    }
    let des_wall: f64 = DES_SPANS.iter().map(|s| wall(s)).sum();
    let untraced = wall("telemetry.untraced");
    let derived = [
        ("bench.span_coverage", coverage(layers)),
        (
            "search.candidates_per_s",
            ratio(count("search.candidates"), wall("search")),
        ),
        (
            "profiler.hit_rate",
            ratio(
                count("profiler.memo_hits"),
                count("profiler.memo_hits") + count("profiler.memo_misses"),
            ),
        ),
        ("des.events_per_s", ratio(count("des.events"), des_wall)),
        (
            "cache.prefix_hit_rate",
            ratio(count("cache.prefix_hits"), count("cache.prefix_probes")),
        ),
        (
            "cache.retrieval_hit_rate",
            ratio(
                count("cache.retrieval_hits"),
                count("cache.retrieval_probes"),
            ),
        ),
        (
            "telemetry.record_overhead_frac",
            if untraced > 0.0 {
                wall("telemetry.record") / untraced - 1.0
            } else {
                0.0
            },
        ),
    ];
    for (name, v) in derived {
        m.insert(name.to_string(), v);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark declaration at the root of the repository.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// Whether `name` is a valid metric name: 1 to 64 characters from
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok_char)
    }

    /// Whether `unit` is a valid unit: 1 to 16 characters from
    /// `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        let ok_char =
            |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
    }

    #[test]
    fn name_grammar() {
        for ok in ["journey_s", "search.case3.share", "a-b.c_d", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/name",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn catalogue_is_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "{}: bad unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some()));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` parses and declares exactly this binary's workloads
    /// and metrics, entry for entry.
    #[test]
    fn benchmark_json_declares_this_catalogue() {
        crate::api::validate_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let declares = |entry: String| {
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        };
        for w in crate::journeys::Workload::ALL {
            declares(format!("{{\"name\": \"{}\", \"why\": ", w.name()));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b:?}"));
            declares(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name,
                m.unit,
                m.better.label()
            ));
        }
        assert_eq!(
            BENCHMARK_JSON.matches("{\"name\": ").count(),
            crate::journeys::Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares entries this binary does not"
        );
    }

    #[test]
    fn layer_metrics_are_exactly_the_declared_per_layer_metrics() {
        let mut emitted: Vec<String> = layer_metrics(&BTreeMap::new(), &[]).into_keys().collect();
        emitted.push(TRACE_OVERHEAD.to_string());
        emitted.sort();
        let mut declared: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        declared.sort();
        assert_eq!(emitted, declared);
    }

    #[test]
    fn derived_ratios_guard_empty_layers() {
        let layers = vec![
            LayerTime {
                name: JOURNEY.into(),
                depth: 0,
                wall_s: 2.0,
                self_s: 0.0,
            },
            LayerTime {
                name: "des".into(),
                depth: 1,
                wall_s: 1.0,
                self_s: 1.0,
            },
            LayerTime {
                name: "tracegen".into(),
                depth: 1,
                wall_s: 1.0,
                self_s: 1.0,
            },
        ];
        let counts = BTreeMap::from([("des.events".to_string(), 500.0)]);
        let m = layer_metrics(&counts, &layers);
        assert_eq!(m["des.share"], 0.5);
        assert_eq!(m["des.events_per_s"], 500.0);
        assert_eq!(m["bench.span_coverage"], 1.0);
        assert_eq!(m["search.candidates_per_s"], 0.0);
        assert_eq!(m["telemetry.record_overhead_frac"], 0.0);
        assert!(m.values().all(|v| v.is_finite()));
    }
}
