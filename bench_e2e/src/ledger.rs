//! One run's results per workload; the line format they travel in, from a
//! child to the runner and from a run to its ledger file; and the
//! parent-versus-change comparison of two ledgers.
//!
//! Each line is `<key> <fields…>`, separated by single spaces:
//!
//! - `<metric> <value>`: one end-to-end sample (repeated per sample);
//! - `digest <hex>`: a distinct output digest;
//! - `sim <name> <value>`, `layer <name> <value>`: a simulated output or a
//!   per-layer metric;
//! - `span <name> <depth> <wall_s> <self_s>`: one layer of the traced rep;
//! - `trace <path>`, `fail <text>`: the Perfetto trace written, a failure.
//!
//! A ledger is a sequence of workload blocks, each opened by
//! `workload <name> <seed> <attempted> <failed>`.

use crate::metrics::END_TO_END;
use crate::spans::LayerTime;
use crate::stats::{verdict, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything a run, or one child of it, measured on one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// The run's seed.
    pub seed: u64,
    /// Journeys attempted (timed reps plus the traced rep).
    pub attempted: usize,
    /// Journeys that failed: an error, a panic, a non-zero exit, or a failed
    /// post-rep check.
    pub failed: usize,
    /// Why each failure happened, and any failed set-up-only child.
    pub errors: Vec<String>,
    /// Distinct output digests of the successful reps, in order seen.
    pub digests: Vec<String>,
    /// End-to-end samples by metric name, one per successful child.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Simulated outputs of the first successful rep (informational).
    pub sims: Vec<(String, f64)>,
    /// Per-layer metrics of the traced rep.
    pub layers: BTreeMap<String, f64>,
    /// Span times of the traced rep.
    pub spans: Vec<LayerTime>,
    /// Where the traced rep wrote its Perfetto trace.
    pub trace_file: Option<String>,
}

impl WorkloadResult {
    /// Whether every journey succeeded, passed its checks, and produced the
    /// same digest.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.digests.len() == 1
    }

    /// Summary of the end-to-end metric `name`.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples.get(name).and_then(|v| Summary::of(v))
    }

    /// Records one successful rep's digest.
    pub fn add_digest(&mut self, digest: &str) {
        if !self.digests.iter().any(|d| d == digest) {
            self.digests.push(digest.to_string());
        }
    }

    /// The results as lines, without the `workload` header.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, values) in &self.samples {
            for v in values {
                let _ = writeln!(out, "{name} {v:?}");
            }
        }
        for d in &self.digests {
            let _ = writeln!(out, "digest {d}");
        }
        for (name, v) in &self.sims {
            let _ = writeln!(out, "sim {name} {v:?}");
        }
        for (name, v) in &self.layers {
            let _ = writeln!(out, "layer {name} {v:?}");
        }
        for l in &self.spans {
            let _ = writeln!(
                out,
                "span {} {} {:?} {:?}",
                l.name, l.depth, l.wall_s, l.self_s
            );
        }
        if let Some(path) = &self.trace_file {
            let _ = writeln!(out, "trace {path}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "fail {}", e.replace('\n', " "));
        }
        out
    }

    /// Adds the results of every line of `text` to `self`.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn read_lines(&mut self, text: &str) -> Result<(), String> {
        text.lines().try_for_each(|line| self.read_line(line))
    }

    fn read_line(&mut self, line: &str) -> Result<(), String> {
        let fields: Vec<&str> = line.split(' ').collect();
        let malformed = || format!("malformed line `{line}`");
        let num = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(malformed)
        };
        let rest = |key: &str| line[key.len() + 1..].to_string();
        match fields.as_slice() {
            ["digest", d] => self.add_digest(d),
            ["sim", name, _] => self.sims.push(((*name).to_string(), num(2)?)),
            ["layer", name, _] => {
                self.layers.insert((*name).to_string(), num(2)?);
            }
            ["span", name, depth, _, _] => self.spans.push(LayerTime {
                name: (*name).to_string(),
                depth: depth.parse().map_err(|_| malformed())?,
                wall_s: num(3)?,
                self_s: num(4)?,
            }),
            ["trace", _, ..] => self.trace_file = Some(rest("trace")),
            ["fail", _, ..] => self.errors.push(rest("fail")),
            [name, _] => self
                .samples
                .entry((*name).to_string())
                .or_default()
                .push(num(1)?),
            _ => return Err(malformed()),
        }
        Ok(())
    }
}

/// Renders a ledger: the results of one run, every sample kept.
pub fn to_ledger(results: &[WorkloadResult]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "workload {} {} {} {}\n{}",
                r.name,
                r.seed,
                r.attempted,
                r.failed,
                r.to_lines()
            )
        })
        .collect()
}

/// Reads a ledger written by [`to_ledger`].
///
/// # Errors
///
/// Names the first malformed line.
pub fn from_ledger(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let mut results: Vec<WorkloadResult> = Vec::new();
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("workload ") {
            let fields: Vec<&str> = header.split(' ').collect();
            let [name, seed, attempted, failed] = fields.as_slice() else {
                return Err(format!("malformed line `{line}`"));
            };
            let bad = |_| format!("malformed line `{line}`");
            results.push(WorkloadResult {
                name: (*name).to_string(),
                seed: seed.parse().map_err(bad)?,
                attempted: attempted.parse().map_err(bad)?,
                failed: failed.parse().map_err(bad)?,
                ..WorkloadResult::default()
            });
        } else {
            results
                .last_mut()
                .ok_or("a ledger starts with a `workload` line")?
                .read_line(line)?;
        }
    }
    Ok(results)
}

/// Compares two ledgers workload by workload: each end-to-end metric's
/// medians, quartiles and verdict, then whether the outputs' digest moved.
pub fn compare(parent: &[WorkloadResult], change: &[WorkloadResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "bound"
    );
    let fmt = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
    for p in parent {
        let Some(c) = change.iter().find(|c| c.name == p.name) else {
            let _ = writeln!(out, "{:<8} missing from the change's ledger", p.name);
            continue;
        };
        for m in &END_TO_END {
            let (Some(ps), Some(cs)) = (p.summary(m.name), c.summary(m.name)) else {
                let _ = writeln!(out, "{:<8} {:<12} no samples", p.name, m.name);
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let delta = (cs.median - ps.median) / ps.median.abs().max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "{:<8} {:<12} {:>28} {:>28} {:>+7.1}% {:>5.0}%  {}",
                p.name,
                m.name,
                fmt(&ps),
                fmt(&cs),
                100.0 * delta,
                100.0 * bound,
                verdict(&ps, &cs, m.better, bound).label()
            );
        }
        let digest = if p.digests == c.digests && p.digests.len() == 1 {
            format!("unchanged ({})", p.digests[0])
        } else {
            format!(
                "CHANGED (parent {}, change {})",
                p.digests.join("/"),
                c.digests.join("/")
            )
        };
        let _ = writeln!(out, "{:<8} digest {digest}", p.name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, journey: &[f64], digest: &str) -> WorkloadResult {
        let mut r = WorkloadResult {
            name: name.into(),
            seed: 1,
            attempted: journey.len(),
            ..WorkloadResult::default()
        };
        r.add_digest(digest);
        r.add_digest(digest);
        r.samples.insert("journey_s".into(), journey.to_vec());
        r.samples.insert("setup_s".into(), vec![0.1; journey.len()]);
        r.samples
            .insert("peak_rss_mb".into(), vec![50.0; journey.len()]);
        r.layers.insert("des.share".into(), 0.25);
        r.sims.push(("sim.attainment".into(), 0.98));
        r
    }

    #[test]
    fn ledger_round_trips() {
        let mut traced = result("stream", &[1.5, 1.52, 1.49], "00ff");
        traced.spans.push(LayerTime {
            name: "journey".into(),
            depth: 0,
            wall_s: 1.25,
            self_s: 0.01,
        });
        traced.trace_file = Some("/tmp/x y.json".into());
        traced.errors.push("two\nlines".into());
        let results = vec![traced, result("ops", &[1.2], "abcd")];
        let back = from_ledger(&to_ledger(&results)).unwrap();
        assert_eq!(back[1], results[1]);
        assert_eq!(back[0].errors, ["two lines"]);
        assert_eq!(back[0].spans, results[0].spans);
        assert_eq!(back[0].trace_file, results[0].trace_file);
        assert_eq!(back[0].samples, results[0].samples);
        assert!(back[1].correct() && !back[0].correct());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "journey_s fast",
            "span journey x 1 1",
            "sim only-name",
            "three loose words",
        ] {
            assert!(WorkloadResult::default().read_lines(bad).is_err(), "{bad}");
        }
        assert!(from_ledger("journey_s 1.0\n").is_err());
        assert!(from_ledger("workload ops 1 x 0\n").is_err());
    }

    #[test]
    fn compare_reports_verdicts_and_digests() {
        let parent = vec![result("stream", &[1.0, 1.01, 0.99, 1.0, 1.0], "aa")];
        let slower = vec![result("stream", &[1.3, 1.31, 1.29, 1.3, 1.3], "bb")];
        let text = compare(&parent, &slower);
        assert!(text.contains("worse"), "{text}");
        assert!(text.contains("CHANGED"), "{text}");
        let same = compare(&parent, &parent);
        assert!(
            same.contains("within bound") && same.contains("unchanged"),
            "{same}"
        );
    }
}
