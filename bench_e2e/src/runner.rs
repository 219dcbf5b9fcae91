//! The runner: one child process per rep, run one at a time, aggregated
//! into medians and quartiles; and the child side of that protocol.
//!
//! A child prints its results in the ledger's line format on standard
//! output and exits 0 when the rep passed its checks, 3 when a check
//! failed, 2 when the program returned an error, and 101 on a panic.

use crate::api;
use crate::journeys::{self, Scale, Workload};
use crate::ledger::WorkloadResult;
use crate::metrics::{
    self, END_TO_END, JOURNEY_S, PEAK_RSS_MB, PER_LAYER, SETUP_S, TRACE_OVERHEAD,
};
use crate::spans;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

/// Set-up-only children every run starts at least.
const MIN_SETUPS: usize = 10;

/// Options of a `run`.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Start timed reps until the next one would end after this many
    /// seconds (at least one rep); without it, the workload's default rep
    /// count.
    pub seconds: Option<f64>,
    /// Whether to add one traced rep per workload.
    pub trace: bool,
    /// Where to save the ledger, if anywhere.
    pub out: Option<PathBuf>,
}

impl RunOptions {
    /// Parses `run` arguments.
    ///
    /// # Errors
    ///
    /// Describes the first unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<RunOptions, String> {
        let mut opts = RunOptions {
            workloads: Vec::new(),
            seed: 1,
            seconds: None,
            trace: true,
            out: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let name = value()?;
                    opts.workloads
                        .push(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
                }
                "--seed" => opts.seed = parse_num(arg, value()?)?,
                "--seconds" => {
                    let s: f64 = parse_num(arg, value()?)?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {s}"));
                    }
                    opts.seconds = Some(s);
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                    }
                }
                "--out" => opts.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if opts.workloads.is_empty() {
            opts.workloads = Workload::ALL.to_vec();
        }
        Ok(opts)
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
}

/// What a child does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildMode {
    /// One untraced rep.
    Timed,
    /// One rep with layer spans, writing the Perfetto trace.
    Traced,
    /// Set-up only.
    SetupOnly,
}

/// Entry point of `bench_e2e child`: runs one rep in this process and prints
/// its results. Returns the exit code.
pub fn child_main(args: &[String], started: Instant) -> i32 {
    let mut workload = None;
    let mut seed = 1u64;
    let mut mode = ChildMode::Timed;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map_or("", String::as_str);
        match arg.as_str() {
            "--workload" => workload = Workload::parse(value()),
            "--seed" => match value().parse() {
                Ok(n) => seed = n,
                Err(_) => {
                    eprintln!("child: bad --seed");
                    return 2;
                }
            },
            "--traced" => mode = ChildMode::Traced,
            "--setup-only" => mode = ChildMode::SetupOnly,
            _ => {
                eprintln!("child: unknown argument `{arg}`");
                return 2;
            }
        }
    }
    let Some(workload) = workload else {
        eprintln!("child: --workload names no known workload");
        return 2;
    };
    if mode == ChildMode::SetupOnly {
        return match journeys::run_setup(workload, seed, Scale::Full, started) {
            Ok(setup_s) => {
                println!("{SETUP_S} {setup_s:?}");
                0
            }
            Err(e) => {
                eprintln!("{} set-up failed: {e}", workload.name());
                2
            }
        };
    }
    let traced = mode == ChildMode::Traced;
    let rep = match journeys::run_rep(workload, seed, Scale::Full, traced, started) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("{} failed: {e}", workload.name());
            return 2;
        }
    };
    let mut out = WorkloadResult {
        samples: [
            (SETUP_S, rep.setup_s),
            (JOURNEY_S, rep.journey_s),
            (PEAK_RSS_MB, rep.peak_rss_mb),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), vec![v]))
        .collect(),
        digests: vec![rep.checked.digest.hex()],
        sims: rep.checked.sims,
        errors: rep.checked.failures,
        ..WorkloadResult::default()
    };
    if traced {
        out.spans = spans::layer_times(&rep.events);
        out.layers = metrics::layer_metrics(&rep.counts, &out.spans);
        match write_trace(workload, &rep.events) {
            Ok(path) => out.trace_file = Some(path.display().to_string()),
            Err(e) => out.errors.push(format!("trace not written: {e}")),
        }
    }
    print!("{}", out.to_lines());
    if out.errors.is_empty() {
        0
    } else {
        3
    }
}

/// Writes the traced rep's spans as `<target>/bench_e2e/<workload>.trace.json`
/// (next to the build's `release` directory) and checks the file parses.
fn write_trace(workload: Workload, events: &[api::TraceEvent]) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(std::path::Path::parent)
        .ok_or("cannot locate the build directory")?;
    let dir = target.join("bench_e2e");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}.trace.json", workload.name()));
    let text = api::export_chrome_trace(events);
    api::validate_json(&text)?;
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Whether journey children can be started through `setarch -R`, which
/// turns off address-space randomization for them. With a fixed layout the
/// file-backed part of `VmHWM` (the pages of code a rep touched) is the same
/// in every child. With randomization on, where the kernel's fault-around
/// windows fall moves it by up to 200 KiB, which is 5 % of `search`'s
/// 4.4 MiB peak.
///
/// Set-up-only children keep random layouts, and set-up samples come from
/// them alone: a set-up of microseconds is a few page faults, and under one
/// fixed layout a rebuild that only moves code shifts it by up to half.
fn fixed_layout() -> bool {
    static PROBE: OnceLock<bool> = OnceLock::new();
    *PROBE.get_or_init(|| {
        let ok = Command::new("setarch")
            .args(["-R", "true"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            eprintln!(
                "bench_e2e: `setarch -R` is unavailable; children run with randomized layouts"
            );
        }
        ok
    })
}

/// Runs one child to completion.
fn spawn(opts: &RunOptions, workload: Workload, mode: ChildMode) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = if mode != ChildMode::SetupOnly && fixed_layout() {
        let mut cmd = Command::new("setarch");
        cmd.arg("-R").arg(exe);
        cmd
    } else {
        Command::new(exe)
    };
    cmd.args(["child", "--workload", workload.name(), "--seed"])
        .arg(opts.seed.to_string());
    match mode {
        ChildMode::Timed => {}
        ChildMode::Traced => {
            cmd.arg("--traced");
        }
        ChildMode::SetupOnly => {
            cmd.arg("--setup-only");
        }
    }
    // Two worker threads: no more load than the two cores the benchmark
    // was sized on, so nothing contends with the rep being measured.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        cmd.env("RAYON_NUM_THREADS", "2");
    }
    let output = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let mut child = WorkloadResult::default();
    let parsed = child.read_lines(&String::from_utf8_lossy(&output.stdout));
    if !output.status.success() {
        let detail = if child.errors.is_empty() {
            let stderr = String::from_utf8_lossy(&output.stderr);
            stderr.lines().rev().take(3).collect::<Vec<_>>().join(" | ")
        } else {
            child.errors.join("; ")
        };
        return Err(format!("child {}: {detail}", output.status));
    }
    parsed.map(|()| child)
}

/// Records a successful journey child into `r`, all but its set-up time
/// (see [`fixed_layout`]).
fn record_rep(r: &mut WorkloadResult, child: &WorkloadResult) -> Result<(), String> {
    let [digest] = child.digests.as_slice() else {
        return Err("child printed no single digest".into());
    };
    if let Some(m) = END_TO_END
        .iter()
        .find(|m| child.samples.get(m.name).map_or(0, Vec::len) != 1)
    {
        return Err(format!("child printed no single {}", m.name));
    }
    for (name, values) in child.samples.iter().filter(|(name, _)| *name != SETUP_S) {
        r.samples.entry(name.clone()).or_default().extend(values);
    }
    r.add_digest(digest);
    if r.sims.is_empty() {
        r.sims = child.sims.clone();
    }
    Ok(())
}

/// Runs `workload`'s timed reps, set-up-only children and traced rep.
pub fn run_workload(opts: &RunOptions, workload: Workload) -> WorkloadResult {
    let mut r = WorkloadResult {
        name: workload.name().to_string(),
        seed: opts.seed,
        ..WorkloadResult::default()
    };
    let clock = Instant::now();
    loop {
        let rep_clock = Instant::now();
        r.attempted += 1;
        if let Err(e) = spawn(opts, workload, ChildMode::Timed).and_then(|c| record_rep(&mut r, &c))
        {
            r.failed += 1;
            r.errors.push(e);
        }
        let done = match opts.seconds {
            Some(s) => clock.elapsed().as_secs_f64() + rep_clock.elapsed().as_secs_f64() > s,
            None => r.attempted >= workload.default_reps(),
        };
        if done {
            break;
        }
    }
    // Set-up-only children fill the rest of a timed run: a set-up takes a
    // millisecond or less for three workloads, so hundreds of samples give
    // a median that a few slow children cannot sway.
    let more_setups = |r: &WorkloadResult| {
        r.samples.get(SETUP_S).map_or(0, Vec::len) < MIN_SETUPS
            || opts
                .seconds
                .is_some_and(|s| clock.elapsed().as_secs_f64() < s)
    };
    while more_setups(&r) {
        match spawn(opts, workload, ChildMode::SetupOnly) {
            Ok(c) => match c.samples.get(SETUP_S).and_then(|v| v.first()) {
                Some(&s) => r.samples.entry(SETUP_S.to_string()).or_default().push(s),
                None => {
                    r.errors.push("set-up child printed no setup_s".into());
                    break;
                }
            },
            Err(e) => {
                r.errors.push(format!("set-up only: {e}"));
                break;
            }
        }
    }
    if opts.trace {
        r.attempted += 1;
        match spawn(opts, workload, ChildMode::Traced) {
            Ok(c) => {
                for d in &c.digests {
                    r.add_digest(d);
                }
                let traced = c.samples.get(JOURNEY_S).and_then(|v| v.first()).copied();
                let untraced = r.summary(JOURNEY_S).map(|s| s.median);
                let overhead = match (traced, untraced) {
                    (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
                    _ => 0.0,
                };
                r.layers = c.layers;
                r.layers.insert(TRACE_OVERHEAD.to_string(), overhead);
                r.spans = c.spans;
                r.trace_file = c.trace_file;
            }
            Err(e) => {
                r.failed += 1;
                r.errors.push(format!("traced rep: {e}"));
            }
        }
    }
    r
}

/// Human-readable report of one workload.
pub fn render(r: &WorkloadResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {}): {} journeys, {} failed, digest {} — {}",
        r.name,
        r.seed,
        r.attempted,
        r.failed,
        if r.digests.is_empty() {
            "none".to_string()
        } else {
            r.digests.join(" / ")
        },
        if r.correct() {
            "correct"
        } else {
            "NOT CORRECT"
        }
    );
    for e in &r.errors {
        let _ = writeln!(out, "  error: {e}");
    }
    let _ = writeln!(
        out,
        "  {:<28} {:>12} {:>12} {:>12} {:>4}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for m in &END_TO_END {
        if let Some(s) = r.summary(m.name) {
            let _ = writeln!(
                out,
                "  {:<28} {:>12.4} {:>12.4} {:>12.4} {:>4}  {}",
                m.name, s.median, s.q1, s.q3, s.n, m.unit
            );
        }
    }
    for (name, v) in &r.sims {
        let _ = writeln!(out, "  {name:<28} {v:>12.6}  (simulated, not gated)");
    }
    if let Some(path) = &r.trace_file {
        let _ = writeln!(out, "  Perfetto trace: {path}");
    }
    if !r.spans.is_empty() {
        let journey = r
            .spans
            .iter()
            .find(|l| l.depth == 0)
            .map_or(0.0, |l| l.wall_s);
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12} {:>12}",
            "traced layer", "wall_s", "self_s", "self share"
        );
        for l in &r.spans {
            let name = format!("{}{}", "  ".repeat(l.depth), l.name);
            let share = if journey > 0.0 {
                l.self_s / journey
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {name:<28} {:>12.4} {:>12.4} {:>11.1}%",
                l.wall_s,
                l.self_s,
                100.0 * share
            );
        }
        let mut zeros = 0;
        for m in &PER_LAYER {
            match r.layers.get(m.name) {
                Some(&v) if v != 0.0 => {
                    let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, v, m.unit);
                }
                _ => zeros += 1,
            }
        }
        let _ = writeln!(
            out,
            "  ({zeros} per-layer metrics read 0 and are not listed)"
        );
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the medians of every end-to-end metric (or, for a traced run, every
/// per-layer metric). Metric names carry a `<workload>.` prefix when the
/// run covered more than one workload.
///
/// # Errors
///
/// Names the first metric the run could not measure. Names and units are
/// written unescaped: the catalogue's tests hold them to characters JSON
/// strings take as they are.
pub fn result_line(results: &[WorkloadResult], trace: bool) -> Result<String, String> {
    let prefix = results.len() > 1;
    let mut metrics = Vec::new();
    for r in results {
        let specs: &[metrics::Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        for m in specs {
            let value = if trace {
                r.layers.get(m.name).copied()
            } else {
                r.summary(m.name).map(|s| s.median)
            }
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{}: no finite value for {}", r.name, m.name))?;
            let name = if prefix {
                format!("{}.{}", r.name, m.name)
            } else {
                m.name.to_string()
            };
            // `{:?}` prints every digit an f64 needs to round-trip.
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().all(WorkloadResult::correct),
        results.iter().map(|r| r.attempted).sum::<usize>(),
        results.iter().map(|r| r.failed).sum::<usize>(),
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_timed_single_workload_run() {
        let o = RunOptions::parse(&args("--workload ops --seed 7 --seconds 20 --trace 0")).unwrap();
        assert_eq!(o.workloads, vec![Workload::Ops]);
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, Some(20.0));
        assert!(!o.trace);
        let all = RunOptions::parse(&[]).unwrap();
        assert_eq!(all.workloads.len(), 4);
        assert_eq!(all.seconds, None);
        assert!(all.trace);
        for bad in [
            "--workload hit",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--bogus",
        ] {
            assert!(RunOptions::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
