//! `bench_e2e`: one layer-attributed benchmark of the RAGO planning journey
//! and of the serving simulator at scale.
//!
//! ```text
//! bench_e2e [run] [--workload NAME]... [--seed N] [--seconds S]
//!                 [--trace 0|1] [--out LEDGER]
//! bench_e2e compare PARENT_LEDGER CHANGE_LEDGER
//! ```
//!
//! `run` measures every workload (or the named ones): timed reps, each in a
//! fresh child process, then one traced rep per workload that writes a
//! Perfetto trace and prints the per-layer self-time table. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end medians, or with `--trace 1` the
//! per-layer metrics. `compare` prints a verdict per workload and
//! end-to-end metric between two ledgers written with `--out`. See
//! `README.md` beside this crate.

#![forbid(unsafe_code)]

mod api;
mod journeys;
mod ledger;
mod metrics;
mod runner;
mod spans;
mod stats;

use std::time::Instant;

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("child") => runner::child_main(&args[1..], started),
        Some("compare") => compare_main(&args[1..]),
        Some("run") => run_main(&args[1..]),
        _ => run_main(&args),
    };
    std::process::exit(code);
}

fn run_main(args: &[String]) -> i32 {
    let opts = match runner::RunOptions::parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return 2;
        }
    };
    let mut results = Vec::new();
    for &workload in &opts.workloads {
        let r = runner::run_workload(&opts, workload);
        print!("{}", runner::render(&r));
        results.push(r);
    }
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, ledger::to_ledger(&results)) {
            eprintln!("bench_e2e: cannot write {}: {e}", path.display());
            return 1;
        }
        println!("ledger written to {}", path.display());
    }
    match runner::result_line(&results, opts.trace) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            1
        }
    }
}

fn compare_main(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: bench_e2e compare PARENT_LEDGER CHANGE_LEDGER");
        return 2;
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| ledger::from_ledger(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let (parent, change) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_e2e: {e}");
            return 2;
        }
    };
    print!("{}", ledger::compare(&parent, &change));
    0
}
