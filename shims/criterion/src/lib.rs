//! Offline stand-in for `criterion`.
//!
//! The build environment cannot reach crates.io, so the workspace ships this
//! minimal wall-clock benchmarking harness with the same calling convention
//! as the real crate: `criterion_group!` / `criterion_main!`,
//! [`Criterion::bench_function`], [`Bencher::iter`], and [`black_box`].
//!
//! Each `bench_function` runs one warm-up pass, then `sample_size` timed
//! samples, and prints the per-iteration minimum / mean / maximum. There is
//! no statistical analysis, HTML report, or baseline comparison.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The benchmark driver: holds configuration and runs registered functions.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f` (via the [`Bencher`] it receives) and prints a one-line
    /// summary.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        // Warm-up pass (not recorded).
        let mut bencher = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut bencher);

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut bencher = Bencher {
                elapsed: Duration::ZERO,
                iters: 0,
            };
            f(&mut bencher);
            if bencher.iters > 0 {
                per_iter.push(bencher.elapsed.as_secs_f64() / bencher.iters as f64);
            }
        }
        per_iter.sort_by(f64::total_cmp);
        let (min, max) = match (per_iter.first(), per_iter.last()) {
            (Some(&a), Some(&b)) => (a, b),
            _ => (0.0, 0.0),
        };
        let mean = per_iter.iter().sum::<f64>() / per_iter.len().max(1) as f64;
        println!(
            "{name:<40} time: [{} {} {}]",
            fmt_time(min),
            fmt_time(mean),
            fmt_time(max)
        );
        self
    }
}

/// Times one benchmark routine.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Runs `routine` once per sample, accumulating its wall-clock time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        black_box(routine());
        self.elapsed += start.elapsed();
        self.iters += 1;
    }
}

fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench `main` entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default().sample_size(2);
        let mut runs = 0u32;
        c.bench_function("noop", |b| {
            runs += 1;
            b.iter(|| black_box(1 + 1))
        });
        // 1 warm-up + 2 samples.
        assert_eq!(runs, 3);
    }
}
