//! Shared helpers for the figure/table regeneration binaries, the study
//! binaries and the Criterion benches of the RAGO reproduction.
//!
//! The `figNN` and `tableN` binaries in `src/bin/` each regenerate one table
//! or figure of the paper's evaluation, printing the same rows or series the
//! paper reports (see the "Which module reproduces which paper result" table
//! of `ARCHITECTURE.md` at the workspace root for the mapping). The
//! `study_*` binaries run one serving-level study of the model each
//! (request streams, fleets, tenants, caches, chaos, disaggregation), assert
//! its acceptance claims and print its results as JSON. Every binary's
//! stdout is pinned byte for byte by `tests/figure_goldens.rs`; the benches
//! in `benches/` only measure cost. The helpers here keep the binaries
//! small: common clusters, search options, and fixed-width table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;

use rago_core::SearchOptions;
use rago_hardware::ClusterSpec;

/// The cluster used by all figure binaries: the paper's default 32-server /
/// 128-XPU deployment.
pub fn default_cluster() -> ClusterSpec {
    ClusterSpec::paper_default()
}

/// Search options for the optimizer-driven figures. `quick` is used when the
/// `RAGO_BENCH_QUICK` environment variable is set (CI smoke runs); otherwise a
/// heavier grid closer to the paper's powers-of-two search is used.
pub fn figure_search_options() -> SearchOptions {
    if quick_mode() {
        SearchOptions::fast()
    } else {
        SearchOptions {
            xpu_steps: vec![1, 2, 4, 8, 16, 32, 64, 96, 128],
            server_steps: vec![32, 64],
            predecode_batch_steps: vec![1, 2, 4, 8, 16, 32, 64, 128],
            decode_batch_steps: vec![64, 128, 256, 512, 1024],
            iterative_batch_steps: vec![1, 4, 16, 64],
            placements: None,
        }
    }
}

/// Whether quick (coarse-grid) mode is enabled via `RAGO_BENCH_QUICK`
/// (set to anything except empty or `0`).
pub fn quick_mode() -> bool {
    std::env::var("RAGO_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Prints a header row followed by a separator, with every column
/// right-aligned to `width` characters.
pub fn print_header(columns: &[&str], width: usize) {
    let row: Vec<String> = columns.iter().map(|c| format!("{c:>width$}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat((width + 1) * columns.len()));
}

/// Prints one data row with every cell right-aligned to `width` characters.
pub fn print_row(cells: &[String], width: usize) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>width$}")).collect();
    println!("{}", row.join(" "));
}

/// Formats a float with the given number of decimal places, using scientific
/// notation for very small or very large magnitudes.
pub fn fmt_f(value: f64, decimals: usize) -> String {
    if value != 0.0 && (value.abs() < 1e-3 || value.abs() >= 1e6) {
        format!("{value:.decimals$e}")
    } else {
        format!("{value:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cluster_is_the_paper_setup() {
        assert_eq!(default_cluster().total_xpus(), 128);
    }

    #[test]
    fn fmt_f_switches_to_scientific() {
        assert_eq!(fmt_f(0.5, 2), "0.50");
        assert!(fmt_f(1e-6, 2).contains('e'));
        assert!(fmt_f(2.5e7, 1).contains('e'));
        assert_eq!(fmt_f(0.0, 1), "0.0");
    }

    #[test]
    fn search_options_depend_on_quick_mode() {
        // Can't mutate the environment safely in tests; just exercise both
        // helpers for panic-freedom.
        let _ = figure_search_options();
        let _ = quick_mode();
    }
}
