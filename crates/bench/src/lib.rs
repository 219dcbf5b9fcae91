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
//! stdout is pinned byte for byte by `tests/figure_goldens.rs`. Each binary
//! and each bench has one configuration, and the benches in `benches/` only
//! measure cost: the model's claims are tests. The helpers here keep the
//! binaries small: common clusters, search options, and fixed-width table
//! printing. [`stress`] is the `scale_stress` bench's workload and
//! [`baseline`] its vendored reference loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod stress;

use rago_core::SearchOptions;
use rago_hardware::ClusterSpec;

/// The cluster used by all figure binaries: the paper's default 32-server /
/// 128-XPU deployment.
pub fn default_cluster() -> ClusterSpec {
    ClusterSpec::paper_default()
}

/// Search options for the optimizer-driven figures: a grid close to the
/// paper's powers-of-two search.
pub fn figure_search_options() -> SearchOptions {
    SearchOptions {
        xpu_steps: vec![1, 2, 4, 8, 16, 32, 64, 96, 128],
        server_steps: vec![32, 64],
        predecode_batch_steps: vec![1, 2, 4, 8, 16, 32, 64, 128],
        decode_batch_steps: vec![64, 128, 256, 512, 1024],
        iterative_batch_steps: vec![1, 4, 16, 64],
        placements: None,
    }
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
}
