//! Pins the stdout of every figure, table and study binary byte for byte
//! against `tests/golden/<bin>.txt`.
//!
//! Each binary has one configuration: a figure or table binary runs its
//! grid, and a study binary (`study_<x>`) runs its one study, asserts the
//! study's acceptance claims (it exits non-zero, and its test fails, when
//! one breaks) and prints the study's JSON. Regenerate one golden after an
//! intentional change with
//! `cargo run -p rago-bench --bin <bin> > crates/bench/tests/golden/<bin>.txt`.

use std::path::Path;
use std::process::Command;

/// Runs the binary at `exe` and compares its stdout with `golden/<bin>.txt`.
fn assert_stdout_matches_golden(bin: &str, exe: &str) {
    let output = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{bin} does not run: {e}"));
    assert!(
        output.status.success(),
        "{bin} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{bin}.txt"));
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
    let actual = String::from_utf8(output.stdout)
        .unwrap_or_else(|e| panic!("{bin} prints invalid UTF-8: {e}"));
    assert_eq!(
        expected,
        actual,
        "{bin} stdout drifted from {}",
        golden.display()
    );
}

macro_rules! figure_goldens {
    ($($test:ident => $bin:literal),* $(,)?) => {$(
        #[test]
        fn $test() {
            assert_stdout_matches_golden($bin, env!(concat!("CARGO_BIN_EXE_", $bin)));
        }
    )*};
}

figure_goldens! {
    fig05_stdout_matches_golden => "fig05",
    fig06_stdout_matches_golden => "fig06",
    fig07_stdout_matches_golden => "fig07",
    fig08_stdout_matches_golden => "fig08",
    fig09_stdout_matches_golden => "fig09",
    fig10_stdout_matches_golden => "fig10",
    fig11_stdout_matches_golden => "fig11",
    fig15_stdout_matches_golden => "fig15",
    fig16_stdout_matches_golden => "fig16",
    fig17_stdout_matches_golden => "fig17",
    fig18_stdout_matches_golden => "fig18",
    fig19_stdout_matches_golden => "fig19",
    table2_stdout_matches_golden => "table2",
    table3_stdout_matches_golden => "table3",
    table4_stdout_matches_golden => "table4",
    study_serving_stdout_matches_golden => "study_serving",
    study_fleet_stdout_matches_golden => "study_fleet",
    study_tenant_stdout_matches_golden => "study_tenant",
    study_cache_stdout_matches_golden => "study_cache",
    study_chaos_stdout_matches_golden => "study_chaos",
    study_disagg_stdout_matches_golden => "study_disagg",
}
