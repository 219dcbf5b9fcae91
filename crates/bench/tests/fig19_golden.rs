//! Pins the stdout of the Figure 19 binary byte for byte against
//! `tests/golden/fig19.txt`.
//!
//! Regenerate after an intentional change with
//! `cargo run -p rago-bench --bin fig19 > crates/bench/tests/golden/fig19.txt`.

use std::path::Path;
use std::process::Command;

#[test]
fn fig19_stdout_matches_golden() {
    let output = Command::new(env!("CARGO_BIN_EXE_fig19"))
        .output()
        .expect("fig19 runs");
    assert!(
        output.status.success(),
        "fig19 exited with {}",
        output.status
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig19.txt");
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
    let actual = String::from_utf8(output.stdout).expect("fig19 prints UTF-8");
    assert_eq!(
        expected,
        actual,
        "fig19 stdout drifted from {}",
        golden.display()
    );
}
