//! Command-line contract of every `experiments` binary: a flag the binary
//! does not declare is a usage error, never a silent no-op — a mistyped
//! `--set 1000` must not run the default sweep and exit 0, and the flags
//! of the deleted crash-tolerance harness must refuse, not be ignored.
//!
//! The roster is derived from `crates/experiments/src/bin/` (as
//! `ci/determinism-smoke.sh` derives its own), so a new binary is covered
//! without editing this file.

#[path = "support/cli_contract.rs"]
mod cli_contract;

use cli_contract::{assert_cli_contract, assert_refused, run};
use std::path::{Path, PathBuf};

/// Flags of the deleted crash-tolerance harness: a command line that
/// still carries one must fail loudly, not run without it and exit 0.
const REMOVED_SWEEP_FLAGS: [&[&str]; 3] = [
    &["--checkpoint", "x"],
    &["--procs", "2"],
    &["--fail-after", "1"],
];

#[test]
fn undeclared_flags_are_usage_errors_and_docs_match_help() {
    let bin_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    // Cargo builds every binary of the package next to this one.
    let exe_dir: PathBuf = Path::new(env!("CARGO_BIN_EXE_fig3"))
        .parent()
        .unwrap()
        .to_path_buf();
    let mut roster: Vec<PathBuf> = std::fs::read_dir(&bin_src)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    roster.sort();
    assert!(roster.len() >= 18, "roster went missing: {roster:?}");

    for src_path in roster {
        let name = src_path.file_stem().unwrap().to_str().unwrap();
        let source = std::fs::read_to_string(&src_path).unwrap();
        let exe = exe_dir.join(name);

        let usage = assert_cli_contract(name, &exe, &source);
        let stray = run(&exe, &["stray"]);
        assert_eq!(stray.status.code(), Some(2), "{name} stray positional");

        if source.contains("SweepDriver::") {
            for shared in ["threads", "point-retries", "metrics-out"] {
                assert!(usage.contains(&format!("--{shared} ")), "{name}: {usage}");
            }
            for removed in REMOVED_SWEEP_FLAGS {
                assert_refused(name, &exe, removed);
            }
        }
    }
}
