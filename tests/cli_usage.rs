//! Command-line contract of every `experiments` binary: a flag the binary
//! does not declare is a usage error, never a silent no-op — a mistyped
//! `--set 1000` must not run the default sweep and exit 0, and the flags
//! of the deleted crash-tolerance harness must refuse, not be ignored.
//!
//! The roster is derived from `crates/experiments/src/bin/` (as
//! `ci/determinism-smoke.sh` derives its own), so a new binary is covered
//! without editing this file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Flags of the deleted crash-tolerance harness: a command line that
/// still carries one must fail loudly, not run without it and exit 0.
const REMOVED_SWEEP_FLAGS: [&[&str]; 3] = [
    &["--checkpoint", "x"],
    &["--procs", "2"],
    &["--fail-after", "1"],
];

fn run(exe: &Path, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", exe.display()))
}

/// `exe argv…` must exit 2 naming `argv[0]` as unknown, print the usage
/// line, and leave stdout empty.
fn assert_refused(name: &str, exe: &Path, argv: &[&str]) {
    let out = run(exe, argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {argv:?}: {stderr}");
    assert!(
        stderr.contains(&format!("{name}: unknown flag {}", argv[0])),
        "{name} {argv:?} must name the flag: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{name} {argv:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {argv:?} printed a table");
}

/// The `--flag` names in `text`, in a set.
fn flag_names(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
        .filter_map(|word| word.strip_prefix("--"))
        .filter(|name| !name.is_empty())
        .map(str::to_string)
        .collect()
}

/// The flags a binary's module doc advertises: every `--flag` inside its
/// first ```` ```text ```` block, after `cargo run …`'s own ` -- `.
fn documented_flags(source: &str) -> BTreeSet<String> {
    let block: String = source
        .lines()
        .skip_while(|l| l.trim() != "//! ```text")
        .skip(1)
        .take_while(|l| l.trim() != "//! ```")
        .collect::<Vec<_>>()
        .join("\n");
    flag_names(
        block
            .split_once(" -- ")
            .map_or(block.as_str(), |(_cargo, rest)| rest),
    )
}

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

        assert_refused(name, &exe, &["--bogus"]);
        let stray = run(&exe, &["stray"]);
        assert_eq!(stray.status.code(), Some(2), "{name} stray positional");

        let help = run(&exe, &["--help"]);
        assert_eq!(help.status.code(), Some(0), "{name} --help");
        let usage = String::from_utf8(help.stdout).unwrap();
        assert!(usage.starts_with(&format!("usage: {name}")), "{usage}");
        assert_eq!(
            documented_flags(&source),
            flag_names(&usage),
            "{name}: the module doc's usage block and --help disagree"
        );

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
