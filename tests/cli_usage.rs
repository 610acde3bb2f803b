//! Command-line contract of `pfair` and every command it runs: a flag the
//! command does not declare is a usage error, never a silent no-op — a
//! mistyped `--set 1000` must not run the default sweep and exit 0, and
//! the flags of the deleted crash-tolerance harness must refuse, not be
//! ignored. So must a count no sweep can run with, such as `--tasks 0`.
//!
//! The roster is the command list `pfair` prints (as
//! `ci/determinism-smoke.sh` reads it), so a new command is covered
//! without editing this file.

#[path = "support/cli_contract.rs"]
mod cli_contract;

use cli_contract::{assert_cli_contract, assert_refused, run};
use std::path::Path;

/// Flags of the deleted crash-tolerance harness and of the deleted
/// per-point retries: a command line that still carries one must fail
/// loudly, not run without it and exit 0.
const REMOVED_SWEEP_FLAGS: [&[&str]; 4] = [
    &["--checkpoint", "x"],
    &["--procs", "2"],
    &["--fail-after", "1"],
    &["--point-retries", "1"],
];

fn pfair() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_pfair"))
}

/// `pfair argv…` must exit 2 with the command list on stderr, and nothing
/// on stdout. Returns the listed commands.
fn refused_with_the_command_list(argv: &[&str]) -> Vec<String> {
    let out = run("pfair", pfair(), argv);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "pfair {argv:?}: {stderr}");
    assert!(out.stdout.is_empty(), "pfair {argv:?} printed to stdout");
    assert!(stderr.contains("usage: pfair <command>"), "{stderr}");
    let list = stderr.lines().find_map(|l| l.strip_prefix("commands: "));
    let list = list.unwrap_or_else(|| panic!("pfair {argv:?} lists no commands: {stderr}"));
    list.split(' ').map(str::to_string).collect()
}

/// Every command `pfair` runs, as it lists them.
fn roster() -> Vec<String> {
    let roster = refused_with_the_command_list(&[]);
    assert!(roster.len() >= 17, "roster went missing: {roster:?}");
    roster
}

fn source_of(command: &str) -> String {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/pfair");
    std::fs::read_to_string(src.join(format!("{command}.rs"))).unwrap()
}

#[test]
fn undeclared_flags_are_usage_errors_and_docs_match_help() {
    for command in roster() {
        let name = format!("pfair {command}");
        let source = source_of(&command);

        let usage = assert_cli_contract(&name, pfair(), &source);
        let stray = run(&name, pfair(), &["stray"]);
        assert_eq!(stray.status.code(), Some(2), "{name} stray positional");

        if source.contains("SweepDriver::") {
            for shared in ["threads", "metrics-out"] {
                assert!(usage.contains(&format!("--{shared} ")), "{name}: {usage}");
            }
            for removed in REMOVED_SWEEP_FLAGS {
                assert_refused(&name, pfair(), removed);
            }
        }
    }
}

#[test]
fn pfair_without_a_known_command_lists_the_commands() {
    let roster = roster();
    assert_eq!(refused_with_the_command_list(&["bogus"]), roster);
    assert_eq!(refused_with_the_command_list(&["--csv"]), roster);
    let out = run("pfair", pfair(), &["bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("pfair: unknown command 'bogus'"),
        "{stderr}"
    );
}

/// `--tasks 0` used to print a table of `0.00 … inf` and exit 0, `--sets
/// 0` a table of zeros, and `--cpus 0` or `--points 1` a panic: every
/// sweep that reads one of these counts now refuses 0 before it runs
/// anything.
#[test]
fn sweeps_refuse_counts_they_cannot_run() {
    let ranges = [
        ("--tasks", "at least 1"),
        ("--sets", "at least 1"),
        ("--cpus", "between 1 and 1024"),
        ("--points", "at least 2"),
    ];
    let mut refused = 0;
    for command in roster() {
        if !source_of(&command).contains("SweepDriver::") {
            continue;
        }
        let name = format!("pfair {command}");
        let help = run(&name, pfair(), &["--help"]);
        let usage = String::from_utf8(help.stdout).unwrap();
        for (flag, range) in ranges {
            if !usage.contains(&format!("[{flag} ")) {
                continue;
            }
            let out = run(&name, pfair(), &[flag, "0"]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {flag} 0: {stderr}");
            let refusal = format!("{name}: {flag} must be {range} (got 0)");
            assert!(stderr.contains(&refusal), "{stderr}");
            assert!(stderr.contains("usage:"), "{name} {flag} 0: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {flag} 0 printed a table");
            refused += 1;
        }
    }
    // 11 sweeps read --sets, 8 --tasks, 4 --cpus and 2 --points.
    assert!(refused >= 25, "only {refused} refusals: the roster shrank");
}

/// Values each command used to panic on (exit 101 with a backtrace
/// hint): a `show --tasks` entry that is not a valid `E/P`, an unknown
/// `--policy` or `--er`, too few `--cpus` for the set, a `--windows` task
/// it does not have, a `--util` no task set of `--tasks` can have, and a
/// Dhall `--period` below 3. Each is now refused with the usage line and
/// exit 2 before anything runs, as are a `faults --recovery` policy and
/// `--trace-kind` it does not know.
#[test]
fn values_a_command_cannot_run_with_are_usage_errors() {
    let cases: [(&str, &[&str], &str); 11] = [
        (
            "pfair show",
            &["--tasks", "x"],
            "--tasks x: task 'x' is not E/P",
        ),
        ("pfair show", &["--tasks", "0/3"], "--tasks 0/3: task 0/3"),
        (
            "pfair show",
            &["--policy", "zz"],
            "--policy zz: expected pd2|pf|pd|epdf",
        ),
        (
            "pfair show",
            &["--er", "zz"],
            "--er zz: expected none|intra|full",
        ),
        (
            "pfair show",
            &["--cpus", "1"],
            "--cpus must be between 2 and 1024 (got 1)",
        ),
        (
            "pfair show",
            &["--windows", "3"],
            "--windows must be between 0 and 2 (got 3)",
        ),
        (
            "pfair quantum",
            &["--util", "0"],
            "--util must be above 0 and at most 50 (got 0)",
        ),
        (
            "pfair faults",
            &["--util", "0"],
            "--util must be above 0 and at most 10 (got 0)",
        ),
        (
            "pfair faults",
            &["--recovery", "bogus"],
            "--recovery bogus: expected none|shed|catchup|full",
        ),
        (
            "pfair faults",
            &["--trace", "/tmp/x.json", "--trace-kind", "bogus"],
            "--trace-kind bogus: expected none|loss|overrun|failstop|burst",
        ),
        (
            "pfair dhall",
            &["--period", "2"],
            "--period must be at least 3 (got 2)",
        ),
    ];
    for (name, argv, refusal) in cases {
        let out = run(name, pfair(), argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {argv:?}: {stderr}");
        assert!(stderr.contains(&format!("{name}: {refusal}")), "{stderr}");
        assert!(stderr.contains("usage:"), "{name} {argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {argv:?} printed output");
    }
}
