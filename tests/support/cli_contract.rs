//! The command-line contract every binary of the workspace is held to,
//! shared by `tests/cli_usage.rs` (the commands of `pfair`) and
//! `tests/daemon_e2e.rs` (`admitd`, `admitctl`): a flag the binary does
//! not declare is exit 2 naming the flag, and `--help` prints exactly the
//! flags the binary's module doc advertises.
//!
//! A `name` here is what usage errors are prefixed with: the binary
//! (`admitd`), or `pfair` and its command (`pfair fig3`). Its words after
//! the first are passed to `exe` ahead of the arguments under test.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

pub fn run(name: &str, exe: &Path, args: &[&str]) -> Output {
    Command::new(exe)
        .args(name.split(' ').skip(1))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", exe.display()))
}

/// `exe argv…` must exit 2 naming `argv[0]` as unknown, print the usage
/// line, and leave stdout empty.
pub fn assert_refused(name: &str, exe: &Path, argv: &[&str]) {
    let out = run(name, exe, argv);
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
/// first ```` ```text ```` block.
fn documented_flags(source: &str) -> BTreeSet<String> {
    let block: String = source
        .lines()
        .skip_while(|l| l.trim() != "//! ```text")
        .skip(1)
        .take_while(|l| l.trim() != "//! ```")
        .collect::<Vec<_>>()
        .join("\n");
    flag_names(&block)
}

/// Holds `name` (built at `exe`, module source `source`) to the
/// contract: `--bogus` is refused, `--help` exits 0 with a usage line
/// `usage: <name> …` naming exactly the documented flags. Returns the
/// usage line.
pub fn assert_cli_contract(name: &str, exe: &Path, source: &str) -> String {
    assert_refused(name, exe, &["--bogus"]);
    let help = run(name, exe, &["--help"]);
    assert_eq!(help.status.code(), Some(0), "{name} --help");
    let usage = String::from_utf8(help.stdout).unwrap();
    assert!(usage.starts_with(&format!("usage: {name}")), "{usage}");
    assert_eq!(
        documented_flags(source),
        flag_names(&usage),
        "{name}: the module doc's usage block and --help disagree"
    );
    usage
}
