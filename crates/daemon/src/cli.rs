//! Minimal command-line parsing for every binary of the workspace
//! (hand-rolled to keep the dependency set inside the approved list; it
//! lives here because `experiments` depends on this crate, so both the
//! daemon binaries and `pfair` see it).
//!
//! A binary (or a command of `pfair`) declares the flags it reads once,
//! as a `&[Flag]` next to its entry point, and hands the list to
//! [`Args::parse`] with its argument tail. Anything else on the command
//! line — an unknown `--flag`, a stray positional, a value flag
//! without its value — is a usage error (exit 2), so a mistyped flag can
//! never run a sweep, or start a daemon, it does not describe. The usage
//! line `--help` prints is built from the same list, and so is the one a
//! value out of its declared range ([`Args::get_in`]) prints.

use std::collections::HashMap;
use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

/// One argument a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `--name <placeholder>`.
    Value(&'static str),
    /// `--name`.
    Switch,
    /// The one positional token (`admitctl`'s subcommand); `name` is its
    /// placeholder.
    Command,
}

impl Flag {
    /// `--name <placeholder>`: a flag that takes a value.
    pub const fn value(name: &'static str, placeholder: &'static str) -> Self {
        Flag {
            name,
            kind: Kind::Value(placeholder),
        }
    }

    /// `--name`: a bare on/off flag.
    pub const fn switch(name: &'static str) -> Self {
        Flag {
            name,
            kind: Kind::Switch,
        }
    }

    /// One positional subcommand, shown in the usage line as
    /// `<placeholder>` and read back with [`Args::command`].
    pub const fn command(placeholder: &'static str) -> Self {
        Flag {
            name: placeholder,
            kind: Kind::Command,
        }
    }
}

/// The one-line usage of `binary`, in declaration order.
fn usage(binary: &str, flags: &[Flag]) -> String {
    let mut line = format!("usage: {binary}");
    for f in flags {
        match f.kind {
            Kind::Value(p) => line.push_str(&format!(" [--{} {p}]", f.name)),
            Kind::Switch => line.push_str(&format!(" [--{}]", f.name)),
            Kind::Command => line.push_str(&format!(" <{}>", f.name)),
        }
    }
    line
}

/// Parsed `--key value` / `--flag` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// What usage errors are prefixed with: `admitd`, or `pfair fig3`.
    binary: String,
    values: HashMap<String, String>,
    switches: Vec<String>,
    command: Option<String>,
    /// What the binary declared: reading a flag outside it is a bug in
    /// the binary's list (it could never have been set), caught in debug
    /// builds.
    declared: Vec<Flag>,
}

impl Args {
    /// Parses `argv` (the arguments after the binary's name, or after
    /// `pfair <command>`) against the flags `binary` declares (its own list
    /// plus any shared ones). `--help` prints the usage line and exits 0;
    /// a usage error prints `<binary>: <what>` and the usage line on
    /// stderr and exits 2.
    pub fn parse<I: IntoIterator<Item = String>>(binary: &str, flags: &[&[Flag]], argv: I) -> Self {
        let flags = flags.concat();
        let items: Vec<String> = argv.into_iter().collect();
        if items.iter().any(|a| a == "--help") {
            println!("{}", usage(binary, &flags));
            std::process::exit(0);
        }
        let mut args = Self::from_args(&flags, items).unwrap_or_else(|e| {
            eprintln!("{binary}: {e}\n{}", usage(binary, &flags));
            std::process::exit(2);
        });
        args.binary = binary.to_string();
        args
    }

    /// Parses from an explicit iterator (testable): `Err` describes the
    /// first argument no declared flag accounts for.
    pub fn from_args<I, S>(flags: &[Flag], iter: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args {
            declared: flags.to_vec(),
            ..Args::default()
        };
        let takes_command = flags.iter().any(|f| matches!(f.kind, Kind::Command));
        let mut items = iter.into_iter().map(Into::into).peekable();
        while let Some(item) = items.next() {
            let Some(name) = item.strip_prefix("--") else {
                if takes_command && args.command.is_none() {
                    args.command = Some(item);
                    continue;
                }
                return Err(format!("unexpected argument '{item}'"));
            };
            match flags.iter().find(|f| f.name == name).map(|f| f.kind) {
                Some(Kind::Value(p)) => match items.next_if(|next| !next.starts_with("--")) {
                    Some(value) => {
                        args.values.insert(name.to_string(), value);
                    }
                    None => return Err(format!("--{name} needs a value ({p})")),
                },
                Some(Kind::Switch) => args.switches.push(name.to_string()),
                Some(Kind::Command) | None => return Err(format!("unknown flag --{name}")),
            }
        }
        Ok(args)
    }

    /// The positional subcommand, if the binary declared one
    /// ([`Flag::command`]) and the command line carried it.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// True iff the switch `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.check_declared(name);
        self.switches.iter().any(|f| f == name)
    }

    /// The raw value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.check_declared(name);
        self.values.get(name).map(String::as_str)
    }

    fn check_declared(&self, name: &str) {
        debug_assert!(
            self.declared.iter().any(|f| f.name == name),
            "--{name} is read but not in the binary's declared flags"
        );
    }

    /// Parses `--name` as `T`, with a default; a malformed value is an
    /// `Err` describing the flag, the raw text, and the parse failure.
    fn try_get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|e| format!("--{name} {raw}: {e}")),
        }
    }

    /// Parses `--name` as `T`, with a default. A malformed value is a
    /// usage error: `<binary>: <what>` and the usage line on stderr, exit
    /// 2 — binaries should fail a bad invocation cleanly, not with a panic
    /// and backtrace.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: Display,
    {
        self.try_get_or(name, default)
            .unwrap_or_else(|e| self.refuse(&e))
    }

    /// Parses `--name` as `T` within `range`, with a default; an `Err`
    /// describes a malformed value, or one outside `range` (`--name must
    /// be at least …`, or `between … and …`).
    pub fn try_get_in<T, R>(&self, name: &str, default: T, range: R) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Display,
        T::Err: Display,
        R: RangeBounds<T>,
    {
        let value = self.try_get_or(name, default)?;
        if range.contains(&value) {
            return Ok(value);
        }
        let bound = match (range.start_bound(), range.end_bound()) {
            (Bound::Included(lo), Bound::Included(hi)) => format!("between {lo} and {hi}"),
            (Bound::Included(lo), _) => format!("at least {lo}"),
            (_, Bound::Included(hi)) => format!("at most {hi}"),
            _ => "in range".to_string(),
        };
        Err(format!("--{name} must be {bound} (got {value})"))
    }

    /// [`Args::get_or`] within `range`: a value outside it is a usage
    /// error too, so nonsense such as `--tasks 0` never runs.
    pub fn get_in<T, R>(&self, name: &str, default: T, range: R) -> T
    where
        T: FromStr + PartialOrd + Display,
        T::Err: Display,
        R: RangeBounds<T>,
    {
        self.try_get_in(name, default, range)
            .unwrap_or_else(|e| self.refuse(&e))
    }

    /// Refuses a command line whose flags parsed but whose values the
    /// binary cannot run with: prints `<binary>: <what>` and the usage line
    /// on stderr and exits 2, as a parse error does.
    fn refuse(&self, what: &str) -> ! {
        eprintln!(
            "{}: {what}\n{}",
            self.binary,
            usage(&self.binary, &self.declared)
        );
        std::process::exit(2);
    }

    /// Parses `--name` as `T` where the invocation cannot go on without
    /// it; a missing or malformed value is a usage error (exit 2).
    pub fn require<T: FromStr>(&self, name: &str) -> T
    where
        T::Err: Display,
    {
        let parsed = match self.get(name) {
            None => Err(format!("missing required --{name}")),
            Some(raw) => raw.parse().map_err(|e| format!("--{name} {raw}: {e}")),
        };
        parsed.unwrap_or_else(|e| self.refuse(&e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::value("tasks", "N"),
        Flag::value("sets", "N"),
        Flag::value("seed", "N"),
        Flag::switch("csv"),
    ];

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::from_args(FLAGS, ["--tasks", "50", "--csv", "--seed", "7"]).unwrap();
        assert_eq!(a.get_or("tasks", 0usize), 50);
        assert_eq!(a.get_or("seed", 1u64), 7);
        assert!(a.flag("csv"));
        assert_eq!(a.get_or("sets", 100usize), 100);
    }

    #[test]
    fn trailing_flag() {
        let a = Args::from_args(FLAGS, ["--csv"]).unwrap();
        assert!(a.flag("csv"));
    }

    #[test]
    fn bad_value_is_a_described_error() {
        let a = Args::from_args(FLAGS, ["--tasks", "fifty"]).unwrap();
        let err = a.try_get_or("tasks", 0usize).unwrap_err();
        assert!(err.contains("--tasks"), "{err}");
        assert!(err.contains("fifty"), "{err}");
        // Well-formed and absent values still parse.
        assert_eq!(a.try_get_or("sets", 9usize), Ok(9));
    }

    #[test]
    fn ranged_values_name_their_bounds() {
        let a = Args::from_args(FLAGS, ["--tasks", "0", "--sets", "5"]).unwrap();
        assert_eq!(a.try_get_in("sets", 1usize, 1..), Ok(5));
        assert_eq!(a.try_get_in("seed", 7u64, 1..=9), Ok(7));
        let err = a.try_get_in("tasks", 1usize, 1..).unwrap_err();
        assert_eq!(err, "--tasks must be at least 1 (got 0)");
        let err = a.try_get_in("tasks", 1usize, 1..=1024).unwrap_err();
        assert_eq!(err, "--tasks must be between 1 and 1024 (got 0)");
        let err = a.try_get_in("sets", 1usize, 6..).unwrap_err();
        assert_eq!(err, "--sets must be at least 6 (got 5)");
        // A malformed value is still the parse error.
        let a = Args::from_args(FLAGS, ["--tasks", "x"]).unwrap();
        assert!(a
            .try_get_in("tasks", 1usize, 1..)
            .unwrap_err()
            .contains("--tasks x"));
    }

    #[test]
    fn undeclared_flags_positionals_and_missing_values_are_errors() {
        let lists = [FLAGS, &[Flag::value("threads", "N")]].concat();
        let a = Args::from_args(&lists, ["--threads", "2", "--sets", "3"]).unwrap();
        assert_eq!(a.get("threads"), Some("2"));
        assert_eq!(a.command(), None);

        for (argv, needle) in [
            (&["--bogus"][..], "unknown flag --bogus"),
            (&["--set", "1000"], "unknown flag --set"),
            (&["--sets", "5", "stray"], "unexpected argument 'stray'"),
            (&["--csv", "stray"], "unexpected argument 'stray'"),
            (&["--sets"], "--sets needs a value"),
            (&["--sets", "--csv"], "--sets needs a value"),
        ] {
            let err = Args::from_args(&lists, argv.iter().copied()).unwrap_err();
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
        assert_eq!(
            usage("figT", &lists),
            "usage: figT [--tasks N] [--sets N] [--seed N] [--csv] [--threads N]"
        );
    }

    #[test]
    fn parses_subcommand_pairs_and_flags() {
        let flags = [
            Flag::value("socket", "PATH"),
            Flag::command("join|leave"),
            Flag::value("task", "ID"),
            Flag::switch("verbose"),
        ];
        for argv in [
            &["--socket", "s", "leave", "--task", "3"][..],
            &["leave", "--task", "3", "--socket", "s"],
            &["--task", "3", "--verbose", "leave", "--socket", "s"],
        ] {
            let a = Args::from_args(&flags, argv.iter().copied()).unwrap();
            assert_eq!(a.command(), Some("leave"), "{argv:?}");
            assert_eq!(a.get("socket"), Some("s"));
            assert_eq!(a.get_or("task", 0u32), 3);
        }
        let err = Args::from_args(&flags, ["leave", "join"]).unwrap_err();
        assert!(err.contains("unexpected argument 'join'"), "{err}");
        // The placeholder is not a flag name.
        let err = Args::from_args(&flags, ["--join|leave"]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        assert_eq!(
            usage("ctl", &flags),
            "usage: ctl [--socket PATH] <join|leave> [--task ID] [--verbose]"
        );
    }
}
