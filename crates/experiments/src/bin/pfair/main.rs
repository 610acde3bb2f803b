//! `pfair`: every experiment of the repository, one command each.
//!
//! ```text
//! pfair <command> [flags]      # pfair fig3 --tasks 50 --csv
//! pfair <command> --help       # the command's flags
//! ```
//!
//! Each command is a module here with a `run` entry that parses its own
//! flags (`usage: pfair <command> …`); the table below maps the first
//! argument to it. `pfair` alone, or a command it does not know, prints
//! the command list and exits 2. The crate documentation of `experiments`
//! says what each command reports.

mod ablation;
mod admitload;
mod dhall;
mod erfair;
mod faults;
mod fig2a;
mod fig2b;
mod fig3;
mod fig4;
mod fig5;
mod locking;
mod quantum;
mod rmff;
mod show;
mod slack;
mod switches;
mod tournament;
mod verify_trace;

/// A command's entry point: it parses the arguments after its name.
type Run = fn(Vec<String>);

/// Every command and its entry point, in the order `pfair` lists them.
const COMMANDS: &[(&str, Run)] = &[
    ("ablation", ablation::run),
    ("admitload", admitload::run),
    ("dhall", dhall::run),
    ("erfair", erfair::run),
    ("faults", faults::run),
    ("fig2a", fig2a::run),
    ("fig2b", fig2b::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("locking", locking::run),
    ("quantum", quantum::run),
    ("rmff", rmff::run),
    ("show", show::run),
    ("slack", slack::run),
    ("switches", switches::run),
    ("tournament", tournament::run),
    ("verify_trace", verify_trace::run),
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let first = argv.next();
    if let Some((_, run)) = COMMANDS
        .iter()
        .find(|(name, _)| Some(*name) == first.as_deref())
    {
        return run(argv.collect());
    }
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    if let Some(other) = first {
        eprintln!("pfair: unknown command '{other}'");
    }
    eprintln!(
        "usage: pfair <command> [flags]  (pfair <command> --help lists its flags)\ncommands: {}",
        names.join(" ")
    );
    std::process::exit(2);
}
