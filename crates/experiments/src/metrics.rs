//! `--metrics-out` support shared by the experiment commands.
//!
//! Every command that calls [`recorder`] gains a `--metrics-out <file>.json`
//! flag: when present, an enabled [`obs::Recorder`] is threaded through the
//! harness and a structured JSON snapshot of every counter, histogram, and
//! timer is written at exit via [`write_metrics`]. Without the flag the
//! returned recorder is disabled and all instrumentation is no-op.

use crate::{Args, Flag};

/// The flag this module reads.
pub(crate) const METRICS_OUT: Flag = Flag::value("metrics-out", "FILE");

/// [`METRICS_OUT`] as a list, for commands that record metrics without
/// a [`crate::SweepDriver`] (whose `SWEEP_FLAGS` already carry it).
pub const METRICS_FLAGS: &[Flag] = &[METRICS_OUT];

/// The recorder requested on the command line: enabled iff
/// `--metrics-out <path>` was given.
pub fn recorder(args: &Args) -> obs::Recorder {
    obs::Recorder::new(args.get("metrics-out").is_some())
}

/// Writes the recorder's snapshot to the `--metrics-out` path, if one was
/// given. Exits with an error message if the file cannot be written (a
/// silently dropped report is worse than a failed run).
pub fn write_metrics(args: &Args, rec: &obs::Recorder) {
    let Some(path) = args.get("metrics-out") else {
        return;
    };
    let json = rec.snapshot().to_json();
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: cannot write --metrics-out {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("metrics written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_follows_flag() {
        let off = Args::from_args(METRICS_FLAGS, [""; 0]).unwrap();
        assert!(!recorder(&off).is_enabled());
        let on = Args::from_args(METRICS_FLAGS, ["--metrics-out", "/tmp/m.json"]).unwrap();
        assert!(recorder(&on).is_enabled());
    }

    #[test]
    fn write_is_a_no_op_without_the_flag() {
        let args = Args::from_args(METRICS_FLAGS, [""; 0]).unwrap();
        write_metrics(&args, &obs::Recorder::enabled());
    }
}
