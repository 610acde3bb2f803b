//! `pfair-benchmark`: the repository benchmark behind `BENCHMARK.json`.
//!
//! ```text
//! pfair-benchmark run <workload> [--seed S] [--seconds X] [--trace 0|1]
//!                 [--reps R] [--rep-seconds Y] [--out-dir DIR] [--json-out FILE]
//!                 [--write-golden]
//! pfair-benchmark compare <base.json> <new.json>
//! ```
//!
//! `run` measures one workload in this process and prints every metric as
//! `workload metric value unit`, then one JSON object with exactly
//! `correct`, `attempted`, `failed` and `metrics` as its last line.
//! `--trace 0` reports the end-to-end metrics (tracing off, one warm-up
//! repetition, then 5 timed ones per second of `--seconds`, or `--reps`);
//! `--trace 1` reports the per-layer metrics from one long traced
//! repetition. `benchmark/run.sh` builds this binary and drives it; see
//! `benchmark/README.md`.

mod compare;
mod golden;
mod procfs;
mod report;
mod reqgen;
mod spans;
mod stats;
mod workloads;

use report::{per_layer_record, RunRecord, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use workloads::{end_to_end, Rep, RunArgs};

/// Spans written verbatim to a trace file; the per-name aggregate in the
/// same file always covers every span.
pub const MAX_TRACE_SPANS: usize = 50_000;

/// Prints `msg` and exits with status 2, without a result line.
pub fn die(msg: &str) -> ! {
    eprintln!("pfair-benchmark: {msg}");
    std::process::exit(2);
}

const USAGE: &str = "usage: pfair-benchmark run <workload> [--seed S] [--seconds X] \
[--trace 0|1] [--reps R] [--rep-seconds Y] [--out-dir DIR] [--json-out FILE] \
[--write-golden]\n       \
pfair-benchmark compare <base.json> <new.json>";

struct RunCli {
    args: RunArgs,
    trace: bool,
    json_out: Option<PathBuf>,
}

fn parse_run(mut argv: impl Iterator<Item = String>) -> Result<RunCli, String> {
    let workload = argv.next().ok_or("run needs a workload name")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let mut cli = RunCli {
        args: RunArgs {
            workload,
            seed: 1,
            seconds: 20.0,
            reps: 0,
            rep_seconds: 0.0,
            out_dir: PathBuf::from("."),
            write_golden: false,
        },
        trace: false,
        json_out: None,
    };
    // Unless given, these two follow from the pass and `--seconds`.
    let (mut reps, mut rep_seconds) = (None, None);
    while let Some(flag) = argv.next() {
        if flag == "--write-golden" {
            cli.args.write_golden = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--seed" => cli.args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                cli.args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(cli.args.seconds > 0.0 && cli.args.seconds <= 600.0) {
                    return Err(bad("a number in (0, 600]"));
                }
            }
            "--reps" => {
                reps = Some(value.parse().map_err(|_| bad("a whole number"))?);
                if reps == Some(0) {
                    return Err(bad("at least 1"));
                }
            }
            "--rep-seconds" => {
                let y: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(y > 0.0 && y <= 60.0) {
                    return Err(bad("a number in (0, 60]"));
                }
                rep_seconds = Some(y);
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => cli.args.out_dir = PathBuf::from(value),
            "--json-out" => cli.json_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // Many short repetitions end to end, one long one traced.
    cli.args.reps =
        reps.unwrap_or(((cli.args.seconds * workloads::REPS_PER_SECOND).round() as u64).max(1));
    cli.args.rep_seconds = rep_seconds.unwrap_or(match cli.trace {
        false => workloads::REP_SECONDS,
        true => workloads::TRACED_REP_SECONDS,
    });
    Ok(cli)
}

fn run(cli: RunCli) -> bool {
    let RunCli {
        mut args,
        trace,
        json_out,
    } = cli;
    // Run inside the output directory: sockets get short relative names
    // and nothing is written anywhere else.
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        die(&format!("creating {}: {e}", args.out_dir.display()));
    }
    let json_out = json_out.map(|p| std::path::absolute(&p).unwrap_or(p));
    if let Err(e) = std::env::set_current_dir(&args.out_dir) {
        die(&format!("entering {}: {e}", args.out_dir.display()));
    }
    args.out_dir = PathBuf::from(".");

    let mut workload = workloads::build(&args).expect("workload name was validated");
    // Per-layer metrics the traced pass measured; the rest are reported as
    // 0 (their layers did no work in this workload) and left out of the table.
    let mut measured: Vec<(String, f64)> = Vec::new();
    let (metrics, attempted, failed) = if trace {
        // An untraced repetition first: the traced one is judged against it.
        let base = workload.rep();
        measured = workload.traced(&base);
        if let Some((stray, _)) = measured
            .iter()
            .find(|(n, _)| !PER_LAYER.iter().any(|d| d.0 == n))
        {
            die(&format!("{stray} is not listed in PER_LAYER"));
        }
        let value_of = |name: &str| {
            measured
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |p| p.1)
        };
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, _, _)| per_layer_record(name, value_of(name)).expect("listed"))
            .collect();
        (metrics, base.ops(), base.failed)
    } else {
        workload.rep(); // warm-up: code, allocator and page cache
        let reps: Vec<Rep> = (0..args.reps).map(|_| workload.rep()).collect();
        (
            end_to_end(&reps, procfs::peak_rss_mb()),
            reps.iter().map(Rep::ops).sum(),
            reps.iter().map(|r| r.failed).sum(),
        )
    };
    let checks = workload.checks();
    let record = RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace,
        reps: if trace { 1 } else { args.reps },
        correct: failed == 0 && checks.iter().all(|c| c.ok),
        attempted,
        failed,
        metrics,
        checks,
    };
    record.print_table(|name| !trace || measured.iter().any(|(n, _)| n == name));
    if let Some(path) = json_out {
        let json = serde_json::to_string_pretty(&record).expect("record serialises");
        if let Err(e) = std::fs::write(&path, json) {
            die(&format!("writing {}: {e}", path.display()));
        }
    }
    println!("{}", record.result_line());
    record.correct
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let ok = match argv.next().as_deref() {
        Some("run") => match parse_run(argv) {
            Ok(cli) => run(cli),
            Err(e) => die(&format!("{e}\n{USAGE}")),
        },
        Some("compare") => match (argv.next(), argv.next(), argv.next()) {
            (Some(base), Some(new), None) => {
                compare::compare(&base, &new).unwrap_or_else(|e| die(&e))
            }
            _ => die(USAGE),
        },
        _ => die(USAGE),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
