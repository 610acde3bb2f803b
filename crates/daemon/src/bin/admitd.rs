//! The admission daemon binary.
//!
//! ```text
//! admitd --socket /tmp/admit.sock --cpus 4 [--pace real|virtual]
//!        [--quantum-us 1000] [--ctx-switch-us 5] [--no-overhead]
//!        [--max-batch 1024] [--snapshot-every 256] [--no-trace]
//!        [--max-sets 64] [--idle-timeout-ms 30000]
//!        [--trace-out trace.json] [--metrics-out metrics.json]
//! admitd --listen 127.0.0.1:7133 [same options]
//! ```
//!
//! Exactly one of `--socket <path>` (Unix-domain) or `--listen
//! <addr:port>` (TCP; port 0 picks an ephemeral port) must be given; a
//! flag outside the list above is a usage error (exit 2), and `--help`
//! prints the list.
//! Prints `admitd: listening on <unix:path|tcp://ip:port>` to stderr once
//! bound — with the *actual* address, so a `--listen 127.0.0.1:0` caller
//! can parse the port — then serves until a client sends Shutdown.
//!
//! At shutdown every task-set shard reports independently, and with
//! `--trace-out base.json` each set's offline-verifiable
//! [`ScheduleTrace`](sched_sim::ScheduleTrace) is written to its own
//! file: the `default` set to `base.json`, set `alpha` to
//! `base.alpha.json`, and sets dropped mid-run to
//! `base.<name>.dropped-<i>.json` (so a dropped-then-recreated name
//! cannot clobber either trace).

use daemon::cli::{Args, Flag};
use daemon::server::{self, Bind, Pace, ServerConfig};
use overhead::OverheadParams;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Every flag `admitd` reads.
const FLAGS: &[Flag] = &[
    Flag::value("socket", "PATH"),
    Flag::value("listen", "ADDR:PORT"),
    Flag::value("cpus", "N"),
    Flag::value("pace", "real|virtual"),
    Flag::value("quantum-us", "N"),
    Flag::value("ctx-switch-us", "N"),
    Flag::switch("no-overhead"),
    Flag::value("max-batch", "N"),
    Flag::value("snapshot-every", "N"),
    Flag::switch("no-trace"),
    Flag::value("max-sets", "N"),
    Flag::value("idle-timeout-ms", "N"),
    Flag::value("trace-out", "FILE"),
    Flag::value("metrics-out", "FILE"),
];

fn main() {
    let cli = Args::parse("admitd", &[FLAGS], std::env::args().skip(1));
    let bind = match (cli.get("socket"), cli.get("listen")) {
        (Some(path), None) => Bind::Unix(PathBuf::from(path)),
        (None, Some(addr)) => Bind::Tcp(addr.to_string()),
        _ => {
            eprintln!("admitd: exactly one of --socket and --listen is required");
            std::process::exit(2);
        }
    };
    let cpus: u32 = cli.get_in("cpus", 4, 1..=1024);

    let mut params = if cli.flag("no-overhead") {
        OverheadParams::zero()
    } else {
        OverheadParams::paper2003()
    };
    params.quantum_us = cli.get_in("quantum-us", params.quantum_us, 1..);
    params.ctx_switch_us = cli.get_or("ctx-switch-us", params.ctx_switch_us);

    let mut cfg = ServerConfig::bound(bind, cpus);
    cfg.core.params = params;
    cfg.core.max_batch = cli.get_in("max-batch", cfg.core.max_batch, 1..);
    cfg.core.record_trace = !cli.flag("no-trace");
    cfg.snapshot_every = cli.get_or("snapshot-every", cfg.snapshot_every);
    cfg.max_sets = cli.get_or("max-sets", cfg.max_sets);
    cfg.idle_timeout =
        Duration::from_millis(cli.get_or("idle-timeout-ms", cfg.idle_timeout.as_millis() as u64));
    cfg.pace = match cli.get("pace").unwrap_or("virtual") {
        "virtual" => Pace::Virtual,
        "real" => Pace::RealTime,
        other => {
            eprintln!("admitd: unknown --pace {other} (expected real|virtual)");
            std::process::exit(2);
        }
    };

    let bound = match server::bind(cfg) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("admitd: bind: {e}");
            std::process::exit(2);
        }
    };
    eprintln!("admitd: listening on {}", bound.local_label());
    let report = match bound.serve() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("admitd: {e}");
            std::process::exit(2);
        }
    };

    let mut dropped_seen = 0usize;
    for set in &report.sets {
        let (admitted, rejected, left, reweighted) = set.counts;
        eprintln!(
            "admitd: set `{}`{} ran {} slot(s): {admitted} admitted, {rejected} rejected, \
             {left} left, {reweighted} reweighted",
            set.name,
            if set.dropped { " (dropped)" } else { "" },
            set.slots,
        );
        if let Some(base) = cli.get("trace-out") {
            let path = trace_path(base, &set.name, set.dropped.then_some(dropped_seen));
            match &set.trace {
                Some(trace) => {
                    if let Err(e) = std::fs::write(&path, trace.to_json()) {
                        eprintln!("admitd: writing {path}: {e}");
                        std::process::exit(2);
                    }
                    eprintln!("admitd: set `{}` trace written to {path}", set.name);
                }
                None => eprintln!("admitd: --trace-out ignored (started with --no-trace)"),
            }
        }
        if set.dropped {
            dropped_seen += 1;
        }
    }
    if let Some(path) = cli.get("metrics-out") {
        if let Err(e) = std::fs::write(path, report.snapshot.to_json()) {
            eprintln!("admitd: writing {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Per-set trace file name under the `--trace-out` base path: the
/// `default` set takes the base verbatim (backward compatible), others
/// splice their name (and a drop ordinal) before the extension.
fn trace_path(base: &str, set: &str, dropped_ordinal: Option<usize>) -> String {
    if set == daemon::proto::DEFAULT_SET && dropped_ordinal.is_none() {
        return base.to_string();
    }
    let p = Path::new(base);
    let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = p
        .extension()
        .and_then(|s| s.to_str())
        .map(|e| format!(".{e}"))
        .unwrap_or_default();
    let tag = match dropped_ordinal {
        Some(i) => format!("{set}.dropped-{i}"),
        None => set.to_string(),
    };
    let name = format!("{stem}.{tag}{ext}");
    p.with_file_name(name).display().to_string()
}
