//! Operator CLI for the admission daemon.
//!
//! ```text
//! admitctl --socket S join --wcet-us 1000 --period-us 10000
//! admitctl --socket S leave --task 3
//! admitctl --socket S reweight --task 3 --wcet-us 2000 --period-us 10000
//! admitctl --socket S stats
//! admitctl --socket S watch [--frames 10]
//! admitctl --socket S create-set --set alpha
//! admitctl --socket S drop-set --set alpha
//! admitctl --socket S list-sets
//! admitctl --socket S shutdown
//! admitctl --tcp 127.0.0.1:7133 stats
//! ```
//!
//! `--tcp <addr:port>` targets a TCP daemon instead of `--socket <path>`.
//! `--set <name>` aims join/leave/reweight/stats/watch at a task-set
//! shard (default: the daemon's `default` set).
//!
//! Exit codes: 0 = the daemon said yes (admitted/left/stats/...),
//! 1 = the daemon said no (rejected or error reply, daemon died),
//! 2 = usage / transport failure (a flag outside the ones above
//! included; `--help` lists them). `stats` prints the metrics snapshot
//! JSON on stdout so scripts can parse it.

use daemon::cli::{Args, Flag};
use daemon::client::{DaemonAddr, DaemonClient};
use daemon::proto::{Status, StreamKind};
use std::path::PathBuf;

/// Everything `admitctl` reads: the subcommand and every flag.
const FLAGS: &[Flag] = &[
    Flag::value("socket", "PATH"),
    Flag::value("tcp", "ADDR:PORT"),
    Flag::command("join|leave|reweight|stats|watch|create-set|drop-set|list-sets|shutdown"),
    Flag::value("set", "NAME"),
    Flag::value("task", "ID"),
    Flag::value("wcet-us", "N"),
    Flag::value("period-us", "N"),
    Flag::value("frames", "N"),
];

fn main() {
    let cli = Args::parse("admitctl", &[FLAGS]);
    let addr = match (cli.get("socket"), cli.get("tcp")) {
        (Some(path), None) => DaemonAddr::Unix(PathBuf::from(path)),
        (None, Some(addr)) => DaemonAddr::Tcp(addr.to_string()),
        _ => {
            eprintln!("admitctl: exactly one of --socket and --tcp is required");
            std::process::exit(2);
        }
    };
    let mut client = match DaemonClient::connect_to(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("admitctl: connecting to {addr:?}: {e}");
            std::process::exit(2);
        }
    };
    client.set_scope(cli.get("set"));

    let result = match cli.command() {
        Some("join") => client.join(cli.require("wcet-us"), cli.require("period-us")),
        Some("leave") => client.leave(cli.require("task")),
        Some("reweight") => client.reweight(
            cli.require("task"),
            cli.require("wcet-us"),
            cli.require("period-us"),
        ),
        Some("stats") => client.stats(),
        Some("create-set") => client.create_set(cli.require::<String>("set")),
        Some("drop-set") => client.drop_set(cli.require::<String>("set")),
        Some("list-sets") => client.list_sets(),
        Some("shutdown") => client.shutdown(),
        Some("watch") => {
            let frames: u64 = cli.get_or("frames", 10);
            return watch(client, frames);
        }
        other => {
            eprintln!(
                "admitctl: expected a command, got `{}` (--help lists them)",
                other.unwrap_or("")
            );
            std::process::exit(2);
        }
    };

    let reply = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("admitctl: {e}");
            std::process::exit(1);
        }
    };

    match reply.status {
        Status::Admitted => {
            println!(
                "admitted task={} set={} weight={}/{} quanta={} period_quanta={} \
                 first_release={} slot={}",
                reply.task.unwrap_or(0),
                reply.set.as_deref().unwrap_or("default"),
                reply.weight_num.unwrap_or(0),
                reply.weight_den.unwrap_or(0),
                reply.quanta.unwrap_or(0),
                reply.period_quanta.unwrap_or(0),
                reply.first_release.unwrap_or(0),
                reply.slot,
            );
        }
        Status::Left => {
            println!(
                "left task={} set={} free_at={} slot={}",
                reply.task.unwrap_or(0),
                reply.set.as_deref().unwrap_or("default"),
                reply.free_at.unwrap_or(0),
                reply.slot,
            );
        }
        Status::Stats => {
            eprintln!(
                "set={} slot={} tasks={} weight_ppm={}",
                reply.set.as_deref().unwrap_or("default"),
                reply.slot,
                reply.task_count.unwrap_or(0),
                reply.weight_ppm.unwrap_or(0),
            );
            println!("{}", reply.snapshot.unwrap_or_else(|| "{}".to_string()));
        }
        Status::SetCreated => {
            println!("created set={}", reply.set.as_deref().unwrap_or("?"));
        }
        Status::SetDropped => {
            println!("dropped set={}", reply.set.as_deref().unwrap_or("?"));
        }
        Status::SetList => {
            for name in reply.sets.unwrap_or_default() {
                println!("{name}");
            }
        }
        Status::ShuttingDown => println!("daemon shutting down (slot={})", reply.slot),
        Status::Rejected => {
            eprintln!(
                "rejected: {} (slot={})",
                reply.error.as_deref().unwrap_or("no reason given"),
                reply.slot,
            );
            std::process::exit(1);
        }
        Status::Error => {
            eprintln!(
                "error: {} (slot={})",
                reply.error.as_deref().unwrap_or("no detail"),
                reply.slot,
            );
            std::process::exit(1);
        }
        Status::Subscribed => {
            // Only `watch` subscribes; a daemon that says otherwise is
            // answering some other request.
            eprintln!("admitctl: unexpected Subscribed reply");
            std::process::exit(1);
        }
    }
}

/// Streams `frames` decision/snapshot frames to stdout, then exits. A
/// daemon death surfaces as a clean error with exit 1, never a hang.
fn watch(client: DaemonClient, frames: u64) {
    let mut sub = match client.subscribe() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("admitctl: subscribe: {e}");
            std::process::exit(1);
        }
    };
    let mut seen = 0;
    while seen < frames {
        match sub.next() {
            Ok(msg) => {
                let set = msg.set.as_deref().unwrap_or("default").to_string();
                match msg.kind {
                    StreamKind::Decision => println!(
                        "set={set} slot={} scheduled={:?}",
                        msg.slot,
                        msg.scheduled.unwrap_or_default()
                    ),
                    StreamKind::Snapshot => println!(
                        "set={set} slot={} snapshot={}",
                        msg.slot,
                        msg.snapshot.unwrap_or_default()
                    ),
                    StreamKind::Bye => {
                        println!("daemon said goodbye (set={set} slot={})", msg.slot);
                        return;
                    }
                }
                seen += 1;
            }
            Err(e) => {
                eprintln!("admitctl: stream ended: {e}");
                std::process::exit(1);
            }
        }
    }
}
