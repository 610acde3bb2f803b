//! Seeded open-loop load generator for the admission daemon.
//!
//! Drives `admitd` with a deterministic stream of join/leave/reweight
//! requests over one pipelined connection. Arrival *shape* comes from
//! `crates/faults`: the same seeded [`FaultPlan`](faults::FaultPlan)
//! burst draws that perturb IS task arrivals in the simulator decide how
//! many requests land in each quantum here — a burst-delayed "job" means
//! a bunched batch of admission traffic, which is exactly the realistic
//! arrival source the daemon's batch-per-quantum path must absorb.
//!
//! ```text
//! pfair admitload --socket /tmp/admit.sock --requests 100000 --seed 1
//!                 [--set alpha] [--window 64] [--max-active 512]
//!                 [--burst-rate 0.2] [--burst-max 32]
//!                 [--periods 10000,20000,40000,80000]
//! pfair admitload --tcp 127.0.0.1:7133 [same options]
//! ```
//!
//! `--tcp <addr:port>` drives a TCP daemon instead of a Unix socket;
//! `--set <name>` aims every request at that task-set shard.
//!
//! Open-loop: up to `--window` requests are kept in flight regardless of
//! replies. A request outside a burst is flushed as it is sent, so it
//! reaches the daemon when the arrival process says, not with the next
//! read. Exit code 1 if the daemon dies mid-run; a summary of
//! admitted/rejected/left plus reply-latency percentiles prints at the
//! end.

use daemon::client::{ClientError, DaemonAddr, DaemonClient};
use daemon::proto::{Reply, Request, Status};
use faults::{FaultConfig, FaultPlan};
use pfair_model::TaskId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

use experiments::{Args, Flag};

/// Every flag `admitload` accepts.
const FLAGS: &[Flag] = &[
    Flag::value("socket", "PATH"),
    Flag::value("tcp", "ADDR:PORT"),
    Flag::value("set", "NAME"),
    Flag::value("requests", "N"),
    Flag::value("seed", "N"),
    Flag::value("window", "N"),
    Flag::value("max-active", "N"),
    Flag::value("burst-rate", "X"),
    Flag::value("burst-max", "N"),
    Flag::value("periods", "US,US,..."),
];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair admitload", &[FLAGS], argv);
    let addr = match (args.get("socket"), args.get("tcp")) {
        (Some(path), None) => DaemonAddr::Unix(path.into()),
        (None, Some(a)) => DaemonAddr::Tcp(a.to_string()),
        _ => {
            eprintln!("admitload: exactly one of --socket <path> or --tcp <addr:port> is required");
            std::process::exit(2);
        }
    };
    let set = args.get("set");
    let requests: u64 = args.get_or("requests", 100_000);
    let seed: u64 = args.get_or("seed", 1);
    let window: usize = args.get_or("window", 64);
    let max_active: usize = args.get_or("max-active", 512);
    let burst_rate: f64 = args.get_or("burst-rate", 0.2);
    let burst_max: u64 = args.get_or("burst-max", 32);
    let periods: Vec<u64> = args
        .get("periods")
        .unwrap_or("10000,20000,40000,80000")
        .split(',')
        .map(|p| p.trim().parse().expect("--periods must be integers"))
        .collect();

    let mut client = match DaemonClient::connect_to(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("admitload: connecting to {addr:?}: {e}");
            std::process::exit(2);
        }
    };

    // Burst shape: request k belongs to "job" k/8 of a synthetic arrival
    // process; a burst draw for that job bunches its 8 requests into the
    // same instant (no pacing gap), otherwise requests trickle.
    let plan = FaultPlan::new(FaultConfig {
        burst_rate,
        burst_max,
        ..FaultConfig::none(seed)
    });

    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: Vec<u32> = Vec::new();
    let mut inflight: Vec<(u64, Instant)> = Vec::new();
    let mut latencies_us: Vec<u64> = Vec::with_capacity(requests as usize);
    let (mut admitted, mut rejected, mut left, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let started = Instant::now();

    let mut drain = |client: &mut DaemonClient,
                     inflight: &mut Vec<(u64, Instant)>,
                     active: &mut Vec<u32>,
                     latencies_us: &mut Vec<u64>,
                     down_to: usize|
     -> Result<(), ClientError> {
        while inflight.len() > down_to {
            let reply: Reply = client.recv()?;
            if let Some(pos) = inflight.iter().position(|(n, _)| *n == reply.nonce) {
                let (_, sent) = inflight.swap_remove(pos);
                latencies_us.push(sent.elapsed().as_micros() as u64);
            }
            match reply.status {
                Status::Admitted => {
                    admitted += 1;
                    if let Some(id) = reply.task {
                        active.push(id);
                    }
                }
                Status::Rejected => rejected += 1,
                Status::Left => {
                    left += 1;
                    if let Some(id) = reply.task {
                        if let Some(pos) = active.iter().position(|&a| a == id) {
                            active.swap_remove(pos);
                        }
                    }
                }
                _ => errors += 1,
            }
        }
        Ok(())
    };

    let result = (|| -> Result<(), ClientError> {
        for k in 0..requests {
            // Keep the pipeline below the window.
            drain(
                &mut client,
                &mut inflight,
                &mut active,
                &mut latencies_us,
                window - 1,
            )?;

            let nonce = client.take_nonce();
            let mut req = if !active.is_empty()
                && (active.len() >= max_active || rng.gen_range(0.0..1.0) < 0.45)
            {
                let victim = active[rng.gen_range(0..active.len())];
                Request::leave(nonce, victim)
            } else {
                let period = periods[rng.gen_range(0..periods.len())];
                // Per-task utilization in [1%, 12%]: heavy enough that a
                // full daemon rejects, light enough that hundreds fit.
                let wcet = (period as f64 * rng.gen_range(0.01..0.12)) as u64;
                Request::join(nonce, wcet.max(1), period)
            };
            if let Some(s) = set {
                req = req.with_set(s);
            }
            client.send(&req)?;
            inflight.push((nonce, Instant::now()));

            // Burst shaping: inside a burst-delayed job the next request
            // follows immediately and leaves with it; otherwise this one
            // leaves now, and the yield lets the daemon's quantum edge
            // fire between arrivals.
            let job = k / 8;
            if plan.burst_delay(TaskId(0), job) == 0 {
                client.flush()?;
                std::thread::yield_now();
            }
        }
        drain(
            &mut client,
            &mut inflight,
            &mut active,
            &mut latencies_us,
            0,
        )
    })();

    if let Err(e) = result {
        eprintln!("admitload: daemon connection failed mid-run: {e}");
        std::process::exit(1);
    }

    let elapsed = started.elapsed();
    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        let idx = ((latencies_us.len() - 1) as f64 * p) as usize;
        latencies_us[idx]
    };
    println!(
        "admitload: {requests} requests in {:.2}s ({:.0} req/s): {admitted} admitted, \
         {rejected} rejected, {left} left, {errors} errors; reply latency p50={}µs \
         p99={}µs max={}µs; {} still active",
        elapsed.as_secs_f64(),
        requests as f64 / elapsed.as_secs_f64(),
        pct(0.50),
        pct(0.99),
        pct(1.0),
        active.len(),
    );
}
