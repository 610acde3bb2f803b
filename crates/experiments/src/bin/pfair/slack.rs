//! Slack-reservation sweep — the paper's §6 future work: the
//! degradation sweep showed WCET overruns are *structural* for PD² (the
//! scheduler serves exactly the declared weights, so a lag watchdog sees
//! no scheduler-level backlog). This command buys slack up front — spare
//! processors and/or a per-task weight margin — and measures how fast
//! application lag re-converges once a windowed fault storm ends.
//!
//! ```text
//! pfair slack [--tasks 8] [--util 2.0] \
//!     [--sets 10] [--horizon 2000] [--seed 1] [--recovery none|shed|catchup|full] \
//!     [--lag-threshold 1.0] [--trace st.json] [--trace-kind overrun] \
//!     [--trace-strategy margin25] [--threads N] \
//!     [--metrics-out m.json] [--csv]
//! ```
//!
//! Points are (fault kind) × (reservation strategy). Faults are injected
//! only inside a window covering the first half of `--horizon`
//! ([`FaultConfig::window_start`]/`window_end`); the second half is where
//! the reservation either drains the accumulated lag or provably cannot.
//! Per point, over `--sets` seeded task sets:
//!
//! - `procs` — mean processors the strategy ran on (the spare-processor
//!   strategies pay in hardware, the margin strategies in admission);
//! - `degraded` — mean slots with max app lag above `--lag-threshold`;
//! - `recover` — mean length of an above-threshold episode (the recovery
//!   time), and `worst` the longest episode observed anywhere;
//! - `stuck` — sets still degraded at the horizon (never recovered);
//! - `miss` — mean application deadline-miss ratio;
//! - `viol` — Pfair window violations (always expected 0: every run is
//!   verified against the *declared* set's event-adjusted windows).
//!
//! With `--trace <file>`, one representative run (first set's task set,
//! `--trace-kind` fault, `--trace-strategy` reservation) is captured as a
//! schema-v2 JSON [`ScheduleTrace`](sched_sim::ScheduleTrace) that
//! `verify_trace` re-checks offline.

use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use faults::{run_pd2, FaultConfig, RecoveryPolicy, SlackPlan};
use stats::Welford;
use std::ops::Bound::{Excluded, Included};
use workload::TaskSetGenerator;

/// Fault kinds stressed inside the window.
const KINDS: [&str; 3] = ["overrun", "failstop", "mixed"];

/// Reservation strategies compared for every fault kind.
const STRATEGIES: [(&str, u32, f64); 4] = [
    ("base", 0, 0.0),
    ("spare1", 1, 0.0),
    ("margin25", 0, 0.25),
    ("margin50", 0, 0.50),
];

/// The windowed fault storm for `kind`: injection stops at `horizon / 2`,
/// leaving the second half for recovery.
fn config_for(kind: &str, seed: u64, horizon: u64) -> FaultConfig {
    let mut cfg = FaultConfig {
        window_start: 0,
        window_end: horizon / 2,
        ..FaultConfig::none(seed)
    };
    match kind {
        "overrun" => {
            cfg.overrun_rate = 0.5;
            cfg.overrun_max = 2;
        }
        "failstop" => {
            cfg.fail_every = 50;
            cfg.fail_duration = 25;
            cfg.max_down = 1;
        }
        "mixed" => {
            cfg.overrun_rate = 0.5;
            cfg.overrun_max = 2;
            cfg.fail_every = 50;
            cfg.fail_duration = 25;
            cfg.max_down = 1;
        }
        other => unreachable!("unknown fault kind {other}"),
    }
    cfg
}

fn plan_for(strategy: &str, lag_threshold: f64) -> SlackPlan {
    let (_, spare, margin) = STRATEGIES
        .iter()
        .find(|(name, _, _)| *name == strategy)
        .expect("strategy names come from STRATEGIES");
    SlackPlan {
        spare_procs: *spare,
        margin: *margin,
        lag_threshold,
    }
}

/// The flags `slack` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("tasks", "N"),
    Flag::value("util", "X"),
    Flag::value("sets", "N"),
    Flag::value("horizon", "N"),
    Flag::value("seed", "N"),
    Flag::value("recovery", "none|shed|catchup|full"),
    Flag::value("lag-threshold", "X"),
    Flag::value("trace", "FILE"),
    Flag::value("trace-kind", "overrun|failstop|mixed"),
    Flag::value("trace-strategy", "base|spare1|margin25|margin50"),
];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair slack", &[FLAGS, SWEEP_FLAGS], argv);
    let n: usize = args.get_in("tasks", 8, 1..);
    let util: f64 = args.get_in("util", 2.0, (Excluded(0.0), Included(n as f64)));
    let sets: usize = args.get_in("sets", 10, 1..);
    let horizon: u64 = args.get_or("horizon", 2_000);
    let seed: u64 = args.get_or("seed", 1);
    let lag_threshold: f64 = args.get_or("lag-threshold", 1.0);
    let policy: RecoveryPolicy = args.get_or("recovery", RecoveryPolicy::None);
    let recovery = args.get("recovery").unwrap_or("none");
    let rec = recorder(&args);

    let driver = SweepDriver::new(&args);
    eprintln!(
        "slack: N={n}, U={util}, {sets} sets per point, recovery={recovery}, {} threads",
        driver.threads()
    );

    if let Some(tpath) = args.get("trace").map(str::to_string) {
        let kind: String = args.get_or("trace-kind", "overrun".to_string());
        let strategy: String = args.get_or("trace-strategy", "margin25".to_string());
        if !KINDS.contains(&kind.as_str()) {
            eprintln!("slack: --trace-kind {kind}: expected overrun|failstop|mixed");
            std::process::exit(2);
        }
        if !STRATEGIES.iter().any(|(name, _, _)| *name == strategy) {
            eprintln!("slack: --trace-strategy {strategy}: expected base|spare1|margin25|margin50");
            std::process::exit(2);
        }
        let mut gen = TaskSetGenerator::new(n, util, seed);
        let tasks = match gen.generate().to_quantum_tasks(1_000) {
            Ok(tasks) => tasks,
            Err(e) => {
                eprintln!("slack: cannot build a traceable task set: {e}");
                std::process::exit(2);
            }
        };
        let cfg = config_for(&kind, seed, horizon);
        let plan = plan_for(&strategy, lag_threshold);
        let out = run_pd2(&tasks, cfg, policy, horizon, plan, true);
        let trace = out.trace.expect("a trace was asked for");
        if let Some(v) = out.window_violation {
            rec.counter("slack.window_violations").incr();
            eprintln!("slack: Pfair window violation in the traced run: {v:?}");
        }
        if let Err(e) = std::fs::write(&tpath, trace.to_json()) {
            eprintln!("slack: cannot write trace to {tpath}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "slack: traced {kind}/{strategy} run on {} procs ({} slots, {} events) \
             written to {tpath}",
            out.procs,
            trace.slots.len(),
            trace.events.len()
        );
    }

    let points: Vec<(&str, &str)> = KINDS
        .iter()
        .flat_map(|&k| STRATEGIES.iter().map(move |&(s, _, _)| (k, s)))
        .collect();
    let keys: Vec<String> = points.iter().map(|(k, s)| format!("{k}/{s}")).collect();
    let rows = driver.run(&keys, &rec, |i, shard| {
        let (kind, strategy) = points[i];
        let violations = shard.counter("slack.window_violations");
        let plan = plan_for(strategy, lag_threshold);
        let mut procs = Welford::new();
        let mut degraded = Welford::new();
        let mut recover = Welford::new();
        let mut worst = 0u64;
        let mut stuck = 0usize;
        let mut miss = Welford::new();
        let mut viol = 0u64;
        for s in 0..sets {
            let set_seed = seed ^ ((s as u64) << 22);
            let mut gen = TaskSetGenerator::new(n, util, set_seed);
            let Ok(tasks) = gen.generate().to_quantum_tasks(1_000) else {
                continue;
            };
            let cfg = config_for(kind, set_seed, horizon);
            let out = run_pd2(&tasks, cfg, policy, horizon, plan, false);
            procs.push(out.procs as f64);
            degraded.push(out.profile.degraded_slots as f64);
            if out.profile.episodes > 0 {
                recover.push(out.profile.mean_episode());
            }
            worst = worst.max(out.profile.longest_episode);
            stuck += out.profile.degraded_at_end as usize;
            miss.push(out.faults.miss_ratio());
            if let Some(v) = out.window_violation {
                viol += 1;
                violations.incr();
                eprintln!("slack: Pfair window violation: {v:?}");
            }
        }
        eprintln!(
            "  {kind}/{strategy}: degraded {} slots, {} stuck/{sets}",
            if degraded.count() == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", degraded.mean())
            },
            stuck
        );
        let fmt = |w: &Welford, digits: usize| {
            if w.count() == 0 {
                "-".to_string()
            } else {
                format!("{:.*}", digits, w.mean())
            }
        };
        vec![
            kind.to_string(),
            strategy.to_string(),
            fmt(&procs, 1),
            fmt(&degraded, 1),
            fmt(&recover, 1),
            worst.to_string(),
            stuck.to_string(),
            fmt(&miss, 4),
            viol.to_string(),
        ]
    });

    driver.finish(
        &args,
        &rec,
        &[
            "fault", "strategy", "procs", "degraded", "recover", "worst", "stuck", "miss", "viol",
        ],
        rows,
    );
}
