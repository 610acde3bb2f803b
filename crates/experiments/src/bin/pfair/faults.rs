//! Degradation sweep: PD² vs. partitioned EDF (first-fit decreasing) as
//! fault intensity grows, across several fault types.
//!
//! ```text
//! pfair faults [--tasks 10] [--util 2.5] \
//!     [--sets 20] [--horizon 2000] [--seed 1] [--recovery none|shed|catchup|full] \
//!     [--trace ft.json] [--trace-kind failstop] [--trace-level 0.25] \
//!     [--threads N] [--metrics-out m.json] [--csv]
//! ```
//!
//! Each point fixes a fault type and an intensity level, generates `--sets`
//! random task sets, and runs both schedulers under the *same* seeded
//! [`FaultConfig`] for `--horizon` quanta on `M = min_processors()`
//! processors. Reported per point:
//!
//! - mean application deadline-miss ratio and worst observed application
//!   lag, for PD² and for EDF-FF;
//! - how many sets EDF-FF rejected outright at partitioning time (PD²
//!   admits anything with `ΣWt ≤ M` — the paper's point);
//! - recovery interventions (tasks shed, ERfair catch-up trips) when
//!   `--recovery` is not `none`.
//!
//! Every PD² run is window-verified online against its event-adjusted
//! Pfair windows (see `faults::run_pd2`); violations land in the
//! `faults.window_violations` metric. With `--trace <file>`, one
//! representative faulted run (`--trace-kind` at `--trace-level`, same
//! recovery policy) is additionally captured as a schema-v2 JSON trace —
//! fault and recovery events included — that `verify_trace` can re-check
//! offline.
//!
//! Points run through [`experiments::SweepDriver`] (`--threads`,
//! byte-identical output for any thread count). Exit codes: 0 success,
//! 2 usage error, 101 a panicking point (no table printed).

use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use faults::{run_edf, run_pd2, FaultConfig, RecoveryPolicy};
use stats::Welford;
use std::ops::Bound::{Excluded, Included};
use workload::TaskSetGenerator;

/// Fault-intensity levels swept for every fault type.
const LEVELS: [f64; 3] = [0.10, 0.25, 0.50];

/// Fault types compared (plus one shared fault-free baseline row).
const KINDS: [&str; 4] = ["loss", "overrun", "failstop", "burst"];

/// Maps a (type, level) pair onto a concrete fault configuration.
///
/// `level` is the per-draw probability for loss/overrun/burst faults; for
/// fail-stop it is the duty cycle of a one-processor outage (a window of
/// `level · 50` dead slots every 50).
fn config_for(kind: &str, level: f64, seed: u64) -> FaultConfig {
    let mut cfg = FaultConfig::none(seed);
    match kind {
        "none" => {}
        "loss" => cfg.loss_rate = level,
        "overrun" => {
            cfg.overrun_rate = level;
            cfg.overrun_max = 3;
        }
        "failstop" => {
            cfg.fail_every = 50;
            cfg.fail_duration = (level * 50.0).round() as u64;
            cfg.max_down = 1;
        }
        "burst" => {
            cfg.burst_rate = level;
            cfg.burst_max = 3;
        }
        other => unreachable!("unknown fault kind {other}"),
    }
    cfg
}

/// A `--trace-kind` value: `none` or one of [`KINDS`].
struct TraceKind(&'static str);

impl std::str::FromStr for TraceKind {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        std::iter::once("none")
            .chain(KINDS)
            .find(|kind| *kind == s)
            .map(TraceKind)
            .ok_or("expected none|loss|overrun|failstop|burst")
    }
}

fn fmt_opt(w: &Welford) -> String {
    if w.count() == 0 {
        "-".to_string()
    } else {
        format!("{:.4}", w.mean())
    }
}

/// The flags `faults` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("tasks", "N"),
    Flag::value("util", "X"),
    Flag::value("sets", "N"),
    Flag::value("horizon", "N"),
    Flag::value("seed", "N"),
    Flag::value("recovery", "none|shed|catchup|full"),
    Flag::value("trace", "FILE"),
    Flag::value("trace-kind", "none|loss|overrun|failstop|burst"),
    Flag::value("trace-level", "X"),
];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair faults", &[FLAGS, SWEEP_FLAGS], argv);
    let n: usize = args.get_in("tasks", 10, 1..);
    let util: f64 = args.get_in("util", n as f64 / 4.0, (Excluded(0.0), Included(n as f64)));
    let sets: usize = args.get_in("sets", 20, 1..);
    let horizon: u64 = args.get_or("horizon", 2_000);
    let seed: u64 = args.get_or("seed", 1);
    let policy: RecoveryPolicy = args.get_or("recovery", RecoveryPolicy::None);
    let recovery = args.get("recovery").unwrap_or("none");
    let rec = recorder(&args);

    let driver = SweepDriver::new(&args);
    eprintln!(
        "faults: N={n}, U={util}, {sets} sets per point, recovery={recovery}, {} threads",
        driver.threads()
    );

    if let Some(tpath) = args.get("trace").map(str::to_string) {
        let TraceKind(kind) = args.get_or("trace-kind", TraceKind("failstop"));
        let level: f64 = args.get_or("trace-level", 0.25);
        let mut gen = TaskSetGenerator::new(n, util, seed);
        let tasks = match gen.generate().to_quantum_tasks(1_000) {
            Ok(tasks) => tasks,
            Err(e) => {
                eprintln!("faults: cannot build a traceable task set: {e}");
                std::process::exit(2);
            }
        };
        let cfg = config_for(kind, level, seed);
        let out = run_pd2(&tasks, cfg, policy, horizon, true);
        let trace = out.trace.expect("a trace was asked for");
        if let Some(v) = out.window_violation {
            rec.counter("faults.window_violations").incr();
            eprintln!("faults: Pfair window violation in the traced run: {v:?}");
        }
        if let Err(e) = std::fs::write(&tpath, trace.to_json()) {
            eprintln!("faults: cannot write trace to {tpath}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "faults: traced {kind}@{level:.2} run ({} slots, {} events) written to {tpath}",
            trace.slots.len(),
            trace.events.len()
        );
    }

    let points: Vec<(&str, f64)> = std::iter::once(("none", 0.0))
        .chain(
            KINDS
                .iter()
                .flat_map(|&k| LEVELS.iter().map(move |&l| (k, l))),
        )
        .collect();
    let keys: Vec<String> = points.iter().map(|(k, l)| format!("{k}@{l:.2}")).collect();
    let rows = driver.run(&keys, &rec, |i, shard| {
        let (kind, level) = points[i];
        let edf_rejections = shard.counter("faults.edf_rejections");
        let violations = shard.counter("faults.window_violations");
        let mut pd2_miss = Welford::new();
        let mut edf_miss = Welford::new();
        let mut pd2_lag = 0.0f64;
        let mut edf_lag = 0.0f64;
        let mut edf_rejected = 0usize;
        let mut shed = 0u64;
        let mut trips = 0u64;
        for s in 0..sets {
            let set_seed = seed ^ ((s as u64) << 22);
            let mut gen = TaskSetGenerator::new(n, util, set_seed);
            let Ok(tasks) = gen.generate().to_quantum_tasks(1_000) else {
                continue;
            };
            let cfg = config_for(kind, level, set_seed);
            let out = run_pd2(&tasks, cfg, policy, horizon, false);
            pd2_miss.push(out.faults.miss_ratio());
            pd2_lag = pd2_lag.max(out.faults.max_app_lag);
            if let Some(r) = out.recovery {
                shed += r.tasks_shed;
                trips += r.catchup_trips;
            }
            if let Some(v) = out.window_violation {
                violations.incr();
                eprintln!("faults: Pfair window violation: {v:?}");
            }
            match run_edf(&tasks, tasks.min_processors(), cfg, horizon) {
                Some(fm) => {
                    edf_miss.push(fm.miss_ratio());
                    edf_lag = edf_lag.max(fm.max_app_lag);
                }
                None => {
                    edf_rejected += 1;
                    edf_rejections.incr();
                }
            }
        }
        eprintln!(
            "  {kind}@{level:.2}: PD2 miss {}  EDF miss {}  (EDF rejected {edf_rejected}/{sets})",
            fmt_opt(&pd2_miss),
            fmt_opt(&edf_miss)
        );
        vec![
            kind.to_string(),
            format!("{level:.2}"),
            fmt_opt(&pd2_miss),
            format!("{pd2_lag:.3}"),
            fmt_opt(&edf_miss),
            format!("{edf_lag:.3}"),
            edf_rejected.to_string(),
            shed.to_string(),
            trips.to_string(),
        ]
    });
    driver.finish(
        &args,
        &rec,
        &[
            "fault",
            "level",
            "PD2 miss",
            "PD2 max lag",
            "EDF miss",
            "EDF max lag",
            "EDF rejected",
            "shed",
            "catchup trips",
        ],
        rows,
    );
}
