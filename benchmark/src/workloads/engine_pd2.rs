//! `engine_pd2`: the paper's Fig. 2 quantity. 500 tasks at Σwt = 0.9·M on
//! `MultiSim` under `SchedConfig::pd2(8)`, recorder disabled, in steady
//! state: periodic ticks with no joins or leaves.
//!
//! Only `core` (the PD² scheduler) and `sim` (dispatch and accounting)
//! work. One operation is one simulated slot.

use super::{sized, Rep, RunArgs, Slice, Workload};
use crate::golden;
use crate::procfs::process_cpu_ns;
use crate::report::{Check, Checks};
use crate::spans::Tracer;
use crate::stats::percentile;
use pfair_core::sched::{PfairScheduler, SchedConfig};
use pfair_model::{Task, TaskId, TaskSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched_sim::verify::check_windows;
use sched_sim::{MultiSim, RunMetrics};
use std::time::Instant;

/// Tasks and processors of the measured set.
const SHAPE: (usize, u32) = (500, 8);
/// Slots run before timing, past the synchronised-release transient.
const WARMUP_SLOTS: u64 = 10_000;
/// Slots per timed call.
const CHUNK: u64 = 10_000;
/// Slots per second of repetition (≈ 0.8 µs a slot on the seed code).
const SLOTS_PER_SECOND: f64 = 1_250_000.0;
/// Recorded slots that are window-checked and hashed.
const VERIFIED_SLOTS: u64 = 20_000;

/// `crates/bench`'s `quantum_workload` recipe: `n` tasks with total
/// weight ≈ 0.9·min(n, m), execution costs 1–4 quanta.
pub fn quantum_workload(n: usize, m: u32, seed: u64) -> TaskSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let budget = 0.9 * (n as f64).min(f64::from(m));
    let draws: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0f64)).collect();
    let sum: f64 = draws.iter().sum();
    draws
        .into_iter()
        .map(|d| {
            let u = (d * budget / sum).min(0.95);
            let e = rng.gen_range(1u64..=4);
            let p = ((e as f64 / u).ceil() as u64).max(e + 1);
            Task::new(e, p).expect("e < p by construction")
        })
        .collect()
}

/// FNV-1a over the schedule's task ids, slot by slot, folded to 48 bits
/// so the value is exact as a JSON number.
fn schedule_fnv48(schedule: &[Vec<TaskId>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for slot in schedule {
        for id in slot {
            eat(id.0);
        }
        eat(u32::MAX); // slot separator
    }
    (h >> 48) ^ (h & 0xFFFF_FFFF_FFFF)
}

/// The `engine_pd2` workload.
pub struct EnginePd2 {
    args: RunArgs,
    tasks: TaskSet,
    /// Simulated statistics of the first repetition, with the hash
    /// of its verified prefix.
    reference: golden::Reference,
    /// Hash of the verified prefix, once computed.
    fnv48: Option<u64>,
    checks: Checks,
}

/// Nanoseconds per tick of a bare `PfairScheduler` over `tasks`, after
/// the same warm-up as the engine.
fn standalone_tick_ns(tasks: &TaskSet, m: u32, ticks: u64) -> f64 {
    let mut sched = PfairScheduler::new(tasks, SchedConfig::pd2(m));
    let mut out = Vec::with_capacity(m as usize);
    for t in 0..WARMUP_SLOTS {
        out.clear();
        sched.tick(t, &mut out);
    }
    let t0 = Instant::now();
    for t in WARMUP_SLOTS..WARMUP_SLOTS + ticks {
        out.clear();
        sched.tick(t, &mut out);
        std::hint::black_box(&out);
    }
    t0.elapsed().as_nanos() as f64 / ticks as f64
}

impl EnginePd2 {
    /// Sized for `args.rep_seconds`.
    pub fn new(args: &RunArgs) -> Self {
        EnginePd2 {
            args: args.clone(),
            tasks: quantum_workload(SHAPE.0, SHAPE.1, args.seed),
            reference: golden::Reference::default(),
            fnv48: None,
            checks: Checks::default(),
        }
    }

    fn slots(&self) -> u64 {
        sized(SLOTS_PER_SECOND, self.args.rep_seconds).div_ceil(CHUNK) * CHUNK
    }

    /// What the golden stores: the engine's exact statistics and the
    /// hash of the verified prefix.
    fn outputs(&self, m: &RunMetrics) -> golden::Values {
        [
            ("schedule_fnv48", self.fnv48.unwrap_or(0)),
            ("preemptions", m.preemptions),
            ("migrations", m.migrations),
            ("context_switches", m.context_switches),
            ("idle_quanta", m.idle_quanta),
            ("misses", m.misses),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v as f64))
        .collect()
    }

    /// Window-checks the first recorded slots of a fresh run; returns
    /// their hash.
    fn verify_prefix(&mut self) -> u64 {
        let mut sim = MultiSim::new(&self.tasks, SchedConfig::pd2(SHAPE.1));
        sim.record_schedule();
        let metrics = sim.run(VERIFIED_SLOTS);
        let schedule = sim.schedule().expect("recording was enabled");
        let windows = check_windows(&self.tasks, schedule);
        self.checks.push(Check::new(
            "windows",
            windows.is_ok() && metrics.misses == 0,
            match &windows {
                Ok(()) => format!(
                    "first {VERIFIED_SLOTS} slots keep every Pfair window, {} misses",
                    metrics.misses
                ),
                Err(v) => format!("window violation: {v:?}"),
            },
        ));
        schedule_fnv48(schedule)
    }

    /// Set-up, then `slots` timed slots in chunks, with an optional span
    /// per chunk. Returns the repetition and the engine's statistics.
    fn run(&mut self, slots: u64, mut tracer: Option<&mut Tracer>) -> (Rep, RunMetrics) {
        let t0 = Instant::now();
        let mut sim = MultiSim::new(&self.tasks, SchedConfig::pd2(SHAPE.1));
        sim.run(WARMUP_SLOTS);
        let setup_s = t0.elapsed().as_secs_f64();

        let mut slices = Vec::with_capacity((slots / CHUNK) as usize);
        let mut target = WARMUP_SLOTS;
        let cpu0 = process_cpu_ns();
        while target < WARMUP_SLOTS + slots {
            target += CHUNK;
            let t = Instant::now();
            match tracer.as_deref_mut() {
                None => std::hint::black_box(sim.run(target)),
                Some(tr) => tr.time("sim.run_chunk", None, target, || sim.run(target)),
            };
            slices.push(Slice::call(CHUNK, t.elapsed()));
        }
        let cpu_ns = process_cpu_ns() - cpu0;
        let metrics = sim.metrics();
        let rep = Rep {
            setup_s,
            cpu_ns,
            failed: metrics.misses,
            slices,
        };
        (rep, metrics)
    }
}

impl Workload for EnginePd2 {
    fn rep(&mut self) -> Rep {
        let (rep, metrics) = self.run(self.slots(), None);
        if self.fnv48.is_none() {
            self.fnv48 = Some(self.verify_prefix());
        }
        self.reference
            .observe(self.outputs(&metrics), &mut self.checks);
        rep
    }

    fn traced(&mut self, base: &Rep) -> Vec<(String, f64)> {
        let slots = self.slots();
        let (m, tasks) = (SHAPE.1, self.tasks.clone());

        let mut tr = Tracer::new();
        let (traced_rep, metrics) = self.run(slots, Some(&mut tr));
        self.reference
            .check_traced(&self.outputs(&metrics), &mut self.checks);
        let path = self.args.out_dir.join("trace-engine_pd2.json");
        if let Err(e) = tr.write_json(&path, "engine_pd2", crate::MAX_TRACE_SPANS) {
            self.checks.fail("trace_file", e.to_string());
        }

        let step_ns = base.wall_s() * 1e9 / base.ops() as f64;
        let tick_ns = standalone_tick_ns(&tasks, m, slots / 2);
        let tick_small =
            standalone_tick_ns(&quantum_workload(100, 4, self.args.seed), 4, slots / 4);
        let tick_large =
            standalone_tick_ns(&quantum_workload(4000, 16, self.args.seed), 16, slots / 8);

        let mut setup_us: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(MultiSim::new(&tasks, SchedConfig::pd2(m)));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();

        // The same engine with a live recorder: what leaving the
        // instruments on costs, and the heap work per tick they count.
        let rec = obs::Recorder::enabled();
        let mut sim = MultiSim::new(&tasks, SchedConfig::pd2(m));
        sim.set_recorder(&rec);
        sim.run(WARMUP_SLOTS);
        let before = rec.snapshot();
        let t0 = Instant::now();
        sim.run(WARMUP_SLOTS + slots / 2);
        let recorded_ns = t0.elapsed().as_nanos() as f64 / (slots / 2) as f64;
        let after = rec.snapshot();
        let delta = |name: &str| {
            (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
        };
        let ticks = delta("sched.ticks").max(1.0);

        [
            ("core.tick_ns", tick_ns),
            ("core.tick_ns.100x4", tick_small),
            ("core.tick_ns.4000x16", tick_large),
            ("sim.step_self_ns", step_ns - tick_ns),
            ("sim.setup_us", percentile(&mut setup_us, 50.0)),
            (
                "sched.heap_ops_per_tick",
                (delta("sched.heap_pushes") + delta("sched.heap_pops")) / ticks,
            ),
            (
                "sched.stale_skipped_per_tick",
                delta("sched.stale_skipped") / ticks,
            ),
            ("obs.recorder_on_ratio", recorded_ns / step_ns),
            ("sim.preemptions", metrics.preemptions as f64),
            ("sim.migrations", metrics.migrations as f64),
            ("sim.misses", metrics.misses as f64),
            ("sim.schedule_fnv48", self.fnv48.unwrap_or(0) as f64),
            ("trace_spans", tr.span_count() as f64),
            (
                "trace_overhead_pct",
                100.0 * (traced_rep.wall_s() - base.wall_s()) / base.wall_s(),
            ),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect()
    }

    fn checks(&mut self) -> Vec<Check> {
        if let Some(misses) = self.reference.get().map(|first| first["misses"]) {
            self.checks.push(Check::new(
                "misses",
                misses == 0.0,
                format!("{misses} Pfair deadline misses in the first repetition"),
            ));
        }
        self.reference.verdicts(
            "engine_pd2",
            self.args.seed,
            self.slots(),
            self.args.write_golden,
            &mut self.checks,
        );
        self.checks.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_recipe_is_deterministic_and_feasible() {
        let a = quantum_workload(500, 8, 3);
        assert_eq!(a, quantum_workload(500, 8, 3));
        assert_ne!(a, quantum_workload(500, 8, 4));
        assert_eq!(a.len(), 500);
        assert!(a.feasible_on(8));
    }

    #[test]
    fn schedule_hash_sees_order_and_slot_boundaries() {
        let s = |slots: &[&[u32]]| -> Vec<Vec<TaskId>> {
            slots
                .iter()
                .map(|slot| slot.iter().map(|&i| TaskId(i)).collect())
                .collect()
        };
        let h = schedule_fnv48(&s(&[&[1, 2], &[3]]));
        assert_eq!(h, schedule_fnv48(&s(&[&[1, 2], &[3]])));
        assert_ne!(h, schedule_fnv48(&s(&[&[2, 1], &[3]])));
        assert_ne!(h, schedule_fnv48(&s(&[&[1], &[2, 3]])));
        assert!(h < 1 << 48);
    }
}
