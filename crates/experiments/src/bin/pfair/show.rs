//! Schedule visualizer: run any task set under any policy and render the
//! schedule (and optionally one task's subtask windows) as ASCII, in the
//! style of the paper's figures. Can archive the run as a JSON trace.
//!
//! ```text
//! pfair show --tasks 2/3,2/3,2/3 [--cpus 2] [--slots 24] [--policy pd2|pf|pd|epdf] \
//!     [--windows 0] [--er none|intra|full] [--trace out.json]
//! ```

use experiments::{Args, Flag};
use pfair_core::sched::{EarlyRelease, SchedConfig};
use pfair_core::Policy;
use pfair_model::{Task, TaskId, TaskSet};
use sched_sim::{render_schedule, render_task_windows, MultiSim, ScheduleTrace};
use std::str::FromStr;

/// `--tasks`: comma-separated `E/P` pairs, each a valid task.
struct TaskList(TaskSet);

impl FromStr for TaskList {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        spec.split(',')
            .map(|pair| {
                let (e, p) = pair
                    .trim()
                    .split_once('/')
                    .ok_or_else(|| format!("task '{pair}' is not E/P"))?;
                let e: u64 = e.parse().map_err(|_| format!("bad exec '{e}'"))?;
                let p: u64 = p.parse().map_err(|_| format!("bad period '{p}'"))?;
                Task::new(e, p).map_err(|err| format!("task {e}/{p}: {err}"))
            })
            .collect::<Result<TaskSet, String>>()
            .map(TaskList)
    }
}

/// Every flag `show` accepts.
const FLAGS: &[Flag] = &[
    Flag::value("tasks", "E/P,E/P,..."),
    Flag::value("cpus", "N"),
    Flag::value("slots", "N"),
    Flag::value("policy", "pd2|pf|pd|epdf"),
    Flag::value("windows", "TASK"),
    Flag::value("er", "none|intra|full"),
    Flag::value("trace", "FILE"),
];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair show", &[FLAGS], argv);
    let classic = "2/3,2/3,2/3".parse().expect("the default set is valid");
    let TaskList(tasks) = args.get_or("tasks", classic);
    // Fewer processors than Σw cannot hold the set.
    let fewest = tasks.min_processors();
    let m: u32 = args.get_in("cpus", fewest, fewest..=fewest.max(1024));
    let slots: u64 = args.get_or("slots", 24);
    let policy: Policy = args.get_or("policy", Policy::Pd2);
    let er: EarlyRelease = args.get_or("er", EarlyRelease::None);
    let last = tasks.len() as u32 - 1;
    let windows = args
        .get("windows")
        .map(|_| TaskId(args.get_in("windows", 0, 0..=last)));

    println!(
        "{} tasks, Σw = {}, M = {m}, policy {}, {slots} slots\n",
        tasks.len(),
        tasks.total_utilization(),
        policy.name()
    );
    let cfg = SchedConfig::pd2(m)
        .with_policy(policy)
        .with_early_release(er);
    let mut sim = MultiSim::new(&tasks, cfg);
    sim.record_schedule();
    let metrics = sim.run(slots);

    let labels: Vec<String> = tasks
        .iter()
        .map(|(id, t)| format!("{id}({}/{})", t.exec, t.period))
        .collect();
    print!(
        "{}",
        render_schedule(sim.schedule().unwrap(), tasks.len(), Some(&labels))
    );
    println!(
        "\nmisses {}  preemptions {}  migrations {}  context switches {}  idle {}",
        metrics.misses,
        metrics.preemptions,
        metrics.migrations,
        metrics.context_switches,
        metrics.idle_quanta
    );

    if let Some(id) = windows {
        println!("\nsubtask windows of {id}:");
        print!("{}", render_task_windows(&tasks, id, slots));
    }

    if let Some(path) = args.get("trace") {
        let trace = ScheduleTrace::capture(&tasks, &sim)
            .expect("record_schedule() was enabled before the run");
        if let Err(e) = std::fs::write(path, trace.to_json()) {
            eprintln!("show: cannot write trace to {path}: {e}");
            std::process::exit(2);
        }
        println!("\ntrace written to {path}");
    }
}
