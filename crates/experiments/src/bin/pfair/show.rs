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
use pfair_model::{TaskId, TaskSet};
use sched_sim::{render_schedule, render_task_windows, MultiSim, ScheduleTrace};

fn parse_tasks(spec: &str) -> TaskSet {
    spec.split(',')
        .map(|pair| {
            let (e, p) = pair
                .trim()
                .split_once('/')
                .unwrap_or_else(|| panic!("task '{pair}' is not e/p"));
            let e: u64 = e.parse().unwrap_or_else(|_| panic!("bad exec '{e}'"));
            let p: u64 = p.parse().unwrap_or_else(|_| panic!("bad period '{p}'"));
            pfair_model::Task::new(e, p).unwrap_or_else(|err| panic!("task {e}/{p}: {err}"))
        })
        .collect()
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
    let spec = args.get("tasks").unwrap_or("2/3,2/3,2/3").to_string();
    let tasks = parse_tasks(&spec);
    let m: u32 = args.get_or("cpus", tasks.min_processors());
    let slots: u64 = args.get_or("slots", 24);
    let policy = match args.get("policy").unwrap_or("pd2") {
        "pd2" => Policy::Pd2,
        "pd" => Policy::Pd,
        "pf" => Policy::Pf,
        "epdf" => Policy::Epdf,
        other => panic!("unknown policy '{other}'"),
    };
    let er = match args.get("er").unwrap_or("none") {
        "none" => EarlyRelease::None,
        "intra" => EarlyRelease::IntraJob,
        "full" => EarlyRelease::Unrestricted,
        other => panic!("unknown early-release mode '{other}'"),
    };

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

    if let Some(idx) = args.get("windows") {
        let id = TaskId(idx.parse().expect("--windows takes a task index"));
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
