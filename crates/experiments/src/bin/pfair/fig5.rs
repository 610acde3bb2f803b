//! Fig. 5: the supertasking deadline miss, rendered as an ASCII schedule,
//! plus the Holman–Anderson reweighted re-run that fixes it.
//!
//! ```text
//! pfair fig5 [--metrics-out m.json]
//! ```

use experiments::{recorder, write_metrics, Args, METRICS_FLAGS};
use pfair_core::sched::SchedConfig;
use pfair_core::supertask::{run_with_supertask, Component, Supertask};
use pfair_model::TaskSet;

const NAMES: [&str; 5] = ["V(1/2)", "W(1/3)", "X(1/3)", "Y(2/9)", "S(2/9)"];

fn render(schedule: &[Vec<pfair_model::TaskId>], horizon: usize) {
    for (i, name) in NAMES.iter().enumerate() {
        let mut line = format!("  {name:8} ");
        for slot in schedule.iter().take(horizon) {
            line.push(if slot.iter().any(|t| t.0 as usize == i) {
                '#'
            } else {
                '.'
            });
        }
        println!("{line}");
    }
    let mut ruler = String::from("            ");
    for t in 0..horizon {
        ruler.push_str(if t % 5 == 0 { "|" } else { " " });
    }
    println!("{ruler}");
    println!("            0    5    10   15   20   25   30   35   40");
}

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair fig5", &[METRICS_FLAGS], argv);
    let rec = recorder(&args);
    let run_ns = rec.timer("fig5.run_ns");
    let normal = TaskSet::from_pairs([(1u64, 2u64), (1, 3), (1, 3), (2, 9)]).unwrap();
    let supertask = || {
        Supertask::new(vec![
            Component::new(1, 5).unwrap(),  // T, weight 1/5
            Component::new(1, 45).unwrap(), // U, weight 1/45
        ])
    };

    println!("Fig. 5 reproduction: supertask S = {{T: 1/5, U: 1/45}} competing");
    println!("at its cumulative weight 2/9 on 2 processors under PD².\n");

    // The paper's figure corresponds to the higher-id-first resolution of
    // the genuinely arbitrary priority ties between S and Y (equal weight).
    let cfg = SchedConfig::pd2(2).with_higher_id_first(true);
    let span = run_ns.start();
    let run = run_with_supertask(&normal, supertask(), cfg, 45, false);
    drop(span);
    rec.counter("fig5.naive_misses")
        .add(run.supertask.misses().len() as u64);
    println!("Naive cumulative weight (2/9):");
    render(&run.schedule, 45);
    for m in run.supertask.misses() {
        println!("  !! {m}");
    }
    assert!(
        !run.supertask.misses().is_empty(),
        "the naive run must reproduce the miss"
    );

    println!("\nReweighted (2/9 + 1/p_min = 19/45, Holman–Anderson [16]):");
    let span = run_ns.start();
    let run = run_with_supertask(&normal, supertask(), cfg, 45, true);
    drop(span);
    rec.counter("fig5.reweighted_misses")
        .add(run.supertask.misses().len() as u64);
    render(&run.schedule, 45);
    if run.supertask.misses().is_empty() {
        println!("  no component deadline misses — reweighting is sufficient");
    } else {
        for m in run.supertask.misses() {
            println!("  !! {m}");
        }
    }
    write_metrics(&args, &rec);
}
