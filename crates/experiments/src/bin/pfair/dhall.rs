//! The Dhall effect (paper §1): global EDF misses deadlines at total
//! utilizations barely above 1 on any number of processors; PD² schedules
//! the same sets. Both run in the one slot loop: the G-EDF column counts
//! job deadline misses by the job ledger's rule (a tardy job keeps running
//! and counts one miss), the PD² column Pfair window misses.
//!
//! ```text
//! pfair dhall [--period 10] [--horizon 1000]
//! ```

use experiments::{Args, Flag};
use pfair_core::sched::SchedConfig;
use sched_sim::global_edf::dhall_task_set;
use sched_sim::{GlobalEdf, MultiSim};
use stats::Table;

/// Every flag `dhall` accepts.
const FLAGS: &[Flag] = &[Flag::value("period", "N"), Flag::value("horizon", "N")];

pub fn run(argv: Vec<String>) {
    let args = Args::parse("pfair dhall", &[FLAGS], argv);
    let p: u64 = args.get_or("period", 10);
    let horizon: u64 = args.get_or("horizon", 1_000);

    println!("Dhall effect: M light tasks (1, {p}) + one weight-1 task ({p}, {p})");
    println!("Total utilization = 1 + M/{}, far below M.\n", p - 1);
    let mut table = Table::new(&["M", "U total", "G-EDF misses", "PD2 misses"]);
    for m in [2u32, 4, 8, 16] {
        let set = dhall_task_set(m, p);
        let u = set.total_utilization();
        let mut gedf = MultiSim::with_policy(&set, m, GlobalEdf);
        gedf.run(horizon);
        let g = gedf.finalize_faults();
        let mut pd2 = MultiSim::new(&set, SchedConfig::pd2(m));
        let r = pd2.run(horizon);
        table.row_owned(vec![
            m.to_string(),
            format!("{:.3}", u.to_f64()),
            g.job_misses.to_string(),
            r.misses.to_string(),
        ]);
    }
    print!("{}", table.render());
}
