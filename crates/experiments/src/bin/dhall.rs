//! The Dhall effect (paper §1): global EDF misses deadlines at total
//! utilizations barely above 1 on any number of processors; PD² schedules
//! the same sets.
//!
//! ```text
//! cargo run --release -p experiments --bin dhall -- [--period 10] [--horizon 1000]
//! ```

use experiments::{Args, Flag};
use pfair_core::sched::SchedConfig;
use sched_sim::global_edf::dhall_task_set;
use sched_sim::{GlobalEdfSim, MultiSim};
use stats::Table;

/// Every flag `dhall` accepts.
const FLAGS: &[Flag] = &[Flag::value("period", "N"), Flag::value("horizon", "N")];

fn main() {
    let args = Args::parse("dhall", &[FLAGS]);
    let p: u64 = args.get_or("period", 10);
    let horizon: u64 = args.get_or("horizon", 1_000);

    println!("Dhall effect: M light tasks (1, {p}) + one weight-1 task ({p}, {p})");
    println!("Total utilization = 1 + M/{}, far below M.\n", p - 1);
    let mut table = Table::new(&["M", "U total", "G-EDF misses", "PD2 misses"]);
    for m in [2u32, 4, 8, 16] {
        let set = dhall_task_set(m, p);
        let u = set.total_utilization();
        let mut gedf = GlobalEdfSim::new(&set, m);
        let g = gedf.run(horizon);
        let mut pd2 = MultiSim::new(&set, SchedConfig::pd2(m));
        let r = pd2.run(horizon);
        table.row_owned(vec![
            m.to_string(),
            format!("{:.3}", u.to_f64()),
            g.deadline_misses.to_string(),
            r.misses.to_string(),
        ]);
    }
    print!("{}", table.render());
}
