//! Fig. 4: fraction of schedulability lost to (i) PD² system overheads,
//! (ii) EDF system overheads, and (iii) FF partitioning fragmentation, as
//! mean task utilization grows.
//!
//! ```text
//! cargo run --release -p experiments --bin fig4 -- [--tasks 50] [--sets 200] [--points 15] [--seed 1] [--threads N] [--point-retries 1] [--metrics-out m.json] [--csv]
//! ```
//!
//! The paper's panels are `--tasks 50` and `--tasks 100`; the x-axis is
//! mean task utilization `U/N ∈ [1/30, 1/3]`. Points run through
//! [`experiments::SweepDriver`] (`--threads`, byte-identical output for
//! any thread count).

use experiments::fig34::{paper_utilization_sweep, run_point_observed};
use experiments::{recorder, Args, Flag, SweepDriver, SWEEP_FLAGS};
use overhead::OverheadParams;
use stats::ci99_halfwidth;
use workload::CacheDelayDist;

/// The flags `fig4` reads itself; [`SWEEP_FLAGS`] adds the driver's.
const FLAGS: &[Flag] = &[
    Flag::value("tasks", "N"),
    Flag::value("sets", "N"),
    Flag::value("points", "N"),
    Flag::value("seed", "N"),
];

fn main() {
    let args = Args::parse("fig4", &[FLAGS, SWEEP_FLAGS]);
    let n: usize = args.get_or("tasks", 50);
    let sets: usize = args.get_or("sets", 200);
    let points: usize = args.get_or("points", 15);
    let seed: u64 = args.get_or("seed", 1);
    let params = OverheadParams::paper2003();
    let dist = CacheDelayDist::paper2003();
    let rec = recorder(&args);

    let mut driver = SweepDriver::new(&args, "fig4");
    eprintln!(
        "fig4: N={n}, {sets} sets per point, {} threads",
        driver.threads()
    );
    let utils = paper_utilization_sweep(n, points);
    let keys: Vec<String> = utils.iter().map(|u| format!("U={u:.4}")).collect();
    let rows = driver.run(&keys, &rec, |i, shard| {
        let u = utils[i];
        let p = run_point_observed(n, u, sets, seed, &params, dist, shard);
        eprintln!(
            "  u̅={:.4}: pfair {:.4}  edf {:.4}  ff {:.4}",
            u / n as f64,
            p.pfair_loss.mean(),
            p.edf_loss.mean(),
            p.ff_loss.mean()
        );
        vec![
            format!("{:.4}", u / n as f64),
            format!("{:.4}", p.pfair_loss.mean()),
            format!("{:.4}", ci99_halfwidth(&p.pfair_loss)),
            format!("{:.4}", p.edf_loss.mean()),
            format!("{:.4}", ci99_halfwidth(&p.edf_loss)),
            format!("{:.4}", p.ff_loss.mean()),
            format!("{:.4}", ci99_halfwidth(&p.ff_loss)),
        ]
    });
    driver.finish(
        &args,
        &rec,
        &[
            "mean util",
            "Pfair loss",
            "±99%",
            "EDF loss",
            "±99%",
            "FF loss",
            "±99%",
        ],
        rows,
    );
}
