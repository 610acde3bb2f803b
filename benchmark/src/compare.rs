//! `pfair-benchmark compare <base.json> <new.json>`: one row per workload
//! × end-to-end metric, with the verdict rule the A/A acceptance run and
//! every later performance claim are judged by.

use crate::report::{MetricRecord, RunRecord};
use serde::Deserialize;

/// The `results.json` `run.sh` assembles: an environment block this tool
/// does not need, and one record per run.
#[derive(Deserialize)]
struct ResultsFile {
    runs: Vec<RunRecord>,
}

/// How a metric fared against its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound (and the absolute floor).
    Regressed,
    /// On either side the best lies further than the bound from the
    /// reported value, and the sides overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base` in the metric's bad direction, as
/// a share of the base value (negative when `new` is better).
fn worsening(base: &MetricRecord, new: &MetricRecord) -> f64 {
    let delta = new.summary.value - base.summary.value;
    let bad = if base.better == "higher" {
        -delta
    } else {
        delta
    };
    if base.summary.value == 0.0 {
        if bad > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        bad / base.summary.value.abs()
    }
}

/// The verdict rule.
///
/// * `regressed`: the new value is worse than the base value by more
///   than `bound` × base **and** by more than the metric's absolute floor
///   (`setup_s` 0.25 s, `peak_rss_mb` 8 MB: small absolute changes of
///   small values are noise, whatever their ratio).
/// * `unresolved`: not regressed by that rule, but on either side the best
///   lies further than `bound` from the reported value (too few samples
///   ran undisturbed for the value to mean much) while the two sides'
///   ranges overlap — unless the new side's worst is better than the base
///   side's best.
/// * `ok` otherwise.
pub fn verdict(base: &MetricRecord, new: &MetricRecord) -> Verdict {
    let worse_by = worsening(base, new);
    let abs_change = (new.summary.value - base.summary.value).abs();
    if worse_by > base.bound && abs_change > base.floor {
        return Verdict::Regressed;
    }
    let noisy = base.summary.spread() > base.bound || new.summary.spread() > base.bound;
    let all_better = if base.better == "higher" {
        new.summary.worst > base.summary.best
    } else {
        new.summary.worst < base.summary.best
    };
    let within_floor = (new.summary.worst - base.summary.best)
        .abs()
        .max((base.summary.worst - new.summary.best).abs())
        <= base.floor;
    if noisy && !all_better && !within_floor && base.summary.n > 1 {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file: ResultsFile = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(file.runs)
}

/// Prints the comparison table; `Ok(true)` when nothing regressed.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    let mut clean = true;
    let mut rows = 0;
    for b in base.iter().filter(|r| !r.trace) {
        let Some(n) = new.iter().find(|r| !r.trace && r.workload == b.workload) else {
            return Err(format!("{new_path} has no run of {}", b.workload));
        };
        if !(b.correct && n.correct) {
            println!(
                "{:<16} a correctness check failed: not comparable",
                b.workload
            );
            clean = false;
        }
        for bm in b.metrics.iter().filter(|m| m.kind == "end_to_end") {
            let Some(nm) = n.metrics.iter().find(|m| m.name == bm.name) else {
                return Err(format!("{new_path} lacks {} on {}", bm.name, b.workload));
            };
            let v = verdict(bm, nm);
            clean &= v != Verdict::Regressed;
            rows += 1;
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>8.3}  {}",
                b.workload,
                bm.name,
                bm.summary.value,
                nm.summary.value,
                nm.summary.value / bm.summary.value,
                v.label()
            );
        }
    }
    if rows == 0 {
        return Err(format!("{base_path} holds no end-to-end runs"));
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::end_to_end_record;
    use crate::stats::Summary;

    /// A metric reported as `value` whose best sample gave `best`; the
    /// worst lies as far on the other side.
    fn metric(name: &str, best: f64, value: f64) -> MetricRecord {
        let summary = Summary {
            value,
            best,
            worst: value + (value - best),
            n: 40,
        };
        end_to_end_record(name, summary).unwrap()
    }

    #[test]
    fn within_the_bound_is_ok_either_direction() {
        // ops_per_s: higher is better, bound 25 %.
        let base = metric("ops_per_s", 101.0, 100.0);
        assert_eq!(
            verdict(&base, &metric("ops_per_s", 81.0, 80.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &metric("ops_per_s", 151.0, 150.0)),
            Verdict::Ok
        );
        // op_us_p50: lower is better.
        let base = metric("op_us_p50", 99.0, 100.0);
        assert_eq!(
            verdict(&base, &metric("op_us_p50", 119.0, 120.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_the_bound_in_the_bad_direction_regresses() {
        let base = metric("ops_per_s", 101.0, 100.0);
        assert_eq!(
            verdict(&base, &metric("ops_per_s", 71.0, 70.0)),
            Verdict::Regressed
        );
        let base = metric("op_us_p50", 99.0, 100.0);
        assert_eq!(
            verdict(&base, &metric("op_us_p50", 129.0, 130.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_value_far_from_the_best_is_unresolved_not_ok() {
        // The best samples gave 140, the reported ones 100: the host was
        // quiet for too little of the base run.
        let base = metric("ops_per_s", 140.0, 100.0);
        let new = metric("ops_per_s", 98.0, 97.0);
        assert_eq!(verdict(&base, &new), Verdict::Unresolved);
        // Unless the new side's worst beats the base side's best.
        let new = metric("ops_per_s", 170.0, 160.0);
        assert_eq!(verdict(&base, &new), Verdict::Ok);
    }

    #[test]
    fn setup_and_rss_have_absolute_floors() {
        // +100 % but only +10 ms: under the 0.25 s floor.
        let base = metric("setup_s", 0.009, 0.010);
        assert_eq!(
            verdict(&base, &metric("setup_s", 0.019, 0.020)),
            Verdict::Ok
        );
        // +50 % and +0.5 s: over both.
        let base = metric("setup_s", 0.99, 1.0);
        assert_eq!(
            verdict(&base, &metric("setup_s", 1.49, 1.5)),
            Verdict::Regressed
        );
        // +30 % but only +3 MB: under the 8 MB floor.
        let rss = |mb: f64| end_to_end_record("peak_rss_mb", Summary::single(mb)).unwrap();
        assert_eq!(verdict(&rss(10.0), &rss(13.0)), Verdict::Ok);
        // +30 % and +30 MB.
        assert_eq!(verdict(&rss(100.0), &rss(130.0)), Verdict::Regressed);
    }

    #[test]
    fn noisy_small_setups_stay_under_the_floor() {
        // The best far from the values, but everything within 0.25 s of
        // everything else.
        let base = metric("setup_s", 0.010, 0.030);
        let new = metric("setup_s", 0.009, 0.028);
        assert_eq!(verdict(&base, &new), Verdict::Ok);
    }

    #[test]
    fn a_zero_base_regresses_on_any_increase() {
        let single = |v: f64| {
            let mut m = end_to_end_record("op_us_p50", Summary::single(v)).unwrap();
            m.floor = 0.0;
            m
        };
        assert_eq!(verdict(&single(0.0), &single(0.0)), Verdict::Ok);
        assert_eq!(verdict(&single(0.0), &single(0.1)), Verdict::Regressed);
    }
}
