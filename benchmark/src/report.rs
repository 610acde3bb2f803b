//! Metric tables, the per-run record, and how results are printed.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics; a unit test keeps the two in step.

use crate::stats::Summary;
use serde::{Deserialize, Serialize};

/// The five workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] = [
    "fig3_sweep",
    "pack_exact",
    "engine_pd2",
    "admit_rtt",
    "admit_pipelined",
];

/// An end-to-end metric: reported by every workload, gated by `bound`.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
    /// Absolute change below which a worsening never counts (same unit).
    pub floor: f64,
}

/// Every end-to-end metric. One *operation* is a task set on
/// `fig3_sweep`, a packing on `pack_exact`, a simulated slot on
/// `engine_pd2` and a request on the two daemon workloads.
///
/// `benchmark/README.md` has the spreads ten runs of one binary showed
/// (interquartile range ÷ median) and how the bounds follow from them.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "op_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        floor: 8.0,
    },
];

/// A per-layer metric: `(name, unit, better)`. Reported by the traced
/// pass of the workload that exercises the layer and as 0 by the others.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // fig3_sweep: the five layer rows, their closure residual and share.
    ("workload.taskgen_us_per_set", "us", "lower"),
    ("workload.cache_delay_us_per_set", "us", "lower"),
    ("overhead.pd2_procs_required_us_per_set", "us", "lower"),
    ("overhead.inflate_pd2_us_per_set", "us", "lower"),
    ("partition.edf_ff_us_per_set", "us", "lower"),
    ("experiments.point_self_us_per_set", "us", "lower"),
    ("experiments.point_self_share_pct", "%", "lower"),
    // pack_exact: per scheme time, probe waste and bin count.
    ("partition.pack_ms.FF", "ms", "lower"),
    ("partition.pack_ms.BF", "ms", "lower"),
    ("partition.pack_ms.WF", "ms", "lower"),
    ("partition.pack_ms.NF", "ms", "lower"),
    ("partition.pack_ms.FFD", "ms", "lower"),
    ("partition.pack_ms.BFD", "ms", "lower"),
    ("partition.accept_evals_per_task.FF", "count", "lower"),
    ("partition.accept_evals_per_task.BF", "count", "lower"),
    ("partition.accept_evals_per_task.WF", "count", "lower"),
    ("partition.accept_evals_per_task.NF", "count", "lower"),
    ("partition.accept_evals_per_task.FFD", "count", "lower"),
    ("partition.accept_evals_per_task.BFD", "count", "lower"),
    ("partition.bins.FF", "count", "lower"),
    ("partition.bins.BF", "count", "lower"),
    ("partition.bins.WF", "count", "lower"),
    ("partition.bins.NF", "count", "lower"),
    ("partition.bins.FFD", "count", "lower"),
    ("partition.bins.BFD", "count", "lower"),
    ("model.rat_add_ns", "ns", "lower"),
    ("model.rat_overflow_bins", "count", "lower"),
    (
        "partition.overfull_packings.default_periods",
        "count",
        "lower",
    ),
    // engine_pd2: scheduler core, dispatch, set-up, recorder cost, identity.
    ("core.tick_ns", "ns", "lower"),
    ("core.tick_ns.100x4", "ns", "lower"),
    ("core.tick_ns.4000x16", "ns", "lower"),
    ("sim.step_self_ns", "ns", "lower"),
    ("sim.setup_us", "us", "lower"),
    ("sched.heap_ops_per_tick", "count", "lower"),
    ("sched.stale_skipped_per_tick", "count", "lower"),
    ("obs.recorder_on_ratio", "ratio", "lower"),
    ("sim.preemptions", "count", "lower"),
    ("sim.migrations", "count", "lower"),
    ("sim.misses", "count", "lower"),
    ("sim.schedule_fnv48", "count", "lower"),
    // daemon workloads: codec, admission core, server, client.
    ("proto.encode_request_ns", "ns", "lower"),
    ("proto.decode_request_ns", "ns", "lower"),
    ("proto.encode_reply_ns", "ns", "lower"),
    ("proto.decode_reply_ns", "ns", "lower"),
    ("proto.frame_write_ns", "ns", "lower"),
    ("proto.frame_read_ns", "ns", "lower"),
    ("core.decide_ns.b1", "ns", "lower"),
    ("core.decide_ns.b16", "ns", "lower"),
    ("core.decide_ns.b64", "ns", "lower"),
    ("core.step_ns", "ns", "lower"),
    ("core.reject_share", "ratio", "lower"),
    ("core.admitted", "count", "higher"),
    ("core.left", "count", "higher"),
    ("core.first_reject_at", "count", "higher"),
    ("core.accept_share.last2k", "ratio", "higher"),
    ("server.batch_size_mean", "count", "higher"),
    ("server.decide_ns_mean", "ns", "lower"),
    ("server.handoff_self_us", "us", "lower"),
    ("server.handoff_share_pct", "%", "lower"),
    ("server.socket_pingpong_us", "us", "lower"),
    ("server.tcp_rtt_us_p50", "us", "lower"),
    ("server.threads", "count", "lower"),
    ("server.cpus_allowed", "count", "lower"),
    ("client.encode_request_ns", "ns", "lower"),
    ("client.frame_write_ns", "ns", "lower"),
    ("client.wait_reply_us", "us", "lower"),
    ("client.decode_reply_ns", "ns", "lower"),
    ("client.gen_cpu_us_per_req", "us", "lower"),
    ("client.rtt_us_p50", "us", "lower"),
    ("client.rtt_us_p90", "us", "lower"),
    ("client.rtt_us_p99", "us", "lower"),
    ("client.rtt_us_max", "us", "lower"),
    ("sim.trace_verify_ms", "ms", "lower"),
    ("error_share", "ratio", "lower"),
    // every workload.
    ("trace_spans", "count", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

/// One metric of one run, as written to the `--json-out` record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRecord {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"end_to_end"` or `"per_layer"`.
    pub kind: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Regression bound as a share of the base median (0 for per-layer).
    pub bound: f64,
    /// Absolute floor under which a worsening never counts.
    pub floor: f64,
    /// The value reported over the repetitions, with best, worst and count.
    pub summary: Summary,
}

/// One correctness check and its outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check that held or not, with its detail.
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// The checks a workload gathers while it runs. A check that fails in
/// every repetition is reported once; a check nobody failed is reported
/// as passed when the workload asks for the verdict.
#[derive(Debug, Default)]
pub struct Checks(Vec<Check>);

impl Checks {
    /// Records a failure, once per distinct `(name, detail)`.
    pub fn fail(&mut self, name: &str, detail: impl Into<String>) {
        let check = Check::new(name, false, detail);
        if !self.0.contains(&check) {
            self.0.push(check);
        }
    }

    /// Records a check whose outcome is already known.
    pub fn push(&mut self, check: Check) {
        self.0.push(check);
    }

    /// Reports `name` as passed, with `holds` as its detail, unless a
    /// failure of that name was recorded.
    pub fn pass_unless_failed(&mut self, name: &str, holds: &str) {
        if !self.0.iter().any(|c| c.name == name) {
            self.0.push(Check::new(name, true, holds));
        }
    }

    /// Hands the checks over, leaving the collector empty.
    pub fn take(&mut self) -> Vec<Check> {
        std::mem::take(&mut self.0)
    }
}

/// Everything one `pfair-benchmark run` measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget the work was sized for.
    pub seconds: f64,
    /// Whether this was the traced pass.
    pub trace: bool,
    /// Timed repetitions.
    pub reps: u64,
    /// All checks passed and no operation failed.
    pub correct: bool,
    /// Operations attempted in the timed repetitions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<MetricRecord>,
    /// The correctness checks.
    pub checks: Vec<Check>,
}

/// Builds the record of an end-to-end metric; `None` for an unknown name.
pub fn end_to_end_record(name: &str, summary: Summary) -> Option<MetricRecord> {
    let def = END_TO_END.iter().find(|d| d.name == name)?;
    Some(MetricRecord {
        name: def.name.to_string(),
        unit: def.unit.to_string(),
        kind: "end_to_end".to_string(),
        better: def.better.to_string(),
        bound: def.bound,
        floor: def.floor,
        summary,
    })
}

/// Builds the record of a per-layer metric; `None` for an unknown name.
pub fn per_layer_record(name: &str, value: f64) -> Option<MetricRecord> {
    let &(name, unit, better) = PER_LAYER.iter().find(|d| d.0 == name)?;
    Some(MetricRecord {
        name: name.to_string(),
        unit: unit.to_string(),
        kind: "per_layer".to_string(),
        better: better.to_string(),
        bound: 0.0,
        floor: 0.0,
        summary: Summary::single(value),
    })
}

/// Shortest decimal form that keeps every digit of `v` (JSON-safe).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl RunRecord {
    /// Prints `workload metric value unit` per metric (with the best and
    /// worst over repetitions and their count), then each check. Metrics
    /// for which `shown` is false are left to the result line: they belong
    /// to layers this workload does not exercise.
    pub fn print_table(&self, shown: impl Fn(&str) -> bool) {
        for m in self.metrics.iter().filter(|m| shown(&m.name)) {
            let s = &m.summary;
            if s.n > 1 {
                println!(
                    "{} {} {} {}   [best {} worst {} n={}]",
                    self.workload,
                    m.name,
                    num(s.value),
                    m.unit,
                    num(s.best),
                    num(s.worst),
                    s.n
                );
            } else {
                println!("{} {} {} {}", self.workload, m.name, num(s.value), m.unit);
            }
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            println!("{} check {} {verdict}: {}", self.workload, c.name, c.detail);
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, every metric as `{value, unit}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.summary.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[derive(Deserialize)]
    struct WorkloadDef {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct EndToEndDef {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct PerLayerDef {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(Deserialize)]
    struct BenchmarkJson {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<WorkloadDef>,
        end_to_end: Vec<EndToEndDef>,
        per_layer: Vec<PerLayerDef>,
    }

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let b: BenchmarkJson = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        assert_eq!(b.command, ["bash", "benchmark/run.sh"]);
        assert_eq!(b.paths, ["benchmark"]);
        assert!((1..=60).contains(&b.run_seconds));

        let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        assert!(b
            .workloads
            .iter()
            .all(|w| !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n')));

        assert_eq!(b.end_to_end.len(), END_TO_END.len());
        for (json, def) in b.end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(
                (json.name.as_str(), json.unit.as_str(), json.better.as_str()),
                (def.name, def.unit, def.better)
            );
            assert_eq!(json.bound, def.bound, "{}", def.name);
            assert!(def.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));

        assert_eq!(b.per_layer.len(), PER_LAYER.len());
        for (json, def) in b.per_layer.iter().zip(PER_LAYER) {
            assert_eq!(
                (json.name.as_str(), json.unit.as_str(), json.better.as_str()),
                *def
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit))
            .chain(PER_LAYER.iter().map(|d| (d.0, d.1)))
            .chain(WORKLOADS.iter().map(|w| (*w, "count")));
        for (name, unit) in all {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn a_repeated_failure_is_reported_once_and_masks_the_pass() {
        let mut checks = Checks::default();
        checks.fail("valid", "bin 3 overfull");
        checks.fail("valid", "bin 3 overfull");
        checks.fail("valid", "bin 9 overfull");
        checks.pass_unless_failed("valid", "all bins fit");
        checks.pass_unless_failed("golden", "equal");
        let got = checks.take();
        assert_eq!(got.len(), 3);
        assert!(!got[0].ok && !got[1].ok && got[2].ok);
        assert_eq!(got[2].name, "golden");
        assert!(checks.take().is_empty());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let rec = RunRecord {
            workload: "engine_pd2".to_string(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            reps: 5,
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                end_to_end_record("ops_per_s", Summary::single(3.0)).unwrap(),
                end_to_end_record("setup_s", Summary::single(0.8127)).unwrap(),
            ],
            checks: vec![Check::new("misses", true, "0 misses")],
        };
        assert_eq!(
            rec.result_line(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 3, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(end_to_end_record("nope", Summary::single(1.0)).is_none());
        assert!(per_layer_record("core.tick_ns", 1.0).is_some());
    }
}
