//! Golden outputs: exact results recorded from the seed code.
//!
//! A golden entry belongs to one `(seed, work size)` pair, because the
//! outputs depend on both. Runs with any other pair skip the golden and
//! keep every invariant check. Entries are written with `--write-golden`.

use crate::report::{Check, Checks};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Output name → value. (An alias because the vendored serde derive
/// cannot parse a comma inside a field's type.)
pub type Values = BTreeMap<String, f64>;

/// The recorded outputs of one `(seed, work)` run, by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenEntry {
    /// Input seed.
    pub seed: u64,
    /// Operations per repetition the entry was recorded at.
    pub work: u64,
    /// Output name → value. Counts and hashes are stored as exact
    /// integers below 2^53; means as the `f64` the code computed.
    pub values: Values,
}

/// A workload's golden file.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GoldenFile {
    /// One entry per recorded `(seed, work)` pair.
    pub entries: Vec<GoldenEntry>,
}

fn path_of(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden")).join(format!("{workload}.json"))
}

/// First difference between two output maps, if any. Values compare
/// exactly: the code under test is deterministic.
pub fn first_difference(want: &Values, got: &Values) -> Option<String> {
    for (k, w) in want {
        match got.get(k) {
            None => return Some(format!("{k}: missing, golden {w}")),
            Some(g) if g != w => return Some(format!("{k}: got {g}, golden {w}")),
            Some(_) => {}
        }
    }
    got.keys()
        .find(|k| !want.contains_key(*k))
        .map(|k| format!("{k}: not in the golden"))
}

/// The exact outputs of the first repetition: what every later
/// repetition and the traced pass must reproduce, and what the golden
/// stores.
#[derive(Debug, Default)]
pub struct Reference(Option<Values>);

impl Reference {
    /// Keeps the first outputs seen; fails `repetitions_agree` when later
    /// ones differ.
    pub fn observe(&mut self, got: Values, checks: &mut Checks) {
        match &self.0 {
            None => self.0 = Some(got),
            Some(first) => {
                if let Some(diff) = first_difference(first, &got) {
                    checks.fail("repetitions_agree", diff);
                }
            }
        }
    }

    /// The first outputs, once a repetition has run.
    pub fn get(&self) -> Option<&Values> {
        self.0.as_ref()
    }

    /// Records whether the traced pass produced the same outputs.
    pub fn check_traced(&self, got: &Values, checks: &mut Checks) {
        if let Some(first) = &self.0 {
            let diff = first_difference(first, got);
            checks.push(Check::new(
                "traced_pass_agrees",
                diff.is_none(),
                diff.unwrap_or_else(|| "the traced pass reproduced the untraced outputs".into()),
            ));
        }
    }

    /// Closes the books: `repetitions_agree` unless it failed, then the
    /// golden for `(seed, work)`.
    pub fn verdicts(&self, workload: &str, seed: u64, work: u64, write: bool, checks: &mut Checks) {
        if let Some(first) = &self.0 {
            checks.pass_unless_failed(
                "repetitions_agree",
                "every repetition produced the same outputs",
            );
            checks.push(check(workload, seed, work, first, write));
        }
    }
}

/// Compares `got` with the golden entry for `(seed, work)`, or records it
/// when `write` is set. A missing entry is a skipped check, not a failure.
pub fn check(workload: &str, seed: u64, work: u64, got: &Values, write: bool) -> Check {
    let path = path_of(workload);
    let mut file: GoldenFile = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or_default();
    let found = file
        .entries
        .iter()
        .position(|e| e.seed == seed && e.work == work);
    if write {
        let entry = GoldenEntry {
            seed,
            work,
            values: got.clone(),
        };
        match found {
            Some(i) => file.entries[i] = entry,
            None => file.entries.push(entry),
        }
        let json = serde_json::to_string_pretty(&file).expect("golden serialises");
        return match std::fs::write(&path, json + "\n") {
            Ok(()) => Check::new("golden", true, format!("wrote {}", path.display())),
            Err(e) => Check::new("golden", false, format!("writing {}: {e}", path.display())),
        };
    }
    match found {
        None => Check::new(
            "golden",
            true,
            format!("skipped: no entry for seed {seed} at work {work}"),
        ),
        Some(i) => match first_difference(&file.entries[i].values, got) {
            None => Check::new(
                "golden",
                true,
                format!("{} values equal the golden", got.len()),
            ),
            Some(diff) => Check::new("golden", false, diff),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, f64)]) -> Values {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn differences_name_the_first_offending_value() {
        let want = map(&[("bins.FF", 251.0), ("bins.NF", 301.0)]);
        assert_eq!(first_difference(&want, &want), None);
        let got = map(&[("bins.FF", 251.0), ("bins.NF", 300.0)]);
        assert_eq!(
            first_difference(&want, &got).unwrap(),
            "bins.NF: got 300, golden 301"
        );
        let fewer = map(&[("bins.FF", 251.0)]);
        assert!(first_difference(&want, &fewer).unwrap().contains("missing"));
        assert!(first_difference(&fewer, &want)
            .unwrap()
            .contains("not in the golden"));
    }

    #[test]
    fn the_first_outputs_are_the_reference_for_the_rest() {
        let mut checks = Checks::default();
        let mut reference = Reference::default();
        reference.check_traced(&map(&[("x", 1.0)]), &mut checks);
        assert!(checks.take().is_empty(), "nothing to compare against yet");
        reference.observe(map(&[("x", 1.0)]), &mut checks);
        reference.observe(map(&[("x", 1.0)]), &mut checks);
        reference.check_traced(&map(&[("x", 1.0)]), &mut checks);
        reference.observe(map(&[("x", 2.0)]), &mut checks);
        reference.check_traced(&map(&[("x", 3.0)]), &mut checks);
        let got = checks.take();
        let verdicts: Vec<(&str, bool)> = got.iter().map(|c| (c.name.as_str(), c.ok)).collect();
        assert_eq!(
            verdicts,
            [
                ("traced_pass_agrees", true),
                ("repetitions_agree", false),
                ("traced_pass_agrees", false)
            ]
        );
        assert_eq!(reference.get(), Some(&map(&[("x", 1.0)])));
    }

    #[test]
    fn an_unrecorded_seed_skips_the_golden() {
        let c = check("no_such_workload", 99, 1, &map(&[("x", 1.0)]), false);
        assert!(c.ok && c.detail.starts_with("skipped"));
    }

    #[test]
    fn golden_files_round_trip() {
        let file = GoldenFile {
            entries: vec![GoldenEntry {
                seed: 1,
                work: 1200,
                values: map(&[("pd2_mean.00", 9.0125), ("hash", 123_456_789_012.0)]),
            }],
        };
        let text = serde_json::to_string_pretty(&file).unwrap();
        let back: GoldenFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, file);
    }
}
