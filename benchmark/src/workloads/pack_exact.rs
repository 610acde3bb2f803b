//! `pack_exact`: the Lupu-style capacity question. Task sets of n = 1000
//! at U = 250 packed by all six `partition::PACKING_SCHEMES` through
//! `partition_unbounded` with the exact-rational `EdfUtilization` test.
//!
//! Periods are multiples of 5 ms in [10 ms, 250 ms]. On that grid every
//! bin's exact utilisation has a denominator dividing 5000·lcm(2..50)
//! ≈ 1.5e25, so `Rat`'s `i128` sums never overflow. With the generator's
//! default periods (any multiple of 1 ms up to 1 s) they do: `Rat`'s `+`
//! wraps in a release build and `EdfUtilization` then accepts tasks into
//! a bin that is already full. The traced pass counts those packings as
//! `partition.overfull_packings.default_periods`; the timed work stays on
//! inputs the seed code packs correctly.
//!
//! `partition` and `model::Rat` do all the work. The layer `fig3_sweep`
//! uses with f64 sums and one heuristic is used here with exact `Rat`
//! sums, all six heuristics, four times the tasks and ~250 open bins, so
//! a packing speed-up that costs the other path shows on one of the two.
//! One operation is one packing.

use super::{sized, Rep, RunArgs, Slice, Workload};
use crate::golden;
use crate::procfs::process_cpu_ns;
use crate::report::{Check, Checks};
use crate::spans::Tracer;
use partition::{
    partition_unbounded, partition_unbounded_with_obs, EdfUtilization, PartitionObs,
    PartitionResult, PACKING_SCHEMES,
};
use pfair_model::Rat;
use std::time::Instant;
use workload::TaskSetGenerator;

/// Tasks per set.
const N: usize = 1000;
/// Total utilisation per set.
const U: f64 = 250.0;
/// Task sets per second of repetition (six packings a set, ≈ 19 ms each
/// on the seed code).
const SETS_PER_SECOND: f64 = 9.0;

/// One generated task set and its acceptance test.
struct Input {
    pairs: Vec<(u64, u64)>,
    acc: EdfUtilization,
}

impl Input {
    fn keys(&self) -> impl Fn(usize) -> (f64, u64) + '_ {
        move |i| {
            let (e, p) = self.pairs[i];
            (e as f64 / p as f64, p)
        }
    }
}

/// The `pack_exact` workload.
pub struct PackExact {
    args: RunArgs,
    /// `set.scheme → bins` of the first repetition.
    reference: golden::Reference,
    checks: Checks,
}

/// Task sets `0..sets` of the run. `exact_grid` selects the 5 ms period
/// grid of the timed work; without it the generator's defaults apply.
fn inputs(seed: u64, sets: usize, exact_grid: bool) -> Vec<Input> {
    (0..sets)
        .map(|s| {
            let set_seed = seed.wrapping_mul(0x0100_0000_01B3).wrapping_add(s as u64);
            let mut gen = TaskSetGenerator::new(N, U, set_seed);
            if exact_grid {
                gen = gen.with_quantum(5_000).with_period_range(10_000, 250_000);
            }
            let pairs: Vec<(u64, u64)> = gen
                .generate()
                .iter()
                .map(|t| (t.wcet_us, t.period_us))
                .collect();
            let acc = EdfUtilization::new(&pairs);
            Input { pairs, acc }
        })
        .collect()
}

/// Span name of packing scheme `k`.
fn span_name(k: usize) -> String {
    format!("partition.pack.{}", PACKING_SCHEMES[k].2)
}

/// Default-period sets probed for overfull bins in the traced pass.
const PROBE_SETS: usize = 10;

fn inputs_default(seed: u64) -> Vec<Input> {
    inputs(seed, PROBE_SETS, false)
}

/// What validating one packing found.
#[derive(Debug, Default, PartialEq)]
struct Audit {
    /// Why the packing is invalid, if it is: a task left out, an empty
    /// bin, or a bin whose utilisation exceeds 1.
    fault: Option<String>,
    /// Bins whose exact `Rat` sum does not fit `i128`. `EdfUtilization`
    /// adds with the unchecked operator, so in a release build these are
    /// the bins where its running sum wrapped.
    overflowed_bins: u64,
}

/// Validates a packing. A bin's utilisation is judged in `f64` when that
/// is decisive — the sum of at most `N` correctly rounded terms is within
/// 1e-12 of the exact value — and exactly in `Rat` when it lies within
/// 1e-9 of 1.
fn audit(input: &Input, result: &PartitionResult) -> Audit {
    let bins = result.processors as usize;
    let mut audit = Audit::default();
    if result.assignment.len() != input.pairs.len() {
        audit.fault = Some("assignment length differs from the task count".to_string());
        return audit;
    }
    let mut approx = vec![0.0f64; bins];
    let mut exact = vec![Some(Rat::ZERO); bins];
    for (i, &b) in result.assignment.iter().enumerate() {
        if b as usize >= bins {
            audit.fault = Some(format!("task {i} assigned to bin {b} of {bins}"));
            return audit;
        }
        let (e, p) = input.pairs[i];
        approx[b as usize] += e as f64 / p as f64;
        let sum = &mut exact[b as usize];
        *sum = sum.and_then(|s| s.checked_add(Rat::new(e as i128, p as i128)));
    }
    for b in 0..bins {
        audit.overflowed_bins += u64::from(exact[b].is_none());
        let over = match exact[b] {
            _ if approx[b] == 0.0 => true,
            _ if (approx[b] - 1.0).abs() > 1e-9 => approx[b] > 1.0,
            Some(u) => u > Rat::ONE,
            None => true, // too close to 1 to call without the exact sum
        };
        if over && audit.fault.is_none() {
            audit.fault = Some(format!("bin {b} holds utilisation {}", approx[b]));
        }
    }
    audit
}

impl PackExact {
    /// Sized for `args.rep_seconds`.
    pub fn new(args: &RunArgs) -> Self {
        PackExact {
            args: args.clone(),
            reference: golden::Reference::default(),
            checks: Checks::default(),
        }
    }

    fn sets(&self) -> usize {
        sized(SETS_PER_SECOND, self.args.rep_seconds) as usize
    }

    /// Validates every packing. Returns `set.scheme → bins`, the number
    /// of invalid packings, and the number of bins whose exact sum
    /// overflowed.
    fn verify(
        &mut self,
        inputs: &[Input],
        results: &[Option<PartitionResult>],
    ) -> (golden::Values, u64, u64) {
        let mut bins = golden::Values::new();
        let (mut failed, mut overflowed) = (0, 0);
        for (k, result) in results.iter().enumerate() {
            let (s, name) = (k / PACKING_SCHEMES.len(), PACKING_SCHEMES[k % 6].2);
            let fault = match result {
                None => Some("some task fits on no processor".to_string()),
                Some(r) => {
                    bins.insert(format!("s{s:02}.{name}"), f64::from(r.processors));
                    let audit = audit(&inputs[s], r);
                    overflowed += audit.overflowed_bins;
                    audit.fault
                }
            };
            if let Some(why) = fault {
                failed += 1;
                self.checks
                    .fail("packings_valid", format!("set {s} {name}: {why}"));
            }
        }
        (bins, failed, overflowed)
    }
}

impl Workload for PackExact {
    fn rep(&mut self) -> Rep {
        let sets = self.sets();

        // Set-up: generate the sets, build their acceptance tests, and
        // pack the first set once with the first scheme as the warm-up.
        let t0 = Instant::now();
        let inputs = inputs(self.args.seed, sets, true);
        let (first, (h, order, _)) = (&inputs[0], PACKING_SCHEMES[0]);
        std::hint::black_box(partition_unbounded(N, &first.acc, h, order, first.keys()));
        let setup_s = t0.elapsed().as_secs_f64();

        let mut results = Vec::with_capacity(sets * PACKING_SCHEMES.len());
        let mut slices = Vec::with_capacity(results.capacity());
        let cpu0 = process_cpu_ns();
        for input in &inputs {
            for &(h, order, _) in &PACKING_SCHEMES {
                let t = Instant::now();
                let r = partition_unbounded(N, &input.acc, h, order, input.keys());
                slices.push(Slice::call(1, t.elapsed()));
                results.push(std::hint::black_box(r));
            }
        }
        let cpu_ns = process_cpu_ns() - cpu0;

        let (bins, failed, overflowed) = self.verify(&inputs, &results);
        if overflowed != 0 {
            self.checks.fail(
                "exact_sums_fit",
                format!("{overflowed} bins whose exact utilisation overflows i128"),
            );
        }
        self.reference.observe(bins, &mut self.checks);
        Rep {
            setup_s,
            cpu_ns,
            failed,
            slices,
        }
    }

    fn traced(&mut self, base: &Rep) -> Vec<(String, f64)> {
        let sets = self.sets();
        let inputs = inputs(self.args.seed, sets, true);
        let rec = obs::Recorder::enabled();
        let pobs = PartitionObs::new(&rec);
        let evals = rec.counter("partition.accept_evals");
        let mut tr = Tracer::new();
        let mut evals_by_scheme = [0u64; 6];
        let mut bins_by_scheme = [0u64; 6];
        let mut results = Vec::with_capacity(sets * 6);

        let t0 = Instant::now();
        for (s, input) in inputs.iter().enumerate() {
            let root = tr.start("partition.set", None, s as u64);
            for (k, &(h, order, _)) in PACKING_SCHEMES.iter().enumerate() {
                let before = evals.get();
                let r = tr.time(&span_name(k), Some(root), s as u64, || {
                    partition_unbounded_with_obs(N, &input.acc, h, order, input.keys(), &pobs)
                });
                evals_by_scheme[k] += evals.get() - before;
                bins_by_scheme[k] += r.as_ref().map_or(0, |r| u64::from(r.processors));
                results.push(r);
            }
            tr.end(root);
        }
        let traced_wall_s = t0.elapsed().as_secs_f64();

        let (bins, _, overflowed_bins) = self.verify(&inputs, &results);
        self.reference.check_traced(&bins, &mut self.checks);

        // The seed code's overflow, measured where it happens: FFD and BFD
        // over default-period sets, whose last bin collects the smallest
        // tasks and with them the most unrelated denominators.
        let mut overfull = 0u64;
        for input in &inputs_default(self.args.seed) {
            for &(h, order, _) in &PACKING_SCHEMES[4..] {
                let r = partition_unbounded(N, &input.acc, h, order, input.keys());
                overfull += u64::from(r.is_none_or(|r| audit(input, &r).fault.is_some()));
            }
        }

        // 10^6 exact additions over the run's own utilisations.
        let utils: Vec<Rat> = inputs[0]
            .pairs
            .iter()
            .map(|&(e, p)| Rat::new(e as i128, p as i128))
            .collect();
        const ADDS: usize = 1_000_000;
        let t0 = Instant::now();
        for i in 0..ADDS {
            let (a, b) = (utils[i % N], utils[(i + 1) % N]);
            std::hint::black_box(std::hint::black_box(a) + std::hint::black_box(b));
        }
        let rat_add_ns = t0.elapsed().as_nanos() as f64 / ADDS as f64;

        let path = self.args.out_dir.join("trace-pack_exact.json");
        if let Err(e) = tr.write_json(&path, "pack_exact", crate::MAX_TRACE_SPANS) {
            self.checks.fail("trace_file", e.to_string());
        }

        let by_name = tr.by_name();
        let mut out = Vec::new();
        for (k, &(_, _, scheme)) in PACKING_SCHEMES.iter().enumerate() {
            let pack_ms = by_name[&span_name(k)].total_ns as f64 / 1e6 / sets as f64;
            out.push((format!("partition.pack_ms.{scheme}"), pack_ms));
            out.push((
                format!("partition.accept_evals_per_task.{scheme}"),
                evals_by_scheme[k] as f64 / (sets * N) as f64,
            ));
            out.push((
                format!("partition.bins.{scheme}"),
                bins_by_scheme[k] as f64 / sets as f64,
            ));
        }
        out.push(("model.rat_add_ns".to_string(), rat_add_ns));
        out.push((
            "model.rat_overflow_bins".to_string(),
            overflowed_bins as f64,
        ));
        out.push((
            "partition.overfull_packings.default_periods".to_string(),
            overfull as f64,
        ));
        out.push(("trace_spans".to_string(), tr.span_count() as f64));
        out.push((
            "trace_overhead_pct".to_string(),
            100.0 * (traced_wall_s - base.wall_s()) / base.wall_s(),
        ));
        out
    }

    fn checks(&mut self) -> Vec<Check> {
        self.checks.pass_unless_failed(
            "packings_valid",
            "every task assigned; every bin's utilisation in (0, 1]",
        );
        self.checks.pass_unless_failed(
            "exact_sums_fit",
            "every bin's exact utilisation fits i128, so no Rat sum wrapped",
        );
        let work = (self.sets() * PACKING_SCHEMES.len()) as u64;
        self.reference.verdicts(
            "pack_exact",
            self.args.seed,
            work,
            self.args.write_golden,
            &mut self.checks,
        );
        self.checks.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(pairs: &[(u64, u64)]) -> Input {
        Input {
            pairs: pairs.to_vec(),
            acc: EdfUtilization::new(pairs),
        }
    }

    fn packing(assignment: &[u32], processors: u32) -> PartitionResult {
        PartitionResult {
            assignment: assignment.to_vec(),
            processors,
        }
    }

    #[test]
    fn a_full_bin_is_valid_and_an_overfull_one_is_not() {
        let three_thirds = input(&[(1, 3), (1, 3), (1, 3), (1, 2)]);
        assert_eq!(
            audit(&three_thirds, &packing(&[0, 0, 0, 1], 2)),
            Audit::default()
        );
        let fault = audit(&three_thirds, &packing(&[0, 0, 0, 0], 1)).fault;
        assert!(fault.unwrap().starts_with("bin 0 holds utilisation 1.5"));
    }

    #[test]
    fn unassigned_tasks_and_empty_bins_are_faults() {
        let two = input(&[(1, 2), (1, 2)]);
        assert!(audit(&two, &packing(&[0, u32::MAX], 1)).fault.is_some());
        assert!(audit(&two, &packing(&[0, 0], 2)).fault.is_some());
        assert!(audit(&two, &packing(&[0], 1)).fault.is_some());
    }

    #[test]
    fn sums_beyond_i128_are_counted_but_still_judged() {
        // Forty tiny utilisations over pairwise coprime periods: the
        // common denominator passes 2^127 long before the sum nears 1.
        let primes: Vec<u64> = (1_000u64..)
            .filter(|n| (2..40).all(|d| n % d != 0))
            .take(40)
            .collect();
        let pairs: Vec<(u64, u64)> = primes.iter().map(|&p| (1, p)).collect();
        let audit = audit(&input(&pairs), &packing(&[0; 40], 1));
        assert_eq!((audit.fault, audit.overflowed_bins), (None, 1));
    }
}
