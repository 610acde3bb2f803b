//! # obs — lightweight workspace observability
//!
//! Monotonic counters, fixed-bucket histograms, and scoped span timers
//! behind a [`Recorder`] that is selected **at construction, not via
//! globals**: a disabled recorder hands out inert instruments whose
//! operations compile down to a null-pointer check and are safe to leave
//! in hot paths (`PfairScheduler::tick`, `MultiSim::step`, the
//! partitioning heuristics).
//!
//! ```
//! use obs::Recorder;
//!
//! let rec = Recorder::enabled();
//! let ticks = rec.counter("sched.ticks");
//! let tick_ns = rec.timer("sched.tick_ns");
//! for _ in 0..3 {
//!     let _span = tick_ns.start(); // records elapsed ns on drop
//!     ticks.incr();
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("sched.ticks"), Some(3));
//! let json = snap.to_json();
//! let back = obs::Snapshot::from_json(&json).unwrap();
//! assert_eq!(back.counter("sched.ticks"), Some(3));
//! ```
//!
//! Instruments are cheap handles (`Arc` + atomics) that can be cloned into
//! worker threads; all mutation is relaxed-atomic, so concurrent recording
//! is safe and snapshot reads are eventually consistent. Asking the same
//! recorder for the same name twice returns handles to the same
//! underlying instrument.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default histogram bucket upper bounds in nanoseconds: 1 µs … ~16 s in
/// ×4 steps. Good resolution for per-tick / per-point wall times.
const DEFAULT_NS_BUCKETS: [u64; 13] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
    16_000_000_000,
];

/// Number of explicit log2 bucket upper bounds (`2^0 … 2^62`); one more
/// implicit overflow bucket catches `(2^62, u64::MAX]`.
const LOG2_BOUND_COUNT: usize = 63;

/// Upper bounds of the log2 mode: successive powers of two.
fn log2_bounds() -> Vec<u64> {
    (0..LOG2_BOUND_COUNT as u32).map(|i| 1u64 << i).collect()
}

/// Bucket index of `v` under log2 bounds: the smallest `i` with
/// `v ≤ 2^i`, or the overflow bucket. Pure bit math — no search.
#[inline]
fn log2_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - (v - 1).leading_zeros() as usize).min(LOG2_BOUND_COUNT)
    }
}

#[derive(Default)]
struct RecorderInner {
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    histograms: Mutex<Vec<(String, Arc<HistInner>)>>,
}

/// Hands out instruments. Cloning shares the underlying registry.
///
/// A disabled recorder ([`Recorder::disabled`], also the `Default`) hands
/// out inert instruments: no allocation, no atomics, no clock reads.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl Recorder {
    /// A recording recorder.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(RecorderInner::default())),
        }
    }

    /// A no-op recorder; every instrument it hands out does nothing.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Constructs enabled or disabled in one call.
    pub fn new(enabled: bool) -> Self {
        if enabled {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// Whether instruments from this recorder record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A monotonic counter named `name`. The same name returns a handle to
    /// the same underlying cell.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter { cell: None };
        };
        let mut counters = inner.counters.lock().expect("obs registry poisoned");
        let cell = match counters.iter().find(|(n, _)| n == name) {
            Some((_, c)) => Arc::clone(c),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                counters.push((name.to_string(), Arc::clone(&c)));
                c
            }
        };
        Counter { cell: Some(cell) }
    }

    /// A histogram named `name` with the given bucket upper bounds
    /// (ascending; an implicit overflow bucket catches the rest).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        self.hist_cell(name, || HistInner::new(bounds))
    }

    /// A histogram in the opt-in log2 mode: bucket upper bounds are the
    /// powers of two `2^0 … 2^62` plus an overflow bucket, so one
    /// instrument spans nanoseconds to whole seconds at a constant ≤2×
    /// relative error — tail percentiles without a thousand fixed buckets.
    /// Recording computes the bucket with bit math instead of a search.
    pub fn log2_histogram(&self, name: &str) -> Histogram {
        self.hist_cell(name, HistInner::new_log2)
    }

    fn hist_cell(&self, name: &str, make: impl FnOnce() -> HistInner) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram { cell: None };
        };
        let mut histograms = inner.histograms.lock().expect("obs registry poisoned");
        let cell = match histograms.iter().find(|(n, _)| n == name) {
            Some((_, h)) => Arc::clone(h),
            None => {
                let h = Arc::new(make());
                histograms.push((name.to_string(), Arc::clone(&h)));
                h
            }
        };
        Histogram { cell: Some(cell) }
    }

    /// Folds a snapshot from another recorder into this one: counters add,
    /// histograms merge bucket-wise (instruments are created on first
    /// sight). This is how per-worker recorder shards are combined after a
    /// parallel sweep — workers record into private shards with no
    /// cross-thread contention, and the driver absorbs them once at the
    /// end. A snapshot histogram whose bounds disagree with an existing
    /// same-named instrument is reported on stderr and skipped.
    pub fn absorb(&self, snap: &Snapshot) {
        if self.inner.is_none() {
            return;
        }
        for c in &snap.counters {
            self.counter(&c.name).add(c.value);
        }
        for h in &snap.histograms {
            let hist = self.hist_cell(&h.name, || HistInner {
                bounds: h.bounds.clone().into(),
                counts: (0..=h.bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
                log2: h.bounds == log2_bounds(),
            });
            let cell = hist
                .cell
                .as_ref()
                .expect("enabled recorder hands out live cells");
            if *cell.bounds != *h.bounds {
                eprintln!(
                    "obs: absorb skipped histogram `{}`: bucket bounds disagree",
                    h.name
                );
                continue;
            }
            cell.absorb_snap(h);
        }
    }

    /// A nanosecond timer: a histogram over the default nanosecond buckets
    /// (1 µs … ~16 s in ×4 steps) whose [`Timer::start`] spans record wall
    /// time on drop.
    pub fn timer(&self, name: &str) -> Timer {
        Timer {
            hist: self.histogram(name, &DEFAULT_NS_BUCKETS),
        }
    }

    /// A point-in-time copy of every instrument this recorder handed out.
    /// Disabled recorders produce an empty snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(name, c)| CounterSnap {
                name: name.clone(),
                value: c.load(Ordering::Relaxed),
            })
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(name, h)| h.snap(name))
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// A monotonic counter. Inert (all methods no-ops) when its recorder is
/// disabled.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 for inert counters).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

struct HistInner {
    bounds: Box<[u64]>,
    /// One count per bound plus the overflow bucket.
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Log2 mode: bucket lookup by bit math instead of binary search.
    log2: bool,
}

impl HistInner {
    fn new(bounds: &[u64]) -> Self {
        HistInner {
            bounds: bounds.into(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            log2: false,
        }
    }

    fn new_log2() -> Self {
        HistInner {
            log2: true,
            ..Self::new(&log2_bounds())
        }
    }

    fn record(&self, v: u64) {
        let idx = if self.log2 {
            log2_index(v)
        } else {
            self.bounds.partition_point(|&b| b < v)
        };
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds a same-bounds snapshot's accumulators into this instrument.
    fn absorb_snap(&self, snap: &HistogramSnap) {
        debug_assert_eq!(*self.bounds, *snap.bounds);
        if snap.count == 0 {
            return;
        }
        for (cell, &c) in self.counts.iter().zip(&snap.counts) {
            cell.fetch_add(c, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.min.fetch_min(snap.min, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    fn snap(&self, name: &str) -> HistogramSnap {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnap {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            bounds: self.bounds.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A fixed-bucket histogram. Inert when its recorder is disabled.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistInner>>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.record(v);
        }
    }
}

/// A nanosecond wall-time histogram with scoped spans.
#[derive(Clone, Default)]
pub struct Timer {
    hist: Histogram,
}

impl Timer {
    /// Starts a span; the elapsed nanoseconds are recorded when the
    /// returned guard drops. For an inert timer no clock is read. The
    /// guard owns a handle to the histogram, so `rec.timer("x").start()`
    /// works without keeping the timer alive.
    #[inline]
    pub fn start(&self) -> Span {
        Span {
            cell: self
                .hist
                .cell
                .as_ref()
                .map(|c| (Arc::clone(c), Instant::now())),
        }
    }

    /// Records an externally measured duration.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.hist.record(ns);
    }
}

/// Guard from [`Timer::start`]; records the span's wall time on drop.
pub struct Span {
    cell: Option<(Arc<HistInner>, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, t0)) = self.cell.take() {
            hist.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Serializable point-in-time copy of a counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnap {
    /// Instrument name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Serializable point-in-time copy of a histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnap {
    /// Instrument name.
    pub name: String,
    /// Observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 if empty).
    pub min: u64,
    /// Largest observation (0 if empty).
    pub max: u64,
    /// Bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds` (overflow bucket).
    pub counts: Vec<u64>,
}

impl HistogramSnap {
    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Serializable snapshot of every instrument a recorder handed out.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters, in registration order.
    pub counters: Vec<CounterSnap>,
    /// All histograms/timers, in registration order.
    pub histograms: Vec<HistogramSnap>,
}

impl Snapshot {
    /// Value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization cannot fail")
    }

    /// Parses a snapshot back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_dedup_by_name() {
        let rec = Recorder::enabled();
        let a = rec.counter("x");
        let b = rec.counter("x");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert_eq!(rec.snapshot().counter("x"), Some(3));
        assert_eq!(rec.snapshot().counters.len(), 1);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let rec = Recorder::enabled();
        let h = rec.histogram("lat", &[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.record(v);
        }
        let snap = rec.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 5126);
        assert_eq!(hs.min, 5);
        assert_eq!(hs.max, 5000);
        // Buckets: ≤10 → [5, 10], ≤100 → [11, 100], ≤1000 → [], over → [5000].
        assert_eq!(hs.counts, vec![2, 2, 0, 1]);
        assert!((hs.mean() - 1025.2).abs() < 1e-9);
    }

    #[test]
    fn timer_spans_record_on_drop() {
        let rec = Recorder::enabled();
        let t = rec.timer("span");
        {
            let _s = t.start();
            std::hint::black_box((0..1000).sum::<u64>());
        }
        t.record_ns(42);
        let snap = rec.snapshot();
        let hs = snap.histogram("span").unwrap();
        assert_eq!(hs.count, 2);
        assert!(hs.sum >= 42);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let c = rec.counter("c");
        let h = rec.histogram("h", &[1, 2]);
        let t = rec.timer("t");
        c.add(5);
        h.record(7);
        let _span = t.start();
        drop(_span);
        assert_eq!(c.get(), 0);
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let rec = Recorder::enabled();
        rec.counter("a").add(7);
        let h = rec.histogram("b", &[100, 200]);
        h.record(150);
        h.record(999);
        let snap = rec.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn instruments_are_shareable_across_threads() {
        let rec = Recorder::enabled();
        let c = rec.counter("shared");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_panic() {
        let rec = Recorder::enabled();
        let _ = rec.histogram("bad", &[10, 5]);
    }

    #[test]
    fn log2_bucket_boundaries() {
        // Every value must land in the first power-of-two bucket that
        // covers it: bucket i has upper bound 2^i.
        assert_eq!(log2_index(0), 0);
        assert_eq!(log2_index(1), 0);
        assert_eq!(log2_index(2), 1);
        assert_eq!(log2_index(3), 2);
        assert_eq!(log2_index(4), 2);
        assert_eq!(log2_index(5), 3);
        assert_eq!(log2_index(1 << 20), 20);
        assert_eq!(log2_index((1 << 20) + 1), 21);
        assert_eq!(log2_index(1 << 62), 62);
        assert_eq!(log2_index((1 << 62) + 1), LOG2_BOUND_COUNT); // overflow
        assert_eq!(log2_index(u64::MAX), LOG2_BOUND_COUNT);

        // And the bit-math path must agree with a bounds search.
        let rec = Recorder::enabled();
        let h = rec.log2_histogram("l");
        for v in [0u64, 1, 2, 3, 7, 8, 9, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let snap = rec.snapshot();
        let hs = snap.histogram("l").unwrap();
        assert_eq!(hs.bounds, log2_bounds());
        assert_eq!(hs.counts.len(), LOG2_BOUND_COUNT + 1);
        for (v, expect_idx) in [(0u64, 0usize), (3, 2), (9, 4), (u64::MAX, 63)] {
            assert!(
                hs.counts[expect_idx] > 0,
                "value {v} should have landed in bucket {expect_idx}"
            );
            // The search-based rule gives the same bucket.
            assert_eq!(hs.bounds.partition_point(|&b| b < v), log2_index(v));
        }
    }

    #[test]
    fn log2_histogram_quantiles() {
        let rec = Recorder::enabled();
        let h = rec.log2_histogram("lat");
        // 90 fast observations, 10 slow ones: the snapshot keeps the split
        // a reader needs for tail quantiles — p50 within 2× of 1 µs in
        // the `≤ 1024` bucket, p99 in the `≤ 2^20` one.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let snap = rec.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!((hs.count, hs.min, hs.max), (100, 1_000, 1_000_000));
        assert_eq!((log2_index(1_000), log2_index(1_000_000)), (10, 20));
        assert_eq!((hs.counts[10], hs.counts[20]), (90, 10));
        assert_eq!(hs.counts.iter().sum::<u64>(), 100);
    }

    #[test]
    fn absorb_merges_shards() {
        let main = Recorder::enabled();
        main.counter("points").add(2);
        main.histogram("h", &[10, 100]).record(5);

        let shard = Recorder::enabled();
        shard.counter("points").add(3);
        shard.counter("shard_only").incr();
        let sh = shard.histogram("h", &[10, 100]);
        sh.record(50);
        sh.record(500);
        shard.log2_histogram("l2").record(9);

        main.absorb(&shard.snapshot());
        let snap = main.snapshot();
        assert_eq!(snap.counter("points"), Some(5));
        assert_eq!(snap.counter("shard_only"), Some(1));
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 555);
        assert_eq!((h.min, h.max), (5, 500));
        assert_eq!(h.counts, vec![1, 1, 1]);
        // A log2 shard instrument materializes in the main recorder and
        // keeps bucketing consistently on later records.
        main.log2_histogram("l2").record(9);
        let l2 = main.snapshot();
        let l2 = l2.histogram("l2").unwrap();
        assert_eq!(l2.count, 2);
        assert_eq!(l2.counts[log2_index(9)], 2);

        // Disagreeing bounds are skipped, not merged.
        let bad = Recorder::enabled();
        bad.histogram("h", &[1, 2]).record(1);
        main.absorb(&bad.snapshot());
        assert_eq!(main.snapshot().histogram("h").unwrap().count, 3);

        // Absorbing into a disabled recorder is a no-op.
        let off = Recorder::disabled();
        off.absorb(&shard.snapshot());
        assert!(off.snapshot().counters.is_empty());
    }

    #[test]
    fn absorb_order_is_merge_invariant() {
        let shards: Vec<Recorder> = (0..3).map(|_| Recorder::enabled()).collect();
        for (i, s) in shards.iter().enumerate() {
            s.counter("c").add(i as u64 + 1);
            s.log2_histogram("h").record(10u64.pow(i as u32 + 1));
        }
        let fwd = Recorder::enabled();
        for s in &shards {
            fwd.absorb(&s.snapshot());
        }
        let rev = Recorder::enabled();
        for s in shards.iter().rev() {
            rev.absorb(&s.snapshot());
        }
        let (a, b) = (fwd.snapshot(), rev.snapshot());
        assert_eq!(a.counter("c"), b.counter("c"));
        assert_eq!(a.histogram("h"), b.histogram("h"));
    }
}
