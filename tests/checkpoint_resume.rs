//! Crash-tolerance smoke test (CI gate): a checkpointed `fig3` sweep that
//! is killed after its first point must, on rerun, produce output
//! byte-identical to an uninterrupted run — and a checkpoint written under
//! one configuration must be refused by another.
//!
//! Exercises the full binary surface via `CARGO_BIN_EXE_fig3`: exit code 3
//! on the simulated crash, "restored from checkpoint" progress lines on
//! resume, exit code 2 on config mismatch and on a pre-v3 checkpoint
//! file. Also covers the sharded format at scale (a 10⁴-point synthetic
//! sweep must write O(n) checkpoint bytes).

use experiments::SweepDriver;
use std::path::PathBuf;
use std::process::{Command, Output};

const ARGS: [&str; 9] = [
    "--tasks", "8", "--sets", "2", "--points", "3", "--seed", "3", "--csv",
];

fn fig3(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(ARGS)
        .args(extra)
        .output()
        .expect("failed to spawn fig3")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pfair-resume-{}-{tag}.json", std::process::id()))
}

/// Removes the checkpoint header file and its v3 shard directory.
fn cleanup(ck: &PathBuf) {
    let _ = std::fs::remove_file(ck);
    let _ = std::fs::remove_dir_all(experiments::checkpoint::shard_dir(ck));
}

#[test]
fn killed_sweep_resumes_to_identical_output() {
    let ck = temp_path("smoke");
    cleanup(&ck);
    let ck_str = ck.to_str().unwrap();

    // Reference: the same sweep, uninterrupted and uncheckpointed.
    let reference = fig3(&[]);
    assert!(reference.status.success(), "uninterrupted run failed");
    let expected = String::from_utf8(reference.stdout).unwrap();
    assert_eq!(
        expected.lines().count(),
        1 + 3,
        "header + one row per point"
    );

    // Crash after the first fresh point: exit code 3, checkpoint on disk.
    let crashed = fig3(&["--checkpoint", ck_str, "--fail-after", "1"]);
    assert_eq!(
        crashed.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&crashed.stderr)
    );
    assert!(ck.exists(), "crash must leave a checkpoint behind");

    // Resume: completed points replay from the checkpoint, the rest run
    // fresh, and stdout matches the uninterrupted run byte for byte.
    let resumed = fig3(&["--checkpoint", ck_str]);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("restored from checkpoint"),
        "resume must replay the completed point: {stderr}"
    );
    assert_eq!(String::from_utf8(resumed.stdout).unwrap(), expected);

    // A checkpoint written under one configuration is refused by another,
    // and the refusal names what to delete: the header file alone is not
    // enough, because the shards carry the identity too.
    let other_config = || {
        Command::new(env!("CARGO_BIN_EXE_fig3"))
            .args([
                "--tasks", "9", "--sets", "2", "--points", "3", "--seed", "3",
            ])
            .args(["--checkpoint", ck_str])
            .output()
            .expect("failed to spawn fig3")
    };
    let dir = experiments::checkpoint::shard_dir(&ck);
    for header_deleted in [false, true] {
        if header_deleted {
            std::fs::remove_file(&ck).unwrap();
        }
        let mismatched = other_config();
        let stderr = String::from_utf8_lossy(&mismatched.stderr);
        assert_eq!(mismatched.status.code(), Some(2), "stderr: {stderr}");
        assert!(stderr.contains(&format!("{ck:?}")), "{stderr}");
        assert!(stderr.contains(&format!("{dir:?}")), "{stderr}");
    }
    // Following the printed advice clears the error.
    std::fs::remove_dir_all(&dir).unwrap();
    let fresh = other_config();
    assert!(
        fresh.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&fresh.stderr)
    );

    cleanup(&ck);
}

#[test]
fn parallel_sweep_is_deterministic_and_resumes_across_thread_counts() {
    let ck = temp_path("parallel");
    cleanup(&ck);
    let ck_str = ck.to_str().unwrap();

    // The determinism guarantee at the binary surface: stdout is
    // byte-identical for any thread count.
    let serial = fig3(&["--threads", "1"]);
    assert!(serial.status.success());
    let expected = String::from_utf8(serial.stdout).unwrap();
    let parallel = fig3(&["--threads", "4"]);
    assert!(parallel.status.success());
    assert_eq!(
        String::from_utf8(parallel.stdout).unwrap(),
        expected,
        "--threads 4 must reproduce --threads 1 byte for byte"
    );

    // Crash a 4-thread checkpointed run after its first committed batch…
    let crashed = fig3(&[
        "--threads",
        "4",
        "--checkpoint",
        ck_str,
        "--batch",
        "1",
        "--fail-after",
        "1",
    ]);
    assert_eq!(
        crashed.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&crashed.stderr)
    );
    assert!(ck.exists());

    // …and resume at a *different* thread count: which points the crash
    // left behind is scheduling-dependent, but the reassembled output
    // must still equal the uninterrupted run byte for byte.
    let resumed = fig3(&["--threads", "2", "--checkpoint", ck_str]);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("restored from checkpoint"),
        "resume must replay at least one completed point: {stderr}"
    );
    assert_eq!(String::from_utf8(resumed.stdout).unwrap(), expected);

    // Absurd thread counts are printed errors, not panics.
    for bad in ["0", "1000000"] {
        let rejected = fig3(&["--threads", bad]);
        assert_eq!(rejected.status.code(), Some(2), "--threads {bad}");
        let stderr = String::from_utf8_lossy(&rejected.stderr);
        assert!(stderr.contains("--threads"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    cleanup(&ck);
}

#[test]
fn old_format_checkpoint_is_refused_with_exit_2_and_left_untouched() {
    let ck = temp_path("oldformat");
    cleanup(&ck);
    // What a pre-v3 build left behind: a single-file v2 log.
    let v2 = "{\"v\":2,\"binary\":\"fig3\",\"config\":\"tasks=8 sets=2 points=3 seed=3\"}\n";
    std::fs::write(&ck, v2).unwrap();

    let refused = fig3(&["--checkpoint", ck.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("format v2"), "{stderr}");
    assert!(refused.stdout.is_empty(), "a refused run prints no table");
    assert_eq!(std::fs::read_to_string(&ck).unwrap(), v2);
    assert!(!experiments::checkpoint::shard_dir(&ck).exists());

    cleanup(&ck);
}

/// A ≥10⁴-point sweep through the driver API: resume must still be
/// byte-identical, and total checkpoint I/O must stay O(n) — each point's
/// record persisted a bounded number of times, never all n rows
/// rewritten at every batch (O(n²) bytes).
#[test]
fn large_sweep_writes_linear_checkpoint_bytes_and_resumes_identically() {
    const N: usize = 10_000;
    let ck = temp_path("large");
    cleanup(&ck);
    let keys: Vec<String> = (0..N).map(|i| format!("K={i:05}")).collect();
    let row_for = |i: usize| -> Vec<String> {
        vec![
            format!("K={i:05}"),
            format!("{:.4}", (i as f64 + 1.0).sqrt()),
        ]
    };
    let driver = |path: Option<PathBuf>| {
        SweepDriver::with_parts(path, "synthetic", format!("n={N}"), 4, 64, 0, 0).unwrap()
    };

    // The uninterrupted run, uncheckpointed: the reference rows.
    let mut reference = driver(None);
    let expected = reference.run(&keys, &obs::Recorder::disabled(), |i, _| row_for(i));

    // "Crash" halfway: the first run only covers the first N/2 keys.
    let mut first = driver(Some(ck.clone()));
    let half = first.run(&keys[..N / 2], &obs::Recorder::disabled(), |i, _| {
        row_for(i)
    });
    assert_eq!(half.len(), N / 2);
    assert_eq!(first.fresh_points(), (N / 2) as u64);
    let first_bytes = first.checkpoint_bytes_written();

    // Resume over the full sweep: the first half replays from the log
    // (never recomputed), the second half runs fresh, and the assembled
    // rows equal the uninterrupted run's exactly.
    let mut second = driver(Some(ck.clone()));
    let resumed = second.run(&keys, &obs::Recorder::disabled(), |i, _| {
        assert!(i >= N / 2, "point {i} must be served from the checkpoint");
        row_for(i)
    });
    assert_eq!(resumed, expected);
    assert_eq!(second.cached_points(), (N / 2) as u64);
    assert_eq!(second.fresh_points(), (N / 2) as u64);

    // O(n) save I/O, asserted on bytes (not timing): every record is
    // ~45 bytes, so a generous linear bound is 200 B/point. A
    // whole-file rewrite per batch would have written ~N²/(2·batch)
    // records (~3.5 GB here); the log writes each record once (~450 KB).
    let total_bytes = first_bytes + second.checkpoint_bytes_written();
    assert!(
        total_bytes < (N as u64) * 200,
        "checkpoint I/O must be O(n): wrote {total_bytes} bytes for {N} points"
    );
    let disk_len: u64 = std::fs::read_dir(experiments::checkpoint::shard_dir(&ck))
        .unwrap()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    assert!(
        disk_len < (N as u64) * 200,
        "checkpoint set must be O(n): {disk_len} bytes for {N} points"
    );

    // A full replay appends nothing: all points are already live.
    let mut third = driver(Some(ck.clone()));
    let replayed = third.run(&keys, &obs::Recorder::disabled(), |_, _| {
        unreachable!("every point must be served from the checkpoint")
    });
    assert_eq!(replayed, expected);
    assert_eq!(third.checkpoint_bytes_written(), 0);

    cleanup(&ck);
}
