//! End-to-end tests against a real `admitd` process over its socket.
//!
//! Covers the tentpole acceptance path: a live daemon absorbing a
//! thousand joins and leaves whose every decision is window-verified
//! offline from the trace it dumps at shutdown; the multi-set scenario
//! (≥2 task-set shards, interleaved clients, per-set traces) over both
//! the Unix and TCP transports; and the chaos variants — SIGKILL
//! mid-stream, a stale socket file after an unclean death, a half-open
//! TCP peer stalled mid-frame, an oversized frame, a frame nested deep
//! enough to overflow a recursive parser (in either direction), a client
//! read that times out mid-frame, and byte-determinism of per-set
//! decision logs.

#[path = "support/cli_contract.rs"]
mod cli_contract;

use daemon::client::{ClientError, DaemonAddr, DaemonClient};
use daemon::proto::{self, Reply, Request, Status, StreamKind, StreamMsg};
use sched_sim::ScheduleTrace;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// Unique scratch paths per test (sockets have a ~100-byte path limit,
/// so stay in /tmp rather than target/).
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    (
        dir.join(format!("admitd-{tag}-{pid}.sock")),
        dir.join(format!("admitd-{tag}-{pid}.trace.json")),
    )
}

fn spawn_admitd(socket: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_admitd"));
    cmd.arg("--socket")
        .arg(socket)
        .args(["--cpus", "8", "--no-overhead"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd.spawn().expect("spawn admitd")
}

/// Spawns a TCP daemon on an ephemeral loopback port and parses the
/// actual address from its `admitd: listening on tcp://…` stderr line.
fn spawn_admitd_tcp(extra: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_admitd"));
    cmd.args(["--listen", "127.0.0.1:0", "--cpus", "8", "--no-overhead"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn admitd");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("admitd exited before announcing its address")
            .expect("read admitd stderr");
        if let Some(rest) = line.strip_prefix("admitd: listening on tcp://") {
            break rest.to_string();
        }
    };
    // Keep draining stderr so the daemon can never block on a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    (child, addr)
}

fn connect(socket: &Path) -> DaemonClient {
    DaemonClient::connect_retry(socket, Duration::from_secs(10)).expect("daemon did not come up")
}

fn connect_addr(addr: &DaemonAddr) -> DaemonClient {
    DaemonClient::connect_to_retry(addr, Duration::from_secs(10)).expect("daemon did not come up")
}

/// 1000 tasks join, then every admitted one leaves, through a pipelined
/// socket connection; the daemon's shutdown trace must window-verify.
#[test]
fn thousand_joins_and_leaves_window_verify() {
    let (socket, trace_out) = scratch("e2e");
    std::fs::remove_file(&socket).ok();
    let mut child = spawn_admitd(&socket, &["--trace-out", trace_out.to_str().unwrap()]);
    let mut client = connect(&socket);

    // 1000 joins of one quantum per 1000 (weight 1/1000 after
    // quantization): Σwt = 1 on 8 cpus, so all admit. Pipeline in
    // windows of 64 to exercise batching.
    let mut inflight = 0usize;
    let mut admitted: Vec<u32> = Vec::new();
    let drain = |client: &mut DaemonClient,
                 inflight: &mut usize,
                 admitted: &mut Vec<u32>,
                 down_to: usize| {
        while *inflight > down_to {
            let reply: Reply = client.recv().expect("reply");
            *inflight -= 1;
            match reply.status {
                Status::Admitted => admitted.push(reply.task.expect("admitted id")),
                Status::Left => {}
                other => panic!("unexpected status {other:?}: {:?}", reply.error),
            }
        }
    };
    for _ in 0..1000 {
        drain(&mut client, &mut inflight, &mut admitted, 63);
        let nonce = client.take_nonce();
        client
            .send(&Request::join(nonce, 1_000, 1_000_000))
            .expect("send join");
        inflight += 1;
    }
    drain(&mut client, &mut inflight, &mut admitted, 0);
    assert_eq!(admitted.len(), 1000, "all thousand joins fit on 8 cpus");

    for &id in &admitted {
        drain(&mut client, &mut inflight, &mut Vec::new(), 63);
        let nonce = client.take_nonce();
        client.send(&Request::leave(nonce, id)).expect("send leave");
        inflight += 1;
    }
    let mut none = Vec::new();
    drain(&mut client, &mut inflight, &mut none, 0);
    assert!(none.is_empty(), "leaves must not report admissions");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.task_count, Some(0), "everyone left");

    let bye = client.shutdown().expect("shutdown ack");
    assert!(matches!(bye.status, Status::ShuttingDown));
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "clean daemon exit, got {status}");

    // Offline verification: every slot the daemon scheduled, re-checked
    // against PD² windows with the join/leave event stream.
    let json = std::fs::read_to_string(&trace_out).expect("trace dumped");
    let trace = ScheduleTrace::from_json(&json).expect("trace parses");
    trace.verify().expect("daemon schedule window-verifies");

    std::fs::remove_file(&socket).ok();
    std::fs::remove_file(&trace_out).ok();
}

/// Every protocol path over a real socket: admit with the computed
/// weight, reject-with-reason when full, reweight, leave/free_at, and
/// the error replies for nonsense requests.
#[test]
fn protocol_paths_over_the_socket() {
    let (socket, _) = scratch("proto");
    std::fs::remove_file(&socket).ok();
    let mut child = spawn_admitd(&socket, &["--cpus", "2", "--no-trace"]);
    let mut client = connect(&socket);

    // Admit: weight and first pseudo-release come back computed.
    let r = client.join(1_000, 2_000).expect("join");
    assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);
    let id = r.task.expect("task id");
    assert_eq!((r.weight_num, r.weight_den), (Some(1), Some(2)));
    assert!(r.first_release.is_some());

    // A full-processor task still fits (Σ = 1.5 ≤ 2)…
    let r = client.join(2_000, 2_000).expect("reply");
    assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);
    // …but the next one overloads (1.5 + 1.0 > 2): reject, with reason.
    let r2 = client.join(1_900, 2_000).expect("reply");
    assert!(matches!(r2.status, Status::Rejected), "{:?}", r2.status);
    assert!(r2.error.is_some(), "rejections carry a reason");

    // Reweight the first task downward. (The pre-check is conservative —
    // it charges the new weight without crediting the old — so upward
    // moves need Σ + new ≤ M; 1.5 + 0.25 fits.)
    let r = client.reweight(id, 500, 2_000).expect("reweight");
    assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);
    assert_eq!((r.weight_num, r.weight_den), (Some(1), Some(4)));
    let id = r.task.expect("reweight hands back the new id");

    // Leave reports the §5.2 safe release point.
    let r = client.leave(id).expect("leave");
    assert!(matches!(r.status, Status::Left));
    assert!(r.free_at.is_some());

    // Nonsense: leaving a task that never existed is an error reply,
    // not a dropped connection.
    let r = client.leave(4_242).expect("reply");
    assert!(matches!(r.status, Status::Error));

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());
    std::fs::remove_file(&socket).ok();
}

/// Two clients whose nonces collide (every `DaemonClient` starts at
/// nonce 1) submit distinguishable joins into the same batch; each must
/// receive the reply for *its own* request — routing is by connection,
/// not by the client-chosen nonce.
#[test]
fn colliding_nonces_across_clients_route_to_own_connection() {
    let (socket, _) = scratch("nonce");
    std::fs::remove_file(&socket).ok();
    // A long real-time quantum makes both requests land in one batch.
    let mut child = spawn_admitd(
        &socket,
        &["--no-trace", "--pace", "real", "--quantum-us", "50000"],
    );
    let mut a = connect(&socket);
    let mut b = connect(&socket);

    // Both calls use nonce 1. Params are multiples of the 50 ms quantum
    // so quantization cannot blur them: A is weight 1/2, B is 1/4.
    let ta = std::thread::spawn(move || a.join(100_000, 200_000).expect("join a"));
    let tb = std::thread::spawn(move || b.join(50_000, 200_000).expect("join b"));
    let ra = ta.join().expect("client a thread");
    let rb = tb.join().expect("client b thread");

    assert!(matches!(ra.status, Status::Admitted), "{:?}", ra.error);
    assert!(matches!(rb.status, Status::Admitted), "{:?}", rb.error);
    assert_eq!(
        (ra.weight_num, ra.weight_den),
        (Some(1), Some(2)),
        "client a must get the reply for its own 1/2-weight join"
    );
    assert_eq!(
        (rb.weight_num, rb.weight_den),
        (Some(1), Some(4)),
        "client b must get the reply for its own 1/4-weight join"
    );
    assert_ne!(ra.task, rb.task);

    connect(&socket).shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());
    std::fs::remove_file(&socket).ok();
}

/// Real-time pacing ticks off absolute wall-clock edges: a burst of
/// pipelined requests accumulates into a few quantum batches instead of
/// advancing one slot per request, and idle wall time keeps slots
/// moving.
#[test]
fn realtime_pace_batches_by_wall_clock() {
    let (socket, _) = scratch("pace");
    std::fs::remove_file(&socket).ok();
    let mut child = spawn_admitd(
        &socket,
        &["--no-trace", "--pace", "real", "--quantum-us", "20000"],
    );
    let mut client = connect(&socket);

    // 30 light joins (1/100 weight each) at ~1 ms spacing — sustained
    // traffic much faster than the quantum. Edges are absolute, so the
    // ~30 ms of sends must be decided in a handful of 20 ms batches;
    // request-triggered pacing would advance ~one slot per arrival. Each
    // join is flushed as it is sent: queued, the 30 would arrive as one
    // burst.
    const BURST: usize = 30;
    for _ in 0..BURST {
        let nonce = client.take_nonce();
        client
            .send(&Request::join(nonce, 20_000, 2_000_000))
            .expect("send join");
        client.flush().expect("flush join");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut slots = Vec::new();
    for _ in 0..BURST {
        let reply = client.recv().expect("reply");
        assert!(
            matches!(reply.status, Status::Admitted),
            "{:?}",
            reply.error
        );
        slots.push(reply.slot);
    }
    slots.dedup();
    assert!(
        slots.len() <= 8,
        "{BURST} requests over ~1.5 quanta decided across {} slots — \
         real-time pacing is advancing per-request, not per-quantum",
        slots.len()
    );

    // Idle wall time still ticks: ~150 ms with a 20 ms quantum must
    // advance the slot counter even with no requests in flight.
    let before = client.stats().expect("stats").slot;
    std::thread::sleep(Duration::from_millis(150));
    let after = client.stats().expect("stats").slot;
    assert!(
        after >= before + 3,
        "idle wall time must advance slots (before={before}, after={after})"
    );

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());
    std::fs::remove_file(&socket).ok();
}

/// Chaos: SIGKILL the daemon while a subscriber is streaming decisions
/// and a second client has requests in flight. Both must see a clean
/// [`ClientError::Disconnected`] promptly — no hang, no panic.
#[test]
fn sigkill_mid_stream_surfaces_clean_error() {
    let (socket, _) = scratch("chaos");
    std::fs::remove_file(&socket).ok();
    // A 1 ms quantum keeps the real-time pacer off a busy spin (zero
    // overheads alone would mean 1 µs slots).
    let mut child = spawn_admitd(
        &socket,
        &["--no-trace", "--pace", "real", "--quantum-us", "1000"],
    );

    let mut sub = connect(&socket).subscribe().expect("subscribe");
    let mut client = connect(&socket);
    client
        .join(100, 10_000)
        .expect("one admitted task to stream about");
    sub.next().expect("stream is live before the kill");

    child.kill().expect("SIGKILL daemon");
    child.wait().expect("reap");

    let started = Instant::now();
    // The subscriber's blocking read must end in Disconnected, fast —
    // after draining whatever frames were already buffered in the
    // socket when the daemon died.
    loop {
        match sub.next() {
            Ok(_) if started.elapsed() < Duration::from_secs(5) => continue,
            Ok(_) => panic!("stream still yielding frames 5s after SIGKILL"),
            Err(ClientError::Disconnected) => break,
            Err(other) => panic!("expected Disconnected after SIGKILL, got {other:?}"),
        }
    }
    // In-flight request path: send may still succeed into the dead
    // socket's buffer, but the reply read must fail cleanly.
    let err = client.join(100, 10_000).expect_err("daemon is gone");
    assert!(
        matches!(err, ClientError::Disconnected | ClientError::Io(_)),
        "clean transport error, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "death must surface promptly, took {:?}",
        started.elapsed()
    );
    std::fs::remove_file(&socket).ok();
}

// ---------------------------------------------------------------------------
// Multi-set scenario, shared by the Unix and TCP transports.
// ---------------------------------------------------------------------------

/// The acceptance scenario: ≥2 sets live, interleaved clients, per-set
/// capacity isolation (`--cpus 1`, yet a full-processor task fits in
/// *each* set), unknown-set errors, a mid-run drop, and every set's
/// shutdown trace window-verifying offline from its own file.
fn multi_set_scenario(addr: DaemonAddr, mut child: Child, trace_base: &Path) {
    let mut admin = connect_addr(&addr);
    let r = admin.create_set("alpha").expect("create alpha");
    assert!(matches!(r.status, Status::SetCreated), "{:?}", r.error);
    let r = admin.create_set("beta").expect("create beta");
    assert!(matches!(r.status, Status::SetCreated), "{:?}", r.error);
    let r = admin.create_set("alpha").expect("reply");
    assert!(
        matches!(r.status, Status::Error),
        "duplicate create must error, got {:?}",
        r.status
    );
    let names = admin.list_sets().expect("list").sets.expect("sets field");
    assert_eq!(names, vec!["alpha", "beta", "default"]);

    let mut d = connect_addr(&addr); // default set
    let mut a = connect_addr(&addr);
    a.set_scope(Some("alpha"));

    // Capacity isolation: M=1 *per set*, so a full-processor task fits
    // in both. A shared weight sum would reject the second one.
    let rd = d.join(4_000, 4_000).expect("join default");
    assert!(matches!(rd.status, Status::Admitted), "{:?}", rd.error);
    let ra = a.join(4_000, 4_000).expect("join alpha");
    assert!(
        matches!(ra.status, Status::Admitted),
        "sets must not share capacity: {:?}",
        ra.error
    );
    let (big_d, big_a) = (rd.task.unwrap(), ra.task.unwrap());

    // Both sets are full now: a light join rejects in each.
    for (who, c) in [("default", &mut d), ("alpha", &mut a)] {
        let r = c.join(1_000, 4_000).expect("reply");
        assert!(
            matches!(r.status, Status::Rejected),
            "set {who} should be full, got {:?}",
            r.status
        );
    }

    // A request naming a set that does not exist is an error reply.
    let mut ghost = connect_addr(&addr);
    ghost.set_scope(Some("nope"));
    let r = ghost.join(1_000, 4_000).expect("reply");
    assert!(matches!(r.status, Status::Error));
    assert!(
        r.error.as_deref().unwrap_or("").contains("no such set"),
        "{:?}",
        r.error
    );

    // Leave the big tasks; §5.2 keeps the weight charged until free_at,
    // and with virtual pacing each (rejected) join attempt advances one
    // slot — retry until the safe point passes.
    for (c, big) in [(&mut d, big_d), (&mut a, big_a)] {
        let r = c.leave(big).expect("leave");
        assert!(matches!(r.status, Status::Left), "{:?}", r.error);
        let mut admitted = None;
        for _ in 0..100 {
            let r = c.join(1_000, 4_000).expect("reply");
            if matches!(r.status, Status::Admitted) {
                admitted = r.task;
                break;
            }
        }
        admitted.expect("light join admits once the safe point passes");
    }

    // Interleaved light traffic across the two sets (capacity 1 = up to
    // four 1/4-weight tasks; one is already in from the retry loop).
    let mut ids_d = Vec::new();
    let mut ids_a = Vec::new();
    for _ in 0..3 {
        let r = d.join(1_000, 4_000).expect("join default");
        assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);
        ids_d.push(r.task.unwrap());
        let r = a.join(1_000, 4_000).expect("join alpha");
        assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);
        ids_a.push(r.task.unwrap());
    }
    for (id_d, id_a) in ids_d.iter().zip(&ids_a) {
        assert!(matches!(
            d.leave(*id_d).expect("leave default").status,
            Status::Left
        ));
        assert!(matches!(
            a.leave(*id_a).expect("leave alpha").status,
            Status::Left
        ));
    }

    // Per-set stats echo the set they describe.
    let sd = d.stats().expect("stats default");
    assert_eq!(sd.set.as_deref(), Some("default"));
    let sa = a.stats().expect("stats alpha");
    assert_eq!(sa.set.as_deref(), Some("alpha"));
    assert_eq!(sd.task_count, Some(1), "one light task left in default");
    assert_eq!(sa.task_count, Some(1), "one light task left in alpha");

    // Drop beta mid-run; its (empty) report is retained for shutdown.
    let r = admin.drop_set("beta").expect("drop beta");
    assert!(matches!(r.status, Status::SetDropped), "{:?}", r.error);
    let names = admin.list_sets().expect("list").sets.expect("sets field");
    assert_eq!(names, vec!["alpha", "default"]);
    let r = admin.drop_set("beta").expect("reply");
    assert!(matches!(r.status, Status::Error), "double drop must error");

    admin.shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());

    // Each set's trace landed in its own file and window-verifies.
    let base = trace_base.to_str().unwrap();
    let alpha_path = base.replace(".trace.json", ".trace.alpha.json");
    let beta_path = base.replace(".trace.json", ".trace.beta.dropped-0.json");
    for (name, path, must_advance) in [
        ("default", base.to_string(), true),
        ("alpha", alpha_path, true),
        ("beta", beta_path, false),
    ] {
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("set {name} trace at {path}: {e}"));
        let trace = ScheduleTrace::from_json(&json).expect("trace parses");
        if must_advance {
            assert!(!trace.slots.is_empty(), "set {name} advanced");
        }
        trace
            .verify()
            .unwrap_or_else(|e| panic!("set {name} trace window-verifies: {e:?}"));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn multi_set_scenario_over_unix() {
    let (socket, trace_out) = scratch("msunix");
    std::fs::remove_file(&socket).ok();
    let child = spawn_admitd(
        &socket,
        &["--cpus", "1", "--trace-out", trace_out.to_str().unwrap()],
    );
    multi_set_scenario(DaemonAddr::Unix(socket.clone()), child, &trace_out);
    std::fs::remove_file(&socket).ok();
}

#[test]
fn multi_set_scenario_over_tcp() {
    let dir = std::env::temp_dir();
    let trace_out = dir.join(format!("admitd-mstcp-{}.trace.json", std::process::id()));
    let (child, addr) =
        spawn_admitd_tcp(&["--cpus", "1", "--trace-out", trace_out.to_str().unwrap()]);
    multi_set_scenario(DaemonAddr::Tcp(addr), child, &trace_out);
}

// ---------------------------------------------------------------------------
// Socket-path bugfix sweep.
// ---------------------------------------------------------------------------

/// Total CPU ticks (utime + stime) a process has burned, per
/// `/proc/<pid>/stat`.
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // comm may contain spaces; fields restart after the closing paren.
    let rest = &stat[stat.rfind(')').expect("comm paren") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest[0] is field 3 (state); utime/stime are fields 14/15.
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// Threads in a process, per `/proc/<pid>/task`.
#[cfg(target_os = "linux")]
fn thread_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("read /proc task dir")
        .count()
}

/// One event loop serves every connection: eight idle clients cost the
/// daemon no thread more than one client does. (It used to spawn a
/// reader and a writer thread per connection.)
#[cfg(target_os = "linux")]
#[test]
fn daemon_threads_do_not_grow_with_connections() {
    let (socket, _) = scratch("threads");
    std::fs::remove_file(&socket).ok();
    let mut child = spawn_admitd(&socket, &["--no-trace"]);
    let mut first = connect(&socket);
    first.stats().expect("daemon is up");
    let with_one = thread_count(child.id());

    // A round trip on each new connection proves the daemon accepted it;
    // then all eight sit idle while the threads are counted.
    let mut more: Vec<DaemonClient> = (1..8).map(|_| connect(&socket)).collect();
    for c in &mut more {
        c.list_sets().expect("the new connection is served");
    }
    let with_eight = thread_count(child.id());
    assert_eq!(
        with_eight, with_one,
        "admitd runs {with_one} thread(s) for one client but {with_eight} for eight"
    );

    first.shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());
    std::fs::remove_file(&socket).ok();
}

/// The accept loop must back off while idle instead of busy-spinning:
/// one second of idle daemon may cost at most a few CPU ticks.
#[cfg(target_os = "linux")]
#[test]
fn accept_loop_idles_without_busy_spin() {
    let (socket, _) = scratch("idlecpu");
    std::fs::remove_file(&socket).ok();
    let mut child = spawn_admitd(&socket, &["--no-trace"]);
    let mut client = connect(&socket);
    client.stats().expect("daemon is up");

    let before = cpu_ticks(child.id());
    std::thread::sleep(Duration::from_millis(1_000));
    let spent = cpu_ticks(child.id()) - before;
    // A busy-spinning accept loop burns ~a full core (≈100 ticks/s at
    // the usual 100 Hz); an idle event loop sleeps in `ppoll` until the
    // idle timeout and should be well under 25.
    assert!(
        spent <= 25,
        "idle daemon burned {spent} CPU ticks in 1 s — accept loop is busy-spinning"
    );

    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());
    std::fs::remove_file(&socket).ok();
}

/// A SIGKILLed daemon leaves its socket file behind; a restart on the
/// same path must probe the dead peer, unlink, and bind — while a
/// *live* daemon's socket must never be stolen (the second daemon exits
/// with the documented usage/transport code 2).
#[test]
fn stale_socket_from_sigkilled_daemon_is_reclaimed() {
    let (socket, _) = scratch("stale");
    std::fs::remove_file(&socket).ok();
    let mut first = spawn_admitd(&socket, &["--no-trace"]);
    let mut c = connect(&socket);
    let r = c.join(1_000, 4_000).expect("join");
    assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);

    first.kill().expect("SIGKILL daemon");
    first.wait().expect("reap");
    assert!(
        socket.exists(),
        "SIGKILL leaves the stale socket file behind"
    );

    // Restart on the same path: connect-probe finds nobody home,
    // unlink-then-bind succeeds.
    let mut second = spawn_admitd(&socket, &["--no-trace"]);
    let mut c2 = connect(&socket);
    let r = c2.join(1_000, 4_000).expect("join after restart");
    assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);

    // A third daemon on the *live* socket must refuse, not steal it.
    let status = Command::new(env!("CARGO_BIN_EXE_admitd"))
        .arg("--socket")
        .arg(&socket)
        .args(["--cpus", "8", "--no-overhead", "--no-trace"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run third admitd");
    assert_eq!(
        status.code(),
        Some(2),
        "binding a live socket must exit with the usage/transport code"
    );
    // …and the live daemon is untouched by the refused bind.
    let r = c2.join(1_000, 8_000).expect("live daemon still serves");
    assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);

    c2.shutdown().expect("shutdown");
    assert!(second.wait().expect("exit").success());
    std::fs::remove_file(&socket).ok();
}

/// TCP chaos: a peer that starts a frame and stalls (half-open
/// connection) is reaped by the idle timeout without wedging the accept
/// loop or other clients.
#[test]
fn half_open_tcp_peer_is_reaped_without_wedging_others() {
    let (mut child, addr) = spawn_admitd_tcp(&["--no-trace", "--idle-timeout-ms", "400"]);

    // Stalled peer: claims a 64-byte frame, sends 3 bytes, goes silent.
    let mut stalled = TcpStream::connect(&addr).expect("connect stalled peer");
    stalled
        .write_all(&64u32.to_le_bytes())
        .expect("length prefix");
    stalled.write_all(b"abc").expect("partial body");
    stalled.flush().expect("flush");

    // Meanwhile other clients round-trip freely.
    let daddr = DaemonAddr::Tcp(addr.clone());
    let mut healthy = connect_addr(&daddr);
    for i in 0..5 {
        let r = healthy.join(1_000, 100_000).expect("healthy join");
        assert!(
            matches!(r.status, Status::Admitted),
            "join {i} while a peer stalls mid-frame: {:?}",
            r.error
        );
    }

    // The stalled connection is shut down by the daemon within the idle
    // timeout (plus slack): reads drain the error frame, then EOF.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let started = Instant::now();
    let mut buf = [0u8; 256];
    loop {
        match stalled.read(&mut buf) {
            Ok(0) => break,    // daemon closed the half-open peer
            Ok(_) => continue, // the "stalled mid-frame" error reply
            Err(_) => break,   // reset also counts as reaped
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "half-open peer was not reaped"
    );

    connect_addr(&daddr).shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());
}

/// TCP chaos: an oversized length prefix is answered with an error and a
/// close of *that* connection only — other clients keep working.
#[test]
fn oversized_frame_rejected_without_tearing_down_other_clients() {
    let (mut child, addr) = spawn_admitd_tcp(&["--no-trace"]);

    let mut evil = TcpStream::connect(&addr).expect("connect evil peer");
    evil.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // 2 MiB length prefix: double MAX_FRAME, no body needed.
    evil.write_all(&(2 * proto::MAX_FRAME).to_le_bytes())
        .expect("oversized prefix");
    evil.flush().expect("flush");

    // The daemon answers with a classified error reply, then closes.
    let frame = proto::read_frame(&mut evil)
        .expect("error reply frame")
        .expect("frame before close");
    let reply: Reply = serde_json::from_str(&frame).expect("reply parses");
    assert!(matches!(reply.status, Status::Error));
    assert!(
        reply.error.as_deref().unwrap_or("").contains("malformed"),
        "{:?}",
        reply.error
    );
    match proto::read_frame(&mut evil) {
        Ok(None) | Err(_) => {} // closed
        Ok(Some(f)) => panic!("connection should be closed, got frame {f}"),
    }

    // Other clients are untouched.
    let daddr = DaemonAddr::Tcp(addr.clone());
    let mut healthy = connect_addr(&daddr);
    let r = healthy.join(1_000, 100_000).expect("join");
    assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);

    healthy.shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());
}

/// A frame whose value nests 200,000 deep: the body of a request, then of
/// a reply.
fn nested_frame(head: &str) -> String {
    format!("{head}{}", "[".repeat(200_000))
}

/// A hostile frame nesting 200,000 arrays deep (well inside `MAX_FRAME`)
/// is an `Error` reply and a closed connection, not a daemon killed by
/// its own stack; the next client is served.
#[test]
fn nested_frame_is_refused_without_killing_the_daemon() {
    let (socket, _) = scratch("nested");
    std::fs::remove_file(&socket).ok();
    let mut child = spawn_admitd(&socket, &["--no-trace"]);
    connect(&socket).list_sets().expect("daemon is up");

    let mut evil = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    evil.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    proto::write_frame(&mut evil, &nested_frame(r#"{"op":"Join","nonce":1,"x":"#))
        .expect("send the nested frame");
    let frame = proto::read_frame(&mut evil)
        .expect("an error reply, not a dead daemon")
        .expect("a frame before the close");
    let reply = proto::decode_reply(&frame).expect("reply parses");
    assert!(matches!(reply.status, Status::Error), "{reply:?}");
    let error = reply.error.unwrap_or_default();
    assert!(error.starts_with("unparsable request: "), "{error}");
    match proto::read_frame(&mut evil) {
        Ok(None) | Err(_) => {} // closed
        Ok(Some(f)) => panic!("connection should be closed, got frame {f}"),
    }

    let mut next = connect(&socket);
    let r = next
        .join(1_000, 4_000)
        .expect("join after the hostile frame");
    assert!(matches!(r.status, Status::Admitted), "{:?}", r.error);
    next.shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());
    std::fs::remove_file(&socket).ok();
}

/// The client's side of the same: a reply nesting 200,000 deep is a
/// protocol error, not a client killed by its own stack.
#[test]
fn nested_reply_is_a_protocol_error_for_the_client() {
    let (socket, _) = scratch("nestedreply");
    std::fs::remove_file(&socket).ok();
    let listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind");
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        proto::read_frame(&mut conn)
            .expect("request")
            .expect("a request frame");
        let reply = nested_frame(r#"{"nonce":1,"status":"Admitted","slot":0,"x":"#);
        proto::write_frame(&mut conn, &reply).expect("send the nested reply");
    });
    let mut client = connect(&socket);
    let err = client.join(1_000, 4_000).expect_err("a nested reply");
    assert!(matches!(err, ClientError::Protocol(_)), "{err:?}");
    peer.join().expect("fake daemon");
    std::fs::remove_file(&socket).ok();
}

/// The JSON an encoder writes.
fn json(encode: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::new();
    encode(&mut out);
    String::from_utf8(out).expect("the codec writes UTF-8")
}

/// The next request on `conn`.
fn next_request(conn: &mut UnixStream) -> Request {
    let frame = proto::read_frame(conn).expect("request").expect("a frame");
    proto::decode_request(&frame).expect("a request")
}

/// Writes `json` as one frame, stalling 40 bytes into its body until
/// `resume` says the client has timed out.
fn write_stalled(conn: &mut UnixStream, json: &str, resume: &Receiver<()>) {
    let mut head = Vec::new();
    proto::write_frame(&mut head, json).expect("frame into a Vec");
    let tail = head.split_off(4 + 40);
    conn.write_all(&head).expect("prefix and head");
    resume.recv().expect("the client timed out");
    conn.write_all(&tail).expect("tail");
}

/// A read that times out in the middle of a frame keeps what it read:
/// the next `recv` (and the next `Subscription::next`) resumes the frame.
/// A fake daemon stalls 40 bytes into a reply and then into a stream
/// frame until the client has timed out. (A reader rebuilt for every
/// call used to take the middle of the body for the next length prefix:
/// `MalformedFrame("frame length … exceeds MAX_FRAME")`.)
#[test]
fn a_read_timeout_mid_frame_resumes_the_frame() {
    let (socket, _) = scratch("midframe");
    std::fs::remove_file(&socket).ok();
    let listener = UnixListener::bind(&socket).expect("bind");
    let mut reply = Reply::new(1, Status::Admitted, 3);
    (reply.task, reply.weight_num, reply.weight_den) = (Some(0), Some(1), Some(4));
    let decision = StreamMsg {
        kind: StreamKind::Decision,
        slot: 4,
        set: Some("default".to_string()),
        scheduled: Some(vec![0]),
        snapshot: None,
    };
    let (timed_out, resume) = std::sync::mpsc::channel();
    let peer = {
        let (reply, decision) = (reply.clone(), decision.clone());
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            assert_eq!(next_request(&mut conn).nonce, reply.nonce);
            write_stalled(
                &mut conn,
                &json(|o| proto::encode_reply(&reply, o)),
                &resume,
            );
            let nonce = next_request(&mut conn).nonce;
            let subscribed = Reply::new(nonce, Status::Subscribed, 4);
            proto::write_frame(&mut conn, &json(|o| proto::encode_reply(&subscribed, o)))
                .expect("subscribed");
            write_stalled(
                &mut conn,
                &json(|o| proto::encode_stream(&decision, o)),
                &resume,
            );
        })
    };

    let mut client = connect(&socket);
    let patience = |t| Some(Duration::from_millis(t));
    client.set_read_timeout(patience(100)).expect("timeout");
    let nonce = client.take_nonce();
    client
        .send(&Request::join(nonce, 1_000, 4_000))
        .expect("send");
    let err = client.recv().expect_err("the reply stalls mid-body");
    assert!(matches!(err, ClientError::TimedOut), "{err:?}");
    timed_out.send(()).expect("resume the reply");
    client.set_read_timeout(patience(10_000)).expect("timeout");
    assert_eq!(client.recv().expect("the rest of the reply"), reply);

    let mut sub = client.subscribe().expect("subscribe");
    sub.set_read_timeout(patience(100)).expect("timeout");
    let err = sub.next().expect_err("the decision stalls mid-body");
    assert!(matches!(err, ClientError::TimedOut), "{err:?}");
    timed_out.send(()).expect("resume the decision");
    sub.set_read_timeout(patience(10_000)).expect("timeout");
    assert_eq!(sub.next().expect("the rest of the decision"), decision);

    peer.join().expect("fake daemon");
    std::fs::remove_file(&socket).ok();
}

/// One lockstep run of interleaved two-set traffic over TCP; returns the
/// (default, alpha) per-set trace JSON dumped at shutdown.
fn deterministic_two_set_run(run: usize) -> (String, String) {
    let dir = std::env::temp_dir();
    let base = dir.join(format!("admitd-det{run}-{}.trace.json", std::process::id()));
    let (mut child, addr) =
        spawn_admitd_tcp(&["--cpus", "4", "--trace-out", base.to_str().unwrap()]);
    let daddr = DaemonAddr::Tcp(addr);

    let mut admin = connect_addr(&daddr);
    let r = admin.create_set("alpha").expect("create alpha");
    assert!(matches!(r.status, Status::SetCreated), "{:?}", r.error);

    let mut d = connect_addr(&daddr);
    let mut a = connect_addr(&daddr);
    a.set_scope(Some("alpha"));

    // Lockstep call/response so the request interleaving is identical
    // across runs: default gets 1/16-weight tasks, alpha 1/8 — the two
    // sets' logs must differ from each other but match across runs.
    for k in 0..24 {
        let rd = d.join(1_000, 16_000).expect("join default");
        assert!(matches!(rd.status, Status::Admitted), "{:?}", rd.error);
        let ra = a.join(2_000, 16_000).expect("join alpha");
        assert!(matches!(ra.status, Status::Admitted), "{:?}", ra.error);
        let last = (rd.task.unwrap(), ra.task.unwrap());
        if k % 3 == 2 {
            assert!(matches!(
                d.leave(last.0).expect("leave").status,
                Status::Left
            ));
            assert!(matches!(
                a.leave(last.1).expect("leave").status,
                Status::Left
            ));
        }
    }

    admin.shutdown().expect("shutdown");
    assert!(child.wait().expect("exit").success());

    let base_str = base.to_str().unwrap().to_string();
    let alpha_path = base_str.replace(".trace.json", ".trace.alpha.json");
    let default_json = std::fs::read_to_string(&base_str).expect("default trace");
    let alpha_json = std::fs::read_to_string(&alpha_path).expect("alpha trace");
    std::fs::remove_file(&base_str).ok();
    std::fs::remove_file(&alpha_path).ok();
    (default_json, alpha_json)
}

/// Two sets advancing under interleaved clients produce per-set decision
/// logs that are byte-identical across runs (and differ between sets).
#[test]
fn two_sets_have_byte_deterministic_decision_logs() {
    let (d0, a0) = deterministic_two_set_run(0);
    let (d1, a1) = deterministic_two_set_run(1);
    assert_eq!(d0, d1, "default set's decision log must be byte-stable");
    assert_eq!(a0, a1, "alpha set's decision log must be byte-stable");
    assert_ne!(
        d0, a0,
        "the two sets carry different workloads — identical logs would \
         mean they share one schedule"
    );
    // And they verify, of course.
    for json in [&d0, &a0] {
        ScheduleTrace::from_json(json)
            .expect("trace parses")
            .verify()
            .expect("trace window-verifies");
    }
}

/// `admitd` and `admitctl` are held to the `pfair` commands' command-line
/// contract: a flag they do not declare is exit 2 naming it — `admitd
/// --cpu 16` (for `--cpus`) used to start a daemon on the default four
/// processors — and `--help` prints the flags their module docs list.
#[test]
fn daemon_binaries_refuse_undeclared_flags() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    for (name, exe) in [
        ("admitd", env!("CARGO_BIN_EXE_admitd")),
        ("admitctl", env!("CARGO_BIN_EXE_admitctl")),
    ] {
        let source = std::fs::read_to_string(src.join(format!("{name}.rs"))).unwrap();
        cli_contract::assert_cli_contract(name, Path::new(exe), &source);
    }
    let (socket, _) = scratch("typo");
    let admitd = Path::new(env!("CARGO_BIN_EXE_admitd"));
    let typo = ["--cpu", "16", "--socket", socket.to_str().unwrap()];
    cli_contract::assert_refused("admitd", admitd, &typo);
    assert!(!socket.exists(), "a refused command line must not bind");
    // A batch of zero could decide nothing, and zero processors or a
    // zero quantum could admit nothing: each is refused before binding.
    for (flag, value, refusal) in [
        ("--max-batch", "0", "admitd: --max-batch must be at least 1"),
        ("--cpus", "0", "admitd: --cpus must be between 1 and 1024"),
        (
            "--cpus",
            "1025",
            "admitd: --cpus must be between 1 and 1024",
        ),
        (
            "--quantum-us",
            "0",
            "admitd: --quantum-us must be at least 1",
        ),
    ] {
        let out = cli_contract::run(
            "admitd",
            admitd,
            &[flag, value, "--socket", socket.to_str().unwrap()],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(refusal), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(!socket.exists(), "a refused command line must not bind");
    }
    // A second positional is not a command.
    let admitctl = Path::new(env!("CARGO_BIN_EXE_admitctl"));
    let out = cli_contract::run(
        "admitctl",
        admitctl,
        &["--socket", "s", "stats", "shutdown"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument 'shutdown'"));
}
