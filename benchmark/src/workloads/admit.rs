//! `admit_rtt` and `admit_pipelined`: the admission daemon's request path.
//!
//! Both run `daemon::bind(..).serve()` in-process on a Unix socket under
//! `Pace::Virtual` at M = 16 and drive it from one generator thread with
//! the seeded stream of [`crate::reqgen`]. Both are *closed* loops: a task
//! cannot start until it is admitted, so every caller waits for its
//! verdict before asking again.
//!
//! * `admit_rtt` — one connection, one request outstanding. Batches are
//!   size 1, so the round trip is thread hand-offs (reader → batch loop →
//!   writer) around one codec pass and one `decide_batch`.
//! * `admit_pipelined` — 2 connections × 16 outstanding: 32 waiting
//!   callers multiplexed onto `nproc` connections. Batches form, so codec
//!   and decide dominate and the hand-offs amortise.
//!
//! `Pace::RealTime` is excluded on purpose: its latency is the wait for
//! the 1 ms quantum edge by design, which would mask every layer. One
//! operation is one request.
//!
//! `run.sh` pins these two workloads to one CPU (`server.cpus_allowed`
//! reports what it got). Sized for that: a repetition on two CPUs, where
//! every hand-off may wake a halted vCPU, takes up to five times longer.

use super::{sized, Rep, RunArgs, Slice, Workload};
use crate::golden;
use crate::procfs::{cpus_allowed, process_cpu_ns, thread_count, thread_cpu_ns};
use crate::report::{Check, Checks};
use crate::reqgen::{ReqGen, Tally};
use crate::spans::{SpanId, Tracer};
use crate::stats::{percentile, percentile_sorted};
use daemon::proto::{read_frame, write_frame, FrameReader, Op, Reply, Request, Status};
use daemon::{AdmissionCore, Bind, CoreConfig, DaemonClient, RunReport, ServerConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Processors of every task set.
const M: u32 = 16;
/// Requests sent before timing: fills the first set to its steady
/// population and warms every thread of the daemon.
const WARMUP_REQUESTS: u64 = 1_000;
/// Window-1 requests over loopback TCP for `server.tcp_rtt_us_p50`.
const TCP_REQUESTS: u64 = 5_000;
/// Round trips of the bare socket ping-pong.
const PINGPONG_ROUNDS: usize = 5_000;
/// Requests replayed through an in-process core per batch size.
const DECIDE_REQUESTS: usize = 20_000;
/// Join-then-leave cycles of the ageing probe.
const AGEING_CYCLES: u64 = 20_000;

/// How a daemon workload loads the daemon.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    name: &'static str,
    connections: usize,
    /// Requests outstanding per connection.
    window: usize,
    /// Requests per second of repetition.
    requests_per_second: f64,
}

impl Shape {
    /// One caller that waits for each verdict.
    pub const RTT: Shape = Shape {
        name: "admit_rtt",
        connections: 1,
        window: 1,
        requests_per_second: 36_000.0,
    };
    /// 32 waiting callers on two connections.
    pub const PIPELINED: Shape = Shape {
        name: "admit_pipelined",
        connections: 2,
        window: 16,
        requests_per_second: 48_000.0,
    };
}

type Res<T> = Result<T, String>;

/// What the traced pass records on the client side: spans, and the
/// request and reply frames for the replay.
struct TraceCtx {
    tr: Tracer,
    roots: HashMap<u64, SpanId>,
    requests: Vec<String>,
    replies: Vec<String>,
}

/// One connection: the shipped client, or the same public codec calls
/// made one by one so each can carry a span.
enum Link {
    Plain(DaemonClient),
    Traced(UnixStream),
}

impl Link {
    fn connect(path: &str, traced: bool) -> Res<Link> {
        if traced {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match UnixStream::connect(path) {
                    Ok(s) => {
                        s.set_read_timeout(Some(Duration::from_secs(10)))
                            .map_err(|e| e.to_string())?;
                        return Ok(Link::Traced(s));
                    }
                    Err(e) if Instant::now() >= deadline => return Err(format!("connect: {e}")),
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        } else {
            DaemonClient::connect_retry(path, Duration::from_secs(5))
                .map(Link::Plain)
                .map_err(|e| format!("connect: {e}"))
        }
    }

    fn send(&mut self, req: &Request, ctx: Option<&mut TraceCtx>) -> Res<()> {
        match (self, ctx) {
            (Link::Plain(c), _) => c.send(req).map_err(|e| format!("send: {e}")),
            (Link::Traced(s), Some(ctx)) => {
                let id = req.nonce;
                let root = ctx.tr.start("client.request", None, id);
                ctx.roots.insert(id, root);
                let json = ctx
                    .tr
                    .time("client.encode_request", Some(root), id, || {
                        serde_json::to_string(req)
                    })
                    .map_err(|e| format!("encode: {e}"))?;
                ctx.tr
                    .time("client.frame_write", Some(root), id, || {
                        write_frame(s, &json)
                    })
                    .map_err(|e| format!("send: {e}"))?;
                ctx.requests.push(json);
                Ok(())
            }
            (Link::Traced(_), None) => Err("traced link without a trace context".to_string()),
        }
    }

    fn recv(&mut self, ctx: Option<&mut TraceCtx>) -> Res<Reply> {
        match (self, ctx) {
            (Link::Plain(c), _) => c.recv().map_err(|e| format!("recv: {e}")),
            (Link::Traced(s), Some(ctx)) => {
                let t0 = ctx.tr.now();
                let frame = read_frame(s)
                    .map_err(|e| format!("recv: {e}"))?
                    .ok_or("recv: daemon closed the connection")?;
                let t1 = ctx.tr.now();
                let reply: Reply =
                    serde_json::from_str(&frame).map_err(|e| format!("decode: {e}"))?;
                let t2 = ctx.tr.now();
                let root = ctx.roots.remove(&reply.nonce);
                // The wait belongs to the request whose reply ended it.
                ctx.tr
                    .record("client.wait_reply", root, reply.nonce, t0, t1);
                ctx.tr
                    .record("client.decode_reply", root, reply.nonce, t1, t2);
                if let Some(root) = root {
                    ctx.tr.end(root);
                }
                ctx.replies.push(frame);
                Ok(reply)
            }
            (Link::Traced(_), None) => Err("traced link without a trace context".to_string()),
        }
    }

    /// Call and response for a control request; the reply must carry
    /// `want`.
    fn call(&mut self, req: &Request, want: Status, mut ctx: Option<&mut TraceCtx>) -> Res<Reply> {
        self.send(req, ctx.as_deref_mut())?;
        let reply = self.recv(ctx)?;
        if reply.nonce != req.nonce || reply.status != want {
            return Err(format!(
                "{:?} answered {:?} ({:?}), expected {want:?}",
                req.op, reply.status, reply.error
            ));
        }
        Ok(reply)
    }
}

/// A daemon serving on its own thread.
struct LiveDaemon {
    serving: JoinHandle<std::io::Result<RunReport>>,
    /// Unix socket path, or `ip:port` for TCP.
    addr: String,
}

impl LiveDaemon {
    fn start(bind: Bind) -> Res<LiveDaemon> {
        let bound = daemon::bind(ServerConfig::bound(bind, M)).map_err(|e| format!("bind: {e}"))?;
        let label = bound.local_label();
        let addr = label
            .strip_prefix("unix:")
            .or_else(|| label.strip_prefix("tcp://"))
            .unwrap_or(label)
            .to_string();
        let serving = std::thread::spawn(move || bound.serve());
        Ok(LiveDaemon { serving, addr })
    }

    /// Waits for the daemon to finish after a `Shutdown` request.
    fn join(self) -> Res<RunReport> {
        self.serving
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))
    }
}

/// What driving a stretch of the stream measured.
struct Drive {
    wall_s: f64,
    cpu_ns: u64,
    gen_cpu_ns: u64,
    rtts_us: Vec<f64>,
    /// The stretch cut at every [`Drive::slice_ops`]-th reply. With
    /// requests outstanding side by side a cut is not clean (up to a
    /// window of requests straddles it), but the slices add up to the
    /// stretch and a cut falls at the same reply in every repetition.
    slices: Vec<Slice>,
}

impl Drive {
    /// Slices a stretch is cut into: ≈ 6 ms each at the end-to-end size,
    /// short enough to fit between two disturbances from the host.
    const SLICES: u64 = 15;

    /// Replies per slice of a stretch of `total` requests.
    fn slice_ops(total: u64) -> u64 {
        total.div_ceil(Self::SLICES).max(1)
    }
}

/// The generator's side of one daemon: its connections, the request
/// stream, what is outstanding on each connection, and the trace context
/// when the pass is traced. Everything runs on the calling thread.
struct Session {
    links: Vec<Link>,
    /// Requests outstanding per link.
    outstanding: Vec<usize>,
    /// Requests outstanding per link before the generator stops sending.
    window: usize,
    gen: ReqGen,
    sent_at: HashMap<u64, Instant>,
    trace: Option<TraceCtx>,
}

impl Session {
    /// Connects `connections` links to `addr` and creates the stream's
    /// first task set.
    fn open(
        addr: &str,
        tcp: bool,
        connections: usize,
        window: usize,
        seed: u64,
        trace: Option<TraceCtx>,
    ) -> Res<Session> {
        let links = (0..connections)
            .map(|_| match tcp {
                true => DaemonClient::connect_tcp(addr)
                    .map(Link::Plain)
                    .map_err(|e| format!("connect: {e}")),
                false => Link::connect(addr, trace.is_some()),
            })
            .collect::<Res<Vec<Link>>>()?;
        let mut session = Session {
            outstanding: vec![0; links.len()],
            links,
            window,
            gen: ReqGen::new(seed),
            sent_at: HashMap::new(),
            trace,
        };
        let create = Request::bare(Op::CreateSet, 0).with_set(session.gen.set_name());
        session.call(&create, Status::SetCreated)?;
        Ok(session)
    }

    /// Call and response for a control request, on the first link.
    fn call(&mut self, req: &Request, want: Status) -> Res<Reply> {
        self.links[0].call(req, want, self.trace.as_mut())
    }

    /// Takes one reply off link `c`; returns its round trip in µs.
    fn recv_on(&mut self, c: usize) -> Res<Option<f64>> {
        let reply = self.links[c].recv(self.trace.as_mut())?;
        let rtt = self
            .sent_at
            .remove(&reply.nonce)
            .map(|at| at.elapsed().as_secs_f64() * 1e6);
        self.gen.on_reply(&reply);
        self.outstanding[c] -= 1;
        Ok(rtt)
    }

    /// Sends `total` requests of the stream, keeping every link's window
    /// full and taking replies from the links in turn. Rotates task sets
    /// when the stream asks: outstanding requests are drained first, then
    /// the new set is created and the old one dropped.
    fn drive(&mut self, total: u64) -> Res<Drive> {
        let mut rtts_us = Vec::with_capacity(total as usize);
        let (mut sent, mut turn) = (0u64, 0usize);
        // Where each slice ends: replies so far, samples so far, when.
        let mut cuts: Vec<(u64, usize, Instant)> = Vec::new();
        let (mut received, per_slice) = (0u64, Drive::slice_ops(total));
        let mut reply = |rtt: Option<f64>, rtts_us: &mut Vec<f64>| {
            rtts_us.extend(rtt);
            received += 1;
            if received % per_slice == 0 || received == total {
                cuts.push((received, rtts_us.len(), Instant::now()));
            }
        };
        let cpu0 = process_cpu_ns();
        let gen_cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        loop {
            if self.gen.wants_rotation() && sent < total {
                for c in 0..self.links.len() {
                    while self.outstanding[c] > 0 {
                        reply(self.recv_on(c)?, &mut rtts_us);
                    }
                }
                let (create, drop) = self.gen.rotate();
                self.call(&create, Status::SetCreated)?;
                self.call(&drop, Status::SetDropped)?;
            }
            for c in 0..self.links.len() {
                while self.outstanding[c] < self.window && sent < total {
                    let req = self.gen.next_request();
                    self.sent_at.insert(req.nonce, Instant::now());
                    self.links[c].send(&req, self.trace.as_mut())?;
                    self.outstanding[c] += 1;
                    sent += 1;
                }
            }
            // One reply from the next link that owes one.
            let n = self.links.len();
            let Some(c) = (0..n)
                .map(|k| (turn + k) % n)
                .find(|&c| self.outstanding[c] > 0)
            else {
                break;
            };
            turn = c + 1;
            reply(self.recv_on(c)?, &mut rtts_us);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_ns = process_cpu_ns() - cpu0;
        let gen_cpu_ns = thread_cpu_ns() - gen_cpu0;
        let mut from = (0u64, 0usize, t0);
        let slices = cuts
            .into_iter()
            .map(|cut| {
                let mut samples = rtts_us[from.1..cut.1].to_vec();
                let slice = Slice {
                    ops: cut.0 - from.0,
                    wall_s: (cut.2 - from.2).as_secs_f64(),
                    // Unmatched replies leave no sample; the run is
                    // incorrect then, so any latency will do.
                    latency_us: match samples.is_empty() {
                        true => 0.0,
                        false => percentile(&mut samples, 50.0),
                    },
                };
                from = cut;
                slice
            })
            .collect();
        Ok(Drive {
            wall_s,
            cpu_ns,
            gen_cpu_ns,
            rtts_us,
            slices,
        })
    }

    /// Asks the daemon to stop and hands back the stream and the trace.
    fn close(mut self) -> Res<(ReqGen, Option<TraceCtx>)> {
        self.call(&Request::bare(Op::Shutdown, u64::MAX), Status::ShuttingDown)?;
        Ok((self.gen, self.trace))
    }
}

/// Everything one daemon lifetime produced.
struct Lifetime {
    setup_s: f64,
    timed: Drive,
    /// Stream counts at the start and end of the timed stretch.
    before: Tally,
    after: Tally,
    threads: u64,
    batch_size_mean: f64,
    decide_ns_mean: f64,
    trace_verify_ms: f64,
}

/// The daemon workloads.
pub struct Admit {
    args: RunArgs,
    shape: Shape,
    /// Distinguishes the socket of each daemon this process starts.
    daemons_started: u64,
    /// Verdict counts of the first repetition (window 1 only).
    reference: golden::Reference,
    /// The latest repetition, for the traced pass to read server means.
    last: Option<Lifetime>,
    checks: Checks,
}

impl Admit {
    /// Sized for `args.rep_seconds`.
    pub fn new(args: &RunArgs, shape: Shape) -> Self {
        Admit {
            args: args.clone(),
            shape,
            daemons_started: 0,
            reference: golden::Reference::default(),
            last: None,
            checks: Checks::default(),
        }
    }

    fn requests(&self) -> u64 {
        sized(self.shape.requests_per_second, self.args.rep_seconds)
    }

    /// A relative socket path: the process runs inside `out_dir`, and a
    /// short name stays clear of the 108-byte `sun_path` limit however
    /// deep the checkout is.
    fn socket_path(&mut self) -> String {
        self.daemons_started += 1;
        format!("admit.{}.{}.sock", std::process::id(), self.daemons_started)
    }

    /// One daemon from bind to verified shutdown: set-up and warm-up,
    /// `total` timed requests, then every end-of-life check. A trace
    /// context makes it the traced pass and is handed back filled.
    fn lifetime(
        &mut self,
        total: u64,
        trace: Option<TraceCtx>,
    ) -> Res<(Lifetime, Option<TraceCtx>)> {
        let t0 = Instant::now();
        let live = LiveDaemon::start(Bind::Unix(self.socket_path().into()))?;
        let Shape {
            connections,
            window,
            ..
        } = self.shape;
        let mut session = Session::open(
            &live.addr,
            false,
            connections,
            window,
            self.args.seed,
            trace,
        )?;
        session.drive(WARMUP_REQUESTS)?;
        let setup_s = t0.elapsed().as_secs_f64();

        let before = session.gen.tally();
        let timed = session.drive(total)?;
        let after = session.gen.tally();
        let threads = thread_count();

        // Final population as the daemon sees it, then a clean stop.
        let stats = Request::bare(Op::Stats, u64::MAX - 1).with_set(session.gen.set_name());
        let stats = session.call(&stats, Status::Stats)?;
        let (gen, trace) = session.close()?;
        let report = live.join()?;

        self.check_lifetime(&gen, &stats, &report);
        let t0 = Instant::now();
        let unverified: Vec<String> = report
            .sets
            .iter()
            .filter_map(|s| match s.trace.as_ref().map(|t| t.verify()) {
                Some(Ok(())) => None,
                Some(Err(e)) => Some(format!("{}: {e}", s.name)),
                None => Some(format!("{}: no trace recorded", s.name)),
            })
            .collect();
        let trace_verify_ms = t0.elapsed().as_secs_f64() * 1e3;
        if !unverified.is_empty() {
            self.checks.fail("traces_verify", unverified.join("; "));
        }

        let snap = &report.snapshot;
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let life = Lifetime {
            setup_s,
            timed,
            before,
            after,
            threads,
            batch_size_mean: counter("daemon.requests") / counter("daemon.batches").max(1.0),
            decide_ns_mean: snap.histogram("daemon.decide_ns").map_or(0.0, |h| h.mean()),
            trace_verify_ms,
        };
        Ok((life, trace))
    }

    /// Replies equal requests, nothing errored, and the daemon's own
    /// counts agree with the stream's.
    fn check_lifetime(&mut self, gen: &ReqGen, stats: &Reply, report: &RunReport) {
        let t = gen.tally();
        if t.replies != t.requests || t.unmatched != 0 || gen.in_flight() != 0 {
            self.checks.fail(
                "replies_match_requests",
                format!(
                    "{} requests, {} replies, {} unmatched nonces, {} still in flight",
                    t.requests,
                    t.replies,
                    t.unmatched,
                    gen.in_flight()
                ),
            );
        }
        if t.errors != 0 {
            self.checks
                .fail("no_errors", format!("{} Error replies", t.errors));
        }
        // admitted − left − (dropped with their set) = still resident.
        let resident = t.admitted - t.left - t.dropped_with_set;
        if stats.task_count != Some(resident) || gen.resident() as u64 != resident {
            self.checks.fail(
                "population_balances",
                format!(
                    "admitted {} − left {} − dropped with set {} = {resident}, \
                     daemon reports {:?}, stream holds {}",
                    t.admitted,
                    t.left,
                    t.dropped_with_set,
                    stats.task_count,
                    gen.resident()
                ),
            );
        }
        let sum = |f: fn(&(u64, u64, u64, u64)) -> u64| -> u64 {
            report.sets.iter().map(|s| f(&s.counts)).sum()
        };
        let daemon_counts = (sum(|c| c.0), sum(|c| c.1), sum(|c| c.2), sum(|c| c.3));
        if daemon_counts != (t.admitted, t.rejected, t.left, t.reweighted) {
            self.checks.fail(
                "daemon_counts_agree",
                format!(
                    "daemon (admitted, rejected, left, reweighted) {daemon_counts:?}, stream {:?}",
                    (t.admitted, t.rejected, t.left, t.reweighted)
                ),
            );
        }
    }

    fn rep_of(&self, life: &Lifetime) -> Rep {
        let (b, a) = (life.before, life.after);
        Rep {
            setup_s: life.setup_s,
            cpu_ns: life.timed.cpu_ns,
            failed: (a.errors - b.errors) + (a.unmatched - b.unmatched),
            slices: life.timed.slices.clone(),
        }
    }

    /// The isolated server-side stages, replayed over the captured frames
    /// through the same public functions the daemon calls.
    fn replay(ctx: &TraceCtx) -> BTreeMap<&'static str, f64> {
        /// Mean ns of `f` over `items`.
        fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
            let t0 = Instant::now();
            for item in items {
                f(std::hint::black_box(item));
            }
            t0.elapsed().as_nanos() as f64 / items.len().max(1) as f64
        }
        let requests: Vec<Request> = ctx
            .requests
            .iter()
            .filter_map(|j| serde_json::from_str(j).ok())
            .collect();
        let replies: Vec<Reply> = ctx
            .replies
            .iter()
            .filter_map(|j| serde_json::from_str(j).ok())
            .collect();
        let mut out = BTreeMap::new();
        out.insert(
            "proto.encode_request_ns",
            mean_ns(&requests, |r| {
                std::hint::black_box(serde_json::to_string(r).ok());
            }),
        );
        out.insert(
            "proto.decode_request_ns",
            mean_ns(&ctx.requests, |j| {
                std::hint::black_box(serde_json::from_str::<Request>(j).ok());
            }),
        );
        out.insert(
            "proto.encode_reply_ns",
            mean_ns(&replies, |r| {
                std::hint::black_box(serde_json::to_string(r).ok());
            }),
        );
        out.insert(
            "proto.decode_reply_ns",
            mean_ns(&ctx.replies, |j| {
                std::hint::black_box(serde_json::from_str::<Reply>(j).ok());
            }),
        );

        // Framing, over both directions' frames.
        let frames: Vec<&String> = ctx.requests.iter().chain(&ctx.replies).collect();
        let mut wire: Vec<u8> = Vec::new();
        out.insert(
            "proto.frame_write_ns",
            mean_ns(&frames, |j| {
                write_frame(&mut wire, j).expect("writing to a Vec cannot fail");
            }),
        );
        let mut cursor = Cursor::new(wire);
        let mut reader = FrameReader::new();
        out.insert(
            "proto.frame_read_ns",
            mean_ns(&frames, |_| {
                std::hint::black_box(reader.poll(&mut cursor).ok());
            }),
        );
        out
    }
}

/// An admission core driven in-process by the request stream: the
/// `decide` layer with no socket, thread or codec around it.
struct LocalCore {
    core: AdmissionCore,
    gen: ReqGen,
    replies: Vec<Reply>,
}

impl LocalCore {
    /// A core warmed to the stream's steady population.
    fn warm(seed: u64) -> LocalCore {
        let mut local = LocalCore {
            core: AdmissionCore::new(CoreConfig::new(M)),
            gen: ReqGen::new(seed),
            replies: Vec::new(),
        };
        for _ in 0..WARMUP_REQUESTS {
            local.batch(1);
        }
        local
    }

    /// Pushes and decides one batch of `b` requests; returns the ns spent
    /// in `push_request` × b + `decide_batch`.
    fn batch(&mut self, b: usize) -> u128 {
        if self.gen.wants_rotation() {
            self.gen.rotate();
            self.core = AdmissionCore::new(CoreConfig::new(M));
        }
        let batch: Vec<Request> = (0..b).map(|_| self.gen.next_request()).collect();
        self.replies.clear();
        let t0 = Instant::now();
        for req in batch {
            assert!(self.core.push_request(req), "batch below max_batch");
        }
        self.core.decide_batch(&mut self.replies);
        let ns = t0.elapsed().as_nanos();
        for reply in &self.replies {
            self.gen.on_reply(reply);
        }
        ns
    }
}

/// ns per request of `push_request` × b + `decide_batch` on a warm core.
fn decide_ns(seed: u64, b: usize) -> f64 {
    let mut local = LocalCore::warm(seed);
    let batches = DECIDE_REQUESTS / b;
    let ns: u128 = (0..batches).map(|_| local.batch(b)).sum();
    ns as f64 / (batches * b) as f64
}

/// ns per `AdmissionCore::step` with nothing pending, on a warm core.
fn step_ns(seed: u64) -> f64 {
    let mut local = LocalCore::warm(seed);
    let t0 = Instant::now();
    for _ in 0..DECIDE_REQUESTS {
        std::hint::black_box(local.core.step());
    }
    t0.elapsed().as_nanos() as f64 / DECIDE_REQUESTS as f64
}

/// The ageing probe: join-then-leave cycles of one 5 % task on a single
/// core that starts empty. Returns the 1-based index of the first join
/// refused (`AGEING_CYCLES + 1` if none) and the share of the last 2,000
/// joins admitted. The set never holds more than one task, so any
/// refusal comes from the set's age alone.
fn ageing_probe() -> (f64, f64) {
    let mut cfg = CoreConfig::new(M);
    cfg.record_trace = false; // 40k slots of schedule serve no check here
    let mut core = AdmissionCore::new(cfg);
    let mut replies = Vec::new();
    let mut first_reject = AGEING_CYCLES + 1;
    let mut admitted_late = 0u64;
    for cycle in 1..=AGEING_CYCLES {
        replies.clear();
        core.push_request(Request::join(2 * cycle, 500, 10_000));
        core.decide_batch(&mut replies);
        match (replies[0].status, replies[0].task) {
            (Status::Admitted, Some(task)) => {
                if cycle > AGEING_CYCLES - 2_000 {
                    admitted_late += 1;
                }
                replies.clear();
                core.push_request(Request::leave(2 * cycle + 1, task));
                core.decide_batch(&mut replies);
            }
            _ => first_reject = first_reject.min(cycle),
        }
    }
    (first_reject as f64, admitted_late as f64 / 2_000.0)
}

/// Median µs of a frame echoed between two threads over a bare
/// `UnixStream` pair: the floor under the daemon's hand-offs.
fn socket_pingpong_us(request_len: usize, reply_len: usize) -> Res<f64> {
    let (mut near, mut far) = UnixStream::pair().map_err(|e| e.to_string())?;
    let reply = "r".repeat(reply_len);
    let echo = std::thread::spawn(move || {
        while let Ok(Some(_)) = read_frame(&mut far) {
            if write_frame(&mut far, &reply).is_err() {
                break;
            }
        }
    });
    let request = "q".repeat(request_len);
    let mut us = Vec::with_capacity(PINGPONG_ROUNDS);
    for _ in 0..PINGPONG_ROUNDS {
        let t0 = Instant::now();
        write_frame(&mut near, &request).map_err(|e| e.to_string())?;
        read_frame(&mut near).map_err(|e| e.to_string())?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(near);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    Ok(percentile(&mut us, 50.0))
}

/// Median window-1 round trip over loopback TCP (`TCP_NODELAY`), µs.
fn tcp_rtt_us_p50(seed: u64) -> Res<f64> {
    let live = LiveDaemon::start(Bind::Tcp("127.0.0.1:0".to_string()))?;
    let mut session = Session::open(&live.addr, true, 1, 1, seed, None)?;
    session.drive(WARMUP_REQUESTS)?;
    let mut timed = session.drive(TCP_REQUESTS)?;
    session.close()?;
    live.join()?;
    Ok(percentile(&mut timed.rtts_us, 50.0))
}

/// The verdict counts the golden stores.
fn verdict_counts(t: &Tally) -> golden::Values {
    [
        ("admitted", t.admitted),
        ("rejected", t.rejected),
        ("left", t.left),
        ("reweighted", t.reweighted),
        ("dropped_with_set", t.dropped_with_set),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v as f64))
    .collect()
}

impl Workload for Admit {
    fn rep(&mut self) -> Rep {
        let (life, _) = self
            .lifetime(self.requests(), None)
            .unwrap_or_else(|e| crate::die(&format!("{}: {e}", self.shape.name)));
        // Window 1 leaves no room for timing to reorder anything, so every
        // repetition sees the same replies. With 32 outstanding the batch
        // boundaries, and with them some verdicts, depend on timing.
        if self.shape.window == 1 {
            self.reference
                .observe(verdict_counts(&life.after), &mut self.checks);
        }
        let rep = self.rep_of(&life);
        self.last = Some(life);
        rep
    }

    fn traced(&mut self, base: &Rep) -> Vec<(String, f64)> {
        let die = |e: String| -> ! { crate::die(&format!("traced pass: {e}")) };
        let base_life = self.last.take().expect("an untraced repetition ran first");
        let ctx = TraceCtx {
            tr: Tracer::new(),
            roots: HashMap::new(),
            requests: Vec::new(),
            replies: Vec::new(),
        };
        let (life, ctx) = self
            .lifetime(self.requests(), Some(ctx))
            .unwrap_or_else(|e| die(e));
        let ctx = ctx.expect("a traced lifetime hands its context back");
        let path = self
            .args
            .out_dir
            .join(format!("trace-{}.json", self.shape.name));
        if let Err(e) = ctx
            .tr
            .write_json(&path, self.shape.name, crate::MAX_TRACE_SPANS)
        {
            self.checks.fail("trace_file", e.to_string());
        }
        if self.shape.window == 1 {
            self.reference
                .check_traced(&verdict_counts(&life.after), &mut self.checks);
        }

        let spans = ctx.tr.by_name();
        let span_mean_ns = |name: &str| {
            spans
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64)
        };
        let stages = Self::replay(&ctx);
        let seed = self.args.seed;
        let (b1, b16, b64) = (decide_ns(seed, 1), decide_ns(seed, 16), decide_ns(seed, 64));

        let mut rtts = base_life.timed.rtts_us.clone();
        rtts.sort_by(f64::total_cmp);
        let rtt_p50 = percentile_sorted(&rtts, 50.0);
        // Everything on the round trip that is not a hand-off: both codec
        // passes, both framings in each direction, and the decision. What
        // is left of a window-1 round trip is the daemon's thread
        // hand-offs; with requests queued behind each other it would be
        // mostly queueing, so the residual is reported for window 1 only.
        let staged_ns = stages["proto.encode_request_ns"]
            + stages["proto.decode_request_ns"]
            + stages["proto.encode_reply_ns"]
            + stages["proto.decode_reply_ns"]
            + 2.0 * (stages["proto.frame_write_ns"] + stages["proto.frame_read_ns"])
            + b1;
        let handoff_us = rtt_p50 - staged_ns / 1e3;

        let t = life.after;
        let decided = (t.admitted + t.reweighted + t.rejected).max(1);
        let served = base_life.after.requests - base_life.before.requests;
        let mut out: Vec<(&str, f64)> = stages.into_iter().collect();
        out.extend([
            ("core.decide_ns.b1", b1),
            ("core.decide_ns.b16", b16),
            ("core.decide_ns.b64", b64),
            ("core.step_ns", step_ns(seed)),
            ("core.reject_share", t.rejected as f64 / decided as f64),
            ("core.admitted", t.admitted as f64),
            ("core.left", t.left as f64),
            ("server.batch_size_mean", base_life.batch_size_mean),
            ("server.decide_ns_mean", base_life.decide_ns_mean),
            ("server.threads", base_life.threads as f64),
            ("server.cpus_allowed", cpus_allowed() as f64),
            (
                "client.encode_request_ns",
                span_mean_ns("client.encode_request"),
            ),
            ("client.frame_write_ns", span_mean_ns("client.frame_write")),
            (
                "client.wait_reply_us",
                span_mean_ns("client.wait_reply") / 1e3,
            ),
            (
                "client.decode_reply_ns",
                span_mean_ns("client.decode_reply"),
            ),
            (
                "client.gen_cpu_us_per_req",
                base_life.timed.gen_cpu_ns as f64 / 1e3 / served as f64,
            ),
            ("client.rtt_us_p50", rtt_p50),
            ("client.rtt_us_p90", percentile_sorted(&rtts, 90.0)),
            ("client.rtt_us_p99", percentile_sorted(&rtts, 99.0)),
            ("client.rtt_us_max", rtts[rtts.len() - 1]),
            ("sim.trace_verify_ms", base_life.trace_verify_ms),
            (
                "error_share",
                (t.errors + t.unmatched) as f64 / t.requests.max(1) as f64,
            ),
            ("trace_spans", ctx.tr.span_count() as f64),
            (
                "trace_overhead_pct",
                100.0 * (life.timed.wall_s - base.wall_s()) / base.wall_s(),
            ),
        ]);

        // The hand-off residual and the trace-only probes: window 1 only.
        if self.shape.window == 1 {
            let mean_len = |frames: &[String]| {
                frames.iter().map(String::len).sum::<usize>() / frames.len().max(1)
            };
            let (first_reject_at, accept_share) = ageing_probe();
            out.extend([
                ("server.handoff_self_us", handoff_us),
                ("server.handoff_share_pct", 100.0 * handoff_us / rtt_p50),
                ("core.first_reject_at", first_reject_at),
                ("core.accept_share.last2k", accept_share),
                (
                    "server.socket_pingpong_us",
                    socket_pingpong_us(mean_len(&ctx.requests), mean_len(&ctx.replies))
                        .unwrap_or_else(|e| die(e)),
                ),
                (
                    "server.tcp_rtt_us_p50",
                    tcp_rtt_us_p50(seed).unwrap_or_else(|e| die(e)),
                ),
            ]);
        }
        out.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    fn checks(&mut self) -> Vec<Check> {
        for (name, holds) in [
            (
                "replies_match_requests",
                "every request got exactly one reply and every nonce matched",
            ),
            ("no_errors", "no Error reply and no transport failure"),
            (
                "population_balances",
                "admitted − left − dropped with their set = the daemon's final task count",
            ),
            (
                "daemon_counts_agree",
                "the daemon's per-set counts sum to the stream's",
            ),
            (
                "traces_verify",
                "every live and dropped set's trace passes verify()",
            ),
        ] {
            self.checks.pass_unless_failed(name, holds);
        }
        self.reference.verdicts(
            self.shape.name,
            self.args.seed,
            self.requests(),
            self.args.write_golden,
            &mut self.checks,
        );
        self.checks.take()
    }
}
