//! The daemon's transport and batch loop: a [`Listener`] (Unix-domain or
//! TCP) in front of a [`SetRegistry`] of independent admission cores.
//!
//! Threading model: one acceptor thread, one reader thread per
//! connection, one writer thread per connection, and a single *batch
//! loop* (the caller's thread) owning every admission core. Readers parse
//! frames and forward work items over an mpsc channel; the batch loop
//! drains everything that arrived within the current quantum, decides
//! each set's batch independently (canonical order *within* a set), and
//! routes replies back through per-connection channels. No lock is ever
//! taken around scheduler state — the cores are single-owner by
//! construction, mirroring the narrow-kernel split the protocol is
//! designed around.
//!
//! Both transports share the length-prefixed JSON framing, the
//! max-frame-size cap, and an idle-connection timeout: a peer that
//! stalls mid-frame (half-open TCP connection, SIGKILLed client) is
//! reaped after [`ServerConfig::idle_timeout`] instead of pinning a
//! reader thread forever. Subscribed connections are exempt — their
//! reader exits after the upgrade and liveness is policed by write
//! failures on the stream.
//!
//! Client disconnects are tolerated at every point: a reply or stream
//! frame that cannot be delivered is dropped (the decision it reported
//! stands — an admitted task whose client vanished stays admitted until
//! somebody leaves it), and a reader error just ends that connection.

use crate::core::{CoreConfig, SetRegistry, SetReport};
use crate::proto::{
    write_frame, FrameError, FrameReader, Op, Reply, Request, Status, StreamKind, StreamMsg,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How the daemon advances quantum edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// A quantum edge fires whenever at least one request is pending:
    /// the batch is whatever arrived while the previous batch was being
    /// decided, and only the sets with pending work step. Idle slots are
    /// not simulated. This is the soak/test mode — simulated time
    /// decouples from wall time entirely.
    Virtual,
    /// Quantum edges fire every `quantum_us` of wall time whether or not
    /// requests arrived, and *every* live set steps at each edge, so all
    /// simulations track wall time and subscribers see idle slots too.
    /// Arrivals accumulate until the current edge is reached (they never
    /// advance it early); if deciding a batch overruns the quantum, the
    /// next edge is re-anchored rather than burst-replayed, so slots
    /// never advance faster than wall time.
    RealTime,
}

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7133` (port 0 picks one).
    Tcp(String),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Transport endpoint.
    pub bind: Bind,
    /// Admission-core template: every set (the default and each
    /// `create_set`) is built from this.
    pub core: CoreConfig,
    /// Quantum pacing.
    pub pace: Pace,
    /// Stream an `obs` snapshot to a set's subscribers every this many
    /// of that set's slots (0 = never).
    pub snapshot_every: u64,
    /// Reap a connection whose peer has been silent this long — a
    /// stalled half-open TCP peer must not pin a reader thread forever.
    /// Subscribed connections are exempt (they are write-only).
    pub idle_timeout: Duration,
    /// Maximum live task-set shards.
    pub max_sets: usize,
}

impl ServerConfig {
    /// Unix transport, virtual pacing, `M` processors, snapshots every
    /// 256 slots, 30 s idle timeout, up to 64 sets.
    pub fn new(socket: PathBuf, processors: u32) -> Self {
        Self::bound(Bind::Unix(socket), processors)
    }

    /// Same defaults over TCP.
    pub fn tcp(addr: impl Into<String>, processors: u32) -> Self {
        Self::bound(Bind::Tcp(addr.into()), processors)
    }

    /// Same defaults over an explicit [`Bind`].
    pub fn bound(bind: Bind, processors: u32) -> Self {
        ServerConfig {
            bind,
            core: CoreConfig::new(processors),
            pace: Pace::Virtual,
            snapshot_every: 256,
            idle_timeout: Duration::from_secs(30),
            max_sets: 64,
        }
    }
}

/// What the daemon did over its lifetime, returned when it shuts down.
pub struct RunReport {
    /// Per-set reports: sets dropped mid-run first (in drop order), then
    /// the sets still live at shutdown (sorted by name). Each carries
    /// its own offline-verifiable `ScheduleTrace`.
    pub sets: Vec<SetReport>,
    /// Final recorder snapshot (shared across sets).
    pub snapshot: obs::Snapshot,
}

// ---------------------------------------------------------------------------
// Transport abstraction: Unix-domain and TCP share everything above the
// accept/connect calls.
// ---------------------------------------------------------------------------

/// One accepted connection. Every method the server needs from a stream,
/// object-safe so `Box<dyn Conn>` can cross thread spawns.
pub trait Conn: Read + Write + Send {
    /// An independently readable/writable handle to the same socket
    /// (the per-connection writer thread owns the clone).
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>>;
    /// Sets the read timeout (the reader polls in slices of it).
    fn set_read_timeout_conn(&self, t: Option<Duration>) -> io::Result<()>;
    /// Shuts down both directions, unblocking any peer reads.
    fn shutdown_conn(&self);
}

impl Conn for UnixStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_read_timeout_conn(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn shutdown_conn(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

impl Conn for TcpStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn set_read_timeout_conn(&self, t: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(t)
    }
    fn shutdown_conn(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

/// A bound, non-blocking accept source.
pub trait Listener: Send {
    /// Accepts one pending connection; `WouldBlock` when none is queued
    /// (the accept loop backs off and re-polls).
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>>;
    /// A clonable handle for the acceptor thread.
    fn try_clone_listener(&self) -> io::Result<Box<dyn Listener>>;
    /// Human-readable bound address (`unix:<path>` / `tcp://<addr>`).
    fn local_label(&self) -> String;
}

impl Listener for UnixListener {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.accept()?;
        // The listener is non-blocking; accepted sockets start blocking
        // with per-read timeouts applied by the reader.
        stream.set_nonblocking(false)?;
        Ok(Box::new(stream))
    }
    fn try_clone_listener(&self) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn local_label(&self) -> String {
        match self
            .local_addr()
            .ok()
            .and_then(|a| a.as_pathname().map(|p: &Path| p.display().to_string()))
        {
            Some(p) => format!("unix:{p}"),
            None => "unix:?".to_string(),
        }
    }
}

impl Listener for TcpListener {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.accept()?;
        stream.set_nonblocking(false)?;
        // Admission requests are latency-sensitive single frames;
        // Nagling them behind a 40 ms delayed ACK would dwarf the
        // decision latency the daemon is measured on.
        let _ = stream.set_nodelay(true);
        Ok(Box::new(stream))
    }
    fn try_clone_listener(&self) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn local_label(&self) -> String {
        match self.local_addr() {
            Ok(a) => format!("tcp://{a}"),
            Err(_) => "tcp://?".to_string(),
        }
    }
}

/// Binds a Unix socket, recovering the path from an unclean previous
/// death: if the path is occupied, a connect probe distinguishes a live
/// daemon (refuse to steal its socket) from a stale file left by a
/// SIGKILLed one (unlink and bind fresh).
fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            match UnixStream::connect(path) {
                Ok(_) => Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{}: another daemon is live on this socket", path.display()),
                )),
                // Nobody home behind the file: a previous daemon died
                // uncleanly. Unlink and take over the path.
                Err(_) => {
                    std::fs::remove_file(path)?;
                    UnixListener::bind(path)
                }
            }
        }
        Err(e) => Err(e),
    }
}

/// A bound-but-not-yet-serving daemon: lets the caller learn the actual
/// address (ephemeral TCP ports) before the first client can connect.
pub struct BoundServer {
    cfg: ServerConfig,
    listener: Box<dyn Listener>,
    label: String,
    /// Unix only: the path to unlink on clean shutdown.
    cleanup: Option<PathBuf>,
}

/// Binds the configured endpoint. Setup failures — including
/// `set_nonblocking`, which an earlier version silently swallowed — are
/// surfaced here, before any client can connect.
pub fn bind(cfg: ServerConfig) -> io::Result<BoundServer> {
    let (listener, cleanup): (Box<dyn Listener>, Option<PathBuf>) = match &cfg.bind {
        Bind::Unix(path) => {
            let l = bind_unix(path)?;
            l.set_nonblocking(true)?;
            (Box::new(l), Some(path.clone()))
        }
        Bind::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            l.set_nonblocking(true)?;
            (Box::new(l), None)
        }
    };
    let label = listener.local_label();
    Ok(BoundServer {
        cfg,
        listener,
        label,
        cleanup,
    })
}

impl BoundServer {
    /// Where the daemon is actually listening (`unix:<path>` or
    /// `tcp://<ip>:<port>` with the ephemeral port resolved).
    pub fn local_label(&self) -> &str {
        &self.label
    }

    /// Serves until a client sends `Shutdown`; returns the run report.
    pub fn serve(self) -> io::Result<RunReport> {
        let report = serve(&self.cfg, &*self.listener);
        if let Some(path) = &self.cleanup {
            let _ = std::fs::remove_file(path);
        }
        report
    }
}

/// Binds and serves in one call.
pub fn run(cfg: ServerConfig) -> io::Result<RunReport> {
    bind(cfg)?.serve()
}

/// One parsed request plus the channel its reply goes back on.
struct WorkItem {
    req: Request,
    reply_tx: Sender<String>,
}

/// Per-set connection-facing state, parallel to the registry: where the
/// current batch's replies go, and who is subscribed to the set's
/// decision stream.
#[derive(Default)]
struct SetChannels {
    /// `routes[i]` is the connection whose request became the i-th
    /// pending slot of the set's current batch (intake order) —
    /// index-aligned with `AdmissionCore::decided_order`, never keyed on
    /// client-chosen nonces, which can collide across connections.
    routes: Vec<Sender<String>>,
    subscribers: Vec<Sender<String>>,
}

fn serve(cfg: &ServerConfig, listener: &dyn Listener) -> io::Result<RunReport> {
    let rec = obs::Recorder::enabled();
    let mut registry = SetRegistry::new(cfg.core.clone(), cfg.max_sets, &rec);
    let batches = rec.counter("daemon.batches");
    let batched_requests = rec.counter("daemon.requests");
    let refused_full = rec.counter("daemon.batch_full_refusals");
    let batch_size = rec.log2_histogram("daemon.batch_size");
    let decide_ns = rec.timer("daemon.decide_ns");

    let (work_tx, work_rx) = channel::<WorkItem>();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let acceptor = {
        let work_tx = work_tx.clone();
        let listener = listener.try_clone_listener()?;
        let stop = std::sync::Arc::clone(&stop);
        let idle_timeout = cfg.idle_timeout;
        // Non-blocking accept poll so shutdown never races a blocked
        // accept(2). On WouldBlock the loop backs off exponentially
        // (1 ms → 50 ms) instead of spinning at a fixed short period —
        // an idle daemon burns ~20 wakeups/s, not hundreds.
        std::thread::spawn(move || {
            const BACKOFF_MIN: Duration = Duration::from_millis(1);
            const BACKOFF_MAX: Duration = Duration::from_millis(50);
            let mut backoff = BACKOFF_MIN;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match listener.accept_conn() {
                    Ok(conn) => {
                        backoff = BACKOFF_MIN;
                        spawn_connection(conn, work_tx.clone(), idle_timeout);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_MAX);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        })
    };
    drop(work_tx);

    let quantum = Duration::from_micros(cfg.core.params.quantum_us.max(1));
    let mut chans: BTreeMap<String, SetChannels> = BTreeMap::new();
    chans.insert(
        crate::proto::DEFAULT_SET.to_string(),
        SetChannels::default(),
    );
    let mut replies: Vec<Reply> = Vec::new();
    let mut shutdown_acks: Vec<(u64, Sender<String>)> = Vec::new();
    // DropSet is deferred past the batch decision so requests already
    // pending in the doomed set still get their replies.
    let mut drop_requests: Vec<(String, u64, Sender<String>)> = Vec::new();
    let mut shutting_down = false;
    let mut disconnected = false;
    let mut next_edge = Instant::now() + quantum;

    while !shutting_down {
        let total_pending: usize = registry.iter_mut().map(|(_, c)| c.pending_len()).sum();
        if disconnected && total_pending == 0 {
            break; // acceptor gone and all connections closed
        }
        // Returns true when the item was a shutdown request.
        let mut intake = |item: WorkItem,
                          registry: &mut SetRegistry,
                          chans: &mut BTreeMap<String, SetChannels>|
         -> bool {
            let set_name = item.req.set_name().to_string();
            match item.req.op {
                Op::Join | Op::Leave | Op::Reweight => {
                    let nonce = item.req.nonce;
                    let Some(core) = registry.get_mut(&set_name) else {
                        send_no_such_set(&item.reply_tx, nonce, &set_name);
                        return false;
                    };
                    let slot = core.slot();
                    if core.push_request(item.req) {
                        chans
                            .get_mut(&set_name)
                            .expect("chans mirrors registry")
                            .routes
                            .push(item.reply_tx);
                    } else {
                        refused_full.add(1);
                        let mut r = Reply::new(nonce, Status::Error, slot);
                        r.set = Some(set_name);
                        r.error = Some("batch full; retry next quantum".to_string());
                        send_reply(&item.reply_tx, &r);
                    }
                    false
                }
                Op::Stats => {
                    let Some(core) = registry.get_mut(&set_name) else {
                        send_no_such_set(&item.reply_tx, item.req.nonce, &set_name);
                        return false;
                    };
                    let mut r = Reply::new(item.req.nonce, Status::Stats, core.slot());
                    r.task_count = Some(core.task_count() as u64);
                    r.weight_ppm = Some(core.weight_ppm());
                    r.set = Some(set_name);
                    r.sets = Some(registry.names());
                    r.snapshot = Some(rec.snapshot().to_json());
                    send_reply(&item.reply_tx, &r);
                    false
                }
                Op::Subscribe => {
                    let Some(core) = registry.get_mut(&set_name) else {
                        send_no_such_set(&item.reply_tx, item.req.nonce, &set_name);
                        return false;
                    };
                    let mut r = Reply::new(item.req.nonce, Status::Subscribed, core.slot());
                    r.set = Some(set_name.clone());
                    send_reply(&item.reply_tx, &r);
                    chans
                        .get_mut(&set_name)
                        .expect("chans mirrors registry")
                        .subscribers
                        .push(item.reply_tx);
                    false
                }
                Op::CreateSet => {
                    let nonce = item.req.nonce;
                    let r = match item.req.set.as_deref() {
                        None => {
                            let mut r = Reply::new(nonce, Status::Error, 0);
                            r.error = Some("create_set requires an explicit `set`".to_string());
                            r
                        }
                        Some(name) => match registry.create(name) {
                            Ok(()) => {
                                chans.insert(name.to_string(), SetChannels::default());
                                let mut r = Reply::new(nonce, Status::SetCreated, 0);
                                r.set = Some(name.to_string());
                                r.sets = Some(registry.names());
                                r
                            }
                            Err(e) => {
                                let mut r = Reply::new(nonce, Status::Error, 0);
                                r.set = Some(name.to_string());
                                r.error = Some(e);
                                r
                            }
                        },
                    };
                    send_reply(&item.reply_tx, &r);
                    false
                }
                Op::DropSet => {
                    match item.req.set.as_deref() {
                        None => {
                            let mut r = Reply::new(item.req.nonce, Status::Error, 0);
                            r.error = Some("drop_set requires an explicit `set`".to_string());
                            send_reply(&item.reply_tx, &r);
                        }
                        Some(name) => {
                            drop_requests.push((name.to_string(), item.req.nonce, item.reply_tx));
                        }
                    }
                    false
                }
                Op::ListSets => {
                    let mut r = Reply::new(item.req.nonce, Status::SetList, 0);
                    r.sets = Some(registry.names());
                    send_reply(&item.reply_tx, &r);
                    false
                }
                Op::Shutdown => {
                    shutdown_acks.push((item.req.nonce, item.reply_tx));
                    true
                }
            }
        };
        // Gather one quantum's batch. Virtual pace blocks for the first
        // item and takes whatever else already arrived; real-time pace
        // accumulates arrivals until the absolute quantum edge is
        // reached, so sustained traffic cannot advance slots faster than
        // wall time.
        match cfg.pace {
            Pace::Virtual => {
                match work_rx.recv() {
                    Ok(item) => shutting_down |= intake(item, &mut registry, &mut chans),
                    Err(_) => disconnected = true,
                }
                while let Ok(item) = work_rx.try_recv() {
                    shutting_down |= intake(item, &mut registry, &mut chans);
                }
            }
            Pace::RealTime => {
                while !shutting_down && !disconnected {
                    let now = Instant::now();
                    if now >= next_edge {
                        break;
                    }
                    match work_rx.recv_timeout(next_edge - now) {
                        Ok(item) => shutting_down |= intake(item, &mut registry, &mut chans),
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => disconnected = true,
                    }
                }
                next_edge += quantum;
                let now = Instant::now();
                if next_edge < now {
                    // Deciding the previous batch overran the quantum (or
                    // the host stalled): re-anchor instead of bursting
                    // catch-up edges.
                    next_edge = now + quantum;
                }
            }
        }

        // Decide each set's batch independently. Virtual pace steps only
        // the sets with pending work (plus everyone on shutdown, so
        // final replies drain); real-time pace steps every set at every
        // wall-clock edge.
        for (name, core) in registry.iter_mut() {
            let pending = core.pending_len();
            if pending == 0 && cfg.pace == Pace::Virtual {
                continue;
            }
            let ch = chans.get_mut(name).expect("chans mirrors registry");
            batches.add(1);
            batched_requests.add(pending as u64);
            batch_size.record(pending as u64);
            replies.clear();
            let span = decide_ns.start();
            let decided_at = core.decide_batch(&mut replies);
            drop(span);

            // Replies come back in canonical order; `decided_order()[k]`
            // is the intake index of the request `replies[k]` answered,
            // which indexes straight into this set's routes. Routing is
            // therefore by connection, never by the client-chosen nonce —
            // two clients with colliding nonces in one batch each still
            // get their own reply.
            let order = core.decided_order();
            debug_assert_eq!(order.len(), replies.len());
            for (k, reply) in replies.iter_mut().enumerate() {
                if let Some(tx) = order.get(k).and_then(|&i| ch.routes.get(i as usize)) {
                    reply.set = Some(name.to_string());
                    send_reply(tx, reply);
                }
            }
            ch.routes.clear();

            // Stream the set's decision (and periodic snapshots).
            if !ch.subscribers.is_empty() {
                let msg = StreamMsg {
                    kind: StreamKind::Decision,
                    slot: decided_at,
                    set: Some(name.to_string()),
                    scheduled: Some(core.last_chosen().iter().map(|id| id.0).collect()),
                    snapshot: None,
                };
                broadcast(&mut ch.subscribers, &msg);
                if cfg.snapshot_every > 0 && decided_at % cfg.snapshot_every == 0 {
                    let msg = StreamMsg {
                        kind: StreamKind::Snapshot,
                        slot: decided_at,
                        set: Some(name.to_string()),
                        scheduled: None,
                        snapshot: Some(rec.snapshot().to_json()),
                    };
                    broadcast(&mut ch.subscribers, &msg);
                }
            }
        }

        // Deferred set drops: the doomed set's batch was just decided,
        // so every pending reply has been routed. Subscribers of the
        // dropped set get a Bye.
        for (name, nonce, tx) in drop_requests.drain(..) {
            match registry.drop_set(&name) {
                Ok(()) => {
                    if let Some(mut ch) = chans.remove(&name) {
                        let bye = StreamMsg {
                            kind: StreamKind::Bye,
                            slot: 0,
                            set: Some(name.clone()),
                            scheduled: None,
                            snapshot: None,
                        };
                        broadcast(&mut ch.subscribers, &bye);
                    }
                    let mut r = Reply::new(nonce, Status::SetDropped, 0);
                    r.set = Some(name);
                    r.sets = Some(registry.names());
                    send_reply(&tx, &r);
                }
                Err(e) => {
                    let mut r = Reply::new(nonce, Status::Error, 0);
                    r.set = Some(name);
                    r.error = Some(e);
                    send_reply(&tx, &r);
                }
            }
        }
    }

    // Clean shutdown: acknowledge, say goodbye to every set's
    // subscribers, stop the acceptor.
    for (nonce, tx) in shutdown_acks.drain(..) {
        send_reply(&tx, &Reply::new(nonce, Status::ShuttingDown, 0));
    }
    for (name, ch) in chans.iter_mut() {
        let bye = StreamMsg {
            kind: StreamKind::Bye,
            slot: 0,
            set: Some(name.clone()),
            scheduled: None,
            snapshot: None,
        };
        broadcast(&mut ch.subscribers, &bye);
        ch.subscribers.clear();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = acceptor.join();

    Ok(RunReport {
        sets: registry.into_reports(),
        snapshot: rec.snapshot(),
    })
}

/// Serializes and sends one reply; delivery failure means the client is
/// gone, which is not the daemon's problem.
fn send_reply(tx: &Sender<String>, reply: &Reply) {
    if let Ok(json) = serde_json::to_string(reply) {
        let _ = tx.send(json);
    }
}

/// Error reply for a request naming an unknown set.
fn send_no_such_set(tx: &Sender<String>, nonce: u64, set: &str) {
    let mut r = Reply::new(nonce, Status::Error, 0);
    r.set = Some(set.to_string());
    r.error = Some(format!("no such set `{set}` (create_set first)"));
    send_reply(tx, &r);
}

/// Broadcasts a stream frame, dropping subscribers whose connection died.
fn broadcast(subscribers: &mut Vec<Sender<String>>, msg: &StreamMsg) {
    let Ok(json) = serde_json::to_string(msg) else {
        return;
    };
    subscribers.retain(|tx| tx.send(json.clone()).is_ok());
}

/// Spawns the reader + writer threads for one accepted connection.
fn spawn_connection(conn: Box<dyn Conn>, work_tx: Sender<WorkItem>, idle_timeout: Duration) {
    let Ok(write_half) = conn.try_clone_conn() else {
        return;
    };
    let (reply_tx, reply_rx) = channel::<String>();
    std::thread::spawn(move || writer_loop(write_half, reply_rx));
    std::thread::spawn(move || reader_loop(conn, work_tx, reply_tx, idle_timeout));
}

/// Forwards reply/stream frames to the socket until the channel closes
/// (all senders dropped) or the peer disappears.
fn writer_loop(mut conn: Box<dyn Conn>, reply_rx: Receiver<String>) {
    for json in reply_rx {
        if write_frame(&mut conn, &json).is_err() {
            break;
        }
    }
    conn.shutdown_conn();
}

/// Parses request frames and forwards them to the batch loop.
///
/// Reads are sliced by a short socket timeout so the loop can track how
/// long the peer has been silent; a connection idle (or stalled
/// mid-frame) past `idle_timeout` is shut down — a half-open TCP peer
/// costs one reader thread for at most the timeout, never forever. A
/// malformed frame (oversized length prefix, non-UTF-8 payload) is
/// answered best-effort and closes *this* connection only; EOF just ends
/// it. A `Subscribe` upgrade ends the reader too: the connection becomes
/// write-only and its liveness is policed by stream-write failures.
///
/// The reader never shuts the socket down itself: exiting drops its
/// reply sender, the writer drains whatever is still queued (the
/// best-effort error reply included), and the *writer* closes the
/// connection — otherwise the close races the final frame.
fn reader_loop(
    mut conn: Box<dyn Conn>,
    work_tx: Sender<WorkItem>,
    reply_tx: Sender<String>,
    idle_timeout: Duration,
) {
    const SLICE: Duration = Duration::from_millis(100);
    if conn.set_read_timeout_conn(Some(SLICE)).is_err() {
        return;
    }
    let mut reader = FrameReader::new();
    let mut silent = Duration::ZERO;
    loop {
        match reader.poll(&mut conn) {
            Ok(Some(frame)) => {
                silent = Duration::ZERO;
                let req: Request = match serde_json::from_str(&frame) {
                    Ok(r) => r,
                    Err(e) => {
                        let mut r = Reply::new(0, Status::Error, 0);
                        r.error = Some(format!("unparsable request: {e}"));
                        send_reply(&reply_tx, &r);
                        break;
                    }
                };
                let subscribe = req.op == Op::Subscribe;
                let item = WorkItem {
                    req,
                    reply_tx: reply_tx.clone(),
                };
                if work_tx.send(item).is_err() {
                    break; // batch loop has shut down
                }
                if subscribe {
                    // Write-only from here on; do NOT shut the socket
                    // down — the writer owns it now.
                    return;
                }
            }
            Ok(None) => {
                // A would-block slice elapsed with no progress.
                silent += SLICE;
                if silent >= idle_timeout {
                    let mut r = Reply::new(0, Status::Error, 0);
                    r.error = Some(if reader.mid_frame() {
                        "connection stalled mid-frame; closing".to_string()
                    } else {
                        "connection idle too long; closing".to_string()
                    });
                    send_reply(&reply_tx, &r);
                    break;
                }
            }
            Err(FrameError::Malformed(m)) => {
                let mut r = Reply::new(0, Status::Error, 0);
                r.error = Some(format!("malformed frame: {m}"));
                send_reply(&reply_tx, &r);
                break;
            }
            Err(_) => break, // Closed / Disconnected / hard I/O error
        }
    }
}
