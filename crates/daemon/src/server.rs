//! The daemon's transport and batch loop: a [`Listener`] (Unix-domain or
//! TCP) in front of a [`SetRegistry`] of independent admission cores.
//!
//! Threading model: one thread. [`BoundServer::serve`] runs one event
//! loop on the caller's thread, and that loop owns the listener, every
//! connection and every admission core. Each turn it waits in `ppoll(2)`
//! over the listener and every connection, all of them nonblocking;
//! accepts what is queued; reads the frames that have arrived; decides
//! each set's batch independently (canonical order *within* a set);
//! routes the replies back by intake index; and writes every
//! connection's queued bytes. A request is read, decided and answered in
//! one wake, with no hand-off between threads. No lock is ever taken
//! around scheduler state — the cores are single-owner by construction,
//! mirroring the narrow-kernel split the protocol is designed around.
//!
//! Each connection is a slot: its [`FrameReader`], whose one body buffer
//! every request is read into and decoded from in place, an outbound
//! buffer that replies and stream frames are encoded straight into, the
//! instant it last moved a byte, and whether it is subscribed or closing.
//! Queued bytes are written at once; what the socket does not take waits for
//! `POLLOUT`, which is asked for only while bytes remain. The wait ends
//! at the next [`Pace::RealTime`] quantum edge or the nearest idle
//! deadline, whichever comes first.
//!
//! Both transports share the length-prefixed JSON framing, the
//! max-frame-size cap, and an idle-connection timeout: a peer that has
//! moved no byte for [`ServerConfig::idle_timeout`] — a half-open TCP
//! connection stalled mid-frame, a SIGKILLed client — is sent an error
//! reply and closed, and one whose unread output has not moved for that
//! long is dropped. Subscribed connections are write-only (nothing is
//! read after the upgrade), so the timeout applies to them only while
//! their stream frames are stuck.
//!
//! Client disconnects are tolerated at every point: a reply or stream
//! frame that cannot be delivered is dropped (the decision it reported
//! stands — an admitted task whose client vanished stays admitted until
//! somebody leaves it), and a read error just ends that connection. A
//! peer that closes its side while replies are still owed to it (its
//! requests wait for a `RealTime` edge) keeps its connection until they
//! are written.

use crate::core::{CoreConfig, SetRegistry, SetReport};
use crate::poll::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::proto::{
    decode_request, encode_framed, encode_reply, encode_stream, FrameError, FrameReader, Op, Reply,
    Request, Status, StreamKind, StreamMsg, DEFAULT_SET,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::c_short;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
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
    /// Reap a connection that has moved no byte either way this long —
    /// a stalled half-open TCP peer, or one that stopped reading, must not
    /// hold its slot forever. Subscribed connections are write-only and
    /// exempt while their stream frames are being taken.
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

/// One accepted, nonblocking connection: every method the loop needs
/// from a stream.
pub(crate) trait Conn: Read + Write + AsRawFd {
    /// Shuts down both directions, so the peer reads what was written
    /// and then EOF.
    fn shutdown_conn(&self);
}

impl Conn for UnixStream {
    fn shutdown_conn(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

impl Conn for TcpStream {
    fn shutdown_conn(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

/// A bound, nonblocking accept source.
pub(crate) trait Listener: Send + AsRawFd {
    /// Accepts one queued connection, already nonblocking; `WouldBlock`
    /// when none is queued (the loop polls the listener again).
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>>;
    /// Human-readable bound address (`unix:<path>` / `tcp://<addr>`).
    fn local_label(&self) -> String;
}

impl Listener for UnixListener {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.accept()?;
        // accept(2) does not pass the listener's O_NONBLOCK on.
        stream.set_nonblocking(true)?;
        Ok(Box::new(stream))
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
        stream.set_nonblocking(true)?;
        // Admission requests are latency-sensitive single frames;
        // Nagling them behind a 40 ms delayed ACK would dwarf the
        // decision latency the daemon is measured on.
        let _ = stream.set_nodelay(true);
        Ok(Box::new(stream))
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

/// Bytes one `read(2)` may take from a connection in one wake.
const READ_CHUNK: usize = 64 * 1024;

/// Names a connection. Ids count up and are never reused, so one that
/// outlived its connection (a route whose client vanished) misses instead
/// of reaching a later connection.
type ConnId = u64;

/// One connection's place in the loop.
struct Slot {
    conn: Box<dyn Conn>,
    reader: FrameReader,
    /// Encoded frames; `out[sent..]` is not written yet.
    out: Vec<u8>,
    sent: usize,
    /// When a byte last moved either way.
    last_active: Instant,
    /// Upgraded by `Subscribe`: nothing more is read.
    subscribed: bool,
    /// Nothing more is read, and the connection closes once its output
    /// is written and no reply is owed.
    closing: bool,
    /// Requests whose replies wait in a batch, a deferred `DropSet` or
    /// the shutdown.
    owed: u32,
}

impl Slot {
    fn new(conn: Box<dyn Conn>, now: Instant) -> Self {
        Slot {
            conn,
            reader: FrameReader::new(),
            out: Vec::new(),
            sent: 0,
            last_active: now,
            subscribed: false,
            closing: false,
            owed: 0,
        }
    }

    fn reads(&self) -> bool {
        !self.subscribed && !self.closing
    }

    fn pending(&self) -> bool {
        self.sent < self.out.len()
    }

    /// When the idle timeout reaps this connection, if it applies now: to
    /// a subscriber only while its output is stuck.
    fn idle_deadline(&self, idle: Duration) -> Option<Instant> {
        if self.subscribed && !self.pending() {
            return None;
        }
        self.last_active.checked_add(idle)
    }

    fn finished(&self) -> bool {
        self.closing && !self.pending() && self.owed == 0
    }

    /// Queues one frame, its body encoded by `encode` straight into the
    /// outbound buffer. One the wire cannot carry ends the connection, as
    /// a failed write would.
    fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        if encode_framed(&mut self.out, encode).is_err() {
            self.closing = true;
        }
    }

    fn reply(&mut self, reply: &Reply) {
        self.push(|out| encode_reply(reply, out));
    }

    /// Writes queued bytes until the socket would block; `false` when
    /// the peer is gone.
    fn flush(&mut self, now: Instant) -> bool {
        while self.pending() {
            match self.conn.write(&self.out[self.sent..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.sent += n;
                    self.last_active = now;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(_) => return false,
            }
        }
        self.out.clear();
        self.sent = 0;
        true
    }
}

/// The live connections, in accept order.
#[derive(Default)]
struct Conns {
    slots: BTreeMap<ConnId, Slot>,
    next_id: ConnId,
}

impl Conns {
    fn insert(&mut self, slot: Slot) {
        self.slots.insert(self.next_id, slot);
        self.next_id += 1;
    }

    fn close(&mut self, id: ConnId) {
        if let Some(slot) = self.slots.remove(&id) {
            slot.conn.shutdown_conn();
        }
    }

    /// Keeps the connections `keep` holds on to and closes the rest.
    fn retain(&mut self, mut keep: impl FnMut(&mut Slot) -> bool) {
        self.slots.retain(|_, slot| {
            let kept = keep(slot);
            if !kept {
                slot.conn.shutdown_conn();
            }
            kept
        });
    }

    /// Queues `reply` to connection `to`, if it is still there.
    fn reply(&mut self, to: ConnId, reply: &Reply) {
        if let Some(slot) = self.slots.get_mut(&to) {
            slot.reply(reply);
        }
    }

    /// Notes a reply `to` will be owed until [`Conns::settle`].
    fn owe(&mut self, to: ConnId) {
        if let Some(slot) = self.slots.get_mut(&to) {
            slot.owed += 1;
        }
    }

    /// Queues a reply `to` was owed.
    fn settle(&mut self, to: ConnId, reply: &Reply) {
        if let Some(slot) = self.slots.get_mut(&to) {
            slot.owed = slot.owed.saturating_sub(1);
        }
        self.reply(to, reply);
    }

    /// Queues a stream frame to every subscriber, forgetting those whose
    /// connection has gone.
    fn broadcast(&mut self, subscribers: &mut Vec<ConnId>, msg: &StreamMsg) {
        subscribers.retain(|&id| match self.slots.get_mut(&id) {
            Some(slot) => {
                slot.push(|out| encode_stream(msg, out));
                true
            }
            None => false,
        });
    }

    /// Says `Bye` for set `name` to its subscribers, whose connections
    /// then close once it is written.
    fn bye(&mut self, name: &str, mut subscribers: Vec<ConnId>) {
        let bye = StreamMsg {
            kind: StreamKind::Bye,
            slot: 0,
            set: Some(name.to_string()),
            scheduled: None,
            snapshot: None,
        };
        self.broadcast(&mut subscribers, &bye);
        for id in subscribers {
            if let Some(slot) = self.slots.get_mut(&id) {
                slot.closing = true;
            }
        }
    }
}

/// A set's connection-facing state, carried beside its core in the
/// registry: where the current batch's replies go, and who is subscribed
/// to the set's decision stream.
#[derive(Default)]
struct SetConns {
    /// `routes[i]` is the connection whose request became the i-th
    /// pending slot of the set's current batch (intake order) —
    /// index-aligned with `AdmissionCore::decided_order`, never keyed on
    /// client-chosen nonces, which can collide across connections.
    routes: Vec<ConnId>,
    subscribers: Vec<ConnId>,
}

/// One wake's reads from one connection, through the loop's read buffer.
/// A fill shorter than the buffer means the socket had nothing more, so
/// the next read past it reports `WouldBlock` without asking the kernel:
/// a wake costs one `read(2)` per ready connection, not one per frame
/// plus one to find the end.
struct Inbox<'a> {
    conn: &'a mut dyn Conn,
    buf: &'a mut [u8],
    start: usize,
    end: usize,
    drained: bool,
    /// Whether any byte arrived.
    moved: bool,
}

impl Read for Inbox<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.start == self.end {
            if self.drained {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.conn.read(self.buf)?;
            self.drained = n < self.buf.len();
            self.moved |= n > 0;
            (self.start, self.end) = (0, n);
        }
        let n = out.len().min(self.end - self.start);
        out[..n].copy_from_slice(&self.buf[self.start..self.start + n]);
        self.start += n;
        Ok(n)
    }
}

/// The earlier of two optional deadlines.
fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// An error reply carrying `msg` (a connection-level failure: no nonce).
fn error_reply(msg: String) -> Reply {
    let mut r = Reply::new(0, Status::Error, 0);
    r.error = Some(msg);
    r
}

/// Error reply for a request naming an unknown set.
fn no_such_set(nonce: u64, set: &str) -> Reply {
    let mut r = Reply::new(nonce, Status::Error, 0);
    r.set = Some(set.to_string());
    r.error = Some(format!("no such set `{set}` (create_set first)"));
    r
}

/// Everything the loop owns besides the listener.
struct Daemon<'a> {
    cfg: &'a ServerConfig,
    rec: obs::Recorder,
    registry: SetRegistry<SetConns>,
    conns: Conns,
    batches: obs::Counter,
    batched_requests: obs::Counter,
    refused_full: obs::Counter,
    batch_size: obs::Histogram,
    decide_ns: obs::Timer,
    /// The poll set, and the connection behind each entry in it.
    fds: Vec<PollFd>,
    polled: Vec<ConnId>,
    buf: Vec<u8>,
    /// Requests read this wake, in arrival order.
    inbox: Vec<(ConnId, Request)>,
    replies: Vec<Reply>,
    shutdown_acks: Vec<(u64, ConnId)>,
    /// DropSet is deferred past the batch decision so requests already
    /// pending in the doomed set still get their replies.
    drop_requests: Vec<(String, u64, ConnId)>,
    shutting_down: bool,
}

fn serve(cfg: &ServerConfig, listener: &dyn Listener) -> io::Result<RunReport> {
    let rec = obs::Recorder::enabled();
    let mut d = Daemon {
        cfg,
        registry: SetRegistry::new(cfg.core.clone(), cfg.max_sets, &rec),
        conns: Conns::default(),
        batches: rec.counter("daemon.batches"),
        batched_requests: rec.counter("daemon.requests"),
        refused_full: rec.counter("daemon.batch_full_refusals"),
        batch_size: rec.log2_histogram("daemon.batch_size"),
        decide_ns: rec.timer("daemon.decide_ns"),
        rec,
        fds: Vec::new(),
        polled: Vec::new(),
        buf: vec![0; READ_CHUNK],
        inbox: Vec::new(),
        replies: Vec::new(),
        shutdown_acks: Vec::new(),
        drop_requests: Vec::new(),
        shutting_down: false,
    };
    let quantum = Duration::from_micros(cfg.core.params.quantum_us.max(1));
    let mut next_edge = Instant::now() + quantum;
    let mut listening = true;

    loop {
        if !listening && d.conns.slots.is_empty() {
            // The listener failed and every connection has closed: decide
            // what is still pending and stop.
            d.shutting_down = true;
        } else {
            let edge = (cfg.pace == Pace::RealTime).then_some(next_edge);
            let accept = d.wait(listening.then_some(listener), edge)?;
            let now = Instant::now();
            d.read_ready(now);
            if accept {
                listening = d.accept(listener, now);
            }
            let mut inbox = std::mem::take(&mut d.inbox);
            for (from, req) in inbox.drain(..) {
                d.intake(from, req);
            }
            d.inbox = inbox;
        }

        // Virtual pace decides whatever arrived, at every wake. Real-time
        // pace lets arrivals accumulate until the absolute quantum edge,
        // so sustained traffic cannot advance slots faster than wall
        // time; shutting down decides at once.
        let due = match cfg.pace {
            Pace::Virtual => true,
            Pace::RealTime => d.shutting_down || Instant::now() >= next_edge,
        };
        if due {
            d.decide();
            d.drop_sets();
            if cfg.pace == Pace::RealTime {
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
        if d.shutting_down {
            break;
        }
        let now = Instant::now();
        d.reap_idle(now);
        d.flush(now);
    }

    // Clean shutdown: acknowledge, say goodbye to every set's
    // subscribers, and write it all out.
    for (nonce, to) in std::mem::take(&mut d.shutdown_acks) {
        d.conns
            .settle(to, &Reply::new(nonce, Status::ShuttingDown, 0));
    }
    for (name, _, set) in d.registry.iter_mut() {
        d.conns.bye(name, std::mem::take(&mut set.subscribers));
    }
    d.drain()?;

    Ok(RunReport {
        sets: d.registry.into_reports(),
        snapshot: d.rec.snapshot(),
    })
}

impl Daemon<'_> {
    /// Blocks until the listener (if given) or a connection is ready, or
    /// until `edge` or the nearest idle deadline. Returns whether a
    /// connection is waiting on the listener.
    fn wait(&mut self, listener: Option<&dyn Listener>, edge: Option<Instant>) -> io::Result<bool> {
        self.fds.clear();
        self.polled.clear();
        if let Some(l) = listener {
            self.fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let mut wake = edge;
        for (&id, slot) in &self.conns.slots {
            let read = if slot.reads() { POLLIN } else { 0 };
            let write = if slot.pending() { POLLOUT } else { 0 };
            self.fds
                .push(PollFd::new(slot.conn.as_raw_fd(), read | write));
            self.polled.push(id);
            wake = earliest(wake, slot.idle_deadline(self.cfg.idle_timeout));
        }
        let timeout = wake.map(|at| at.saturating_duration_since(Instant::now()));
        poll::wait(&mut self.fds, timeout)?;
        Ok(listener.is_some() && self.fds.first().is_some_and(|f| f.revents() != 0))
    }

    /// Reads from every connection the last [`wait`](Self::wait) found
    /// readable. One that is no longer read from closes when its peer
    /// hangs up.
    fn read_ready(&mut self, now: Instant) {
        let skip = self.fds.len() - self.polled.len();
        for k in 0..self.polled.len() {
            let revents = self.fds[skip + k].revents();
            if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                self.read(self.polled[k], revents, now);
            }
        }
    }

    /// Reads every frame connection `id` has ready into the inbox. A
    /// malformed or unparsable frame is answered best-effort and closes
    /// this connection only; EOF or a read error just ends it. `Subscribe`
    /// stops the reading: the connection is write-only from then on.
    fn read(&mut self, id: ConnId, revents: c_short, now: Instant) {
        let Some(slot) = self.conns.slots.get_mut(&id) else {
            return;
        };
        if !slot.reads() {
            if revents & (POLLHUP | POLLERR) != 0 {
                self.conns.close(id);
            }
            return;
        }
        let mut src = Inbox {
            conn: &mut *slot.conn,
            buf: &mut self.buf,
            start: 0,
            end: 0,
            drained: false,
            moved: false,
        };
        let failure = loop {
            match slot.reader.poll(&mut src) {
                Ok(Some(frame)) => match decode_request(frame) {
                    Ok(req) => {
                        let subscribe = req.op == Op::Subscribe;
                        self.inbox.push((id, req));
                        if subscribe {
                            slot.subscribed = true;
                            break None;
                        }
                    }
                    Err(e) => break Some(format!("unparsable request: {e}")),
                },
                Ok(None) => break None,
                Err(FrameError::Malformed(m)) => break Some(format!("malformed frame: {m}")),
                Err(_) => {
                    // Closed, Disconnected or a hard I/O error.
                    slot.closing = true;
                    break None;
                }
            }
        };
        if src.moved {
            slot.last_active = now;
        }
        if let Some(msg) = failure {
            slot.closing = true;
            slot.reply(&error_reply(msg));
        }
    }

    /// Accepts every queued connection; `false` once the listener has
    /// failed (connections already open are still served).
    fn accept(&mut self, listener: &dyn Listener, now: Instant) -> bool {
        loop {
            match listener.accept_conn() {
                Ok(conn) => self.conns.insert(Slot::new(conn, now)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Takes one request from connection `from`: queues it into its
    /// set's batch, or answers it on the spot. The set is found by the
    /// name the request carries, and a queued request leaves the name
    /// behind: its core is the set.
    fn intake(&mut self, from: ConnId, mut req: Request) {
        let named = req.set.take();
        let set_name = named.as_deref().unwrap_or(DEFAULT_SET);
        match req.op {
            Op::Join | Op::Leave | Op::Reweight => {
                let nonce = req.nonce;
                let Some((core, set)) = self.registry.get_mut(set_name) else {
                    return self.conns.reply(from, &no_such_set(nonce, set_name));
                };
                let slot = core.slot();
                if core.push_request(req) {
                    set.routes.push(from);
                    self.conns.owe(from);
                } else {
                    self.refused_full.add(1);
                    let mut r = Reply::new(nonce, Status::Error, slot);
                    r.set = Some(set_name.to_string());
                    r.error = Some("batch full; retry next quantum".to_string());
                    self.conns.reply(from, &r);
                }
            }
            Op::Stats => {
                let Some((core, _)) = self.registry.get_mut(set_name) else {
                    return self.conns.reply(from, &no_such_set(req.nonce, set_name));
                };
                let mut r = Reply::new(req.nonce, Status::Stats, core.slot());
                r.task_count = Some(core.task_count() as u64);
                r.weight_ppm = Some(core.weight_ppm());
                r.set = Some(set_name.to_string());
                r.sets = Some(self.registry.names());
                r.snapshot = Some(self.rec.snapshot().to_json());
                self.conns.reply(from, &r);
            }
            Op::Subscribe => {
                let Some((core, set)) = self.registry.get_mut(set_name) else {
                    // Nothing is read after a subscribe: refused, the
                    // connection has no further use.
                    self.conns.reply(from, &no_such_set(req.nonce, set_name));
                    if let Some(slot) = self.conns.slots.get_mut(&from) {
                        slot.closing = true;
                    }
                    return;
                };
                let mut r = Reply::new(req.nonce, Status::Subscribed, core.slot());
                r.set = Some(set_name.to_string());
                self.conns.reply(from, &r);
                set.subscribers.push(from);
            }
            Op::CreateSet => {
                let nonce = req.nonce;
                let r = match named.as_deref() {
                    None => {
                        let mut r = Reply::new(nonce, Status::Error, 0);
                        r.error = Some("create_set requires an explicit `set`".to_string());
                        r
                    }
                    Some(name) => match self.registry.create(name) {
                        Ok(()) => {
                            let mut r = Reply::new(nonce, Status::SetCreated, 0);
                            r.set = Some(name.to_string());
                            r.sets = Some(self.registry.names());
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
                self.conns.reply(from, &r);
            }
            Op::DropSet => match named {
                None => {
                    let mut r = Reply::new(req.nonce, Status::Error, 0);
                    r.error = Some("drop_set requires an explicit `set`".to_string());
                    self.conns.reply(from, &r);
                }
                Some(name) => {
                    self.drop_requests.push((name, req.nonce, from));
                    self.conns.owe(from);
                }
            },
            Op::ListSets => {
                let mut r = Reply::new(req.nonce, Status::SetList, 0);
                r.sets = Some(self.registry.names());
                self.conns.reply(from, &r);
            }
            Op::Shutdown => {
                self.shutdown_acks.push((req.nonce, from));
                self.conns.owe(from);
                self.shutting_down = true;
            }
        }
    }

    /// Decides each set's batch independently. Virtual pace steps only
    /// the sets with pending work; real-time pace steps every set at
    /// every wall-clock edge.
    fn decide(&mut self) {
        for (name, core, set) in self.registry.iter_mut() {
            let pending = core.pending_len();
            if pending == 0 && self.cfg.pace == Pace::Virtual {
                continue;
            }
            self.batches.add(1);
            self.batched_requests.add(pending as u64);
            self.batch_size.record(pending as u64);
            self.replies.clear();
            let span = self.decide_ns.start();
            let decided_at = core.decide_batch(&mut self.replies);
            drop(span);

            // Replies come back in canonical order; `decided_order()[k]`
            // is the intake index of the request `replies[k]` answered,
            // which indexes straight into this set's routes. Routing is
            // therefore by connection, never by the client-chosen nonce —
            // two clients with colliding nonces in one batch each still
            // get their own reply.
            let order = core.decided_order();
            debug_assert_eq!(order.len(), self.replies.len());
            for (reply, &i) in self.replies.iter_mut().zip(order) {
                if let Some(&to) = set.routes.get(i as usize) {
                    reply.set = Some(name.to_string());
                    self.conns.settle(to, reply);
                }
            }
            set.routes.clear();

            // Stream the set's decision (and periodic snapshots).
            if !set.subscribers.is_empty() {
                let msg = StreamMsg {
                    kind: StreamKind::Decision,
                    slot: decided_at,
                    set: Some(name.to_string()),
                    scheduled: Some(core.last_chosen().iter().map(|id| id.0).collect()),
                    snapshot: None,
                };
                self.conns.broadcast(&mut set.subscribers, &msg);
                if self.cfg.snapshot_every > 0 && decided_at % self.cfg.snapshot_every == 0 {
                    let msg = StreamMsg {
                        kind: StreamKind::Snapshot,
                        slot: decided_at,
                        set: Some(name.to_string()),
                        scheduled: None,
                        snapshot: Some(self.rec.snapshot().to_json()),
                    };
                    self.conns.broadcast(&mut set.subscribers, &msg);
                }
            }
        }
    }

    /// Deferred set drops: the doomed set's batch was just decided, so
    /// every pending reply has been routed. Subscribers of the dropped
    /// set get a `Bye`.
    fn drop_sets(&mut self) {
        for (name, nonce, from) in self.drop_requests.drain(..) {
            let r = match self.registry.drop_set(&name) {
                Ok(set) => {
                    self.conns.bye(&name, set.subscribers);
                    let mut r = Reply::new(nonce, Status::SetDropped, 0);
                    r.set = Some(name);
                    r.sets = Some(self.registry.names());
                    r
                }
                Err(e) => {
                    let mut r = Reply::new(nonce, Status::Error, 0);
                    r.set = Some(name);
                    r.error = Some(e);
                    r
                }
            };
            self.conns.settle(from, &r);
        }
    }

    /// Applies the idle timeout. A connection that was read from is told
    /// why and closed once that is written; one that moved no byte of its
    /// queued output, or was closing or write-only anyway, is dropped.
    fn reap_idle(&mut self, now: Instant) {
        let idle = self.cfg.idle_timeout;
        self.conns.retain(|slot| {
            match slot.idle_deadline(idle) {
                Some(deadline) if deadline <= now => {}
                _ => return true,
            }
            if !slot.reads() || slot.pending() {
                return false;
            }
            slot.closing = true;
            let msg = if slot.reader.mid_frame() {
                "connection stalled mid-frame; closing"
            } else {
                "connection idle too long; closing"
            };
            slot.reply(&error_reply(msg.to_string()));
            true
        });
    }

    /// Writes every connection's queued bytes, and closes the
    /// connections that are done or whose peer has gone.
    fn flush(&mut self, now: Instant) {
        self.conns
            .retain(|slot| slot.flush(now) && !slot.finished());
    }

    /// Shutdown: reads nothing more, and writes what is queued until
    /// every peer has taken its bytes, has gone, or has taken none for
    /// the idle timeout.
    fn drain(&mut self) -> io::Result<()> {
        for slot in self.conns.slots.values_mut() {
            slot.closing = true;
        }
        loop {
            let now = Instant::now();
            self.flush(now);
            self.reap_idle(now);
            if self.conns.slots.is_empty() {
                return Ok(());
            }
            self.wait(None, None)?;
            self.read_ready(Instant::now());
        }
    }
}
