//! Client side of the admission protocol: what host processes link.
//!
//! [`DaemonClient`] wraps one connection — Unix-domain or TCP, chosen by
//! [`DaemonAddr`]. The simple wrappers ([`DaemonClient::join`] etc.) are
//! call/response; [`DaemonClient::send`] / [`DaemonClient::recv`] expose
//! the two halves so open-loop load generators can keep a window of
//! requests in flight. [`DaemonClient::set_scope`] aims the wrappers at a
//! named task-set shard (`None` = the daemon's `default` set).
//!
//! Every read carries a timeout, and failures come back *classified*: a
//! daemon that dies mid-stream (SIGKILL included) surfaces as
//! [`ClientError::Disconnected`], a corrupt stream as
//! [`ClientError::MalformedFrame`], a stall as [`ClientError::TimedOut`]
//! — never a hang, and never a raw `read_exact` "failed to fill whole
//! buffer" message. A timeout loses nothing: the next read resumes the
//! frame it interrupted.
//!
//! Reads go through a read-ahead buffer and one [`FrameReader`] that
//! live as long as the connection, so one `read(2)` serves every reply
//! already in the socket, and a reply costs no allocation of its own.
//!
//! Requests are queued, not written: [`DaemonClient::send`] encodes the
//! frame into the connection's output queue, and a queued request has
//! not reached the daemon yet. The queue leaves in one write right
//! before a read that reaches the socket (a [`DaemonClient::recv`] the
//! read-ahead buffer cannot answer), at [`DaemonClient::flush`], once
//! 64 KiB are queued, and, best effort, when the client is dropped. So
//! every request sent between two waits on the daemon goes out in one
//! write, and a `recv` never waits on a request of its own that is
//! still queued.

use crate::proto::{
    decode_reply, decode_stream, encode_framed, encode_request, is_gone, FrameError, FrameReader,
    Op, Reply, Request, Status, StreamMsg,
};
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport error other than the classified cases below.
    Io(io::Error),
    /// The daemon closed the connection (or was killed) while a reply
    /// was outstanding.
    Disconnected,
    /// The read timed out with the daemon still connected. The
    /// connection stays usable: the next read resumes any partial frame.
    TimedOut,
    /// The byte stream is corrupt (bad length prefix / non-UTF-8); the
    /// connection cannot be resynchronized.
    MalformedFrame(String),
    /// The daemon answered something unintelligible.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Disconnected => write!(f, "daemon closed the connection"),
            ClientError::TimedOut => write!(f, "timed out waiting for the daemon"),
            ClientError::MalformedFrame(m) => write!(f, "malformed frame from daemon: {m}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            // From a client's perspective a clean close with a reply
            // outstanding is still a disconnect.
            FrameError::Closed | FrameError::Disconnected => ClientError::Disconnected,
            FrameError::TimedOut { .. } => ClientError::TimedOut,
            FrameError::Malformed(m) => ClientError::MalformedFrame(m),
            FrameError::Io(e) => ClientError::Io(e),
        }
    }
}

/// A failed write, classified as a failed read is: a peer that is gone
/// is a disconnect.
fn write_failed(e: io::Error) -> ClientError {
    if is_gone(e.kind()) {
        ClientError::Disconnected
    } else {
        ClientError::Io(e)
    }
}

/// Queued request bytes at which [`DaemonClient::send`] writes the queue
/// without waiting for a read.
const OUT_LIMIT: usize = 64 * 1024;

/// Where the daemon lives.
#[derive(Debug, Clone)]
pub enum DaemonAddr {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP address, e.g. `127.0.0.1:7133`.
    Tcp(String),
}

/// One transport stream, either flavor. Both ends expose the identical
/// framing, so everything above this enum is transport-agnostic.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// One connection's stream and the request frames queued for it. It sits
/// under the read-ahead buffer, which reads it only when the buffer is
/// empty: a read here is the client about to wait on the daemon, so the
/// queue is written first.
struct Conn {
    stream: Stream,
    /// Request frames not yet written, prefix and body. Cleared, never
    /// shrunk, so a warm connection queues without allocating.
    out: Vec<u8>,
}

impl Conn {
    /// Writes the queue in one `write_all`. The queue is emptied even if
    /// the write fails: part of it may be on the wire, so none of it can
    /// be sent again.
    fn write_out(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.write_out()?;
        self.stream.read(buf)
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.write_out();
    }
}

/// One connection: its stream and output queue behind the read-ahead
/// buffer, and the frame being read from it.
struct Wire {
    stream: BufReader<Conn>,
    reader: FrameReader,
}

impl Wire {
    /// The next frame, borrowed until the next read.
    fn next_frame(&mut self) -> Result<&str, ClientError> {
        match self.reader.poll(&mut self.stream) {
            Ok(Some(frame)) => Ok(frame),
            // A blocking stream runs dry only when its read timeout
            // expires; the reader keeps any partial frame for next time.
            Ok(None) => Err(ClientError::TimedOut),
            // A close between frames is a disconnect too, since the
            // caller is waiting for one.
            Err(FrameError::Closed) => Err(ClientError::Disconnected),
            Err(e) => Err(e.into()),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.get_ref().stream.set_read_timeout(t)
    }
}

/// One connection to the admission daemon.
pub struct DaemonClient {
    wire: Wire,
    next_nonce: u64,
    /// Task-set shard the convenience wrappers target (`None` = default).
    scope: Option<String>,
}

impl DaemonClient {
    /// Connects over a Unix socket, with a default 10 s read timeout.
    pub fn connect<P: AsRef<Path>>(socket: P) -> io::Result<DaemonClient> {
        Self::connect_to(&DaemonAddr::Unix(socket.as_ref().to_path_buf()))
    }

    /// Connects over TCP, with a default 10 s read timeout.
    pub fn connect_tcp(addr: impl Into<String>) -> io::Result<DaemonClient> {
        Self::connect_to(&DaemonAddr::Tcp(addr.into()))
    }

    /// Connects to either transport, with a default 10 s read timeout.
    pub fn connect_to(addr: &DaemonAddr) -> io::Result<DaemonClient> {
        let stream = match addr {
            DaemonAddr::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            DaemonAddr::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }
        };
        Self::over(stream)
    }

    /// A client over a connected stream, with a 10 s read timeout.
    fn over(stream: Stream) -> io::Result<DaemonClient> {
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(DaemonClient {
            wire: Wire {
                stream: BufReader::new(Conn {
                    stream,
                    out: Vec::new(),
                }),
                reader: FrameReader::new(),
            },
            next_nonce: 1,
            scope: None,
        })
    }

    /// Connects over a Unix socket, retrying until `deadline` elapses —
    /// for racing a daemon that is still binding its socket.
    pub fn connect_retry<P: AsRef<Path>>(
        socket: P,
        deadline: Duration,
    ) -> io::Result<DaemonClient> {
        Self::connect_to_retry(&DaemonAddr::Unix(socket.as_ref().to_path_buf()), deadline)
    }

    /// Connects to either transport, retrying until `deadline` elapses.
    /// The pause between attempts doubles from 100 µs to 10 ms, so a
    /// daemon that is nearly up is reached at once and one that is slow
    /// is not spun on.
    pub fn connect_to_retry(addr: &DaemonAddr, deadline: Duration) -> io::Result<DaemonClient> {
        let start = Instant::now();
        let mut pause = Duration::from_micros(100);
        loop {
            match Self::connect_to(addr) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= deadline => return Err(e),
                Err(_) => {
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(Duration::from_millis(10));
                }
            }
        }
    }

    /// Aims the convenience wrappers (join/leave/…) at task-set shard
    /// `set`. `None` targets the daemon's `default` set (the wire
    /// default, so pre-multi-set daemons keep working).
    pub fn set_scope(&mut self, set: Option<impl Into<String>>) {
        self.scope = set.map(Into::into);
    }

    /// Overrides the read timeout (`None` blocks forever).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.wire.set_read_timeout(t)
    }

    fn nonce(&mut self) -> u64 {
        let n = self.next_nonce;
        self.next_nonce += 1;
        n
    }

    /// Applies the connection's scope to a wrapper-built request.
    fn scoped(&self, req: Request) -> Request {
        match &self.scope {
            Some(set) => req.with_set(set.clone()),
            None => req,
        }
    }

    /// Queues a request without waiting for its reply (pipelining half).
    /// The request is not sent yet: it leaves with the rest of the queue
    /// at the next [`recv`](Self::recv) that waits on the daemon, at
    /// [`flush`](Self::flush), or here once 64 KiB are queued. A request
    /// over `MAX_FRAME` is refused and queues nothing.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let conn = self.wire.stream.get_mut();
        encode_framed(&mut conn.out, |out| encode_request(req, out))?;
        if conn.out.len() >= OUT_LIMIT {
            conn.write_out().map_err(write_failed)?;
        }
        Ok(())
    }

    /// Writes every queued request now, in one write, without reading —
    /// for a caller that paces its requests and means each to leave when
    /// it is sent.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.wire.stream.get_mut().write_out().map_err(write_failed)
    }

    /// Receives the next reply frame (pipelining half). A reply already
    /// in the read-ahead buffer is returned without a system call, and
    /// nothing queued is written; a `recv` that has to wait on the
    /// daemon first writes the queue, so it never waits on a queued
    /// request.
    pub fn recv(&mut self) -> Result<Reply, ClientError> {
        let frame = self.wire.next_frame()?;
        decode_reply(frame).map_err(|e| ClientError::Protocol(format!("bad reply: {e}")))
    }

    /// Call/response: send one request, wait for its reply.
    pub fn call(&mut self, req: &Request) -> Result<Reply, ClientError> {
        self.send(req)?;
        let reply = self.recv()?;
        if reply.nonce != req.nonce {
            return Err(ClientError::Protocol(format!(
                "reply nonce {} does not match request nonce {} (pipelined call/response mix?)",
                reply.nonce, req.nonce
            )));
        }
        Ok(reply)
    }

    /// Requests admission of (`wcet_us`, `period_us`).
    pub fn join(&mut self, wcet_us: u64, period_us: u64) -> Result<Reply, ClientError> {
        let n = self.nonce();
        let req = self.scoped(Request::join(n, wcet_us, period_us));
        self.call(&req)
    }

    /// Requests departure of `task`.
    pub fn leave(&mut self, task: u32) -> Result<Reply, ClientError> {
        let n = self.nonce();
        let req = self.scoped(Request::leave(n, task));
        self.call(&req)
    }

    /// Requests a reweight of `task` to (`wcet_us`, `period_us`).
    pub fn reweight(
        &mut self,
        task: u32,
        wcet_us: u64,
        period_us: u64,
    ) -> Result<Reply, ClientError> {
        let n = self.nonce();
        let req = self.scoped(Request::reweight(n, task, wcet_us, period_us));
        self.call(&req)
    }

    /// Fetches the scoped set's stats and a metrics snapshot.
    pub fn stats(&mut self) -> Result<Reply, ClientError> {
        let n = self.nonce();
        let req = self.scoped(Request::bare(Op::Stats, n));
        self.call(&req)
    }

    /// Creates an independent task-set shard named `set`.
    pub fn create_set(&mut self, set: impl Into<String>) -> Result<Reply, ClientError> {
        let n = self.nonce();
        self.call(&Request::bare(Op::CreateSet, n).with_set(set))
    }

    /// Tears down task-set shard `set`.
    pub fn drop_set(&mut self, set: impl Into<String>) -> Result<Reply, ClientError> {
        let n = self.nonce();
        self.call(&Request::bare(Op::DropSet, n).with_set(set))
    }

    /// Lists the daemon's live task-set shards.
    pub fn list_sets(&mut self) -> Result<Reply, ClientError> {
        let n = self.nonce();
        self.call(&Request::bare(Op::ListSets, n))
    }

    /// Asks the daemon to shut down cleanly.
    pub fn shutdown(&mut self) -> Result<Reply, ClientError> {
        let n = self.nonce();
        self.call(&Request::bare(Op::Shutdown, n))
    }

    /// Switches this connection to the scoped set's decision/snapshot
    /// stream. Stream frames the daemon sent right behind its answer may
    /// already be in the read-ahead buffer; the subscription takes the
    /// buffer over with them.
    pub fn subscribe(mut self) -> Result<Subscription, ClientError> {
        let n = self.nonce();
        let req = self.scoped(Request::bare(Op::Subscribe, n));
        let reply = self.call(&req)?;
        if reply.status != Status::Subscribed {
            return Err(ClientError::Protocol(format!(
                "subscribe refused: {:?}",
                reply.status
            )));
        }
        Ok(Subscription { wire: self.wire })
    }

    /// A fresh nonce for hand-built pipelined requests.
    pub fn take_nonce(&mut self) -> u64 {
        self.nonce()
    }
}

/// A connection switched to the stream; yields [`StreamMsg`] frames.
pub struct Subscription {
    wire: Wire,
}

impl Subscription {
    /// Next stream frame. [`ClientError::Disconnected`] when the daemon
    /// goes away (cleanly or not).
    // Deliberately `next` despite the Iterator-shaped name: the stream
    // is infinite-until-error, and `Result` (not `Option`) is the point.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<StreamMsg, ClientError> {
        let frame = self.wire.next_frame()?;
        decode_stream(frame).map_err(|e| ClientError::Protocol(format!("bad stream frame: {e}")))
    }

    /// Overrides the read timeout for stream frames.
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.wire.set_read_timeout(t)
    }
}

/// The read-ahead path and the output queue against a socket pair, the
/// test playing the daemon on the far end.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_request, encode_reply, encode_stream, StreamKind, MAX_FRAME};
    use proptest::prelude::*;

    fn pair() -> (DaemonClient, UnixStream) {
        let (near, far) = UnixStream::pair().unwrap();
        // A write the far end never takes fails the test, not hangs it.
        near.set_write_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        (DaemonClient::over(Stream::Unix(near)).unwrap(), far)
    }

    /// `reply` as the daemon sends it, length prefix and all.
    fn framed(reply: &Reply) -> Vec<u8> {
        let mut out = Vec::new();
        encode_framed(&mut out, |o| encode_reply(reply, o)).unwrap();
        out
    }

    fn admitted(nonce: u64) -> Reply {
        let mut r = Reply::new(nonce, Status::Admitted, 3);
        (r.task, r.weight_num, r.weight_den) = (Some(nonce as u32), Some(1), Some(4));
        r
    }

    /// Every reply until the daemon closes the connection.
    fn recv_to_close(client: &mut DaemonClient) -> Vec<Reply> {
        let mut got = Vec::new();
        loop {
            match client.recv() {
                Ok(r) => got.push(r),
                Err(ClientError::Disconnected) => return got,
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn replies_cut_at_any_byte_resume_after_a_timeout() {
        let sent = [admitted(1), Reply::new(2, Status::Left, 4)];
        let bytes = sent.iter().flat_map(framed).collect::<Vec<u8>>();
        for cut in 0..=bytes.len() {
            let (near, mut far) = UnixStream::pair().unwrap();
            // Nonblocking, the socket runs dry at once where a read
            // timeout would wait: the same `TimedOut`, without the wait.
            near.set_nonblocking(true).unwrap();
            let mut client = DaemonClient::over(Stream::Unix(near)).unwrap();
            far.write_all(&bytes[..cut]).unwrap();
            let mut got = Vec::new();
            loop {
                match client.recv() {
                    Ok(r) => got.push(r),
                    Err(ClientError::TimedOut) => break,
                    Err(e) => panic!("cut at byte {cut}: {e}"),
                }
            }
            far.write_all(&bytes[cut..]).unwrap();
            drop(far);
            got.extend(recv_to_close(&mut client));
            assert_eq!(got, sent, "cut at byte {cut}");
        }
    }

    #[test]
    fn many_replies_in_one_read_then_a_close_between_frames() {
        let (mut client, mut far) = pair();
        let sent: Vec<Reply> = (1..=64).map(admitted).collect();
        far.write_all(&sent.iter().flat_map(framed).collect::<Vec<u8>>())
            .unwrap();
        drop(far);
        assert_eq!(recv_to_close(&mut client), sent);
    }

    #[test]
    fn a_reply_larger_than_the_read_ahead_buffer_arrives_whole() {
        let (mut client, mut far) = pair();
        let mut stats = Reply::new(2, Status::Stats, 9);
        stats.snapshot = Some("{\"counters\":[]}".repeat(10_000));
        let sent = vec![admitted(1), stats, admitted(3)];
        let bytes = sent.iter().flat_map(framed).collect::<Vec<u8>>();
        let daemon = std::thread::spawn(move || far.write_all(&bytes));
        assert_eq!(recv_to_close(&mut client), sent);
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn a_close_mid_frame_is_a_disconnect() {
        let bytes = framed(&admitted(1));
        for cut in [1, 3, 4, 5, bytes.len() - 1] {
            let (mut client, mut far) = pair();
            far.write_all(&bytes[..cut]).unwrap();
            drop(far);
            let got = client.recv();
            assert!(
                matches!(got, Err(ClientError::Disconnected)),
                "cut at byte {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn an_oversized_prefix_or_a_non_utf8_body_is_malformed() {
        let oversized = (crate::proto::MAX_FRAME + 1).to_le_bytes().to_vec();
        let non_utf8 = [&3u32.to_le_bytes()[..], &[0xff, 0xfe, 0xfd][..]].concat();
        for bytes in [oversized, non_utf8] {
            let (mut client, mut far) = pair();
            far.write_all(&bytes).unwrap();
            let got = client.recv();
            assert!(
                matches!(got, Err(ClientError::MalformedFrame(_))),
                "{got:?}"
            );
        }
    }

    /// The daemon may send a decision right behind its `Subscribed`
    /// answer, so both can arrive in the read that answers `subscribe`.
    #[test]
    fn a_decision_read_with_the_subscribe_answer_is_delivered() {
        let (client, mut far) = pair();
        let mut bytes = framed(&Reply::new(1, Status::Subscribed, 7));
        let decision = StreamMsg {
            kind: StreamKind::Decision,
            slot: 7,
            set: Some("default".to_string()),
            scheduled: Some(vec![0, 2]),
            snapshot: None,
        };
        encode_framed(&mut bytes, |o| encode_stream(&decision, o)).unwrap();
        far.write_all(&bytes).unwrap();
        let mut sub = client.subscribe().unwrap();
        sub.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(sub.next().unwrap(), decision);
    }

    /// `req` as `send` queues it, length prefix and all.
    fn framed_request(req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        encode_framed(&mut out, |o| encode_request(req, o)).unwrap();
        out
    }

    /// `n` joins, and the bytes they make on the wire.
    fn joins(n: u64) -> (Vec<Request>, Vec<u8>) {
        let reqs: Vec<Request> = (1..=n).map(|k| Request::join(k, 1_000, 10_000)).collect();
        let bytes = reqs.iter().flat_map(framed_request).collect();
        (reqs, bytes)
    }

    /// One read of a nonblocking far end: what it returned, or `None` if
    /// nothing had been written.
    fn read_once(far: &mut UnixStream) -> Option<Vec<u8>> {
        let mut buf = vec![0; 1 << 18];
        match far.read(&mut buf) {
            Ok(n) => Some(buf[..n].to_vec()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
            Err(e) => panic!("{e}"),
        }
    }

    fn queued(client: &DaemonClient) -> &[u8] {
        &client.wire.stream.get_ref().out
    }

    #[test]
    fn sends_queue_until_a_recv_must_wait_then_leave_in_one_write() {
        let (mut client, mut far) = pair();
        far.set_nonblocking(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let (reqs, bytes) = joins(8);
        for req in &reqs {
            client.send(req).unwrap();
        }
        assert_eq!(read_once(&mut far), None, "a send wrote");
        let got = client.recv();
        assert!(matches!(got, Err(ClientError::TimedOut)), "{got:?}");
        assert_eq!(read_once(&mut far), Some(bytes));
    }

    #[test]
    fn flush_writes_without_reading() {
        let (mut client, mut far) = pair();
        far.write_all(&framed(&admitted(9))).unwrap();
        far.set_nonblocking(true).unwrap();
        let (reqs, bytes) = joins(3);
        for req in &reqs {
            client.send(req).unwrap();
        }
        client.flush().unwrap();
        assert!(client.wire.stream.buffer().is_empty(), "flush read");
        assert_eq!(read_once(&mut far), Some(bytes));
        client.flush().unwrap();
        assert_eq!(read_once(&mut far), None, "an empty queue wrote");
        assert_eq!(client.recv().unwrap(), admitted(9));
    }

    #[test]
    fn dropping_the_client_writes_the_queue() {
        let (mut client, mut far) = pair();
        let (reqs, bytes) = joins(5);
        for req in &reqs {
            client.send(req).unwrap();
        }
        drop(client);
        let mut got = Vec::new();
        far.read_to_end(&mut got).unwrap();
        assert_eq!(got, bytes);
    }

    #[test]
    fn a_full_queue_leaves_without_a_recv() {
        let (mut client, mut far) = pair();
        far.set_nonblocking(true).unwrap();
        let req = Request::join(1, 1_000, 10_000);
        let frame = framed_request(&req);
        let n = OUT_LIMIT.div_ceil(frame.len());
        for _ in 1..n {
            client.send(&req).unwrap();
        }
        assert_eq!(read_once(&mut far), None, "a send below the limit wrote");
        client.send(&req).unwrap();
        assert!(queued(&client).is_empty());
        let mut got = Vec::new();
        while let Some(bytes) = read_once(&mut far) {
            got.extend(bytes);
        }
        assert_eq!(got, frame.repeat(n));
    }

    #[test]
    fn an_oversized_request_is_refused_and_leaves_the_queue_as_it_was() {
        let (mut client, mut far) = pair();
        far.set_nonblocking(true).unwrap();
        let (reqs, bytes) = joins(2);
        for req in &reqs {
            client.send(req).unwrap();
        }
        let huge = Request::bare(Op::Stats, 3).with_set("x".repeat(MAX_FRAME as usize));
        let got = client.send(&huge);
        assert!(matches!(got, Err(ClientError::Io(_))), "{got:?}");
        assert_eq!(queued(&client), bytes);
        assert_eq!(read_once(&mut far), None, "a refused send wrote");
        client.flush().unwrap();
        assert_eq!(read_once(&mut far), Some(bytes));
    }

    #[test]
    fn a_far_end_closed_before_the_flush_is_a_disconnect() {
        let (reqs, _) = joins(4);
        for flush in [false, true] {
            let (mut client, far) = pair();
            for req in &reqs {
                client.send(req).unwrap();
            }
            drop(far);
            let got = match flush {
                false => client.recv().map(|_| ()),
                true => client.flush(),
            };
            assert!(
                matches!(got, Err(ClientError::Disconnected)),
                "flush {flush}: {got:?}"
            );
        }
    }

    #[test]
    fn a_recv_answered_from_the_read_ahead_buffer_writes_nothing() {
        let (mut client, mut far) = pair();
        far.write_all(&[framed(&admitted(1)), framed(&admitted(2))].concat())
            .unwrap();
        far.set_nonblocking(true).unwrap();
        let (reqs, _) = joins(2);
        client.send(&reqs[0]).unwrap();
        assert_eq!(client.recv().unwrap(), admitted(1));
        assert_eq!(read_once(&mut far), Some(framed_request(&reqs[0])));
        client.send(&reqs[1]).unwrap();
        assert_eq!(client.recv().unwrap(), admitted(2));
        assert_eq!(read_once(&mut far), None, "a buffered recv wrote");
        assert_eq!(queued(&client), framed_request(&reqs[1]));
    }

    /// Plays a daemon that answers each request frame with a reply
    /// carrying its nonce, until the client closes. Returns the nonces
    /// in the order their requests arrived.
    fn echo(mut far: UnixStream) -> Vec<u64> {
        let (mut reader, mut seen, mut out) = (FrameReader::new(), Vec::new(), Vec::new());
        while let Ok(Some(frame)) = reader.poll(&mut far) {
            let nonce = decode_request(frame).expect("a request").nonce;
            seen.push(nonce);
            out.clear();
            encode_framed(&mut out, |o| encode_reply(&admitted(nonce), o)).unwrap();
            // A client that is gone takes no replies, but what it wrote
            // before it went is still read.
            let _ = far.write_all(&out);
        }
        seen
    }

    /// One step of a pipelining caller.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Send,
        Recv,
        Flush,
        Drop,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..16).prop_map(|k| match k {
            0..=6 => Step::Send,
            7..=12 => Step::Recv,
            13 | 14 => Step::Flush,
            _ => Step::Drop,
        })
    }

    proptest! {
        /// Every reply arrives once and in order, every request reaches
        /// the daemon once and in order, and no `recv` waits on a request
        /// still queued: that wait would end in `TimedOut`.
        #[test]
        fn prop_no_interleaving_loses_reorders_or_deadlocks(
            script in prop::collection::vec(step(), 0..48),
        ) {
            let (mut client, far) = pair();
            client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let daemon = std::thread::spawn(move || echo(far));
            let (mut sent, mut got) = (0u64, 0u64);
            let mut dropped = false;
            for step in script {
                match step {
                    Step::Send => {
                        sent += 1;
                        client.send(&Request::leave(sent, 7)).unwrap();
                    }
                    Step::Recv if got < sent => {
                        got += 1;
                        let reply = client.recv();
                        prop_assert!(
                            matches!(&reply, Ok(r) if r.nonce == got),
                            "reply {got} of {sent}: {reply:?}"
                        );
                    }
                    Step::Recv => {}
                    Step::Flush => client.flush().unwrap(),
                    Step::Drop => {
                        dropped = true;
                        break;
                    }
                }
            }
            while !dropped && got < sent {
                got += 1;
                let reply = client.recv();
                prop_assert!(
                    matches!(&reply, Ok(r) if r.nonce == got),
                    "draining, reply {got} of {sent}: {reply:?}"
                );
            }
            drop(client);
            let seen = daemon.join().unwrap();
            prop_assert_eq!(seen, (1..=sent).collect::<Vec<u64>>());
        }
    }
}
