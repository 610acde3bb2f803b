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

use crate::proto::{
    decode_reply, decode_stream, encode_framed, encode_request, FrameError, FrameReader, Op, Reply,
    Request, Status, StreamMsg,
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

/// The read side of one connection: the stream behind its read-ahead
/// buffer, and the frame being read from it. Requests are written
/// straight to the stream, past the buffer.
struct Wire {
    stream: BufReader<Stream>,
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
        self.stream.get_ref().set_read_timeout(t)
    }
}

/// One connection to the admission daemon.
pub struct DaemonClient {
    wire: Wire,
    next_nonce: u64,
    /// Task-set shard the convenience wrappers target (`None` = default).
    scope: Option<String>,
    /// Every request frame is encoded here, prefix and body, and leaves
    /// in one write.
    frame: Vec<u8>,
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
                stream: BufReader::new(stream),
                reader: FrameReader::new(),
            },
            next_nonce: 1,
            scope: None,
            frame: Vec::new(),
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

    /// Sends a request without waiting for its reply (pipelining half).
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.frame.clear();
        encode_framed(&mut self.frame, |out| encode_request(req, out))?;
        self.wire.stream.get_mut().write_all(&self.frame)?;
        Ok(())
    }

    /// Receives the next reply frame (pipelining half).
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

/// The read-ahead path against a socket pair, the test playing the
/// daemon on the far end.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_reply, encode_stream, StreamKind};

    fn pair() -> (DaemonClient, UnixStream) {
        let (near, far) = UnixStream::pair().unwrap();
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
}
