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
//! buffer" message.

use crate::proto::{
    decode_reply, decode_stream, encode_framed, encode_request, read_frame, FrameError, Op, Reply,
    Request, Status, StreamMsg,
};
use std::fmt;
use std::io::{self, Read, Write};
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
    /// The read timed out with the daemon still connected.
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

    /// The next frame; a close between frames is a disconnect too, since
    /// the caller is waiting for one.
    fn next_frame(&mut self) -> Result<String, ClientError> {
        match read_frame(self) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(ClientError::Disconnected),
            Err(e) => Err(e.into()),
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

/// One connection to the admission daemon.
pub struct DaemonClient {
    stream: Stream,
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
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(DaemonClient {
            stream,
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
    pub fn connect_to_retry(addr: &DaemonAddr, deadline: Duration) -> io::Result<DaemonClient> {
        let start = Instant::now();
        loop {
            match Self::connect_to(addr) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
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
        self.stream.set_read_timeout(t)
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
        self.stream.write_all(&self.frame)?;
        Ok(())
    }

    /// Receives the next reply frame (pipelining half).
    pub fn recv(&mut self) -> Result<Reply, ClientError> {
        let frame = self.stream.next_frame()?;
        decode_reply(&frame).map_err(|e| ClientError::Protocol(format!("bad reply: {e}")))
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
    /// stream.
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
        Ok(Subscription {
            stream: self.stream,
        })
    }

    /// A fresh nonce for hand-built pipelined requests.
    pub fn take_nonce(&mut self) -> u64 {
        self.nonce()
    }
}

/// A connection switched to the stream; yields [`StreamMsg`] frames.
pub struct Subscription {
    stream: Stream,
}

impl Subscription {
    /// Next stream frame. [`ClientError::Disconnected`] when the daemon
    /// goes away (cleanly or not).
    // Deliberately `next` despite the Iterator-shaped name: the stream
    // is infinite-until-error, and `Result` (not `Option`) is the point.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<StreamMsg, ClientError> {
        let frame = self.stream.next_frame()?;
        decode_stream(&frame).map_err(|e| ClientError::Protocol(format!("bad stream frame: {e}")))
    }

    /// Overrides the read timeout for stream frames.
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }
}
