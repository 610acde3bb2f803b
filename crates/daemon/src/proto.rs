//! Wire protocol: length-prefixed JSON frames over a Unix-domain or TCP
//! stream.
//!
//! Every message is a 4-byte little-endian length followed by that many
//! bytes of JSON. The schema is deliberately narrow — flat structs with
//! numeric fields and unit-variant enums — both to fit the vendored serde
//! derive (no attributes, no data-carrying variants) and to keep host
//! processes out of the scheduling kernel: a client can express *what* it
//! wants admitted, never *how* the scheduler should run.
//!
//! Requests carry physical-time parameters (`wcet_us`, `period_us`); the
//! daemon owns the overhead model and quantization, and replies with the
//! inflated weight and window parameters it actually admitted. A client
//! never sees — and cannot forge — scheduler-internal state.
//!
//! Every request may carry a `set` naming the task-set shard it targets;
//! a missing `set` means the `default` set, so pre-multi-set clients keep
//! working unchanged (the vendored serde treats a missing field as
//! `null`, which only `Option` fields accept).
//!
//! Framing errors are *classified*, not passed through as raw I/O:
//! [`FrameError`] distinguishes a peer that closed cleanly between frames
//! from one that died mid-frame ([`FrameError::Disconnected`]), a corrupt
//! or oversized frame ([`FrameError::Malformed`]), and a read timeout —
//! so clients can exit with their documented codes instead of surfacing
//! `read_exact`'s "failed to fill whole buffer".

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Frames larger than this are rejected as corrupt before any buffer is
/// grown — a garbage length prefix must not look like an allocation
/// request.
pub const MAX_FRAME: u32 = 1 << 20;

/// The task-set shard a request targets when it names none.
pub const DEFAULT_SET: &str = "default";

/// What the client asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Admit a new task (`wcet_us` + `period_us` required).
    Join,
    /// Remove task `task` under the §5.2 safe-leave rule.
    Leave,
    /// Change task `task` to the new `wcet_us`/`period_us` (leave+join).
    Reweight,
    /// Report scheduler state and an `obs` metrics snapshot.
    Stats,
    /// Switch this connection to the decision/snapshot stream of `set`.
    Subscribe,
    /// Create an independent task-set shard named `set`.
    CreateSet,
    /// Tear down shard `set`; its trace is kept for the shutdown report.
    DropSet,
    /// List the live shard names.
    ListSets,
    /// Stop the daemon cleanly (drains pending batches first).
    Shutdown,
}

/// One client request. Fields irrelevant to `op` are `None`/ignored.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// What to do.
    pub op: Op,
    /// Client-chosen correlation id, echoed verbatim in the reply. The
    /// daemon routes replies by connection (never by nonce, which may
    /// collide across clients); distinct nonces per in-flight request
    /// let a pipelining client match replies on its own connection. Also
    /// a deterministic within-batch tie-break ahead of the
    /// server-assigned intake index.
    pub nonce: u64,
    /// Task-set shard this request targets; `None` means
    /// [`DEFAULT_SET`]. Required (non-`None`) for `CreateSet`/`DropSet`.
    pub set: Option<String>,
    /// Target task id (`Leave`/`Reweight`).
    pub task: Option<u32>,
    /// Worst-case execution time in µs (`Join`/`Reweight`).
    pub wcet_us: Option<u64>,
    /// Period in µs (`Join`/`Reweight`); must be a multiple of the
    /// daemon's quantum.
    pub period_us: Option<u64>,
}

impl Request {
    /// A join request for (`wcet_us`, `period_us`).
    pub fn join(nonce: u64, wcet_us: u64, period_us: u64) -> Self {
        Request {
            op: Op::Join,
            nonce,
            set: None,
            task: None,
            wcet_us: Some(wcet_us),
            period_us: Some(period_us),
        }
    }

    /// A leave request for `task`.
    pub fn leave(nonce: u64, task: u32) -> Self {
        Request {
            op: Op::Leave,
            nonce,
            set: None,
            task: Some(task),
            wcet_us: None,
            period_us: None,
        }
    }

    /// A reweight request: `task` → (`wcet_us`, `period_us`).
    pub fn reweight(nonce: u64, task: u32, wcet_us: u64, period_us: u64) -> Self {
        Request {
            op: Op::Reweight,
            nonce,
            set: None,
            task: Some(task),
            wcet_us: Some(wcet_us),
            period_us: Some(period_us),
        }
    }

    /// A bare request carrying only an op (Stats/Subscribe/Shutdown/…).
    pub fn bare(op: Op, nonce: u64) -> Self {
        Request {
            op,
            nonce,
            set: None,
            task: None,
            wcet_us: None,
            period_us: None,
        }
    }

    /// The same request aimed at task-set shard `set`.
    pub fn with_set(mut self, set: impl Into<String>) -> Self {
        self.set = Some(set.into());
        self
    }

    /// The shard this request targets ([`DEFAULT_SET`] when unset).
    pub fn set_name(&self) -> &str {
        self.set.as_deref().unwrap_or(DEFAULT_SET)
    }
}

/// Outcome of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Join/Reweight admitted; `task` is the assigned id.
    Admitted,
    /// Join/Reweight rejected by the admission test (Σwt would exceed M).
    Rejected,
    /// Leave accepted; `free_at` is the slot the weight reclaims.
    Left,
    /// Stats reply; `snapshot` holds the recorder snapshot JSON.
    Stats,
    /// Connection switched to the stream; [`StreamMsg`] frames follow.
    Subscribed,
    /// `CreateSet` succeeded; `set` echoes the new shard's name.
    SetCreated,
    /// `DropSet` succeeded; `set` echoes the departed shard's name.
    SetDropped,
    /// `ListSets` reply; `sets` holds the live shard names (sorted).
    SetList,
    /// Daemon is shutting down.
    ShuttingDown,
    /// Malformed or inapplicable request; see `error`.
    Error,
}

/// The daemon's reply to one [`Request`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reply {
    /// Echo of the request nonce.
    pub nonce: u64,
    /// Outcome.
    pub status: Status,
    /// Slot (of the target set) at which the decision took effect.
    pub slot: u64,
    /// The task-set shard that answered (admission/stats/set ops).
    pub set: Option<String>,
    /// `SetList` only: live shard names, sorted.
    pub sets: Option<Vec<String>>,
    /// Assigned task id (`Admitted`) or the departing id (`Left`).
    pub task: Option<u32>,
    /// Numerator of the admitted (overhead-inflated, quantized) weight.
    pub weight_num: Option<u64>,
    /// Denominator of the admitted weight.
    pub weight_den: Option<u64>,
    /// Inflated per-job cost in quanta (`E` of Equation (3)).
    pub quanta: Option<u64>,
    /// Period in quanta.
    pub period_quanta: Option<u64>,
    /// Slot of the admitted task's first pseudo-release (θ = join slot).
    pub first_release: Option<u64>,
    /// Leave only: slot at which the departing weight is reclaimed
    /// (`d(T_i) + b(T_i)` of the safe-leave rule).
    pub free_at: Option<u64>,
    /// Stats only: `obs::Snapshot` JSON.
    pub snapshot: Option<String>,
    /// Stats only: number of active tasks in the target set.
    pub task_count: Option<u64>,
    /// Stats only: the target set's admitted weight in parts-per-million
    /// of one processor (`Σwt × 10⁶`, so `processors × 10⁶` is full
    /// capacity).
    pub weight_ppm: Option<u64>,
    /// Human-readable reason when `status` is `Rejected`/`Error`.
    pub error: Option<String>,
}

impl Reply {
    /// A minimal reply skeleton; callers fill in the relevant fields.
    pub fn new(nonce: u64, status: Status, slot: u64) -> Self {
        Reply {
            nonce,
            status,
            slot,
            set: None,
            sets: None,
            task: None,
            weight_num: None,
            weight_den: None,
            quanta: None,
            period_quanta: None,
            first_release: None,
            free_at: None,
            snapshot: None,
            task_count: None,
            weight_ppm: None,
            error: None,
        }
    }
}

/// Kind of a streamed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamKind {
    /// One scheduling decision: the task ids dispatched in `slot`.
    Decision,
    /// A periodic `obs::Recorder` snapshot (JSON in `snapshot`).
    Snapshot,
    /// The subscribed set (or the whole daemon) is going away; no
    /// further frames for it follow.
    Bye,
}

/// One frame pushed to a subscribed client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamMsg {
    /// What this frame carries.
    pub kind: StreamKind,
    /// Slot (of `set`) the frame describes.
    pub slot: u64,
    /// The task-set shard the frame describes.
    pub set: Option<String>,
    /// `Decision`: task ids scheduled in this slot, processor order.
    pub scheduled: Option<Vec<u32>>,
    /// `Snapshot`: recorder snapshot JSON.
    pub snapshot: Option<String>,
}

/// Why reading a frame failed, classified — transports and clients act
/// on the class, not on the underlying `io::ErrorKind` zoo.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly *between* frames.
    Closed,
    /// The peer vanished mid-frame (EOF, reset, broken pipe with a
    /// partial frame outstanding).
    Disconnected,
    /// The stream is corrupt: an oversized length prefix or a frame
    /// that is not valid UTF-8. Resynchronization is impossible — the
    /// connection must be dropped.
    Malformed(String),
    /// A read timed out; `mid_frame` says whether the peer had started
    /// (and stalled inside) a frame.
    TimedOut {
        /// Whether a partial frame was outstanding when time ran out.
        mid_frame: bool,
    },
    /// Any other transport error.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::Disconnected => write!(f, "peer disconnected mid-frame"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::TimedOut { mid_frame: true } => write!(f, "read timed out mid-frame"),
            FrameError::TimedOut { mid_frame: false } => write!(f, "read timed out"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether an `io::ErrorKind` means "the read timed out" — both the
/// nonblocking and the `SO_RCVTIMEO` spellings.
fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Whether an `io::ErrorKind` means "the peer is gone".
fn is_gone(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// The length prefix of a frame carrying `json`; refuses a body over
/// [`MAX_FRAME`], which no reader would accept.
fn frame_prefix(json: &str) -> io::Result<[u8; 4]> {
    match u32::try_from(json.len()) {
        Ok(len) if len <= MAX_FRAME => Ok(len.to_le_bytes()),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", json.len()),
        )),
    }
}

/// Appends one length-prefixed frame to `out`: the bytes [`write_frame`]
/// would send.
pub(crate) fn encode_frame(out: &mut Vec<u8>, json: &str) -> io::Result<()> {
    out.extend_from_slice(&frame_prefix(json)?);
    out.extend_from_slice(json.as_bytes());
    Ok(())
}

/// Writes one length-prefixed frame. Prefix and body leave in one
/// vectored write: written apart, the 4-byte prefix alone wakes a peer
/// blocked in `read`, which then blocks again for the body.
pub fn write_frame<W: Write>(w: &mut W, json: &str) -> io::Result<()> {
    let prefix = frame_prefix(json)?;
    let body = json.as_bytes();
    let mut sent = 0;
    while sent < prefix.len() {
        let bufs = [IoSlice::new(&prefix[sent..]), IoSlice::new(body)];
        match w.write_vectored(&bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.write_all(&body[sent - prefix.len()..])?;
    w.flush()
}

/// Reads one frame, blocking. `Ok(None)` means the peer closed the
/// connection cleanly *between* frames; every failure mode inside a
/// frame comes back classified as a [`FrameError`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<String>, FrameError> {
    let mut reader = FrameReader::new();
    match reader.poll(r) {
        Ok(Some(frame)) => Ok(Some(frame)),
        // A blocking reader maps would-block to a timeout error: the
        // socket's read timeout expired.
        Ok(None) => Err(FrameError::TimedOut {
            mid_frame: reader.mid_frame(),
        }),
        Err(FrameError::Closed) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Incremental frame reader: feeds on a (possibly nonblocking or
/// timeout-sliced) stream without ever losing partial progress the way a
/// bare `read_exact` would on `WouldBlock`.
///
/// `poll` returns `Ok(Some(frame))` when a frame completes,
/// `Ok(None)` when the stream would block / timed out with the partial
/// state retained, and a classified [`FrameError`] otherwise.
#[derive(Default)]
pub struct FrameReader {
    len: [u8; 4],
    len_got: usize,
    body: Vec<u8>,
    body_got: usize,
    in_body: bool,
}

impl FrameReader {
    /// An empty reader, between frames.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Whether a partial frame is outstanding.
    pub fn mid_frame(&self) -> bool {
        self.in_body || self.len_got > 0
    }

    /// Pulls from `r` until a frame completes, the stream would block,
    /// or the stream fails.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<Option<String>, FrameError> {
        loop {
            if !self.in_body {
                debug_assert!(self.len_got < 4);
                match r.read(&mut self.len[self.len_got..]) {
                    Ok(0) => {
                        return Err(if self.len_got == 0 {
                            FrameError::Closed
                        } else {
                            FrameError::Disconnected
                        });
                    }
                    Ok(n) => self.len_got += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if is_timeout(e.kind()) => return Ok(None),
                    Err(e) if is_gone(e.kind()) => {
                        return Err(if self.len_got == 0 {
                            FrameError::Closed
                        } else {
                            FrameError::Disconnected
                        });
                    }
                    Err(e) => return Err(FrameError::Io(e)),
                }
                if self.len_got < 4 {
                    continue;
                }
                let len = u32::from_le_bytes(self.len);
                if len > MAX_FRAME {
                    return Err(FrameError::Malformed(format!(
                        "frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"
                    )));
                }
                self.in_body = true;
                self.body = vec![0u8; len as usize];
                self.body_got = 0;
            }
            while self.body_got < self.body.len() {
                match r.read(&mut self.body[self.body_got..]) {
                    Ok(0) => return Err(FrameError::Disconnected),
                    Ok(n) => self.body_got += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if is_timeout(e.kind()) => return Ok(None),
                    Err(e) if is_gone(e.kind()) => return Err(FrameError::Disconnected),
                    Err(e) => return Err(FrameError::Io(e)),
                }
            }
            let body = std::mem::take(&mut self.body);
            self.len_got = 0;
            self.body_got = 0;
            self.in_body = false;
            return String::from_utf8(body)
                .map(Some)
                .map_err(|e| FrameError::Malformed(format!("frame is not UTF-8: {e}")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_roundtrips_through_json() {
        for req in [
            Request::join(7, 1_000, 10_000),
            Request::leave(8, 3).with_set("alpha"),
            Request::reweight(9, 3, 2_000, 20_000),
            Request::bare(Op::Stats, 10),
            Request::bare(Op::Subscribe, 11).with_set("beta"),
            Request::bare(Op::CreateSet, 12).with_set("gamma"),
            Request::bare(Op::DropSet, 13).with_set("gamma"),
            Request::bare(Op::ListSets, 14),
            Request::bare(Op::Shutdown, 15),
        ] {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn legacy_request_without_set_field_parses_as_default_set() {
        // A pre-multi-set client's frame: no `set` key at all.
        let json = r#"{"op":"Join","nonce":3,"task":null,"wcet_us":1000,"period_us":4000}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        assert_eq!(req.set, None);
        assert_eq!(req.set_name(), DEFAULT_SET);
    }

    #[test]
    fn reply_roundtrips_through_json() {
        let mut reply = Reply::new(42, Status::Admitted, 17);
        reply.set = Some("alpha".to_string());
        reply.task = Some(5);
        reply.weight_num = Some(2);
        reply.weight_den = Some(10);
        reply.quanta = Some(2);
        reply.period_quanta = Some(10);
        reply.first_release = Some(17);
        let json = serde_json::to_string(&reply).unwrap();
        let back: Reply = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reply);

        let mut list = Reply::new(1, Status::SetList, 0);
        list.sets = Some(vec!["alpha".to_string(), "default".to_string()]);
        let json = serde_json::to_string(&list).unwrap();
        let back: Reply = serde_json::from_str(&json).unwrap();
        assert_eq!(back, list);
    }

    #[test]
    fn frames_roundtrip_and_eof_between_frames_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "xyz").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("xyz"));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_is_malformed_not_an_allocation() {
        let buf = u32::MAX.to_le_bytes();
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.poll(&mut &buf[..]),
            Err(FrameError::Malformed(_))
        ));
        assert_eq!(reader.body.capacity(), 0, "nothing allocated for it");
    }

    #[test]
    fn truncated_frame_is_a_disconnect_not_a_raw_io_error() {
        // Peer dies mid-body.
        let mut buf = Vec::new();
        write_frame(&mut buf, "abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Disconnected)));
        // Peer dies mid-length-prefix.
        let short = [1u8, 0];
        let mut r = &short[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Disconnected)));
    }

    /// A peer whose bytes arrive in chunks of the given sizes (cycled),
    /// with the socket running dry (`WouldBlock`) between chunks, then
    /// EOF.
    struct Chunked<'a> {
        rest: &'a [u8],
        sizes: &'a [usize],
        next: usize,
        /// Bytes left in the current chunk.
        left: usize,
    }

    impl<'a> Chunked<'a> {
        fn new(bytes: &'a [u8], sizes: &'a [usize]) -> Self {
            Chunked {
                rest: bytes,
                sizes,
                next: 0,
                left: 0,
            }
        }
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.rest.is_empty() {
                return Ok(0);
            }
            if self.left == 0 {
                // The previous chunk is used up: the socket is dry once,
                // then the next chunk lands.
                self.left = self.sizes[self.next % self.sizes.len()].max(1);
                self.next += 1;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = out.len().min(self.left).min(self.rest.len());
            out[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            self.left -= n;
            Ok(n)
        }
    }

    /// How a frame stream ended.
    #[derive(Debug, PartialEq)]
    enum End {
        Closed,
        Disconnected,
        Malformed,
    }

    /// Polls a fresh [`FrameReader`] over `bytes` cut into `sizes` until
    /// the stream ends: the frames it returned and how it ended. Fails if
    /// the body buffer ever outgrows `MAX_FRAME` or the end is not one of
    /// the three classes.
    fn drive(bytes: &[u8], sizes: &[usize]) -> Result<(Vec<String>, End), String> {
        let mut src = Chunked::new(bytes, sizes);
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        // Every poll consumes a byte, a dry spell or the end.
        for _ in 0..=2 * bytes.len() + 2 {
            let polled = reader.poll(&mut src);
            if reader.body.capacity() > MAX_FRAME as usize {
                return Err(format!("body buffer grew to {}", reader.body.capacity()));
            }
            match polled {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => {}
                Err(FrameError::Closed) => return Ok((frames, End::Closed)),
                Err(FrameError::Disconnected) => return Ok((frames, End::Disconnected)),
                Err(FrameError::Malformed(_)) => return Ok((frames, End::Malformed)),
                Err(e) => return Err(format!("unclassified end: {e}")),
            }
        }
        Err("the reader never reached the end of the stream".to_string())
    }

    /// What any reader must make of `bytes`, parsed in one piece.
    fn expected(mut bytes: &[u8]) -> (Vec<String>, End) {
        let mut frames = Vec::new();
        loop {
            if bytes.is_empty() {
                return (frames, End::Closed);
            }
            let Some(prefix) = bytes.get(..4) else {
                return (frames, End::Disconnected);
            };
            let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
            if len > MAX_FRAME {
                return (frames, End::Malformed);
            }
            let Some(body) = bytes.get(4..4 + len as usize) else {
                return (frames, End::Disconnected);
            };
            match std::str::from_utf8(body) {
                Ok(frame) => frames.push(frame.to_string()),
                Err(_) => return (frames, End::Malformed),
            }
            bytes = &bytes[4 + len as usize..];
        }
    }

    #[test]
    fn frame_reader_survives_arbitrary_fragmentation() {
        let sent = ["{\"hello\":\"world\"}", "second", "", "\u{e4}\u{2713}"];
        let mut buf = Vec::new();
        for frame in sent {
            write_frame(&mut buf, frame).unwrap();
        }
        // Every chunk size, one byte at a time included, with the socket
        // running dry between chunks: no partial progress may be lost.
        for size in 1..=buf.len() {
            let (frames, end) = drive(&buf, &[size]).unwrap();
            assert_eq!(frames, sent, "chunks of {size}");
            assert_eq!(end, End::Closed, "chunks of {size}");
        }
        // The same stream cut short anywhere: the frames before the cut,
        // then a disconnect — or a clean close exactly between frames.
        for cut in 0..buf.len() {
            let got = drive(&buf[..cut], &[1, 3]).unwrap();
            assert_eq!(got, expected(&buf[..cut]), "cut at {cut}");
        }
        // An oversized prefix after good frames ends the stream there.
        let mut bad = buf.clone();
        bad.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        bad.extend_from_slice(b"tail");
        assert_eq!(
            drive(&bad, &[2]).unwrap(),
            (sent.map(String::from).to_vec(), End::Malformed)
        );
    }

    /// Streams that mix well-formed frames with non-UTF-8 bodies,
    /// oversized prefixes and loose bytes, then lose a tail.
    fn hostile_stream() -> impl Strategy<Value = Vec<u8>> {
        let piece = (0u8..4, prop::collection::vec(0u8..=255, 0..24)).prop_map(|(kind, bytes)| {
            let mut out = Vec::new();
            match kind {
                // A frame whose body is arbitrary bytes.
                0 => out.extend_from_slice(&(bytes.len() as u32).to_le_bytes()),
                // An oversized length prefix.
                1 => out.extend_from_slice(&(MAX_FRAME + 1 + bytes.len() as u32).to_le_bytes()),
                // Loose bytes, no prefix.
                2 => {}
                // A frame of ASCII.
                _ => {
                    let text: String = bytes.iter().map(|b| char::from(b'a' + b % 26)).collect();
                    encode_frame(&mut out, &text).unwrap();
                    return out;
                }
            }
            out.extend_from_slice(&bytes);
            out
        });
        (prop::collection::vec(piece, 0..6), 0usize..8).prop_map(|(pieces, lost)| {
            let mut bytes = pieces.concat();
            bytes.truncate(bytes.len().saturating_sub(lost));
            bytes
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_frame_reader_classifies_arbitrary_bytes(
            bytes in hostile_stream(),
            sizes in prop::collection::vec(1usize..16, 1..8),
        ) {
            let got = drive(&bytes, &sizes).map_err(TestCaseError::fail)?;
            prop_assert_eq!(got, expected(&bytes));
        }

        #[test]
        fn prop_frame_reader_returns_frames_unchanged_under_any_split(
            sent in prop::collection::vec(prop::collection::vec(0u32..0x800, 0..40), 0..8),
            sizes in prop::collection::vec(1usize..40, 1..8),
        ) {
            let sent: Vec<String> = sent
                .iter()
                .map(|cs| cs.iter().filter_map(|&c| char::from_u32(c)).collect())
                .collect();
            let mut bytes = Vec::new();
            for frame in &sent {
                write_frame(&mut bytes, frame).unwrap();
            }
            let got = drive(&bytes, &sizes).map_err(TestCaseError::fail)?;
            prop_assert_eq!(got, (sent, End::Closed));
        }
    }

    #[test]
    fn write_frame_sends_prefix_and_body_in_one_write() {
        /// Takes at most `cap` bytes a call and logs each call.
        struct Capped {
            cap: usize,
            calls: usize,
            wire: Vec<u8>,
        }
        impl Write for Capped {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.calls += 1;
                let before = self.wire.len();
                for buf in bufs {
                    let room = self.cap - (self.wire.len() - before);
                    self.wire.extend_from_slice(&buf[..buf.len().min(room)]);
                }
                Ok(self.wire.len() - before)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut expect = Vec::new();
        encode_frame(&mut expect, "{\"op\":\"Join\"}").unwrap();
        for cap in [usize::MAX, 1, 3, 5, 7] {
            let mut w = Capped {
                cap,
                calls: 0,
                wire: Vec::new(),
            };
            write_frame(&mut w, "{\"op\":\"Join\"}").unwrap();
            assert_eq!(w.wire, expect, "at most {cap} bytes a write");
            if cap == usize::MAX {
                assert_eq!(w.calls, 1, "prefix and body leave in one write");
            }
        }
    }

    #[test]
    fn non_utf8_frame_is_malformed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0xff, 0xfe, 0xfd]);
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Malformed(_))));
    }
}
