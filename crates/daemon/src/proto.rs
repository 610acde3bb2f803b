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
//! working unchanged (a missing `Option` field decodes as `None`).
//!
//! # The codec
//!
//! [`encode_request`]/[`decode_request`], [`encode_reply`]/[`decode_reply`]
//! and [`encode_stream`]/[`decode_stream`] convert straight between the
//! structs and JSON bytes — no intermediate tree, no `String` per key, no
//! `Vec` per object — and the encoders append to a buffer the caller
//! keeps. The wire is the one the vendored `serde_json` defined; the serde
//! derives stay on the types as the codec's test oracle.
//!
//! *Encoding is canonical*, byte for byte what `serde_json::to_string`
//! writes: fields in declaration order, every field present (`null` for
//! `None`), integers in plain decimal, enums as their variant name, and
//! strings escaped with `\"`, `\\`, `\n`, `\r`, `\t` and `\u00xx` for the
//! other control characters, every other character raw.
//!
//! *Decoding accepts exactly what `serde_json::from_str` accepts*, save
//! for nesting depth (below):
//! - keys in any order, and JSON whitespace (space, tab, CR, LF) around
//!   every token;
//! - keys compared after escape decoding (`"n\u006fnce"` is `nonce`);
//! - unknown keys and later duplicates syntax-checked and ignored, so the
//!   first occurrence of a key wins;
//! - a missing `Option` field is `None`; a missing `op`/`nonce` (request),
//!   `nonce`/`status`/`slot` (reply) or `kind`/`slot` (stream) is an
//!   error;
//! - a number is the longest run of `[-+0-9.eE]`. With a `.`, `e` or `E`
//!   it parses as an `f64`, is accepted only if its fraction is 0 and is
//!   then cast with `as` (so `1e3` is 1000 and `4294967296.0` saturates a
//!   `u32`); otherwise it parses as an `i128` and must fit the field
//!   (`007` is 7, `+5` is no number, `4294967296` is no `u32`).
//!
//! The decoder first tries the key it expects next, the one after the
//! last key it found, as the bytes the encoder writes for it. Every key of
//! a canonical frame is therefore one compare; any other spelling takes
//! the general path, so the accepted set is the same.
//!
//! Unknown values are skipped on an explicit stack, never by recursion,
//! so no nesting depth inside a frame can exhaust the daemon's stack.
//! The codec therefore accepts an unknown value nested at any depth,
//! where `serde_json` refuses the 128th level (its `recursion_limit`). A
//! failure is a [`DecodeError`], `<what> at byte <offset>`; the daemon
//! answers an undecodable request with an `Error` reply whose `error`
//! reads `unparsable request: <what> at byte <offset>`, and closes that
//! connection.
//!
//! Framing errors are *classified*, not passed through as raw I/O:
//! [`FrameError`] distinguishes a peer that closed cleanly between frames
//! from one that died mid-frame ([`FrameError::Disconnected`]), a corrupt
//! or oversized frame ([`FrameError::Malformed`]), and a read timeout —
//! so clients can exit with their documented codes instead of surfacing
//! `read_exact`'s "failed to fill whole buffer". A [`FrameReader`] keeps
//! a timed-out frame's partial bytes, so the next read resumes it.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
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

// ---------------------------------------------------------------------------
// The codec: straight between the structs and JSON bytes.
// ---------------------------------------------------------------------------

/// Appends `req` to `out` as JSON (see the module doc's *canonical*
/// encoding).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    Obj::open(out)
        .field("op", &req.op)
        .field("nonce", &req.nonce)
        .field("set", &req.set)
        .field("task", &req.task)
        .field("wcet_us", &req.wcet_us)
        .field("period_us", &req.period_us)
        .close();
}

/// Appends `reply` to `out` as JSON.
pub fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    Obj::open(out)
        .field("nonce", &reply.nonce)
        .field("status", &reply.status)
        .field("slot", &reply.slot)
        .field("set", &reply.set)
        .field("sets", &reply.sets)
        .field("task", &reply.task)
        .field("weight_num", &reply.weight_num)
        .field("weight_den", &reply.weight_den)
        .field("quanta", &reply.quanta)
        .field("period_quanta", &reply.period_quanta)
        .field("first_release", &reply.first_release)
        .field("free_at", &reply.free_at)
        .field("snapshot", &reply.snapshot)
        .field("task_count", &reply.task_count)
        .field("weight_ppm", &reply.weight_ppm)
        .field("error", &reply.error)
        .close();
}

/// Appends `msg` to `out` as JSON.
pub fn encode_stream(msg: &StreamMsg, out: &mut Vec<u8>) {
    Obj::open(out)
        .field("kind", &msg.kind)
        .field("slot", &msg.slot)
        .field("set", &msg.set)
        .field("scheduled", &msg.scheduled)
        .field("snapshot", &msg.snapshot)
        .close();
}

/// Decodes one request (see the module doc for what is accepted).
pub fn decode_request(text: &str) -> Result<Request, DecodeError> {
    let (mut op, mut nonce) = (None, None);
    let mut req = Request::bare(Op::Join, 0);
    let keys = ["op", "nonce", "set", "task", "wcet_us", "period_us"];
    Cursor::new(text).object(&keys, |c, field| {
        match field {
            0 => op = Some(Take::take(c)?),
            1 => nonce = Some(Take::take(c)?),
            2 => req.set = Take::take(c)?,
            3 => req.task = Take::take(c)?,
            4 => req.wcet_us = Take::take(c)?,
            _ => req.period_us = Take::take(c)?,
        }
        Ok(())
    })?;
    req.op = required(text, op, "missing field `op`")?;
    req.nonce = required(text, nonce, "missing field `nonce`")?;
    Ok(req)
}

/// Decodes one reply.
pub fn decode_reply(text: &str) -> Result<Reply, DecodeError> {
    let (mut nonce, mut status, mut slot) = (None, None, None);
    let mut r = Reply::new(0, Status::Error, 0);
    let keys = [
        "nonce",
        "status",
        "slot",
        "set",
        "sets",
        "task",
        "weight_num",
        "weight_den",
        "quanta",
        "period_quanta",
        "first_release",
        "free_at",
        "snapshot",
        "task_count",
        "weight_ppm",
        "error",
    ];
    Cursor::new(text).object(&keys, |c, field| {
        match field {
            0 => nonce = Some(Take::take(c)?),
            1 => status = Some(Take::take(c)?),
            2 => slot = Some(Take::take(c)?),
            3 => r.set = Take::take(c)?,
            4 => r.sets = Take::take(c)?,
            5 => r.task = Take::take(c)?,
            6 => r.weight_num = Take::take(c)?,
            7 => r.weight_den = Take::take(c)?,
            8 => r.quanta = Take::take(c)?,
            9 => r.period_quanta = Take::take(c)?,
            10 => r.first_release = Take::take(c)?,
            11 => r.free_at = Take::take(c)?,
            12 => r.snapshot = Take::take(c)?,
            13 => r.task_count = Take::take(c)?,
            14 => r.weight_ppm = Take::take(c)?,
            _ => r.error = Take::take(c)?,
        }
        Ok(())
    })?;
    r.nonce = required(text, nonce, "missing field `nonce`")?;
    r.status = required(text, status, "missing field `status`")?;
    r.slot = required(text, slot, "missing field `slot`")?;
    Ok(r)
}

/// Decodes one stream frame.
pub(crate) fn decode_stream(text: &str) -> Result<StreamMsg, DecodeError> {
    let (mut kind, mut slot) = (None, None);
    let (mut set, mut scheduled, mut snapshot) = (None, None, None);
    let keys = ["kind", "slot", "set", "scheduled", "snapshot"];
    Cursor::new(text).object(&keys, |c, field| {
        match field {
            0 => kind = Some(Take::take(c)?),
            1 => slot = Some(Take::take(c)?),
            2 => set = Take::take(c)?,
            3 => scheduled = Take::take(c)?,
            _ => snapshot = Take::take(c)?,
        }
        Ok(())
    })?;
    Ok(StreamMsg {
        kind: required(text, kind, "missing field `kind`")?,
        slot: required(text, slot, "missing field `slot`")?,
        set,
        scheduled,
        snapshot,
    })
}

/// Why a frame body did not decode: what was wrong, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    what: &'static str,
    at: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for DecodeError {}

/// A required field's value, or the error naming it.
fn required<T>(text: &str, v: Option<T>, what: &'static str) -> Result<T, DecodeError> {
    v.ok_or(DecodeError {
        what,
        at: text.len(),
    })
}

/// A JSON object being written, one field at a time.
struct Obj<'o> {
    out: &'o mut Vec<u8>,
    /// What goes before the next key: `{`, then `,`.
    sep: u8,
}

impl<'o> Obj<'o> {
    fn open(out: &'o mut Vec<u8>) -> Self {
        Obj { out, sep: b'{' }
    }

    fn field(self, key: &str, value: &impl Put) -> Self {
        self.out.push(self.sep);
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
        value.put(self.out);
        Obj {
            out: self.out,
            sep: b',',
        }
    }

    fn close(self) {
        self.out.push(b'}');
    }
}

/// A field value the encoder writes.
trait Put {
    fn put(&self, out: &mut Vec<u8>);
}

impl Put for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut n = *self;
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.extend_from_slice(&digits[i..]);
    }
}

impl Put for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        u64::from(*self).put(out);
    }
}

impl Put for str {
    fn put(&self, out: &mut Vec<u8>) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = self.as_bytes();
        out.push(b'"');
        // Bytes from `raw` on are copied as they are, in one run up to the
        // next byte that needs an escape. (No byte of a multi-byte UTF-8
        // character is below 0x80, so none of them is ever escaped.)
        let mut raw = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            out.extend_from_slice(&bytes[raw..i]);
            raw = i + 1;
            match b {
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                b'"' | b'\\' => out.extend_from_slice(&[b'\\', b]),
                _ => {
                    out.extend_from_slice(b"\\u00");
                    out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
                }
            }
        }
        out.extend_from_slice(&bytes[raw..]);
        out.push(b'"');
    }
}

impl Put for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_str().put(out);
    }
}

impl<T: Put> Put for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => v.put(out),
            None => out.extend_from_slice(b"null"),
        }
    }
}

impl<T: Put> Put for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            v.put(out);
        }
        out.push(b']');
    }
}

/// A field value the decoder reads.
trait Take: Sized {
    fn take(c: &mut Cursor<'_>) -> Result<Self, DecodeError>;
}

impl Take for u64 {
    fn take(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        c.integer(|f| f as u64)
    }
}

impl Take for u32 {
    fn take(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        c.integer(|f| f as u32)
    }
}

impl Take for String {
    fn take(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        c.string().map(Cow::into_owned)
    }
}

impl<T: Take> Take for Option<T> {
    fn take(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        if c.peek()? == b'n' {
            c.keyword("null")?;
            return Ok(None);
        }
        T::take(c).map(Some)
    }
}

impl<T: Take> Take for Vec<T> {
    fn take(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        c.eat(b'[', "expected an array")?;
        let mut items = Vec::new();
        if c.peek()? == b']' {
            c.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(T::take(c)?);
            match c.peek()? {
                b',' => c.pos += 1,
                b']' => {
                    c.pos += 1;
                    return Ok(items);
                }
                _ => return Err(c.error("expected `,` or `]`")),
            }
        }
    }
}

/// Unit-variant enums travel as their variant names.
macro_rules! wire_enum {
    ($ty:ident: $($variant:ident),+) => {
        impl Put for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant => stringify!($variant).put(out),)+
                }
            }
        }

        impl Take for $ty {
            fn take(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
                let at = c.pos;
                match &*c.string()? {
                    $(stringify!($variant) => Ok($ty::$variant),)+
                    _ => Err(DecodeError { what: "unknown variant", at }),
                }
            }
        }
    };
}

wire_enum!(Op: Join, Leave, Reweight, Stats, Subscribe, CreateSet, DropSet, ListSets, Shutdown);
wire_enum!(Status: Admitted, Rejected, Left, Stats, Subscribed, SetCreated, SetDropped, SetList,
    ShuttingDown, Error);
wire_enum!(StreamKind: Decision, Snapshot, Bye);

/// A number token as the parser reads it.
enum Number {
    Int(i128),
    Float(f64),
}

/// A read position in one frame's text.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn error(&self, what: &'static str) -> DecodeError {
        DecodeError { what, at: self.pos }
    }

    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Result<u8, DecodeError> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes().get(self.pos) {
            self.pos += 1;
        }
        match self.bytes().get(self.pos) {
            Some(&b) => Ok(b),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Consumes `b`, after any whitespace.
    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), DecodeError> {
        if self.peek()? != b {
            return Err(self.error(what));
        }
        self.pos += 1;
        Ok(())
    }

    fn keyword(&mut self, word: &str) -> Result<(), DecodeError> {
        if !self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(())
    }

    /// The one top-level object of the text. The value of each key in
    /// `keys` goes to `field` (with the key's index) at the key's first
    /// occurrence; every other value — unknown keys and later duplicates
    /// — is syntax-checked and skipped. Only whitespace may follow.
    fn object(
        mut self,
        keys: &[&str],
        mut field: impl FnMut(&mut Self, usize) -> Result<(), DecodeError>,
    ) -> Result<(), DecodeError> {
        self.eat(b'{', "expected an object")?;
        let mut seen = 0u32;
        // The encoder writes keys in order, so the key after the last one
        // found is tried first, as the bytes the encoder writes for it.
        let mut next = 0;
        if self.peek()? == b'}' {
            self.pos += 1;
        } else {
            loop {
                let known = match keys.get(next) {
                    Some(&k) if self.plain_key(k)? => Some(next),
                    _ => {
                        let key = self.string()?;
                        keys.iter().position(|&k| k == key)
                    }
                };
                self.eat(b':', "expected `:`")?;
                match known {
                    Some(i) if seen & (1 << i) == 0 => {
                        seen |= 1 << i;
                        next = i + 1;
                        field(&mut self, i)?;
                    }
                    _ => self.skip_value()?,
                }
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected `,` or `}`")),
                }
            }
        }
        match self.peek() {
            Err(_) => Ok(()),
            Ok(_) => Err(self.error("trailing characters")),
        }
    }

    /// Consumes `"key"` if it comes next, after any whitespace, spelled
    /// without escapes: one compare instead of [`string`](Self::string)'s
    /// scan. No key holds `"` or `\`, so text that matches is text that
    /// `string` would decode to `key`, ending at the same byte.
    fn plain_key(&mut self, key: &str) -> Result<bool, DecodeError> {
        self.peek()?;
        let end = self.pos + key.len() + 2;
        let hit = matches!(
            self.bytes().get(self.pos..end),
            Some([b'"', body @ .., b'"']) if body == key.as_bytes()
        );
        if hit {
            self.pos = end;
        }
        Ok(hit)
    }

    /// A string, escapes decoded; borrowed from the text when it holds
    /// none.
    fn string(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        self.eat(b'"', "expected a string")?;
        let (text, bytes) = (self.text, self.bytes());
        let start = self.pos;
        // `text[run..pos]` is raw text not yet copied into `owned`.
        let mut run = start;
        let mut owned = String::new();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    let tail = &text[run..self.pos];
                    self.pos += 1;
                    if run == start {
                        return Ok(Cow::Borrowed(tail));
                    }
                    owned.push_str(tail);
                    return Ok(Cow::Owned(owned));
                }
                b'\\' => {
                    owned.push_str(&text[run..self.pos]);
                    let esc = bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    owned.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            // Four bytes of hex, read as `u32::from_str_radix`
                            // reads them; no surrogate pairs.
                            let code = bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(self.error("bad \\u escape"))?;
                            self.pos += 4;
                            code
                        }
                        Some(_) => return Err(self.error("bad escape")),
                        None => return Err(self.error("unterminated escape")),
                    });
                    run = self.pos;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// A number token: the longest run of `[-+0-9.eE]`, an `f64` if it
    /// holds `.`, `e` or `E` and an `i128` otherwise. The caller has
    /// peeked a `-` or a digit.
    fn number(&mut self) -> Result<Number, DecodeError> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes().get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        let n = match float {
            true => token.parse().map(Number::Float).ok(),
            false => token.parse().map(Number::Int).ok(),
        };
        n.ok_or(DecodeError {
            what: "bad number",
            at: start,
        })
    }

    /// An unsigned integer field: an `i128` token that fits, or an `f64`
    /// token with no fraction, cast.
    fn integer<T: TryFrom<i128>>(&mut self, cast: fn(f64) -> T) -> Result<T, DecodeError> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(self.error("expected an integer"));
        }
        let at = self.pos;
        match self.number()? {
            Number::Int(i) => T::try_from(i).map_err(|_| DecodeError {
                what: "integer out of range",
                at,
            }),
            Number::Float(f) if f.fract() == 0.0 => Ok(cast(f)),
            Number::Float(_) => Err(DecodeError {
                what: "expected an integer",
                at,
            }),
        }
    }

    /// Syntax-checks and skips one value of any shape. The containers it
    /// is inside are kept on a heap stack of their closing brackets, so
    /// no nesting depth can exhaust the thread's stack.
    fn skip_value(&mut self) -> Result<(), DecodeError> {
        let mut closers = Vec::new();
        loop {
            // A value starts here.
            match self.peek()? {
                open @ (b'[' | b'{') => {
                    self.pos += 1;
                    let close = if open == b'[' { b']' } else { b'}' };
                    if self.peek()? == close {
                        self.pos += 1;
                    } else {
                        closers.push(close);
                        if close == b'}' {
                            self.member_key()?;
                        }
                        continue;
                    }
                }
                b'"' => {
                    self.string()?;
                }
                b'-' | b'0'..=b'9' => {
                    self.number()?;
                }
                b'n' => self.keyword("null")?,
                b't' => self.keyword("true")?,
                b'f' => self.keyword("false")?,
                _ => return Err(self.error("expected a value")),
            }
            // The value is complete: close what ends after it, up to the
            // next element of an open container.
            loop {
                let Some(&close) = closers.last() else {
                    return Ok(());
                };
                match self.peek()? {
                    b',' => {
                        self.pos += 1;
                        if close == b'}' {
                            self.member_key()?;
                        }
                        break;
                    }
                    b if b == close => {
                        self.pos += 1;
                        closers.pop();
                    }
                    _ => return Err(self.error("expected `,` or a closing bracket")),
                }
            }
        }
    }

    /// An object member's `"key":`, skipped.
    fn member_key(&mut self) -> Result<(), DecodeError> {
        self.string()?;
        self.eat(b':', "expected `:`")
    }
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
pub(crate) fn is_gone(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// The length prefix of a frame with a body of `len` bytes; refuses a
/// body over [`MAX_FRAME`], which no reader would accept.
fn frame_prefix(len: usize) -> io::Result<[u8; 4]> {
    match u32::try_from(len) {
        Ok(n) if n <= MAX_FRAME => Ok(n.to_le_bytes()),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        )),
    }
}

/// Appends one length-prefixed frame to `out`, its body written in place
/// by `encode`: the bytes [`write_frame`] would send for that body. A
/// body over [`MAX_FRAME`] is truncated away again and refused.
pub(crate) fn encode_framed(
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    match frame_prefix(out.len() - start - 4) {
        Ok(prefix) => {
            out[start..start + 4].copy_from_slice(&prefix);
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// Writes one length-prefixed frame. Prefix and body leave in one
/// vectored write: written apart, the 4-byte prefix alone wakes a peer
/// blocked in `read`, which then blocks again for the body.
pub fn write_frame<W: Write>(w: &mut W, json: &str) -> io::Result<()> {
    let prefix = frame_prefix(json.len())?;
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

/// Reads one frame, blocking, into a `String` of its own (one
/// allocation). `Ok(None)` means the peer closed the connection cleanly
/// *between* frames; every failure mode inside a frame comes back
/// classified as a [`FrameError`]. A timeout loses the partial frame, so
/// a caller that reads a connection more than once keeps a
/// [`FrameReader`] instead.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<String>, FrameError> {
    let mut reader = FrameReader::new();
    match reader.fill(r) {
        Ok(true) => String::from_utf8(reader.body)
            .map(Some)
            .map_err(|e| not_utf8(e.utf8_error())),
        // A blocking reader maps would-block to a timeout error: the
        // socket's read timeout expired.
        Ok(false) => Err(FrameError::TimedOut {
            mid_frame: reader.mid_frame(),
        }),
        Err(FrameError::Closed) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The error for a frame body that is not UTF-8.
fn not_utf8(e: std::str::Utf8Error) -> FrameError {
    FrameError::Malformed(format!("frame is not UTF-8: {e}"))
}

/// A body buffer larger than this is given back when the next frame
/// starts, so one large frame does not pin its size to a connection.
const RETAINED_BODY: usize = 64 * 1024;

/// Incremental frame reader: feeds on a (possibly nonblocking or
/// timeout-sliced) stream without ever losing partial progress the way a
/// bare `read_exact` would on `WouldBlock`. One reader serves a whole
/// connection: every body is read into the same buffer, and a completed
/// frame is lent out of it until the next `poll`.
///
/// `poll` returns `Ok(Some(frame))` when a frame completes,
/// `Ok(None)` when the stream would block / timed out with the partial
/// state retained, and a classified [`FrameError`] otherwise.
#[derive(Default)]
pub struct FrameReader {
    len: [u8; 4],
    len_got: usize,
    /// The current frame's body, sized to its length; `body[..body_got]`
    /// has arrived.
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
    pub(crate) fn mid_frame(&self) -> bool {
        self.in_body || self.len_got > 0
    }

    /// Pulls from `r` until a frame completes, the stream would block,
    /// or the stream fails. The frame is borrowed from the reader's
    /// buffer: reading it allocates nothing once the buffer has grown to
    /// the connection's frame size.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<Option<&str>, FrameError> {
        if !self.fill(r)? {
            return Ok(None);
        }
        std::str::from_utf8(&self.body).map(Some).map_err(not_utf8)
    }

    /// Pulls from `r` until `body` holds a whole frame (`true`) or the
    /// stream would block (`false`).
    fn fill<R: Read>(&mut self, r: &mut R) -> Result<bool, FrameError> {
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
                    Err(e) if is_timeout(e.kind()) => return Ok(false),
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
                self.body.clear();
                self.body.shrink_to(RETAINED_BODY);
                self.body.resize(len as usize, 0);
                self.body_got = 0;
            }
            while self.body_got < self.body.len() {
                match r.read(&mut self.body[self.body_got..]) {
                    Ok(0) => return Err(FrameError::Disconnected),
                    Ok(n) => self.body_got += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if is_timeout(e.kind()) => return Ok(false),
                    Err(e) if is_gone(e.kind()) => return Err(FrameError::Disconnected),
                    Err(e) => return Err(FrameError::Io(e)),
                }
            }
            self.len_got = 0;
            self.in_body = false;
            return Ok(true);
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
            let json = encoded(&req, encode_request);
            assert_eq!(json, serde_json::to_string(&req).unwrap());
            assert_eq!(decode_request(&json), Ok(req));
        }
    }

    #[test]
    fn legacy_request_without_set_field_parses_as_default_set() {
        // A pre-multi-set client's frame: no `set` key at all.
        let json = r#"{"op":"Join","nonce":3,"task":null,"wcet_us":1000,"period_us":4000}"#;
        let req = decode_request(json).unwrap();
        assert_eq!(req.set, None);
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
        let mut list = Reply::new(1, Status::SetList, 0);
        list.sets = Some(vec!["alpha".to_string(), "default".to_string()]);
        for reply in [reply, list] {
            let json = encoded(&reply, encode_reply);
            assert_eq!(json, serde_json::to_string(&reply).unwrap());
            assert_eq!(decode_reply(&json), Ok(reply));
        }
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
            let polled = reader.poll(&mut src).map(|f| f.map(str::to_string));
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
                    let text: Vec<u8> = bytes.iter().map(|b| b'a' + b % 26).collect();
                    encode_framed(&mut out, |o| o.extend_from_slice(&text)).unwrap();
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

    /// `cases`, or more when `PROPTEST_CASES` asks for more.
    fn at_least(cases: u32) -> ProptestConfig {
        ProptestConfig::with_cases(cases.max(ProptestConfig::default().cases))
    }

    proptest! {
        #![proptest_config(at_least(256))]

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
        encode_framed(&mut expect, |o| o.extend_from_slice(b"{\"op\":\"Join\"}")).unwrap();
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

    // --- the codec, with the serde path as its oracle ----------------------

    use rand::{rngs::StdRng, Rng, SeedableRng};

    const OPS: [Op; 9] = [
        Op::Join,
        Op::Leave,
        Op::Reweight,
        Op::Stats,
        Op::Subscribe,
        Op::CreateSet,
        Op::DropSet,
        Op::ListSets,
        Op::Shutdown,
    ];
    const STATUSES: [Status; 10] = [
        Status::Admitted,
        Status::Rejected,
        Status::Left,
        Status::Stats,
        Status::Subscribed,
        Status::SetCreated,
        Status::SetDropped,
        Status::SetList,
        Status::ShuttingDown,
        Status::Error,
    ];
    const KINDS: [StreamKind; 3] = [StreamKind::Decision, StreamKind::Snapshot, StreamKind::Bye];

    /// What `encode` writes for `v`, as text.
    fn encoded<T>(v: &T, encode: fn(&T, &mut Vec<u8>)) -> String {
        let mut out = Vec::new();
        encode(v, &mut out);
        String::from_utf8(out).unwrap()
    }

    /// Strings the escaper must get right: quotes, backslashes, every
    /// control character, DEL, `/` and non-ASCII up to the astral planes.
    fn wire_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0u8..4, 0u32..0x11_0000), 0..10).prop_map(|cs| {
            cs.into_iter()
                .map(|(kind, c)| match kind {
                    0 => ['"', '\\', '/', '\u{7f}', '\u{e4}', '\u{2713}', '\u{1f600}']
                        [c as usize % 7],
                    1 => char::from_u32(c % 0x20).unwrap(),
                    2 => char::from_u32(c).unwrap_or('\u{fffd}'),
                    _ => char::from(b'a' + (c % 26) as u8),
                })
                .collect()
        })
    }

    fn wire_u64() -> impl Strategy<Value = u64> {
        (0u8..3, 0u64..=u64::MAX).prop_map(|(kind, x)| match kind {
            0 => [0, 1, 10, u32::MAX.into(), u64::from(u32::MAX) + 1, u64::MAX][x as usize % 6],
            1 => x % 100_000,
            _ => x,
        })
    }

    fn wire_u32() -> impl Strategy<Value = u32> {
        wire_u64().prop_map(|x| x as u32)
    }

    fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
        (0u8..2, s).prop_map(|(k, v)| (k == 1).then_some(v))
    }

    fn request() -> impl Strategy<Value = Request> {
        (
            prop::sample::select(OPS.to_vec()),
            wire_u64(),
            maybe(wire_string()),
            maybe(wire_u32()),
            maybe(wire_u64()),
            maybe(wire_u64()),
        )
            .prop_map(|(op, nonce, set, task, wcet_us, period_us)| Request {
                op,
                nonce,
                set,
                task,
                wcet_us,
                period_us,
            })
    }

    fn reply() -> impl Strategy<Value = Reply> {
        let head = (
            wire_u64(),
            prop::sample::select(STATUSES.to_vec()),
            wire_u64(),
            maybe(wire_string()),
            maybe(prop::collection::vec(wire_string(), 0..4)),
            maybe(wire_u32()),
        );
        let weights = (
            maybe(wire_u64()),
            maybe(wire_u64()),
            maybe(wire_u64()),
            maybe(wire_u64()),
            maybe(wire_u64()),
            maybe(wire_u64()),
        );
        let tail = (
            maybe(wire_string()),
            maybe(wire_u64()),
            maybe(wire_u64()),
            maybe(wire_string()),
        );
        (head, weights, tail).prop_map(|(h, w, t)| Reply {
            nonce: h.0,
            status: h.1,
            slot: h.2,
            set: h.3,
            sets: h.4,
            task: h.5,
            weight_num: w.0,
            weight_den: w.1,
            quanta: w.2,
            period_quanta: w.3,
            first_release: w.4,
            free_at: w.5,
            snapshot: t.0,
            task_count: t.1,
            weight_ppm: t.2,
            error: t.3,
        })
    }

    fn stream_msg() -> impl Strategy<Value = StreamMsg> {
        (
            prop::sample::select(KINDS.to_vec()),
            wire_u64(),
            maybe(wire_string()),
            maybe(prop::collection::vec(wire_u32(), 0..5)),
            maybe(wire_string()),
        )
            .prop_map(|(kind, slot, set, scheduled, snapshot)| StreamMsg {
                kind,
                slot,
                set,
                scheduled,
                snapshot,
            })
    }

    /// A value in the serde tree, to render one member at a time.
    struct Raw(serde::Value);

    impl Serialize for Raw {
        fn to_value(&self) -> serde::Value {
            self.0.clone()
        }
    }

    /// `v`'s members as serde writes them: each key and value text.
    fn members<T: Serialize>(v: &T) -> Vec<(String, String)> {
        let serde::Value::Obj(pairs) = v.to_value() else {
            panic!("the proto types serialize as objects");
        };
        pairs
            .into_iter()
            .map(|(k, v)| (k, serde_json::to_string(&Raw(v)).unwrap()))
            .collect()
    }

    /// Numbers spelled as the parser may or may not take them.
    const SPELLINGS: [&str; 16] = [
        "1.0",
        "1e3",
        "-0",
        "+5",
        "007",
        "4294967296",
        "4294967296.0",
        "-1",
        "-1.0",
        "1.5",
        "1e400",
        "1-2",
        "\"5\"",
        "null",
        "true",
        "[5]",
    ];

    /// Values at the edge of one parser rule each: all but `\u+041`
    /// (which `u32::from_str_radix` reads as `A`) break it.
    const MALFORMED: [&str; 24] = [
        "[1,]",
        "[,1]",
        "[1 2]",
        "[}",
        "{]",
        "{,}",
        r#"{"a":1,}"#,
        r#"{"a"}"#,
        r#"{"a":}"#,
        r#"{"a":1 "b":2}"#,
        "{1:2}",
        "nul",
        "tru",
        "nulll",
        "-",
        "1e",
        ".5",
        "1.2.3",
        "99999999999999999999999999999999999999999",
        r#""\x""#,
        r#""\u12""#,
        r#""\ud800""#,
        r#""\u+041""#,
        "'a'",
    ];

    /// Random JSON whitespace, usually none.
    fn ws(rng: &mut StdRng) -> &'static str {
        [" ", "\t", "\n", "\r\n ", "", "", "", ""][rng.gen_range(0..8)]
    }

    /// A random well-formed JSON value, nested at most `deep` deep.
    fn nested_value(rng: &mut StdRng, depth: usize, deep: usize) -> String {
        match rng.gen_range(0..10) {
            0 | 1 if depth < 6 => {
                let items: Vec<String> = (0..rng.gen_range(0..3))
                    .map(|_| nested_value(rng, depth + 1, deep))
                    .collect();
                format!("[{}]", items.join(&format!(",{}", ws(rng))))
            }
            2 | 3 if depth < 6 => {
                let items: Vec<String> = (0..rng.gen_range(0..3))
                    .map(|i| format!("\"k{i}\":{}{}", ws(rng), nested_value(rng, depth + 1, deep)))
                    .collect();
                format!("{{{}}}", items.join(","))
            }
            4 => {
                let d = rng.gen_range(1..deep - depth);
                format!("{}{}", "[".repeat(d), "]".repeat(d))
            }
            5 => "null".to_string(),
            6 => "false".to_string(),
            // Every escape the parser knows.
            7 => format!(
                r#""{b}u{:04x}{b}"{b}{b}{b}/{b}b{b}f{b}n{b}r{b}t""#,
                rng.gen_range(0x20..0xd7ff),
                b = '\\'
            ),
            _ => ["-12.5e3", "0", "18446744073709551616", "true"][rng.gen_range(0..4)].to_string(),
        }
    }

    /// A key as a client might spell it: plain, or with one character
    /// escaped as `\u00xx`, in either case.
    fn spell_key(key: &str, rng: &mut StdRng) -> String {
        let chars: Vec<char> = key.chars().collect();
        if chars.is_empty() || rng.gen_range(0..4) != 0 {
            return format!("\"{key}\"");
        }
        let at = rng.gen_range(0..chars.len());
        let esc = match rng.gen_range(0..2) {
            0 => format!("\\u{:04x}", chars[at] as u32),
            _ => format!("\\u{:04X}", chars[at] as u32),
        };
        let head: String = chars[..at].iter().collect();
        let tail: String = chars[at + 1..].iter().collect();
        format!("\"{head}{esc}{tail}\"")
    }

    /// `members` reassembled as a client might send them, drawn from
    /// `seed`: permuted, with whitespace, escaped keys, unknown keys with
    /// nested values and later duplicates. A `hostile` assembly also
    /// drops fields, respells numbers, puts a duplicate anywhere (so it
    /// may come first, with a value of any type) and corrupts a character.
    fn assemble(members: &[(String, String)], seed: u64, hostile: bool) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        // Every prefix of a hostile text is decoded, which costs the square
        // of its length, so it nests less deep.
        let deep = if hostile { 80 } else { 400 };
        let mut m = members.to_vec();
        for i in (1..m.len()).rev() {
            m.swap(i, rng.gen_range(0..=i));
        }
        if hostile {
            if rng.gen_range(0..6) == 0 {
                m.remove(rng.gen_range(0..m.len()));
            }
            for (k, v) in &mut m {
                let numeric = v.bytes().all(|b| b.is_ascii_digit());
                if (k == "task" || numeric) && rng.gen_range(0..3) == 0 {
                    *v = SPELLINGS[rng.gen_range(0..SPELLINGS.len())].to_string();
                }
            }
        }
        for _ in 0..rng.gen_range(0..3) {
            let key = ["x", "", "nonc", "Nonce", "op "][rng.gen_range(0..5)].to_string();
            let value = match hostile && rng.gen_range(0..3) == 0 {
                true => MALFORMED[rng.gen_range(0..MALFORMED.len())].to_string(),
                false => nested_value(&mut rng, 0, deep),
            };
            m.insert(rng.gen_range(0..=m.len()), (key, value));
        }
        for _ in 0..rng.gen_range(0..3) {
            let (key, _) = members[rng.gen_range(0..members.len())].clone();
            // Some spellings are no JSON at all, so only a hostile
            // assembly uses them.
            let value = match hostile && rng.gen_range(0..2) == 0 {
                true => SPELLINGS[rng.gen_range(0..SPELLINGS.len())].to_string(),
                false => nested_value(&mut rng, 0, deep),
            };
            let first = m.iter().position(|(k, _)| *k == key).unwrap_or(m.len());
            let at = match hostile {
                true => rng.gen_range(0..=m.len()),
                false => rng.gen_range(first.min(m.len() - 1) + 1..=m.len()),
            };
            m.insert(at, (key, value));
        }
        let mut out = String::from(ws(&mut rng));
        for (i, (k, v)) in m.iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            out.push_str(ws(&mut rng));
            out.push_str(&spell_key(k, &mut rng));
            out.push_str(ws(&mut rng));
            out.push(':');
            out.push_str(ws(&mut rng));
            out.push_str(v);
            out.push_str(ws(&mut rng));
        }
        out.push_str(if m.is_empty() { "{}" } else { "}" });
        out.push_str(ws(&mut rng));
        if hostile && rng.gen_range(0..4) == 0 {
            let mut chars: Vec<char> = out.chars().collect();
            let at = rng.gen_range(0..chars.len());
            chars[at] = [
                '{', '}', '[', ']', ':', ',', '"', '\\', ' ', '0', 'e', '.', 'n',
            ][rng.gen_range(0..13)];
            out = chars.into_iter().collect();
        }
        out
    }

    /// The codec and serde accept the same prefixes of `text`, every one
    /// of them, and decode each accepted one to the same value.
    fn agree<T: PartialEq + fmt::Debug>(
        text: &str,
        decode: fn(&str) -> Result<T, DecodeError>,
        serde: fn(&str) -> Result<T, serde_json::Error>,
    ) -> Result<(), TestCaseError> {
        for end in (0..=text.len()).filter(|&end| text.is_char_boundary(end)) {
            let t = &text[..end];
            prop_assert_eq!(decode(t).ok(), serde(t).ok(), "on {:?}", t);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(at_least(512))]

        #[test]
        fn prop_encoding_is_serdes_bytes(req in request(), reply in reply(), msg in stream_msg()) {
            prop_assert_eq!(encoded(&req, encode_request), serde_json::to_string(&req).unwrap());
            prop_assert_eq!(encoded(&reply, encode_reply), serde_json::to_string(&reply).unwrap());
            prop_assert_eq!(encoded(&msg, encode_stream), serde_json::to_string(&msg).unwrap());
            // And back.
            prop_assert_eq!(decode_request(&encoded(&req, encode_request)), Ok(req));
            prop_assert_eq!(decode_reply(&encoded(&reply, encode_reply)), Ok(reply));
            prop_assert_eq!(decode_stream(&encoded(&msg, encode_stream)), Ok(msg));
        }

        #[test]
        fn prop_decoding_agrees_with_serde(
            req in request(),
            reply in reply(),
            msg in stream_msg(),
            seed in 0u64..=u64::MAX,
        ) {
            // Reordered, spaced, escaped and padded, each still decodes.
            let text = assemble(&members(&req), seed, false);
            prop_assert_eq!(decode_request(&text), Ok(req.clone()), "on {}", text);
            let text = assemble(&members(&reply), seed, false);
            prop_assert_eq!(decode_reply(&text), Ok(reply.clone()), "on {}", text);
            let text = assemble(&members(&msg), seed, false);
            prop_assert_eq!(decode_stream(&text), Ok(msg.clone()), "on {}", text);
            // Mangled and cut short at every character, it fails exactly
            // where serde fails.
            agree(&assemble(&members(&req), seed, true), decode_request, serde_json::from_str)?;
            agree(&assemble(&members(&reply), seed, true), decode_reply, serde_json::from_str)?;
            agree(&assemble(&members(&msg), seed, true), decode_stream, serde_json::from_str)?;
        }
    }

    #[test]
    fn every_option_combination_encodes_as_serde_does() {
        let s = || Some("a\"b\\c\n\u{1}\u{e4}".to_string());
        for mask in 0u32..1 << 4 {
            let on = |bit: u32| mask & (1 << bit) != 0;
            let req = Request {
                op: Op::Reweight,
                nonce: u64::MAX,
                set: s().filter(|_| on(0)),
                task: on(1).then_some(u32::MAX),
                wcet_us: on(2).then_some(u64::MAX),
                period_us: on(3).then_some(0),
            };
            let json = encoded(&req, encode_request);
            assert_eq!(json, serde_json::to_string(&req).unwrap());
            assert_eq!(decode_request(&json), Ok(req));
        }
        for mask in 0u32..1 << 13 {
            let on = |bit: u32| mask & (1 << bit) != 0;
            let n = |bit: u32| on(bit).then_some(u64::MAX - u64::from(bit));
            let reply = Reply {
                nonce: u64::MAX,
                status: Status::SetList,
                slot: 7,
                set: s().filter(|_| on(0)),
                sets: on(1).then(|| vec![String::new(), "\t".to_string()]),
                task: on(2).then_some(u32::MAX),
                weight_num: n(3),
                weight_den: n(4),
                quanta: n(5),
                period_quanta: n(6),
                first_release: n(7),
                free_at: n(8),
                snapshot: s().filter(|_| on(9)),
                task_count: n(10),
                weight_ppm: n(11),
                error: s().filter(|_| on(12)),
            };
            let json = encoded(&reply, encode_reply);
            assert_eq!(json, serde_json::to_string(&reply).unwrap());
            assert_eq!(decode_reply(&json), Ok(reply));
        }
        for mask in 0u32..1 << 3 {
            let on = |bit: u32| mask & (1 << bit) != 0;
            let msg = StreamMsg {
                kind: StreamKind::Decision,
                slot: u64::MAX,
                set: s().filter(|_| on(0)),
                scheduled: on(1).then(|| vec![0, u32::MAX]),
                snapshot: s().filter(|_| on(2)),
            };
            let json = encoded(&msg, encode_stream);
            assert_eq!(json, serde_json::to_string(&msg).unwrap());
            assert_eq!(decode_stream(&json), Ok(msg));
        }
    }

    #[test]
    fn number_spellings_decode_as_serde_does() {
        for (spelling, task) in [
            ("1.0", Some(Some(1))),
            ("1e3", Some(Some(1_000))),
            ("1E2", Some(Some(100))),
            ("2.5e1", Some(Some(25))),
            ("-0", Some(Some(0))),
            ("-0.0", Some(Some(0))),
            ("-1.0", Some(Some(0))),
            ("007", Some(Some(7))),
            ("4294967296.0", Some(Some(u32::MAX))),
            ("null", Some(None)),
            ("+5", None),
            ("-1", None),
            ("4294967296", None),
            ("1.5", None),
            ("1e400", None),
            ("1-2", None),
            ("--1", None),
            ("\"5\"", None),
            ("true", None),
            ("[5]", None),
        ] {
            let text = format!(r#"{{"op":"Leave","nonce":1,"task":{spelling}}}"#);
            let oracle = serde_json::from_str::<Request>(&text).ok().map(|r| r.task);
            assert_eq!(oracle, task, "serde on {text}");
            assert_eq!(decode_request(&text).ok().map(|r| r.task), task, "{text}");
        }
    }

    /// The expected-key compare against serde, on the spellings beside the
    /// expected key: spaced, escaped, duplicated, one byte longer or
    /// shorter, and cut short.
    #[test]
    fn expected_key_spellings_decode_as_serde_does() {
        // `~` stands for `o` spelled as a `\u` escape.
        let escaped_o = format!("{}u006f", '\\');
        for (text, nonce) in [
            (r#"{"op":"Leave","nonce":7}"#, Some(7)),
            (r#"{ "op" : "Leave" , "nonce" : 7 }"#, Some(7)),
            ("{\"op\":\"Leave\",\n\t\"nonce\"\r\n:7}", Some(7)),
            (r#"{"op":"Leave","n~nce":7}"#, Some(7)),
            (r#"{"op":"Leave","n~nce":7,"nonce":8}"#, Some(7)),
            (r#"{"op":"Leave","nonce":7,"n~nce":8}"#, Some(7)),
            (r#"{"op":"Leave","nonce":7,"nonce":8}"#, Some(7)),
            (r#"{"op":"Leave","nonce":7,"nonce":[}"#, None),
            (r#"{"nonce":7,"op":"Leave","nonce":8}"#, Some(7)),
            (r#"{"op":"Leave","nonceX":7}"#, None),
            (r#"{"op":"Leave","nonceX":7,"nonce":8}"#, Some(8)),
            (r#"{"op":"Leave","nonce\"":7,"nonce":8}"#, Some(8)),
            (r#"{"op":"Leave","nonc":7}"#, None),
            (r#"{"op":"Leave","nonc":7,"nonce":8}"#, Some(8)),
            (r#"{"op":"Leave","nonce"7}"#, None),
            (r#"{"op":"Leave","nonce"#, None),
            (r#"{"op":"Leave","nonce""#, None),
        ] {
            let text = text.replace('~', &escaped_o);
            let oracle = serde_json::from_str::<Request>(&text).ok();
            assert_eq!(oracle.as_ref().map(|r| r.nonce), nonce, "serde on {text}");
            assert_eq!(decode_request(&text).ok(), oracle, "{text}");
        }
    }

    #[test]
    fn nesting_depth_cannot_overflow_the_decoder() {
        let (open, close) = ("[".repeat(200_000), "]".repeat(200_000));
        let cut = format!(r#"{{"op":"Join","nonce":1,"x":{open}"#);
        assert_eq!(
            decode_request(&cut).unwrap_err().to_string(),
            format!("unexpected end of input at byte {}", cut.len())
        );
        // Balanced, the same depth is one unknown value to skip.
        let deep = format!(r#"{{"op":"Join","nonce":1,"x":{open}{close}}}"#);
        assert_eq!(decode_request(&deep), Ok(Request::bare(Op::Join, 1)));
        let objects = format!(
            r#"{{"x":{}0{},"nonce":2,"status":"Left","slot":3}}"#,
            r#"{"a":"#.repeat(100_000),
            "}".repeat(100_000)
        );
        assert_eq!(decode_reply(&objects), Ok(Reply::new(2, Status::Left, 3)));
        assert!(decode_stream(&format!(r#"{{"kind":"Bye","slot":0,"set":{open}"#)).is_err());
    }

    #[test]
    fn decode_errors_say_what_and_where() {
        for (text, error) in [
            (
                r#"{"op":"Join","nonce":1"#,
                "unexpected end of input at byte 22",
            ),
            (r#"{"op":"Join"}"#, "missing field `nonce` at byte 13"),
            (r#"{"op":"Jump","nonce":1}"#, "unknown variant at byte 6"),
            (
                r#"{"op":"Join","nonce":-1}"#,
                "integer out of range at byte 21",
            ),
            (
                r#"{"op":"Join","nonce":1} x"#,
                "trailing characters at byte 24",
            ),
            (r#"["op"]"#, "expected an object at byte 0"),
        ] {
            assert_eq!(
                decode_request(text).unwrap_err().to_string(),
                error,
                "{text}"
            );
        }
    }

    #[test]
    fn an_oversized_body_is_truncated_away_and_refused() {
        let mut out = b"kept".to_vec();
        let big = MAX_FRAME as usize + 1;
        assert!(encode_framed(&mut out, |o| o.resize(o.len() + big, b' ')).is_err());
        assert_eq!(out, b"kept");
        encode_framed(&mut out, |o| o.extend_from_slice(b"{}")).unwrap();
        assert_eq!(out, b"kept\x02\0\0\0{}");
    }
}
