//! Soak acceptance: 10⁵ join/leave requests through a real Unix socket
//! against an in-process daemon running **two live task-set shards**,
//! with a counting global allocator proving the admission fast path
//! (every `evaluate` pass, across every batch of every set) performs
//! **zero** heap allocations, and both resulting traces window-verified
//! offline.
//!
//! The daemon marks its fast path with a thread-local flag
//! ([`daemon::alloc_probe`]); the allocator installed here bumps
//! [`daemon::alloc_probe::FAST_PATH_ALLOCS`] whenever an allocation
//! lands inside that bracket. Running the server on a thread in *this*
//! process puts its evaluation passes under this allocator.
//!
//! The same allocator holds the wire codec to allocating nothing but
//! what it returns, and the frame path on both ends to allocating
//! nothing of its own: a frame read into a warm `FrameReader` and
//! decoded, and a reply taken by a warm `DaemonClient::recv`.

use daemon::alloc_probe::{self, FastPathGuard};
use daemon::client::DaemonClient;
use daemon::proto::{self, Op, Reply, Request, Status};
use daemon::server::{self, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::os::unix::net::UnixListener;
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAlloc;

// SAFETY: delegates to `System`; the extra work is a thread-local flag
// read and a relaxed atomic increment, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if daemon::alloc_probe::is_active() {
            daemon::alloc_probe::record();
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if daemon::alloc_probe::is_active() {
            daemon::alloc_probe::record();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if daemon::alloc_probe::is_active() {
            daemon::alloc_probe::record();
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counter is one per process: the tests that read it take turns.
fn counter_lock() -> MutexGuard<'static, ()> {
    static COUNTER: Mutex<()> = Mutex::new(());
    COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
}

const REQUESTS: u64 = 100_000;
const WINDOW: usize = 64; // per connection; two connections in flight
const MAX_ACTIVE: usize = 200; // per set

#[test]
fn soak_100k_requests_alloc_free_fast_path_and_verified_trace() {
    let _counter = counter_lock();
    let socket = std::env::temp_dir().join(format!("admitd-soak-{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();

    let mut cfg = ServerConfig::new(socket.clone(), 16);
    cfg.core.params = overhead::OverheadParams::zero();
    cfg.core.record_trace = true;
    let server = std::thread::spawn(move || server::run(cfg).expect("server run"));

    let mut main = DaemonClient::connect_retry(&socket, std::time::Duration::from_secs(10))
        .expect("daemon socket");
    // Second live set: half the traffic targets `side`, so the
    // zero-alloc property is proven with ≥2 sets decided per loop.
    let created = main.create_set("side").expect("create side set");
    assert!(
        matches!(created.status, Status::SetCreated),
        "{:?}",
        created.error
    );
    let mut side = DaemonClient::connect_retry(&socket, std::time::Duration::from_secs(10))
        .expect("daemon socket");
    side.set_scope(Some("side"));

    // Deterministic join/leave mix, pipelined WINDOW deep per
    // connection. A small LCG keeps the stream seeded without pulling
    // rand into this test.
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut active: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    let mut inflight = [0usize; 2];
    let (mut admitted, mut rejected, mut left, mut errors) = (0u64, 0u64, 0u64, 0u64);

    let mut drain =
        |client: &mut DaemonClient, inflight: &mut usize, active: &mut Vec<u32>, down_to: usize| {
            while *inflight > down_to {
                let reply: Reply = client.recv().expect("daemon reply");
                *inflight -= 1;
                match reply.status {
                    Status::Admitted => {
                        admitted += 1;
                        active.push(reply.task.expect("admitted id"));
                    }
                    Status::Rejected => rejected += 1,
                    // Victims are pulled out of `active` at *send* time (so
                    // the pipeline never targets one twice); the reply only
                    // counts.
                    Status::Left => left += 1,
                    _ => errors += 1,
                }
            }
        };

    for k in 0..REQUESTS {
        // Alternate sets request-by-request: both shards stay hot in
        // every quantum of the soak.
        let which = (k % 2) as usize;
        let client = if which == 0 { &mut main } else { &mut side };
        drain(client, &mut inflight[which], &mut active[which], WINDOW - 1);
        let nonce = client.take_nonce();
        let active = &mut active[which];
        // Leave when crowded (or by coin toss with someone active);
        // otherwise join at a quantized weight between 1/100 and ~1/8.
        let mut req = if !active.is_empty() && (active.len() >= MAX_ACTIVE || rng() % 100 < 45) {
            let victim = active.swap_remove((rng() % active.len() as u64) as usize);
            Request::leave(nonce, victim)
        } else {
            let period_quanta = 8 + rng() % 93; // 8..=100 quanta of 1ms
            let exec_quanta = 1 + rng() % (period_quanta / 8).max(1);
            Request::join(nonce, exec_quanta * 1_000, period_quanta * 1_000)
        };
        if which == 1 {
            req = req.with_set("side");
        }
        client.send(&req).expect("send");
        inflight[which] += 1;
    }
    drain(&mut main, &mut inflight[0], &mut active[0], 0);
    drain(&mut side, &mut inflight[1], &mut active[1], 0);

    assert_eq!(admitted + rejected + left + errors, REQUESTS);
    // Leaves target live ids from *our* replies, so none may error; the
    // only admissible errors would be duplicate-victim races, which one
    // connection per set never creates.
    assert_eq!(
        errors, 0,
        "per-set single-connection soak must not see errors"
    );
    assert!(admitted > 10_000, "soak actually admitted work: {admitted}");
    assert!(left > 10_000, "soak actually departed work: {left}");

    let bye = main.shutdown().expect("shutdown");
    assert!(matches!(bye.status, Status::ShuttingDown));
    let report = server.join().expect("server thread");

    // Acceptance #1: zero allocations anywhere inside the fast path —
    // with two sets live the whole soak.
    assert_eq!(alloc_probe::take(), 0, "admission fast path allocated");

    // Acceptance #2: *each* set window-verifies — both full dynamic
    // schedules replay clean offline, independently.
    assert_eq!(report.sets.len(), 2, "default + side live at shutdown");
    for name in ["default", "side"] {
        let set = report
            .sets
            .iter()
            .find(|s| s.name == name && !s.dropped)
            .unwrap_or_else(|| panic!("set {name} in the shutdown report"));
        let trace = set
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("set {name} records a trace"));
        assert!(!trace.slots.is_empty(), "set {name} advanced the schedule");
        trace
            .verify()
            .unwrap_or_else(|e| panic!("set {name} window-verifies: {e:?}"));
    }

    std::fs::remove_file(&socket).ok();
}

/// The codec allocates nothing it does not return: a reply encodes into a
/// reserved buffer, and a set-less join, leave or reweight decodes,
/// without one allocation; a request's `set` is exactly one, its own
/// `String`.
#[test]
fn codec_allocates_only_what_it_returns() {
    let _counter = counter_lock();
    let text = |req: &Request| {
        let mut out = Vec::new();
        proto::encode_request(req, &mut out);
        String::from_utf8(out).expect("the codec writes UTF-8")
    };
    let requests = [
        Request::join(1, 1_000, 10_000),
        Request::leave(2, 7),
        Request::reweight(3, 7, 2_000, 20_000),
    ];
    let [join, leave, reweight] = requests.clone().map(|r| text(&r));
    let mut admitted = Reply::new(4, Status::Admitted, 17);
    admitted.set = Some("default".to_string());
    (admitted.task, admitted.weight_num, admitted.weight_den) = (Some(5), Some(1), Some(10));
    let mut rejected = Reply::new(5, Status::Rejected, 18);
    rejected.error = Some("\"over\" capacity\n".to_string());
    let mut out = Vec::with_capacity(4096);

    alloc_probe::take();
    let decoded = {
        let _fast = FastPathGuard::enter();
        proto::encode_reply(&admitted, &mut out);
        proto::encode_reply(&rejected, &mut out);
        [
            proto::decode_request(&join),
            proto::decode_request(&leave),
            proto::decode_request(&reweight),
        ]
    };
    assert_eq!(alloc_probe::take(), 0, "the set-less codec allocated");
    assert_eq!(decoded, requests.map(Ok));
    assert!(out.starts_with(b"{\"nonce\":4,\"status\":\"Admitted\""));

    let named = text(&Request::bare(Op::Stats, 6).with_set("alpha"));
    let decoded = {
        let _fast = FastPathGuard::enter();
        proto::decode_request(&named)
    };
    assert_eq!(alloc_probe::take(), 1, "a set is one allocation");
    assert_eq!(decoded, Ok(Request::bare(Op::Stats, 6).with_set("alpha")));
}

/// `req` framed as a client sends it.
fn framed(req: &Request, wire: &mut Vec<u8>) {
    let mut json = Vec::new();
    proto::encode_request(req, &mut json);
    proto::write_frame(wire, std::str::from_utf8(&json).expect("UTF-8")).expect("into a Vec");
}

/// The daemon's intake from frame to request: a warm `FrameReader` reads
/// each frame in place and the decoder borrows it, so a set-less join,
/// leave or reweight costs no allocation, and a named set one.
#[test]
fn frame_in_to_request_allocates_only_the_set() {
    let _counter = counter_lock();
    let requests = [
        Request::join(1, 1_000, 10_000),
        Request::leave(2, 7),
        Request::reweight(3, 7, 2_000, 20_000),
    ];
    let mut wire = Vec::new();
    // A first frame longer than the rest grows the reader's buffer.
    proto::write_frame(&mut wire, &" ".repeat(256)).expect("into a Vec");
    for req in requests.iter().cycle().take(30) {
        framed(req, &mut wire);
    }
    framed(&Request::leave(4, 7).with_set("alpha"), &mut wire);
    let mut src = &wire[..];
    let mut reader = proto::FrameReader::new();
    reader.poll(&mut src).expect("the first frame");
    let mut decoded = Vec::with_capacity(30);
    let mut next = |src: &mut &[u8]| {
        let frame = reader.poll(src).expect("a frame").expect("a whole frame");
        proto::decode_request(frame).expect("a request")
    };

    alloc_probe::take();
    {
        let _fast = FastPathGuard::enter();
        for _ in 0..30 {
            decoded.push(next(&mut src));
        }
    }
    assert_eq!(alloc_probe::take(), 0, "set-less frames allocated");
    let expected: Vec<Request> = requests.iter().cycle().take(30).cloned().collect();
    assert_eq!(decoded, expected);

    let named = {
        let _fast = FastPathGuard::enter();
        next(&mut src)
    };
    assert_eq!(alloc_probe::take(), 1, "a set is one allocation");
    assert_eq!(named, Request::leave(4, 7).with_set("alpha"));
}

/// The client's side: a warm `DaemonClient::recv` reads each reply out of
/// its read-ahead buffer in place, so an `Admitted` or `Left` reply with
/// no string field costs no allocation. A warm pipelining client queues
/// set-less requests in the capacity its queue kept, so 16 `send`s and
/// the 16 `recv`s after them allocate nothing either.
#[test]
fn a_warm_client_receives_replies_without_allocating() {
    let _counter = counter_lock();
    let socket = std::env::temp_dir().join(format!("admitd-recv-{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();
    let listener = UnixListener::bind(&socket).expect("bind");
    let mut admitted = Reply::new(1, Status::Admitted, 17);
    (admitted.task, admitted.weight_num, admitted.weight_den) = (Some(5), Some(1), Some(10));
    (admitted.quanta, admitted.period_quanta) = (Some(1), Some(10));
    admitted.first_release = Some(17);
    let mut left = Reply::new(2, Status::Left, 18);
    (left.task, left.free_at) = (Some(5), Some(27));
    const RECEIVED: usize = 100;
    const PIPELINED: usize = 16;
    let sent: Vec<Reply> = [admitted, left]
        .into_iter()
        .cycle()
        .take(RECEIVED + PIPELINED)
        .collect();
    // A first reply longer than the rest grows the reader's buffer.
    let mut warm = Reply::new(0, Status::Error, 0);
    warm.error = Some(" ".repeat(256));
    let daemon = {
        let frames: Vec<String> = std::iter::once(&warm)
            .chain(&sent)
            .map(|r| {
                let mut json = Vec::new();
                proto::encode_reply(r, &mut json);
                String::from_utf8(json).expect("UTF-8")
            })
            .collect();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            for frame in &frames {
                proto::write_frame(&mut conn, frame).expect("reply");
            }
            // Everything the client writes, until it closes.
            let mut wire = Vec::new();
            std::io::Read::read_to_end(&mut conn, &mut wire).expect("requests");
            wire
        })
    };
    let mut client = DaemonClient::connect(&socket).expect("connect");
    assert_eq!(client.recv().expect("the first reply"), warm);
    let requests: Vec<Request> = (1..=PIPELINED as u64)
        .map(|n| Request::leave(n, 5))
        .collect();
    // A first window grows the output queue, which keeps the capacity.
    for req in &requests {
        client.send(req).expect("send");
    }
    client.flush().expect("flush");
    let mut got = Vec::with_capacity(sent.len());

    alloc_probe::take();
    {
        let _fast = FastPathGuard::enter();
        for _ in 0..RECEIVED {
            got.push(client.recv().expect("a reply"));
        }
    }
    assert_eq!(alloc_probe::take(), 0, "receiving a reply allocated");
    {
        let _fast = FastPathGuard::enter();
        for req in &requests {
            client.send(req).expect("send");
        }
        for _ in 0..PIPELINED {
            got.push(client.recv().expect("a reply"));
        }
    }
    assert_eq!(alloc_probe::take(), 0, "a pipelined window allocated");
    assert_eq!(got, sent);
    drop(client);
    let mut expected = Vec::new();
    for req in requests.iter().chain(&requests) {
        framed(req, &mut expected);
    }
    assert_eq!(daemon.join().expect("fake daemon"), expected);
    std::fs::remove_file(&socket).ok();
}
