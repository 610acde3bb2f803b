//! The seeded request stream both daemon workloads send.
//!
//! 45 % join, 40 % leave, 15 % reweight, steered toward a resident
//! population of [`TARGET_RESIDENT`] tasks — about what fits at M = 16, so
//! a share of joins is legitimately `Rejected`. The stream is a pure
//! function of the seed and of the replies fed back, so two runs that see
//! the same replies send the same requests.
//!
//! Two rules keep every reply a verdict rather than an `Error`:
//!
//! * **No duplicate departures.** A task picked to leave or be reweighted
//!   is taken off the active list when the request is *sent*, so no later
//!   request can name it again while the first is in flight.
//! * **Set rotation.** After [`ROTATE_AFTER`] `Admitted` replies the
//!   stream moves to a fresh task set and drops the old one. Task ids are
//!   never recycled within a set, so this keeps them under the scheduler's
//!   4,096 packed-key range and keeps the `N` that `AdmissionCore` feeds
//!   to `inflate_pd2` bounded.

use daemon::proto::{Op, Reply, Request, Status};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Resident population the mix is steered toward.
pub const TARGET_RESIDENT: usize = 160;
/// `Admitted` replies on one set before the stream rotates to the next.
pub const ROTATE_AFTER: u64 = 2_048;
/// Periods joins and reweights draw from, µs.
const PERIODS_US: [u64; 4] = [10_000, 20_000, 40_000, 80_000];

/// What an in-flight request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sent {
    Join,
    Leave,
    /// A reweight of this task, which stays resident if refused.
    Reweight(u32),
}

/// Reply counts over the whole stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Join, leave and reweight requests generated.
    pub requests: u64,
    /// Replies matched to a request.
    pub replies: u64,
    /// Joins admitted.
    pub admitted: u64,
    /// Reweights admitted (the old id leaves, a new id joins).
    pub reweighted: u64,
    /// Joins or reweights refused by the admission test.
    pub rejected: u64,
    /// Leaves accepted.
    pub left: u64,
    /// `Status::Error` replies, or a status the request cannot produce.
    pub errors: u64,
    /// Replies whose nonce matched no request in flight.
    pub unmatched: u64,
    /// Tasks that were resident in a set when it was dropped.
    pub dropped_with_set: u64,
}

/// The request stream.
pub struct ReqGen {
    rng: StdRng,
    next_nonce: u64,
    set_index: u64,
    /// Resident tasks of the current set that no in-flight request names.
    active: Vec<u32>,
    in_flight: HashMap<u64, Sent>,
    admitted_on_set: u64,
    tally: Tally,
}

impl ReqGen {
    /// A stream over set `bench-0`, which the caller creates first.
    pub fn new(seed: u64) -> Self {
        ReqGen {
            rng: StdRng::seed_from_u64(seed),
            next_nonce: 1,
            set_index: 0,
            active: Vec::new(),
            in_flight: HashMap::new(),
            admitted_on_set: 0,
            tally: Tally::default(),
        }
    }

    /// Name of the set requests currently target.
    pub fn set_name(&self) -> String {
        format!("bench-{}", self.set_index)
    }

    /// Counts so far.
    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// Requests sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Tasks resident in the current set, counting those a request in
    /// flight is about to remove as already gone.
    pub fn resident(&self) -> usize {
        self.active.len()
    }

    fn nonce(&mut self) -> u64 {
        let n = self.next_nonce;
        self.next_nonce += 1;
        n
    }

    /// Period and cost of a join or reweight: utilisation U(1 %, 12 %).
    fn draw_params(&mut self) -> (u64, u64) {
        let period = PERIODS_US[self.rng.gen_range(0..PERIODS_US.len())];
        let wcet = (period as f64 * self.rng.gen_range(0.01..0.12)) as u64;
        (wcet.max(1), period)
    }

    /// The next join, leave or reweight.
    pub fn next_request(&mut self) -> Request {
        let draw: f64 = self.rng.gen_range(0.0..1.0);
        let mut op = match draw {
            d if d < 0.45 => Op::Join,
            d if d < 0.85 => Op::Leave,
            _ => Op::Reweight,
        };
        // Steering: refill a population well under the target with joins,
        // drain one well over it with leaves.
        let resident = self.active.len();
        if resident == 0 || (op == Op::Leave && resident < TARGET_RESIDENT * 9 / 10) {
            op = Op::Join;
        } else if op == Op::Join && resident > TARGET_RESIDENT * 11 / 10 {
            op = Op::Leave;
        }
        let nonce = self.nonce();
        let (req, sent) = match op {
            Op::Join => {
                let (wcet, period) = self.draw_params();
                (Request::join(nonce, wcet, period), Sent::Join)
            }
            Op::Leave => {
                let victim = self.take_active();
                (Request::leave(nonce, victim), Sent::Leave)
            }
            _ => {
                let victim = self.take_active();
                let (wcet, period) = self.draw_params();
                (
                    Request::reweight(nonce, victim, wcet, period),
                    Sent::Reweight(victim),
                )
            }
        };
        self.in_flight.insert(nonce, sent);
        self.tally.requests += 1;
        req.with_set(self.set_name())
    }

    fn take_active(&mut self) -> u32 {
        let i = self.rng.gen_range(0..self.active.len());
        self.active.swap_remove(i)
    }

    /// Feeds one reply back.
    pub fn on_reply(&mut self, reply: &Reply) {
        let Some(sent) = self.in_flight.remove(&reply.nonce) else {
            self.tally.unmatched += 1;
            return;
        };
        self.tally.replies += 1;
        match (sent, reply.status, reply.task) {
            (Sent::Join, Status::Admitted, Some(id)) => {
                self.tally.admitted += 1;
                self.admitted_on_set += 1;
                self.active.push(id);
            }
            (Sent::Reweight(_), Status::Admitted, Some(id)) => {
                self.tally.reweighted += 1;
                self.admitted_on_set += 1;
                self.active.push(id);
            }
            (Sent::Join, Status::Rejected, _) => self.tally.rejected += 1,
            (Sent::Reweight(old), Status::Rejected, _) => {
                self.tally.rejected += 1;
                self.active.push(old);
            }
            (Sent::Leave, Status::Left, _) => self.tally.left += 1,
            _ => self.tally.errors += 1,
        }
    }

    /// Whether the current set has admitted enough to be retired.
    pub fn wants_rotation(&self) -> bool {
        self.admitted_on_set >= ROTATE_AFTER
    }

    /// Moves the stream to the next set. Returns the `create_set` request
    /// for the new set and the `drop_set` request for the old one, to be
    /// sent in that order.
    ///
    /// # Panics
    ///
    /// Panics if requests are still in flight: their replies would race
    /// the drop.
    pub fn rotate(&mut self) -> (Request, Request) {
        assert!(
            self.in_flight.is_empty(),
            "rotate with requests still in flight"
        );
        let old = self.set_name();
        self.tally.dropped_with_set += self.active.len() as u64;
        self.active.clear();
        self.admitted_on_set = 0;
        self.set_index += 1;
        let create = Request::bare(Op::CreateSet, self.nonce()).with_set(self.set_name());
        let drop = Request::bare(Op::DropSet, self.nonce()).with_set(old);
        (create, drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A stand-in daemon: admits while fewer than `cap` tasks are
    /// resident, hands out ids that are never reused within a set.
    struct FakeDaemon {
        cap: usize,
        resident: HashSet<u32>,
        next_id: u32,
    }

    impl FakeDaemon {
        fn new(cap: usize) -> Self {
            FakeDaemon {
                cap,
                resident: HashSet::new(),
                next_id: 0,
            }
        }

        fn admit(&mut self, nonce: u64) -> Reply {
            if self.resident.len() >= self.cap {
                return Reply::new(nonce, Status::Rejected, 0);
            }
            let mut r = Reply::new(nonce, Status::Admitted, 0);
            r.task = Some(self.next_id);
            self.resident.insert(self.next_id);
            self.next_id += 1;
            r
        }

        fn answer(&mut self, req: &Request) -> Reply {
            match req.op {
                Op::Join => self.admit(req.nonce),
                Op::Leave => {
                    let task = req.task.expect("leave names a task");
                    assert!(self.resident.remove(&task), "leave of absent task {task}");
                    let mut r = Reply::new(req.nonce, Status::Left, 0);
                    r.task = Some(task);
                    r
                }
                Op::Reweight => {
                    let task = req.task.expect("reweight names a task");
                    assert!(self.resident.contains(&task), "reweight of absent {task}");
                    // The old task stays charged while the new one is
                    // tested, as in the daemon.
                    let reply = self.admit(req.nonce);
                    if reply.status == Status::Admitted {
                        self.resident.remove(&task);
                    }
                    reply
                }
                _ => unreachable!("the stream only joins, leaves and reweights"),
            }
        }
    }

    /// Runs `n` requests with up to `window` in flight, answering oldest
    /// first; returns every request sent.
    fn drive(seed: u64, n: usize, window: usize) -> (Vec<Request>, ReqGen) {
        let mut gen = ReqGen::new(seed);
        let mut daemon = FakeDaemon::new(170);
        let mut sent = Vec::new();
        let mut queue: std::collections::VecDeque<Request> = Default::default();
        while sent.len() < n || !queue.is_empty() {
            if gen.wants_rotation() {
                while let Some(req) = queue.pop_front() {
                    gen.on_reply(&daemon.answer(&req));
                }
                gen.rotate();
                daemon = FakeDaemon::new(170);
            }
            while queue.len() < window && sent.len() < n {
                let req = gen.next_request();
                sent.push(req.clone());
                queue.push_back(req);
            }
            if let Some(req) = queue.pop_front() {
                gen.on_reply(&daemon.answer(&req));
            }
        }
        (sent, gen)
    }

    #[test]
    fn same_seed_and_replies_give_an_identical_stream() {
        let (a, _) = drive(7, 6_000, 1);
        let (b, _) = drive(7, 6_000, 1);
        assert_eq!(a, b);
        let (c, _) = drive(8, 6_000, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn no_task_is_ever_named_by_two_departures() {
        for window in [1, 16, 32] {
            let (sent, gen) = drive(3, 12_000, window);
            let mut departed: HashSet<(String, u32)> = HashSet::new();
            for req in &sent {
                if let (Op::Leave | Op::Reweight, Some(task)) = (req.op, req.task) {
                    // A refused reweight keeps its task, which may then
                    // leave later: only *leaves* must be unique, and no
                    // departure may follow one.
                    let key = (req.set.clone().unwrap(), task);
                    assert!(!departed.contains(&key), "task {task} departs twice");
                    if req.op == Op::Leave {
                        departed.insert(key);
                    }
                }
            }
            let t = gen.tally();
            // FakeDaemon::answer asserts every departure names a resident
            // task, so reaching here means none was sent twice.
            assert_eq!((t.errors, t.unmatched), (0, 0));
            assert_eq!(t.requests, 12_000);
            assert_eq!(t.replies, 12_000);
        }
    }

    #[test]
    fn the_mix_is_steered_toward_the_target_and_rotates() {
        let (sent, gen) = drive(11, 40_000, 1);
        let t = gen.tally();
        assert!(t.rejected > 0, "a full set must refuse some joins");
        assert!(gen.set_name() != "bench-0", "40k requests must rotate");
        assert!(gen.resident() <= TARGET_RESIDENT * 11 / 10 + 1);
        let joins = sent.iter().filter(|r| r.op == Op::Join).count() as f64;
        let share = joins / sent.len() as f64;
        assert!((0.40..0.60).contains(&share), "join share {share}");
        // Every admitted task either left, was reweighted away, went
        // down with its set, or is still resident.
        assert_eq!(
            t.admitted,
            t.left + t.dropped_with_set + gen.resident() as u64
        );
    }

    #[test]
    fn a_refused_reweight_keeps_its_task_resident() {
        let mut gen = ReqGen::new(1);
        let join = gen.next_request();
        assert_eq!(join.op, Op::Join);
        let mut admitted = Reply::new(join.nonce, Status::Admitted, 0);
        admitted.task = Some(9);
        gen.on_reply(&admitted);
        assert_eq!(gen.resident(), 1);
        // Find the next departure of task 9 and refuse it if a reweight.
        loop {
            let req = gen.next_request();
            match req.op {
                Op::Reweight => {
                    assert_eq!((req.task, gen.resident()), (Some(9), 0));
                    gen.on_reply(&Reply::new(req.nonce, Status::Rejected, 0));
                    assert_eq!(gen.resident(), 1);
                    break;
                }
                Op::Join => gen.on_reply(&Reply::new(req.nonce, Status::Rejected, 0)),
                _ => unreachable!("leaves turn into joins below the target"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "still in flight")]
    fn rotation_refuses_to_race_requests_in_flight() {
        let mut gen = ReqGen::new(1);
        gen.next_request();
        gen.rotate();
    }
}
