//! Scheduler-as-a-service: the PD² admission daemon.
//!
//! The batch sweeps in `crates/experiments` exercise the §5.2 join/leave
//! protocol offline; this crate puts the same machinery under *live*
//! traffic. A long-running daemon owns a registry of independent
//! task-set shards — each one a [`MultiSim`](sched_sim::MultiSim) plus
//! PD² scheduler — accepts task join/leave/reweight requests over a
//! Unix-domain socket or TCP, runs the overhead-aware admission test
//! (Equation (3) inflation + the Σwt ≤ M feasibility bound) per set, and
//! replies admit/reject with the computed weight and first
//! pseudo-release. Requests arriving within one quantum are decided
//! together against a single schedulability evaluation *within their
//! set* (sets advance independently), and the evaluation pass is
//! allocation-free (scratch buffers sized at startup).
//!
//! Layout mirrors a narrow-kernel process split: [`proto`] is the whole
//! wire schema (flat structs, length-prefixed JSON) and its codec,
//! [`core`] is the admission kernel (no I/O), [`server`] owns the sockets
//! and the one event loop that serves them, [`client`] is what host
//! processes link. `admitctl` and `admitd` are thin binaries over these.
//!
//! The only `unsafe` code is the `ppoll(2)` declaration and call in the
//! private `poll` module; the crate denies it everywhere else.

#![deny(unsafe_code)]

pub mod cli;
pub mod client;
pub mod core;
mod poll;
pub mod proto;
pub mod server;

pub use crate::core::{AdmissionCore, CoreConfig, SetRegistry, SetReport};
pub use client::{ClientError, DaemonAddr, DaemonClient};
pub use server::{bind, run, Bind, BoundServer, Pace, RunReport, ServerConfig};

/// Instrumentation bracketing the allocation-free admission fast path.
///
/// The daemon cannot ship a global allocator (binaries and tests choose
/// their own), so it marks the fast path instead: evaluation passes run
/// under a thread-local [`FastPathGuard`]. A test installs a counting
/// `#[global_allocator]` that calls [`is_active`] on every allocation and
/// bumps [`FAST_PATH_ALLOCS`] when one lands inside the guard — the soak
/// test asserts the counter stays zero across 10⁵ socket requests.
pub mod alloc_probe {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Allocations observed inside a [`FastPathGuard`] by an installed
    /// counting allocator. Never incremented by this crate itself.
    pub static FAST_PATH_ALLOCS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // const-init: reading this from inside a GlobalAlloc impl is
        // safe — no lazy initialization, no allocation.
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
    }

    /// RAII marker for the current thread's fast-path section.
    pub struct FastPathGuard(());

    impl FastPathGuard {
        /// Marks the current thread as on the fast path until drop.
        pub fn enter() -> FastPathGuard {
            ACTIVE.with(|a| a.set(true));
            FastPathGuard(())
        }
    }

    impl Drop for FastPathGuard {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(false));
        }
    }

    /// Whether the calling thread is inside a fast-path section. Safe to
    /// call from a `GlobalAlloc` implementation (returns `false` during
    /// thread teardown instead of panicking).
    pub fn is_active() -> bool {
        ACTIVE.try_with(|a| a.get()).unwrap_or(false)
    }

    /// Records one fast-path allocation; called by counting allocators.
    pub fn record() {
        FAST_PATH_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads and resets the counter (test setup).
    pub fn take() -> u64 {
        FAST_PATH_ALLOCS.swap(0, Ordering::Relaxed)
    }
}
