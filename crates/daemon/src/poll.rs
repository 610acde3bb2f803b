//! `ppoll(2)`: the one system call the daemon makes outside `std`.
//!
//! `std` already links libc, so declaring the function here adds no
//! dependency. This module holds the crate's only `unsafe` code — the
//! `extern "C"` declaration and the one call through it — and the crate
//! root denies `unsafe_code` everywhere else.

#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable, or a connection is waiting on a listener.
pub(crate) const POLLIN: c_short = 0x1;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x4;
/// Error on the descriptor (reported whether asked for or not).
pub(crate) const POLLERR: c_short = 0x8;
/// The peer hung up (reported whether asked for or not).
pub(crate) const POLLHUP: c_short = 0x10;

/// `struct pollfd`: one descriptor, the events asked for, the events seen.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events` (a mask of the `POLL*` constants).
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// What the last [`wait`] saw on this descriptor.
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` elapses
/// (`None`: no timeout), with nanosecond resolution. Each entry's
/// [`PollFd::revents`] says what it saw; a signal ends the wait early
/// with every `revents` zero.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ts = timeout.map(|t| Timespec {
        tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: t.subsec_nanos() as c_long,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` pollfds
    // and `nfds` is its length, so the kernel reads and writes inside it
    // only; `ts_ptr` is null or points at a timespec that outlives the
    // call; a null sigmask leaves the signal mask alone.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            ts_ptr,
            std::ptr::null(),
        )
    };
    if n >= 0 {
        return Ok(());
    }
    let e = io::Error::last_os_error();
    match e.kind() {
        io::ErrorKind::Interrupted => {
            fds.iter_mut().for_each(|f| f.revents = 0);
            Ok(())
        }
        _ => Err(e),
    }
}
