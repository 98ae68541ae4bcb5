//! Minimal readiness shim: `epoll` + `eventfd` through the C library over
//! [`std::os::fd`] types.
//!
//! The workspace's no-external-registry rule means no `libc`/`mio`/
//! `polling` crates. std already links the C library, so the few calls
//! needed here are declared in one `extern "C"` block, as `spp-pm`
//! declares `madvise` and `spp-pmdk` `mmap`. The surface is deliberately
//! tiny — exactly what [`crate::reactor`] needs:
//!
//! * [`Epoll`]: create / add / modify interest, level-triggered wait with
//!   a millisecond timeout and EINTR retry;
//! * [`EventFd`]: a nonblocking counter fd used as the cross-thread wakeup
//!   (worker completions, inbox hand-off, shutdown);
//! * [`raise_nofile_limit`]: best-effort `RLIMIT_NOFILE` soft→hard bump so
//!   idle-connection sweeps aren't cut short by a 1024-fd default.
//!
//! Fds are RAII [`OwnedFd`]s: dropping a registered fd closes it, and the
//! kernel removes closed fds from every epoll set automatically, so there
//! is no deregistration bookkeeping to get wrong.

use std::ffi::{c_int, c_uint};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

/// `ret`, or the thread's `errno` when the C library returned `-1`.
fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Take ownership of the fd a C library call just returned.
fn owned(ret: c_int) -> io::Result<OwnedFd> {
    let raw = check(ret)?;
    // SAFETY: a nonnegative return is a fresh fd that nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(raw) })
}

// ---------------------------------------------------------------------------
// epoll
// ---------------------------------------------------------------------------

/// Readable readiness (`EPOLLIN`).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never registered.
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`); always reported, never registered.
pub(crate) const EPOLLHUP: u32 = 0x010;

const EPOLL_CLOEXEC: c_int = 0x80000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;

/// One readiness record. Layout must match the kernel's `epoll_event`,
/// which is packed on x86_64 (12 bytes) and naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    events: u32,
    data: u64,
}

// The C library reads and writes arrays of these: pin the size it expects.
const _: () = assert!(
    std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
);

impl EpollEvent {
    /// An empty record, for pre-sizing wait buffers.
    pub(crate) fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }

    /// The ready event mask (`EPOLLIN` / `EPOLLOUT` / `EPOLLERR` / ...).
    pub(crate) fn events(&self) -> u32 {
        self.events
    }

    /// The caller-chosen token registered with the fd.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }
}

/// A level-triggered epoll instance.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers; the flag is a valid `epoll_create1` flag.
        let fd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` lives across the call; fds are owned by the caller.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with interest `events` and identifying `token`.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest set of an already-registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Wait for readiness, filling `events`; returns how many entries are
    /// valid. `timeout_ms < 0` blocks indefinitely; `0` polls. EINTR is
    /// retried internally.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        loop {
            let (epfd, buf) = (self.fd.as_raw_fd(), events.as_mut_ptr());
            // SAFETY: `buf` is valid writable memory for `max` records for
            // the duration of the call.
            match check(unsafe { epoll_wait(epfd, buf, max, timeout_ms) }) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// eventfd
// ---------------------------------------------------------------------------

const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;

/// A nonblocking eventfd: the reactor's cross-thread doorbell. Writers
/// [`signal`](EventFd::signal) from any thread; the owning reactor
/// registers it `EPOLLIN` and [`drain`](EventFd::drain)s on wakeup.
pub(crate) struct EventFd {
    fd: File,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd with counter 0.
    pub(crate) fn new() -> io::Result<EventFd> {
        // SAFETY: no pointers; the flags are valid `eventfd` flags.
        let fd = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd: File::from(fd) })
    }

    /// The raw fd, for epoll registration.
    pub(crate) fn raw(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Ring the doorbell (add 1 to the counter). Infallible in practice:
    /// the only nonblocking failure is a counter at `u64::MAX - 1`, which
    /// still leaves the fd readable, so the wakeup is not lost.
    pub(crate) fn signal(&self) {
        let _ = (&self.fd).write(&1u64.to_ne_bytes());
    }

    /// Consume all pending signals (reset the counter to 0). Returns
    /// `true` if at least one signal had been posted; an empty counter
    /// reads `WouldBlock`.
    pub(crate) fn drain(&self) -> bool {
        let mut count = [0u8; 8];
        matches!((&self.fd).read(&mut count), Ok(8)) && u64::from_ne_bytes(count) > 0
    }
}

// ---------------------------------------------------------------------------
// RLIMIT_NOFILE
// ---------------------------------------------------------------------------

const RLIMIT_NOFILE: c_int = 7;

/// `struct rlimit`: `rlim_t` is 64 bits on every 64-bit Linux target.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// Best-effort raise of the open-file soft limit to the hard limit, so
/// idle-connection sweeps (thousands of sockets) don't die on the 1024-fd
/// default. Returns the resulting soft limit, or the current one if the
/// bump failed (never an error — callers degrade gracefully).
pub fn raise_nofile_limit() -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is valid writable memory for the call.
    if check(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }).is_err() {
        return 1024;
    }
    if lim.cur >= lim.max {
        return lim.cur;
    }
    let want = RLimit {
        cur: lim.max,
        max: lim.max,
    };
    // SAFETY: `want` is valid readable memory for the call.
    if check(unsafe { setrlimit(RLIMIT_NOFILE, &want) }).is_ok() {
        lim.max
    } else {
        lim.cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn eventfd_signal_and_drain() {
        let ev = EventFd::new().unwrap();
        assert!(!ev.drain(), "fresh eventfd must read empty");
        ev.signal();
        ev.signal();
        assert!(ev.drain(), "two signals coalesce into one readable count");
        assert!(!ev.drain(), "drain resets the counter");
    }

    #[test]
    fn epoll_reports_eventfd_readability() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), EPOLLIN, 42).unwrap();

        let mut buf = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing signalled: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        ev.signal();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(buf[0].token(), 42);
        assert_ne!(buf[0].events() & EPOLLIN, 0);

        // Level-triggered: still readable until drained.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 1);
        assert!(ev.drain());
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_modify_changes_interest_and_close_deregisters() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.raw(), EPOLLIN, 7).unwrap();
        ev.signal();

        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut buf, 100).unwrap(), 1);

        // Interest set to empty: readable fd no longer reported. This is
        // the reactor's backpressure primitive.
        ep.modify(ev.raw(), 0, 7).unwrap();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        ep.modify(ev.raw(), EPOLLIN, 9).unwrap();
        let n = ep.wait(&mut buf, 100).unwrap();
        assert_eq!(n, 1);
        assert_eq!(buf[0].token(), 9, "MOD updates the token too");

        // Closing the fd removes it from the interest set implicitly —
        // the reactor relies on drop-to-deregister, no DEL bookkeeping.
        drop(ev);
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_sees_tcp_read_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server_side.as_raw_fd(), EPOLLIN, 1).unwrap();

        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0, "no bytes yet");

        client.write_all(b"hello").unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(buf[0].token(), 1);
        assert_ne!(buf[0].events() & EPOLLIN, 0);
    }

    #[test]
    fn nofile_limit_is_sane_after_raise() {
        let lim = raise_nofile_limit();
        // Whatever the box allows, the helper must report something usable
        // and calling it twice must be stable.
        assert!(lim >= 256);
        assert_eq!(raise_nofile_limit(), lim);
    }
}
