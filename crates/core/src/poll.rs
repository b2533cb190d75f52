//! Minimal raw-fd readiness primitives for the serve workers.
//!
//! [`Poller`] wraps Linux `epoll` and [`Waker`] wraps an `eventfd`,
//! both through hand-declared `extern "C"` prototypes — the workspace
//! builds offline with no async runtime and no `libc` crate, and the
//! server needs exactly four syscalls: create, register, wait, wake.
//! Sockets themselves stay ordinary [`std::net`] types switched to
//! nonblocking mode; only the file descriptors cross this module's
//! boundary (borrowed via [`std::os::fd::AsRawFd`], never owned here,
//! so descriptor lifetime stays with the `TcpStream`/`TcpListener`
//! that owns it).
//!
//! Level-triggered, optionally [`ONESHOT`]: a one-shot registration
//! reports once to one waiter and then stays disarmed until
//! [`Poller::modify`] re-arms it, re-evaluating readiness on the spot.
//! The serve workers arm every socket that way, so a connection is
//! owned by exactly one worker between a report and its re-arm (see
//! `serve.rs`); a readiness bit is never "remembered" by the kernel on
//! our behalf.

use std::io;
use std::os::fd::RawFd;

/// Readable readiness (kernel `EPOLLIN`).
pub const IN: u32 = 0x1;
/// Writable readiness (kernel `EPOLLOUT`).
pub const OUT: u32 = 0x4;
/// Error condition (kernel `EPOLLERR`; always reported, never armed).
pub const ERR: u32 = 0x8;
/// Peer hangup (kernel `EPOLLHUP`; always reported, never armed).
pub const HUP: u32 = 0x10;
/// Peer half-closed its write side (kernel `EPOLLRDHUP`).
pub const RDHUP: u32 = 0x2000;
/// Report once, then disarm until re-armed (kernel `EPOLLONESHOT`; an
/// arming flag, never reported).
pub const ONESHOT: u32 = 1 << 30;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One readiness report from [`Poller::wait`] — mirrors the kernel's
/// `struct epoll_event` ABI (packed on x86, naturally aligned
/// elsewhere).
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
#[derive(Clone, Copy)]
pub struct Event {
    events: u32,
    data: u64,
}

impl Event {
    /// An empty slot for the wait buffer.
    pub fn zeroed() -> Event {
        Event { events: 0, data: 0 }
    }

    /// The token the fd was registered under.
    pub fn token(&self) -> u64 {
        self.data
    }

    /// The readiness bits ([`IN`], [`OUT`], [`ERR`], [`HUP`],
    /// [`RDHUP`]).
    pub fn readiness(&self) -> u32 {
        self.events
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An `epoll` instance. Registered fds are identified by caller-chosen
/// `u64` tokens; the poller never owns an fd except its own.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a close-on-exec `epoll` instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flags int and returns an fd or
        // a negative errno indicator; no memory is exchanged.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = Event {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` is a live, properly laid out epoll_event for the
        // duration of the call; the kernel reads it and does not retain
        // the pointer.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest bits.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest bits of an already registered fd. An empty
    /// interest (`0`) keeps the fd registered but mutes readable /
    /// writable reports (`ERR`/`HUP` still fire).
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`. Harmless to call for an fd the kernel already
    /// dropped from the set (closing an fd auto-removes it).
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        match self.ctl(EPOLL_CTL_DEL, fd, 0, 0) {
            Ok(()) => Ok(()),
            Err(e) if e.raw_os_error() == Some(2) => Ok(()), // ENOENT
            Err(e) => Err(e),
        }
    }

    /// Blocks until at least one registered fd is ready (or `timeout_ms`
    /// elapses; `-1` blocks indefinitely), filling `events` from the
    /// front. Returns how many entries were filled. `EINTR` retries
    /// internally.
    pub fn wait(&self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
        let cap = events.len().min(i32::MAX as usize) as i32;
        if cap == 0 {
            return Ok(0);
        }
        loop {
            // SAFETY: `events` points at `cap` writable Event slots; the
            // kernel fills at most `cap` of them.
            let n = unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), cap, timeout_ms) };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` was returned by epoll_create1 and is closed
        // exactly once, here.
        unsafe { close(self.epfd) };
    }
}

/// A one-way broadcast to every thread blocked in [`Poller::wait`]: a
/// nonblocking `eventfd` registered level-triggered with the poller.
/// Nothing ever reads it, so once [`Waker::wake`] has run it stays
/// readable, and every wait on the set — present or future — returns
/// with its token until the fd leaves the set.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates a close-on-exec, nonblocking `eventfd` with a zero
    /// counter.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes an initial counter and flags, returns
        // an fd or a negative errno indicator.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The fd to register with a [`Poller`] (readable whenever the
    /// counter is nonzero).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the fd readable for good. Nonblocking and idempotent: if
    /// the counter is already saturated the write fails with `EAGAIN`,
    /// which still leaves the fd readable — the wakeup is never lost.
    pub fn wake(&self) {
        let one: u64 = 1;
        let buf = one.to_ne_bytes();
        // SAFETY: writes 8 bytes from a live stack buffer; an eventfd
        // write either consumes exactly 8 or fails.
        unsafe { write(self.fd, buf.as_ptr(), buf.len()) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `fd` was returned by eventfd and is closed exactly
        // once, here.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_wakes_a_blocked_wait_across_threads() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 7, IN).unwrap();

        // Two threads block on the same set; one wake releases both.
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let p = std::sync::Arc::clone(&poller);
                std::thread::spawn(move || {
                    let mut events = [Event::zeroed(); 4];
                    let n = p.wait(&mut events, 5_000).unwrap();
                    (n, events[0].token(), events[0].readiness())
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(50));
        waker.wake();
        for w in waiters {
            let (n, token, ready) = w.join().unwrap();
            assert_eq!(n, 1);
            assert_eq!(token, 7);
            assert!(ready & IN != 0);
        }
        // Never drained: a later wait still sees it, until it leaves
        // the set.
        let mut events = [Event::zeroed(); 4];
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 1);
        poller.remove(waker.fd()).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn oneshot_reports_once_until_rearmed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(served.as_raw_fd(), 5, IN | ONESHOT).unwrap();
        (&client).write_all(b"x").unwrap();

        let mut events = [Event::zeroed(); 4];
        assert_eq!(poller.wait(&mut events, 2_000).unwrap(), 1);
        // Still readable, but disarmed by the report.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        // Re-arming re-evaluates readiness: the unread byte reports.
        poller.modify(served.as_raw_fd(), 5, IN | ONESHOT).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 1);
        assert_eq!(events[0].token(), 5);
        assert_eq!(events[0].readiness() & ONESHOT, 0);
    }

    #[test]
    fn socket_readiness_tracks_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(served.as_raw_fd(), 42, IN).unwrap();

        let mut events = [Event::zeroed(); 4];
        // Nothing sent yet: no readiness.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        (&client).write_all(b"hello").unwrap();
        let n = poller.wait(&mut events, 2_000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert!(events[0].readiness() & IN != 0);

        // Mute the interest: the pending bytes no longer report.
        poller.modify(served.as_raw_fd(), 42, 0).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        // Re-arm and the level-triggered report returns.
        poller.modify(served.as_raw_fd(), 42, IN).unwrap();
        assert_eq!(poller.wait(&mut events, 2_000).unwrap(), 1);

        let mut buf = [0u8; 8];
        let got = (&served).read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"hello");

        poller.remove(served.as_raw_fd()).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }
}
