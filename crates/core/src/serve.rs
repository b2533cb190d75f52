//! A long-lived TCP query server over an opened container.
//!
//! [`Server`] binds a [`std::net::TcpListener`], opens the container
//! **once** (through the [`Opened`] facade, so v2 and v3 containers are
//! served identically) and answers the newline-delimited JSON protocol
//! of [`crate::wire`] — `PROTOCOL.md` documents the format. The decode
//! cache and query plans live in the shared store, so they stay warm
//! across requests and across connections: exactly the steady state the
//! `bench_queries` "warm" numbers measure, instead of the re-open-per-
//! invocation cost the CLI's offline `query` pays.
//!
//! # Symmetric workers on one epoll set
//!
//! `threads` workers are the whole server — the thread calling
//! [`Server::run`] is one of them; there is no event-loop thread. Every
//! worker blocks on one shared [`poll::Poller`] (std-only raw `epoll`)
//! holding the listener, the shutdown waker and every connection
//! ([`crate::conn`] state machines). An idle connection costs two
//! buffers and a file descriptor, not a thread.
//!
//! Sockets are armed [`poll::ONESHOT`]: a readiness report reaches one
//! worker and disarms the socket, so that worker **owns** the
//! connection until it re-arms it. The owner runs the whole **burst**
//! itself — reads and frames every complete request line the socket
//! has, executes them in order, queues the responses and flushes them
//! in one coalesced write — and re-arms only after the burst's
//! responses are queued. That ownership is the whole in-order
//! pipelining guarantee (a pipelined query behind an `ingest` on the
//! same connection observes the ingest, and responses always stream
//! back in request order; see `PROTOCOL.md`). A long burst occupies
//! only the worker that took it; the others keep serving every other
//! connection, sharing one decode cache underneath.
//!
//! Per-thread loops owning their connections (`SO_REUSEPORT`) were
//! rejected for that reason: two busy connections hash to one of two
//! threads half the time, and every read there waits behind an ingest.
//!
//! Clients may pipeline freely: send N request lines without awaiting,
//! read N responses in order (`utcq client --pipeline N` does exactly
//! this). A slow reader that lets its write backlog grow past the
//! [`crate::conn::WRITE_HIGH_WATERMARK`] stops being *read* until it
//! drains — backpressure by TCP flow control, not by server memory.
//!
//! # Writable servers
//!
//! [`Server::writable`] enables the protocol's `ingest` op: batches
//! append to the live store (`PROTOCOL.md` documents the request).
//! Ingest runs on the store's writer path — compression and indexing
//! happen against a private clone of the current snapshot, then publish
//! as a new epoch — so queries on the other workers never block, and
//! pipelined queries behind an ingest on the *same* connection resume
//! as soon as the batch publishes. Read-only servers (the default)
//! answer `ingest` with the `read_only` error code.
//!
//! # Shutdown
//!
//! Graceful, from either side: a client sends `{"op":"shutdown"}` (it
//! gets the acknowledgement as its response), or the process calls
//! [`ServerHandle::shutdown`]. Either way the flag is raised, every
//! registered connection's **read** side is half-closed, and the
//! eventfd waker is written — never read, so it wakes every blocked
//! worker. Each worker finishes the burst it owns (no response is ever
//! truncated mid-line; requests not yet taken into a burst are dropped)
//! and sees the flag. All but the last to see it return; the last takes
//! the waker and the listener out of the set, so nothing can make it
//! spin, and drains: queued responses flush, bounded by a deadline for
//! peers that never read. [`Server::run`] returns once every worker has.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::conn::{Conn, Frame};
use crate::error::Error;
use crate::opened::Opened;
use crate::poll;
use crate::wire;

pub use crate::conn::DRAIN_BUDGET_BYTES;

/// Default worker count for [`Server::bind`] callers that take the CLI
/// default.
pub const DEFAULT_THREADS: usize = 4;

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the shutdown waker.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// How long shutdown waits for queued responses to flush before
/// force-closing connections whose peers stopped reading.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// How long the listener stays muted after `accept` ran out of
/// descriptors, unless a connection closes first.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// One live connection in the registry.
struct Slot {
    /// A clone of the socket, so [`ServerState::trigger`] can half-close
    /// its read side from any thread — also while a worker owns the
    /// connection.
    stream: TcpStream,
    /// The connection itself; `None` while a worker owns it (between
    /// its readiness report and its re-arm).
    conn: Option<Conn>,
}

/// Shared shutdown state: the flag, the live-connection registry and
/// the eventfd waker that unblocks the workers.
///
/// The registry maps a per-connection token to its [`Slot`], inserted
/// at accept and removed when the connection is dropped — entries exist
/// exactly while a connection is live, so the registry neither leaks
/// descriptors on a long-lived server nor holds client sockets
/// half-open after shutdown. Its stream clones let [`trigger`]
/// half-close read sides from *any* thread, making EOF visible to
/// clients mid-read immediately.
///
/// [`trigger`]: ServerState::trigger
struct ServerState {
    shutting_down: AtomicBool,
    conns: Mutex<HashMap<u64, Slot>>,
    addr: SocketAddr,
    waker: poll::Waker,
}

impl ServerState {
    fn slots(&self) -> MutexGuard<'_, HashMap<u64, Slot>> {
        // Nothing panics while holding the lock; a poisoned map is
        // still consistent.
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flips the server into shutdown: raise the flag, half-close every
    /// registered connection's read side, wake every blocked worker.
    /// Idempotent.
    fn trigger(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for slot in self.slots().values() {
            // Readers see EOF; the write half stays open so queued
            // responses finish intact.
            let _ = slot.stream.shutdown(Shutdown::Read);
        }
        self.waker.wake();
    }

    /// Registers a freshly accepted connection under its token. Refuses
    /// it (dropping the socket) when its registry clone cannot be made:
    /// shutdown could not half-close it.
    fn register(&self, token: u64, conn: Conn) -> std::io::Result<()> {
        let stream = conn.stream().try_clone()?;
        let mut slots = self.slots();
        let slot = slots.entry(token).or_insert(Slot {
            stream,
            conn: Some(conn),
        });
        // Close the race with a concurrent trigger(): a connection
        // accepted after the shutdown sweep would otherwise keep its
        // read side open, and idle, never report again. Checking after
        // the insert means either the sweep saw our entry or we see
        // the flag.
        if self.shutting_down.load(Ordering::SeqCst) {
            let _ = slot.stream.shutdown(Shutdown::Read);
        }
        Ok(())
    }

    /// Takes ownership of a connection whose readiness was reported.
    fn take(&self, token: u64) -> Option<Conn> {
        self.slots().get_mut(&token).and_then(|s| s.conn.take())
    }

    /// Returns an owned connection to the registry (before re-arming).
    fn put_back(&self, token: u64, conn: Conn) {
        if let Some(slot) = self.slots().get_mut(&token) {
            slot.conn = Some(conn);
        }
    }

    /// Drops the registry entry; the socket closes once the owner's
    /// `Conn` is gone too.
    fn deregister(&self, token: u64) {
        let gone = self.slots().remove(&token);
        drop(gone); // outside the lock
    }
}

/// A handle that can stop a running [`Server`] from another thread —
/// what in-process embedders (tests, benchmarks) use instead of sending
/// a `shutdown` request over a socket.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Initiates the same graceful shutdown a `{"op":"shutdown"}`
    /// request does. Returns immediately; [`Server::run`] returns once
    /// the workers have finished their bursts and drained.
    pub fn shutdown(&self) {
        self.state.trigger();
    }
}

/// A bound, not-yet-running query server. See the [module docs](self).
///
/// ```no_run
/// use std::sync::Arc;
/// use utcq_core::serve::Server;
/// use utcq_core::Opened;
///
/// # fn main() -> Result<(), utcq_core::Error> {
/// let opened = Arc::new(Opened::open("data.utcq")?);
/// // Port 0 = ephemeral; read the real port back before blocking.
/// let server = Server::bind(opened, "127.0.0.1:0", 4)?;
/// println!("listening on {}", server.local_addr());
/// server.run()?; // blocks until a shutdown request arrives
/// # Ok(()) }
/// ```
pub struct Server {
    listener: TcpListener,
    opened: Arc<Opened>,
    threads: usize,
    /// Whether `ingest` requests are honored (`utcq serve --writable`).
    /// Read-only servers answer them with the `read_only` error code.
    writable: bool,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) over an opened
    /// container. `threads` is the number of serve threads (clamped to
    /// ≥ 1), [`Server::run`]'s caller included — execution parallelism
    /// only; connection count is independent. The server starts
    /// read-only; see [`Server::writable`].
    pub fn bind(opened: Arc<Opened>, addr: &str, threads: usize) -> Result<Self, Error> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let waker = poll::Waker::new()?;
        Ok(Self {
            listener,
            opened,
            threads: threads.max(1),
            writable: false,
            state: Arc::new(ServerState {
                shutting_down: AtomicBool::new(false),
                conns: Mutex::new(HashMap::new()),
                addr,
                waker,
            }),
        })
    }

    /// Enables (or disables) the `ingest` op for every connection.
    /// Ingest batches are serialized through the store's writer lock
    /// underneath, so any number of workers may carry them.
    pub fn writable(mut self, writable: bool) -> Self {
        self.writable = writable;
        self
    }

    /// The address actually bound — the resolved port when binding port
    /// `0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A shutdown handle usable from other threads while [`Server::run`]
    /// blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shut down (by a `shutdown` request or a
    /// [`ServerHandle`]) on `threads` workers — this thread and
    /// `threads - 1` spawned ones — then drains and returns.
    pub fn run(self) -> Result<(), Error> {
        self.listener.set_nonblocking(true)?;
        let (listener, waker) = (self.listener.as_raw_fd(), self.state.waker.fd());
        let pool = Pool {
            server: &self,
            poller: poll::Poller::new()?,
            serving: AtomicUsize::new(self.threads),
            next_token: AtomicU64::new(TOKEN_FIRST_CONN),
            muted: AtomicBool::new(false),
            muted_at: Mutex::new(Instant::now()),
        };
        let armed = poll::IN | poll::ONESHOT;
        pool.poller.add(listener, TOKEN_LISTENER, armed)?;
        pool.poller.add(waker, TOKEN_WAKER, poll::IN)?;

        let pool = &pool;
        let result = std::thread::scope(|scope| {
            let others: Vec<_> = (1..self.threads)
                .map(|_| scope.spawn(move || pool.worker()))
                .collect();
            let mut result = pool.worker();
            for other in others {
                let r = other
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                result = result.and(r);
            }
            result
        });
        // Every connection is gone; drop any remaining registry entries
        // so client sockets close fully (they would otherwise linger
        // half-open for as long as a ServerHandle is alive).
        self.state.slots().clear();
        result
    }
}

/// What the workers of one [`Server::run`] share.
struct Pool<'a> {
    server: &'a Server,
    poller: poll::Poller,
    /// Workers that have not yet seen the shutdown flag; the last one
    /// to see it drains.
    serving: AtomicUsize,
    next_token: AtomicU64,
    /// Set while the listener stays muted because `accept` ran out of
    /// descriptors, which it last did at `muted_at`.
    muted: AtomicBool,
    muted_at: Mutex<Instant>,
}

impl Pool<'_> {
    /// One worker: serves until it sees the shutdown flag; the last
    /// worker to see it stays on to drain.
    fn worker(&self) -> Result<(), Error> {
        let mut frames = Vec::new();
        let served = self.serve(&mut frames);
        if served.is_err() {
            self.server.state.trigger();
        }
        if self.serving.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.drain(&mut frames);
        }
        served
    }

    /// Takes one readiness report at a time — never a batch, which
    /// would queue a ready connection behind another one's burst — and
    /// handles it, until the shutdown flag is up.
    fn serve(&self, frames: &mut Vec<Frame>) -> Result<(), Error> {
        let mut events = [poll::Event::zeroed(); 1];
        while !self.server.state.shutting_down.load(Ordering::SeqCst) {
            let timeout_ms = self.accept_backoff_left().map_or(-1, millis);
            let n = self.poller.wait(&mut events, timeout_ms)?;
            for &ev in events.iter().take(n) {
                match ev.token() {
                    TOKEN_LISTENER => self.accept_ready(),
                    // The wake carries no data: the flag check above
                    // observes the shutdown.
                    TOKEN_WAKER => {}
                    token => self.serve_conn(token, ev.readiness(), frames),
                }
            }
        }
        Ok(())
    }

    /// The last worker's drain: every other worker has returned, so the
    /// never-read waker and the listener leave the set; what remains
    /// are connections flushing their last responses, bounded by
    /// [`SHUTDOWN_DRAIN`] — [`Server::run`] closes whatever peers never
    /// read.
    fn drain(&self, frames: &mut Vec<Frame>) {
        let state = &self.server.state;
        let _ = self.poller.remove(state.waker.fd());
        let _ = self.poller.remove(self.server.listener.as_raw_fd());
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        let mut events = [poll::Event::zeroed(); 1];
        while !state.slots().is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let Ok(n) = self.poller.wait(&mut events, millis(left)) else {
                break;
            };
            for &ev in events.iter().take(n) {
                self.serve_conn(ev.token(), ev.readiness(), frames);
            }
        }
    }

    /// Accepts every pending connection and registers each armed for
    /// reads, then re-arms the listener — unless the process ran out of
    /// descriptors: the pending connection keeps the listener readable,
    /// so re-arming would spin every worker. It stays muted until a
    /// connection closes or [`ACCEPT_BACKOFF`] passes.
    fn accept_ready(&self) {
        let state = &self.server.state;
        loop {
            match self.server.listener.accept() {
                Ok((stream, _)) => {
                    if state.shutting_down.load(Ordering::SeqCst) {
                        continue; // drop it; we are no longer serving
                    }
                    let Ok(conn) = Conn::new(stream) else {
                        continue;
                    };
                    let fd = conn.raw_fd();
                    let token = self.next_token.fetch_add(1, Ordering::Relaxed);
                    if state.register(token, conn).is_err() {
                        // Refused: no descriptor left for its clone.
                        self.mute_accept();
                        return;
                    }
                    let armed = self.poller.add(fd, token, poll::IN | poll::ONESHOT);
                    if armed.is_err() {
                        state.deregister(token);
                    }
                }
                Err(e) => match e.kind() {
                    ErrorKind::WouldBlock => break,
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted => {}
                    // EMFILE, ENFILE, ENOBUFS & co.
                    _ => {
                        self.mute_accept();
                        return;
                    }
                },
            }
        }
        self.arm_listener();
    }

    fn arm_listener(&self) {
        let _ = self.poller.modify(
            self.server.listener.as_raw_fd(),
            TOKEN_LISTENER,
            poll::IN | poll::ONESHOT,
        );
    }

    fn muted_at(&self) -> MutexGuard<'_, Instant> {
        self.muted_at.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn mute_accept(&self) {
        *self.muted_at() = Instant::now();
        self.muted.store(true, Ordering::SeqCst);
    }

    /// Re-arms a muted listener (once, whoever gets here first).
    fn unmute_accept(&self) {
        if self.muted.swap(false, Ordering::SeqCst) {
            self.arm_listener();
        }
    }

    /// What is left of the accept back-off, if the listener is muted;
    /// re-arms it once the back-off has passed.
    fn accept_backoff_left(&self) -> Option<Duration> {
        if !self.muted.load(Ordering::SeqCst) {
            return None;
        }
        let left = ACCEPT_BACKOFF.saturating_sub(self.muted_at().elapsed());
        if left.is_zero() {
            self.unmute_accept();
            return None;
        }
        Some(left)
    }

    /// Handles one readiness report for connection `token`, whose
    /// one-shot registration it disarmed: flush, run the whole burst,
    /// then re-arm the connection or drop it.
    fn serve_conn(&self, token: u64, ready: u32, frames: &mut Vec<Frame>) {
        let state = &self.server.state;
        let Some(mut conn) = state.take(token) else {
            return;
        };
        if ready & poll::ERR != 0 {
            conn.mark_fatal();
        }
        if ready & poll::OUT != 0 {
            conn.flush();
        }
        if state.shutting_down.load(Ordering::SeqCst) {
            // Draining: nothing new executes; queued responses flush.
            conn.half_close_read();
        } else if ready & (poll::IN | poll::HUP | poll::RDHUP) != 0 {
            self.run_burst(&mut conn, frames);
        }
        if conn.finished() {
            // Closing both descriptors drops the socket from the set.
            state.deregister(token);
            drop(conn);
            self.unmute_accept(); // a descriptor came free
            return;
        }
        let fd = conn.raw_fd();
        let want = conn.desired_interest() | poll::ONESHOT;
        state.put_back(token, conn);
        // Only now — with the burst's responses queued — may another
        // report for this connection reach a worker.
        if self.poller.modify(fd, token, want).is_err() {
            state.deregister(token);
        }
    }

    /// Reads and frames whatever `conn` has, executes the frames in
    /// order and queues their responses (frame order == response
    /// order), then flushes them in one write.
    fn run_burst(&self, conn: &mut Conn, frames: &mut Vec<Frame>) {
        let (opened, writable) = (&*self.server.opened, self.server.writable);
        frames.clear();
        conn.pump(frames);
        for frame in frames.drain(..) {
            let reply = match frame {
                Frame::Line(line) if writable => wire::handle_line_writable(opened, &line),
                Frame::Line(line) => wire::handle_line(opened, &line),
                Frame::Oversized => wire::oversized_reply(),
            };
            conn.queue_line(&reply.line);
            if reply.shutdown {
                // The ack is the last response this connection gets;
                // any frames pipelined behind it are dropped.
                conn.half_close_read();
                self.server.state.trigger();
                break;
            }
        }
        conn.flush();
    }
}

/// A wait timeout in whole milliseconds, rounded up so a short
/// remainder never becomes a zero-timeout spin.
fn millis(d: Duration) -> i32 {
    d.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
}

// ---------------------------------------------------------------------
// Replication: the follower loop behind `utcq serve --follow`.

/// How long a caught-up follower waits before asking the leader for
/// news again.
pub const FOLLOW_POLL: std::time::Duration = std::time::Duration::from_millis(200);

/// First reconnect delay after the leader drops; doubles per attempt.
pub const FOLLOW_BACKOFF_BASE: std::time::Duration = std::time::Duration::from_millis(100);

/// Ceiling on the reconnect delay.
pub const FOLLOW_BACKOFF_CAP: std::time::Duration = std::time::Duration::from_secs(5);

/// A tiny xorshift generator for backoff jitter — enough randomness to
/// de-synchronize a fleet of reconnecting followers without pulling in
/// an RNG dependency.
struct Jitter(u64);

impl Jitter {
    fn seeded() -> Jitter {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        Jitter((nanos << 17) ^ u64::from(std::process::id()) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Sleeps in short slices so a raised `stop` flag is honored promptly.
fn sleep_unless_stopped(total: std::time::Duration, stop: &AtomicBool) {
    let slice = std::time::Duration::from_millis(20);
    let mut left = total;
    while !stop.load(Ordering::SeqCst) && !left.is_zero() {
        let step = left.min(slice);
        std::thread::sleep(step);
        left -= step;
    }
}

/// Streams accepted batches from a leader into this container — the
/// loop behind `utcq serve --follow <addr>`.
///
/// Connects to `leader`, repeatedly asks for batches after the epoch
/// this container is at (`{"op":"tail","from":<epoch>}`), and applies
/// each through the normal ingest path — the same compress-and-publish
/// code the leader ran, which is what makes leader and follower answers
/// byte-identical. On a disconnect it retries with capped exponential
/// backoff plus jitter and resumes from its own epoch, so no batch is
/// applied twice and none is skipped.
///
/// Returns `Ok(())` when `stop` is raised. Returns an error only when
/// following cannot meaningfully continue:
///
/// * the leader answers `tail_gap` — this follower is too far behind
///   the leader's bounded feed and must re-sync from a fresh container
///   copy;
/// * the leader answers `no_wal` — it was started without `--wal`;
/// * an applied batch publishes under a different epoch than the leader
///   recorded (the stores have diverged).
pub fn follow(opened: &Opened, leader: &str, stop: &AtomicBool) -> Result<(), Error> {
    let mut jitter = Jitter::seeded();
    let mut attempt: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        let stream = match TcpStream::connect(leader) {
            Ok(s) => s,
            Err(_) => {
                sleep_unless_stopped(backoff(attempt, &mut jitter), stop);
                attempt = attempt.saturating_add(1);
                continue;
            }
        };
        // A read timeout keeps a hung leader from pinning the loop; a
        // timed-out read is treated like a disconnect.
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        attempt = 0;
        while !stop.load(Ordering::SeqCst) {
            let from = opened.epoch();
            let request = format!("{{\"op\":\"tail\",\"from\":{from}}}\n");
            if writer
                .write_all(request.as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                break; // reconnect
            }
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // EOF, timeout or torn connection
                Ok(_) => {}
            }
            let (batches, _current) = match wire::parse_tail_reply(line.trim_end()) {
                Ok(r) => r,
                Err(msg) => {
                    if msg.starts_with("tail_gap") || msg.starts_with("no_wal") {
                        return Err(Error::Io(std::io::Error::other(format!(
                            "cannot follow {leader}: {msg}"
                        ))));
                    }
                    break; // malformed reply: resync over a fresh connection
                }
            };
            if batches.is_empty() {
                sleep_unless_stopped(FOLLOW_POLL, stop);
                continue;
            }
            for (leader_epoch, batch) in &batches {
                let report = opened.ingest(batch)?;
                if report.epoch != *leader_epoch {
                    return Err(Error::Io(std::io::Error::other(format!(
                        "follower diverged from {leader}: batch recorded at leader epoch \
                         {leader_epoch} published locally as epoch {}; re-sync from a fresh \
                         container copy",
                        report.epoch
                    ))));
                }
            }
        }
    }
    Ok(())
}

/// Delay before reconnect attempt `attempt`: `base · 2^attempt` capped,
/// plus up to half of itself in jitter.
fn backoff(attempt: u32, jitter: &mut Jitter) -> std::time::Duration {
    let base = FOLLOW_BACKOFF_BASE.saturating_mul(1u32 << attempt.min(8));
    let capped = base.min(FOLLOW_BACKOFF_CAP);
    let extra = jitter.next() % (capped.as_millis() as u64 / 2).max(1);
    capped + std::time::Duration::from_millis(extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CompressParams;
    use crate::stiu::StiuParams;
    use crate::store::Store;
    use std::io::Read;
    use utcq_traj::{paper_fixture, Dataset};

    fn paper_opened() -> Arc<Opened> {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu.clone()],
        };
        let store = Store::build(
            Arc::new(fx.example.net.clone()),
            &ds,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
            StiuParams {
                partition_s: 900,
                grid_n: 4,
            },
        )
        .unwrap();
        Arc::new(Opened::Single(Box::new(store)))
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> String {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn serves_and_shuts_down_over_tcp() {
        let server = Server::bind(paper_opened(), "127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().unwrap());

        assert_eq!(
            roundtrip(addr, r#"{"id":1,"op":"ping"}"#),
            r#"{"id":1,"ok":true,"op":"ping"}"#
        );
        let t = paper_fixture::hms(5, 21, 25);
        let resp = roundtrip(addr, &format!(r#"{{"op":"where","traj":1,"t":{t}}}"#));
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        assert!(resp.contains(r#""items":[{"instance":0"#), "{resp}");

        assert_eq!(
            roundtrip(addr, r#"{"op":"shutdown"}"#),
            r#"{"ok":true,"op":"shutdown"}"#
        );
        runner.join().unwrap();
        // The listener is gone: a fresh connection cannot complete a
        // round-trip anymore.
        let dead = TcpStream::connect(addr).and_then(|s| {
            s.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line)?;
            Ok(line)
        });
        match dead {
            Err(_) => {}
            Ok(line) => assert!(line.is_empty(), "unexpected response: {line:?}"),
        }
    }

    #[test]
    fn handle_shuts_down_without_a_client() {
        let server = Server::bind(paper_opened(), "127.0.0.1:0", 1).unwrap();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().unwrap());
        handle.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn pipelined_burst_answers_in_request_order() {
        let server = Server::bind(paper_opened(), "127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().unwrap());

        // Send a whole burst without reading a single response.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let n = 32;
        for i in 0..n {
            writer
                .write_all(format!("{{\"id\":{i},\"op\":\"ping\"}}\n").as_bytes())
                .unwrap();
        }
        writer.flush().unwrap();
        for i in 0..n {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(
                line.trim_end(),
                format!("{{\"id\":{i},\"ok\":true,\"op\":\"ping\"}}"),
                "response {i} out of order"
            );
        }

        handle.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn idle_connections_survive_while_others_work() {
        let server = Server::bind(paper_opened(), "127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().unwrap());

        // Far more idle connections than worker threads — under the
        // blocking design these would exhaust the pool.
        let idle: Vec<TcpStream> = (0..16).map(|_| TcpStream::connect(addr).unwrap()).collect();
        assert_eq!(
            roundtrip(addr, r#"{"id":1,"op":"ping"}"#),
            r#"{"id":1,"ok":true,"op":"ping"}"#
        );
        // Idle sockets are still alive: they answer after the worker.
        for (i, s) in idle.iter().enumerate() {
            let mut reader = BufReader::new(s.try_clone().unwrap());
            (s).set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            let mut w = s;
            w.write_all(format!("{{\"id\":{i},\"op\":\"ping\"}}\n").as_bytes())
                .unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(
                line.trim_end(),
                format!("{{\"id\":{i},\"ok\":true,\"op\":\"ping\"}}")
            );
        }

        handle.shutdown();
        runner.join().unwrap();
        // Idle connections see EOF after shutdown.
        for s in &idle {
            let mut buf = [0u8; 1];
            s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            let mut r = s;
            assert_eq!(r.read(&mut buf).unwrap_or(0), 0);
        }
    }

    #[test]
    fn follower_streams_batches_and_stays_byte_identical() {
        // Leader: paper store with a WAL attached (the tail op needs
        // the in-memory feed).
        let leader = paper_opened();
        let dir = std::env::temp_dir().join(format!("utcq-follow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("leader.wal");
        let _ = std::fs::remove_file(&wal_path);
        leader
            .attach_wal(crate::wal::WalConfig::new(wal_path))
            .unwrap();
        let server = Server::bind(Arc::clone(&leader), "127.0.0.1:0", 2)
            .unwrap()
            .writable(true);
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().unwrap());

        // Follower: an identical store, tailing the leader.
        let follower = paper_opened();
        let stop = Arc::new(AtomicBool::new(false));
        let f_opened = Arc::clone(&follower);
        let f_stop = Arc::clone(&stop);
        let leader_addr = addr.to_string();
        let tail = std::thread::spawn(move || follow(&f_opened, &leader_addr, &f_stop).unwrap());

        // Publish a batch on the leader over the wire.
        let fx = paper_fixture::build();
        let mut tu = fx.tu.clone();
        tu.id = 9;
        for t in &mut tu.times {
            *t += 100_000;
        }
        let batch = Dataset {
            name: String::new(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![tu.clone()],
        };
        leader.ingest(&batch).unwrap();

        // The follower catches up within the poll cadence.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while follower.epoch() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(follower.epoch(), 1, "follower never caught up");

        stop.store(true, Ordering::SeqCst);
        tail.join().unwrap();
        handle.shutdown();
        runner.join().unwrap();

        // Leader and follower answer the same query byte-identically.
        let t = tu.times[0];
        let req = format!(r#"{{"op":"where","traj":9,"t":{t},"alpha":0}}"#);
        let a = wire::handle_line(&leader, &req).line;
        let b = wire::handle_line(&follower, &req).line;
        assert!(a.contains(r#""ok":true"#), "{a}");
        assert_eq!(a, b, "leader and follower answers must be byte-identical");
    }
}
