//! The load generator: one thread multiplexing at most two nonblocking
//! connections to `utcq serve`.
//!
//! Reads follow an open-loop schedule — each request is written when it
//! falls due, whether or not earlier ones were answered, and its latency
//! is timed from the due time, so a stall that delays later sends is
//! charged to them. An optional closed-loop ingest loader shares the
//! thread: it writes the next batch on its connection as soon as the
//! previous one is acknowledged.
//!
//! The thread sleeps in `ppoll(2)` until [`SPIN_NS`] before the next due
//! time and spins the rest of the way. After each send or receive it
//! also spins on nonblocking reads for up to [`SPIN_AWAIT_NS`] while a
//! read is awaited, so a fast answer is not charged the generator's own
//! wake-up latency, and a slow one (or an ingest ack, which takes
//! milliseconds) does not cost the server a core. Send lateness and
//! receive delay thus stay far below the latencies it measures. A
//! refused, reset or closed connection fails every request on it, and a
//! request still unanswered when the drain timeout expires fails too —
//! none is dropped from the counts.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// How long before a due time the generator stops sleeping and spins.
pub const SPIN_NS: u64 = 60_000;
/// How long after its last send or receive the generator keeps spinning
/// for an awaited read before it sleeps until one arrives.
pub const SPIN_AWAIT_NS: u64 = 250_000;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Asks the kernel for 1 ns timer slack on this thread, so `ppoll`
/// timeouts expire when asked instead of up to 50 µs late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Waits until one of `streams` is ready (readable, or writable where
/// `want_write` is set) or `timeout` passes.
fn wait_ready(streams: &[(&TcpStream, bool)], timeout: Duration) {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|(s, w)| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN | if *w { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of
    // `fds.len()` pollfd structs laid out as the kernel expects
    // (`repr(C)` int/short/short); `ts` outlives the call; a null
    // sigmask leaves the signal mask unchanged. EINTR and other errors
    // are harmless here: the caller re-checks its sockets and clock.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// What a response line on a connection belongs to.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Read(usize),
    Ack(usize),
}

/// One client connection with its write backlog, partial input, and
/// the requests awaiting responses in send order.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    scan_from: usize,
    inflight: VecDeque<Slot>,
    dead: bool,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and switches to nonblocking mode.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(1 << 16),
            out_pos: 0,
            inbuf: Vec::with_capacity(1 << 16),
            scan_from: 0,
            inflight: VecDeque::new(),
            dead: false,
        })
    }

    /// Whether the connection was refused, reset or closed.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn queue(&mut self, line: &str, slot: Slot) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.inflight.push_back(slot);
    }

    fn flush(&mut self) {
        while !self.dead && self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => self.dead = true,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Reads what is available; returns complete response lines paired
    /// with the slot they answer.
    fn poll_lines(&mut self, scratch: &mut [u8], done: &mut Vec<(Slot, String)>) {
        while !self.dead {
            match self.stream.read(scratch) {
                Ok(0) => self.dead = true,
                Ok(n) => self.inbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        let mut start = 0;
        while let Some(off) = self.inbuf[self.scan_from..]
            .iter()
            .position(|&b| b == b'\n')
        {
            let end = self.scan_from + off;
            let line = String::from_utf8_lossy(&self.inbuf[start..end]).into_owned();
            // An unsolicited line has no slot; it can only mean a broken
            // stream, which the answer check then reports.
            match self.inflight.pop_front() {
                Some(slot) => done.push((slot, line)),
                None => self.dead = true,
            }
            start = end + 1;
            self.scan_from = start;
        }
        self.scan_from = self.inbuf.len() - start;
        self.inbuf.drain(..start);
    }
}

/// Whether the loader has a batch to send, time left to send it, and a
/// live connection to send it on.
fn loader_can_send(l: &Loader<'_>, conns: &[Conn], now: u64, send_until: u64) -> bool {
    now < send_until && l.next < l.limit && !conns[l.conn].is_dead()
}

/// An open-loop schedule of reads at a fixed rate, alternating over
/// connections, the first one interval after the phase start.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Reads in the schedule.
    pub n: usize,
    /// Offered rate (requests/s).
    pub qps: f64,
    /// Connections the reads alternate over.
    pub conns: Vec<usize>,
}

impl Schedule {
    /// `qps` reads per second for `duration` over `conns`.
    pub fn fixed_rate(qps: f64, duration: Duration, conns: &[usize]) -> Schedule {
        Schedule {
            n: (duration.as_secs_f64() * qps).floor() as usize,
            qps,
            conns: conns.to_vec(),
        }
    }

    /// Due time of read `i`, ns after the phase start.
    pub fn due_ns(&self, i: usize) -> u64 {
        ((i + 1) as f64 * 1e9 / self.qps) as u64
    }

    /// Connection of read `i`.
    pub fn conn(&self, i: usize) -> usize {
        self.conns[i % self.conns.len()]
    }
}

/// A served read as the generator saw it.
#[derive(Debug, Clone)]
pub struct ReadRecord {
    /// Index into the phase's read schedule.
    pub idx: usize,
    /// The request line as sent.
    pub line: Arc<str>,
    /// Due time, ns after the phase start.
    pub due_ns: u64,
    /// When the line was queued for writing, ns after the phase start.
    pub sent_ns: u64,
    /// When the response line was read, if it was.
    pub recv_ns: Option<u64>,
    /// The response line, if one arrived.
    pub response: Option<String>,
    /// Ingest acks received before this read was sent.
    pub acks_at_send: usize,
    /// Ingest acks received, plus any batch still in flight, when the
    /// response arrived: the server answered from an epoch in
    /// `acks_at_send..=acks_at_recv`.
    pub acks_at_recv: usize,
}

impl ReadRecord {
    /// Latency from the due time, in µs.
    pub fn latency_us(&self) -> Option<f64> {
        self.recv_ns
            .map(|r| r.saturating_sub(self.due_ns) as f64 / 1e3)
    }
}

/// A served ingest batch as the loader saw it.
#[derive(Debug, Clone)]
pub struct AckRecord {
    /// Batch index into the workload's batch list.
    pub batch: usize,
    /// Sent at, ns after the phase start.
    pub sent_ns: u64,
    /// Acknowledged at, if it was.
    pub recv_ns: Option<u64>,
    /// The ack line, if one arrived.
    pub response: Option<String>,
}

/// The closed-loop ingest loader, carried across phases.
pub struct Loader<'a> {
    /// Connection the loader owns.
    pub conn: usize,
    /// The `ingest` line of batch `k`.
    pub line_for: &'a dyn Fn(usize) -> String,
    /// Next batch to send.
    pub next: usize,
    /// Batches from this index on are never sent.
    pub limit: usize,
    /// Batches acknowledged so far (across phases).
    pub acked: usize,
    /// Called with the new `acked` count after each acknowledgement.
    pub on_ack: &'a dyn Fn(usize),
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reads, in schedule order.
    pub reads: Vec<ReadRecord>,
    /// Ingest batches, in send order.
    pub acks: Vec<AckRecord>,
    /// Reads outstanding at each requested probe time.
    pub backlog: Vec<usize>,
    /// Phase wall time, from start to the last response (or timeout).
    pub wall: Duration,
}

impl Outcome {
    /// Reads without a response.
    pub fn failed_reads(&self) -> usize {
        self.reads.iter().filter(|r| r.response.is_none()).count()
    }
}

/// Runs one phase: sends `plan`'s reads at their due times (`line_for`
/// builds the line for read `i` given the ack count at send time) and,
/// with a loader, keeps one ingest batch in flight until `send_for`
/// has passed. Once a read is `give_up` late — still unanswered, or not
/// yet sent — the phase sends no more reads (an overloaded ladder rung
/// has failed by then; its unsent reads are not recorded). Returns
/// when every request is answered or `drain` after the last send has
/// passed. With a tracer, each answered read is recorded as a
/// `serve.read` span from its due time to its answer.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    conns: &mut [Conn],
    plan: &Schedule,
    line_for: &mut dyn FnMut(usize, usize) -> Arc<str>,
    mut loader: Option<&mut Loader<'_>>,
    send_for: Duration,
    probes_ns: &[u64],
    give_up: Duration,
    drain: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let start = Instant::now();
    let span_base = tracer.as_ref().map_or(0, |t| t.now_ns());
    let mut n_reads = plan.n;
    let ns = |at: Instant| at.duration_since(start).as_nanos() as u64;
    let send_until = send_for.as_nanos() as u64;
    let give_up = give_up.as_nanos() as u64;
    let mut out = Outcome {
        reads: Vec::with_capacity(plan.n),
        ..Outcome::default()
    };
    let mut scratch = vec![0u8; 1 << 16];
    let mut done: Vec<(Slot, String)> = Vec::new();
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut ingest_inflight = false;
    let mut next_probe = 0usize;
    let mut deadline: Option<u64> = None;
    let mut last_event = 0u64;
    loop {
        let now = ns(Instant::now());
        let oldest_due = conns
            .iter()
            .filter_map(|c| {
                c.inflight.iter().find_map(|s| match s {
                    Slot::Read(i) => Some(out.reads[*i].due_ns),
                    Slot::Ack(_) => None,
                })
            })
            .chain((next < n_reads).then(|| plan.due_ns(next)))
            .min();
        if oldest_due.is_some_and(|d| now > d.saturating_add(give_up)) {
            n_reads = next;
        }
        // Sends that are due.
        while next < n_reads && plan.due_ns(next) <= now {
            let acks = loader.as_ref().map_or(0, |l| l.acked);
            let line = line_for(next, acks);
            let c = &mut conns[plan.conn(next)];
            if !c.is_dead() {
                c.queue(&line, Slot::Read(out.reads.len()));
                outstanding += 1;
            }
            out.reads.push(ReadRecord {
                idx: next,
                line,
                due_ns: plan.due_ns(next),
                sent_ns: now,
                recv_ns: None,
                response: None,
                acks_at_send: acks,
                acks_at_recv: acks,
            });
            next += 1;
            last_event = now;
        }
        if let Some(l) = loader.as_deref_mut() {
            if !ingest_inflight && loader_can_send(l, conns, now, send_until) {
                conns[l.conn].queue(&(l.line_for)(l.next), Slot::Ack(out.acks.len()));
                ingest_inflight = true;
                out.acks.push(AckRecord {
                    batch: l.next,
                    sent_ns: now,
                    recv_ns: None,
                    response: None,
                });
                l.next += 1;
                last_event = now;
            }
        }
        for c in conns.iter_mut() {
            c.flush();
        }
        // Responses.
        for c in conns.iter_mut() {
            c.poll_lines(&mut scratch, &mut done);
        }
        if !done.is_empty() {
            let at = ns(Instant::now());
            last_event = at;
            for (slot, line) in done.drain(..) {
                match slot {
                    Slot::Read(i) => {
                        let acked = loader.as_ref().map_or(0, |l| l.acked);
                        let r = &mut out.reads[i];
                        r.recv_ns = Some(at);
                        r.response = Some(line);
                        r.acks_at_recv = acked + usize::from(ingest_inflight);
                        outstanding -= 1;
                        if let Some(t) = tracer.as_deref_mut() {
                            t.record(
                                r.idx as u64,
                                "serve.read",
                                None,
                                span_base + r.due_ns,
                                span_base + at,
                            );
                        }
                    }
                    Slot::Ack(i) => {
                        let a = &mut out.acks[i];
                        a.recv_ns = Some(at);
                        a.response = Some(line);
                        ingest_inflight = false;
                        if let Some(l) = loader.as_deref_mut() {
                            l.acked += 1;
                            (l.on_ack)(l.acked);
                        }
                    }
                }
            }
        }
        // A dead connection answers nothing more.
        for c in conns.iter_mut() {
            if c.is_dead() {
                while let Some(slot) = c.inflight.pop_front() {
                    match slot {
                        Slot::Read(_) => outstanding -= 1,
                        Slot::Ack(_) => ingest_inflight = false,
                    }
                }
            }
        }
        let now = ns(Instant::now());
        while next_probe < probes_ns.len() && probes_ns[next_probe] <= now {
            out.backlog.push(outstanding);
            next_probe += 1;
        }
        let loader_ready = loader
            .as_ref()
            .is_some_and(|l| !ingest_inflight && loader_can_send(l, conns, now, send_until));
        let loader_busy = ingest_inflight || loader_ready;
        let sends_left = next < n_reads || next_probe < probes_ns.len();
        if !sends_left && !loader_busy && outstanding == 0 {
            break;
        }
        if !sends_left {
            let d = *deadline.get_or_insert(now.max(send_until) + drain.as_nanos() as u64);
            if now >= d {
                break;
            }
        }
        // Sleep until the next event, spinning the last stretch.
        let mut wake = deadline.unwrap_or(u64::MAX);
        if next < n_reads {
            wake = wake.min(plan.due_ns(next));
        }
        if next_probe < probes_ns.len() {
            wake = wake.min(probes_ns[next_probe]);
        }
        if loader_ready {
            wake = now;
        }
        let budget = wake.saturating_sub(now);
        // Right after a send or receive, an awaited read is likely to be
        // answered soon: keep spinning so its arrival is seen at once.
        let awaiting = outstanding > 0 && now - last_event.min(now) < SPIN_AWAIT_NS;
        if budget > SPIN_NS && !awaiting {
            let streams: Vec<(&TcpStream, bool)> = conns
                .iter()
                .filter(|c| !c.is_dead())
                .map(|c| (&c.stream, c.out_pos < c.out.len()))
                .collect();
            if !streams.is_empty() {
                wait_ready(&streams, Duration::from_nanos(budget - SPIN_NS));
            }
        } else {
            std::hint::spin_loop();
        }
    }
    out.wall = start.elapsed();
    out
}

/// A blocking depth-1 client: one request in flight, the next written
/// only after the previous response was read.
#[derive(Debug)]
pub struct Depth1 {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Depth1 {
    /// Connects with `TCP_NODELAY` and a read timeout.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Depth1> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Depth1 {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Writes `line` and reads its response line, timing the exchange.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<(String, Duration)> {
        let mut msg = Vec::with_capacity(line.len() + 1);
        msg.extend_from_slice(line.as_bytes());
        msg.push(b'\n');
        let t0 = Instant::now();
        self.stream.write_all(&msg)?;
        let mut chunk = [0u8; 1 << 14];
        let mut scanned = 0;
        loop {
            if let Some(pos) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                let end = scanned + pos;
                let dt = t0.elapsed();
                let text = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..=end);
                return Ok((text, dt));
            }
            scanned = self.buf.len();
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
