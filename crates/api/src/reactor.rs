//! The readiness-driven connection reactor.
//!
//! Every accepted socket is nonblocking and owned by exactly one of a
//! small, fixed set of *reactor* threads, each running a poll-style
//! event loop over its connections. A connection is an explicit state
//! machine —
//!
//! ```text
//! Idle ──bytes──▶ ReadingRequest ──complete──▶ Handling ──response──▶
//! WritingResponse ──drained──▶ Idle   (or Closing at any edge)
//! ```
//!
//! — so 10k idle keep-alive sessions cost zero threads: they are slab
//! slots plus one registered deadline in the idle-timeout wheel, not
//! parked OS threads. Request *handling* still fans out to a bounded
//! compute pool (handlers run campaigns and build analysis frames; that
//! work should use cores, and a bounded queue gives back-pressure: when
//! it is full the reactor answers 503 immediately — the connection
//! survives, the work is shed).
//!
//! ## Readiness without `epoll`
//!
//! The workspace forbids `unsafe` (and adds no dependencies), so there
//! is no raw `epoll`/`kqueue` here. Readiness is *emulated*: all
//! sockets are nonblocking, and each reactor sweeps its connections
//! with nonblocking reads/writes — `WouldBlock` simply means "not
//! ready". After a sweep that made no progress the reactor parks on a
//! condvar. Compute completions and new-connection hand-offs unpark it,
//! but bytes arriving on a socket cannot, so a request that lands while
//! the reactor is parked waits out the rest of the park. The park is
//! therefore proportional: an eighth of the time since the last sweep
//! that made progress, within [`PARK_FLOOR`] (50 µs) and [`PARK`]
//! (1 ms). A reactor serving traffic notices a request within tens of
//! µs; one quiet for 8 ms or more wakes once per ms, which is what an
//! idle server costs. To keep huge idle fleets cheap, connections idle
//! for more than [`COLD_AFTER`] graduate to a *cold tier* swept at most
//! once per [`COLD_SWEEP_EVERY`] (16 ms), on a clock rather than per
//! iteration, so a fast-spinning reactor under load does not multiply
//! cold-tier reads: a 10k-idle-session soak costs a few hundred — not
//! ten thousand — read syscalls per sweep.
//!
//! ## Ownership & wake-up paths
//!
//! * The listener is nonblocking and polled by reactor 0, which
//!   round-robins accepted sockets across all reactors through
//!   per-reactor mailboxes. No dedicated acceptor thread.
//! * Compute workers block on one shared job queue; each finished
//!   response is pushed to the owning reactor's completion list and the
//!   reactor is unparked. Slot generations guard against a completion
//!   landing on a recycled slot.
//! * Shutdown sets a flag and unparks everyone: reactors drop their
//!   connections and their job senders, compute workers drain and exit
//!   on the disconnected queue.
//! * With a work queue attached, each iteration reads the queue's
//!   lock-free [`crate::work::WorkQueue::epoch`]. Only when it moved
//!   does the reactor drive the work streams whose workers wait idle,
//!   so they read `Done` or `Abort` within one park instead of at
//!   their next poll. A server without a work queue skips the check.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{HttpError, Request, RequestParser, Response};
use crate::server::{ServerConfig, ServerMetrics, ThreadGuard};
use crate::service::AtlasService;
use crate::transport::{WorkStream, STREAM_PREAMBLE};

/// Longest park after a sweep that made no progress, reached once the
/// reactor has been quiet for 8 × `PARK`. Bounds both the accept
/// latency of a quiet reactor (reactor 0 polls the listener each wake)
/// and the added latency of a request arriving on a connection nobody
/// unparks for; it also sets the wake rate of an idle server.
const PARK: Duration = Duration::from_millis(1);

/// Shortest park: a reactor that made progress a moment ago sweeps
/// again this soon.
const PARK_FLOOR: Duration = Duration::from_micros(50);

/// Least time between cold-tier scans. Idle connections are read this
/// much less often; a request landing on one waits up to this long
/// before it is noticed, however fast the reactor iterates.
const COLD_SWEEP_EVERY: Duration = Duration::from_millis(16);

/// A connection is cold once it has been idle this long.
const COLD_AFTER: Duration = Duration::from_millis(50);

/// Per-iteration accept cap so one flood cannot starve existing
/// connections of sweep time.
const ACCEPT_BATCH: usize = 256;

/// Read scratch size per reactor (shared across its connections).
const READ_CHUNK: usize = 16 * 1024;

/// How long a reactor parks after a sweep that made no progress, given
/// the time since its last sweep that did: an eighth of that quiet
/// time, clamped to [`PARK_FLOOR`, `PARK`].
fn park_for(quiet: Duration) -> Duration {
    (quiet / 8).clamp(PARK_FLOOR, PARK)
}

/// Whether the sweep at `now` also reads the cold tier, which was last
/// read at `last_cold_sweep`.
fn cold_sweep_due(now: Instant, last_cold_sweep: Instant) -> bool {
    now.duration_since(last_cold_sweep) >= COLD_SWEEP_EVERY
}

/// Condvar-based parker: reactors park between idle sweeps, compute
/// workers and the acceptor unpark them on new work.
pub(crate) struct Parker {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Self {
        Self {
            ready: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn park_timeout(&self, d: Duration) {
        let mut ready = self.ready.lock().unwrap_or_else(|e| e.into_inner());
        if !*ready {
            let (guard, _) = self
                .cv
                .wait_timeout(ready, d)
                .unwrap_or_else(|e| e.into_inner());
            ready = guard;
        }
        *ready = false;
    }

    pub(crate) fn unpark(&self) {
        *self.ready.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_one();
    }
}

/// A handler's finished work, routed back to the owning reactor.
struct Completion {
    slot: usize,
    gen: u64,
    /// The serialised response (head + body), ready to write.
    bytes: Vec<u8>,
    keep_alive: bool,
    /// The handler panicked (the response is a canned 500); the
    /// connection closes after the write regardless of keep-alive.
    panicked: bool,
}

/// A request dispatched to the compute pool.
struct Job {
    reactor: usize,
    slot: usize,
    gen: u64,
    req: Request,
    keep_alive: bool,
}

/// Per-reactor mailbox: how the outside world reaches a reactor thread.
pub(crate) struct Mailbox {
    pub(crate) parker: Parker,
    completions: Mutex<Vec<Completion>>,
    inbox: Mutex<VecDeque<TcpStream>>,
}

impl Mailbox {
    fn new() -> Self {
        Self {
            parker: Parker::new(),
            completions: Mutex::new(Vec::new()),
            inbox: Mutex::new(VecDeque::new()),
        }
    }
}

/// State shared by all reactor + compute threads of one server.
pub(crate) struct Shared {
    pub(crate) service: Arc<AtlasService>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) stop: AtomicBool,
    pub(crate) mailboxes: Vec<Mailbox>,
    idle_timeout: Duration,
    write_timeout: Duration,
    max_connections: usize,
}

impl Shared {
    /// Wakes every reactor (shutdown, or broadcast events).
    pub(crate) fn unpark_all(&self) {
        for mb in &self.mailboxes {
            mb.parker.unpark();
        }
    }
}

/// Spawns the reactor threads + compute pool for `listener`. Returns
/// the shared handle and every thread to join at shutdown.
pub(crate) fn spawn(
    listener: TcpListener,
    service: Arc<AtlasService>,
    metrics: Arc<ServerMetrics>,
    config: &ServerConfig,
) -> std::io::Result<(Arc<Shared>, Vec<std::thread::JoinHandle<()>>)> {
    listener.set_nonblocking(true)?;
    let reactors = config.reactor_threads.max(1);
    let shared = Arc::new(Shared {
        service,
        metrics,
        stop: AtomicBool::new(false),
        mailboxes: (0..reactors).map(|_| Mailbox::new()).collect(),
        idle_timeout: config.idle_timeout,
        write_timeout: config.write_timeout,
        max_connections: config.max_connections.max(8),
    });

    let (job_tx, job_rx) = sync_channel::<Job>(config.queue_depth.max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));

    let mut threads = Vec::with_capacity(reactors + config.compute_threads);
    for i in 0..config.compute_threads.max(1) {
        let rx = Arc::clone(&job_rx);
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("shears-api-compute-{i}"))
                .spawn(move || compute_loop(&rx, &shared))?,
        );
    }
    for r in 0..reactors {
        let shared = Arc::clone(&shared);
        let tx = job_tx.clone();
        let listener = if r == 0 {
            Some(listener.try_clone()?)
        } else {
            None
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("shears-api-reactor-{r}"))
                .spawn(move || Reactor::new(r, shared, tx, listener).run())?,
        );
    }
    // The reactor threads hold the only senders now: when they exit,
    // the queue disconnects and the compute pool drains out.
    drop(job_tx);
    Ok((shared, threads))
}

/// The compute pool: blocking workers executing handlers outside the
/// event loop, isolated from panics.
fn compute_loop(rx: &Mutex<Receiver<Job>>, shared: &Shared) {
    let _guard = ThreadGuard::enter(&shared.metrics);
    loop {
        // Hold the receiver lock only for the dequeue.
        let job = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
            Ok(job) => job,
            Err(_) => return, // all reactors gone
        };
        let service = Arc::clone(&shared.service);
        let req = job.req;
        let handled =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.handle(&req)));
        let (resp, panicked) = match handled {
            Ok(resp) => (resp, false),
            Err(_) => {
                shared.metrics.note_handler_panic();
                (Response::error(500, "internal server error"), true)
            }
        };
        let keep_alive = job.keep_alive && !panicked;
        let mut buf = Vec::with_capacity(256 + resp.body.len());
        resp.write_into(&mut buf, keep_alive);
        let mb = &shared.mailboxes[job.reactor];
        mb.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion {
                slot: job.slot,
                gen: job.gen,
                bytes: buf,
                keep_alive,
                panicked,
            });
        mb.parker.unpark();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Connection lifecycle states (the explicit machine the module doc
/// draws). `Handling` means a job for this connection is in the
/// compute pool; the reactor neither reads nor writes it until the
/// completion lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Keep-alive connection with no partial request buffered.
    Idle,
    /// A partial request has arrived; more bytes expected.
    ReadingRequest,
    /// Request dispatched to the compute pool.
    Handling,
    /// Response bytes queued; draining to the socket.
    WritingResponse,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// First-bytes buffer while the connection's dialect is undecided:
    /// a [`STREAM_PREAMBLE`] prefix upgrades it to a raw work stream,
    /// anything else falls through to HTTP parsing. `None` once
    /// resolved.
    sniff: Option<Vec<u8>>,
    /// Present iff this connection upgraded to the binary work plane.
    /// The reactor keeps driving the same state machine (read sweep,
    /// write drain, idle wheel, write deadline); only the byte
    /// discipline changes.
    work: Option<Box<WorkStream>>,
    state: ConnState,
    /// Response bytes being drained and the write cursor into them.
    out: Vec<u8>,
    out_pos: usize,
    /// Guards completions/timers against slab slot reuse.
    gen: u64,
    last_active: Instant,
    /// When the current response *started* draining. Write progress
    /// refreshes `last_active`, so a peer sipping one byte per
    /// interval would never look idle — the write deadline is judged
    /// from this fixed start instead.
    write_started: Option<Instant>,
    close_after_write: bool,
    /// Peer half-closed its write side; serve what is buffered, then
    /// close.
    peer_eof: bool,
    /// Live timer-wheel tokens pointing at this incarnation. Arming
    /// the write deadline adds a second, sooner token; the deadline
    /// check drops surplus pops instead of reinserting them, so the
    /// count stays bounded at the number of genuinely armed deadlines.
    timers: u32,
}

/// The idle-timeout deadline wheel: 32 coarse slots of
/// `idle_timeout / 16` ticks. Entries are `(slot, gen)` tokens checked
/// lazily on expiry — activity never *moves* an entry, it just updates
/// the connection's `last_active`; a popped token whose connection is
/// still fresh is reinserted at its true deadline. O(1) insert,
/// amortised O(1) per expiry.
struct IdleWheel {
    slots: Vec<Vec<(usize, u64)>>,
    tick: Duration,
    cursor: usize,
    last_advance: Instant,
}

impl IdleWheel {
    fn new(timeout: Duration, now: Instant) -> Self {
        let tick = (timeout / 16).max(Duration::from_millis(1));
        Self {
            slots: (0..32).map(|_| Vec::new()).collect(),
            tick,
            cursor: 0,
            last_advance: now,
        }
    }

    fn insert(&mut self, token: (usize, u64), deadline: Instant, now: Instant) {
        let ticks_ahead = if deadline <= now {
            1
        } else {
            let dt = deadline.duration_since(now);
            ((dt.as_nanos() / self.tick.as_nanos().max(1)) as usize + 1).min(self.slots.len() - 1)
        };
        let idx = (self.cursor + ticks_ahead) % self.slots.len();
        self.slots[idx].push(token);
    }

    /// Advances the cursor to `now`, appending every token whose slot
    /// came due to `expired` (the caller re-checks real deadlines).
    fn advance(&mut self, now: Instant, expired: &mut Vec<(usize, u64)>) {
        while self.last_advance + self.tick <= now {
            self.last_advance += self.tick;
            self.cursor = (self.cursor + 1) % self.slots.len();
            expired.append(&mut self.slots[self.cursor]);
        }
    }
}

struct Reactor {
    id: usize,
    shared: Arc<Shared>,
    job_tx: SyncSender<Job>,
    /// Reactor 0 polls the listener; the rest receive hand-offs.
    listener: Option<TcpListener>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    wheel: IdleWheel,
    next_gen: u64,
    /// Round-robin cursor for distributing accepted connections.
    rr: usize,
    /// When a sweep last made progress: the park grows with the time
    /// since.
    last_progress: Instant,
    /// When the cold tier was last read.
    last_cold_sweep: Instant,
    /// The work queue's epoch at the last idle-stream push check.
    work_epoch: u64,
}

impl Reactor {
    fn new(
        id: usize,
        shared: Arc<Shared>,
        job_tx: SyncSender<Job>,
        listener: Option<TcpListener>,
    ) -> Self {
        let now = Instant::now();
        let wheel = IdleWheel::new(shared.idle_timeout, now);
        Self {
            id,
            shared,
            job_tx,
            listener,
            slab: Vec::new(),
            free: Vec::new(),
            wheel,
            next_gen: 0,
            rr: 0,
            last_progress: now,
            last_cold_sweep: now,
            work_epoch: 0,
        }
    }

    fn run(mut self) {
        let shared = Arc::clone(&self.shared);
        let _guard = ThreadGuard::enter(&shared.metrics);
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut expired = Vec::new();
        loop {
            if shared.stop.load(Ordering::SeqCst) {
                self.close_all();
                return;
            }
            let mut progress = false;

            // 1. Apply finished handler work.
            let done: Vec<Completion> = std::mem::take(
                &mut *shared.mailboxes[self.id]
                    .completions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner()),
            );
            for c in done {
                progress |= self.apply_completion(c);
            }

            // 2. Adopt connections handed to this reactor.
            loop {
                let next = shared.mailboxes[self.id]
                    .inbox
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front();
                match next {
                    Some(stream) => {
                        self.register(stream);
                        progress = true;
                    }
                    None => break,
                }
            }

            // 3. Reactor 0: poll the listener.
            if self.listener.is_some() {
                progress |= self.accept_batch();
            }

            // 4. Sweep owned connections.
            let now = Instant::now();
            let cold_sweep = cold_sweep_due(now, self.last_cold_sweep);
            if cold_sweep {
                self.last_cold_sweep = now;
            }
            for slot in 0..self.slab.len() {
                progress |= self.sweep_conn(slot, now, cold_sweep, &mut scratch);
            }

            // 5. Idle-timeout wheel.
            expired.clear();
            self.wheel.advance(now, &mut expired);
            for (slot, gen) in expired.drain(..) {
                self.check_deadline(slot, gen, now);
            }

            // 6. Work plane: when the queue's state moved, drive the
            //    streams whose workers wait idle, so they read `Done`
            //    or `Abort` without polling for it.
            if let Some(queue) = shared.service.work_queue() {
                let epoch = queue.epoch();
                if epoch != self.work_epoch {
                    self.work_epoch = epoch;
                    for slot in 0..self.slab.len() {
                        if self.awaits_push(slot) {
                            self.drive_work(slot, now);
                        }
                    }
                }
            }

            if progress {
                self.last_progress = now;
            } else {
                shared.metrics.note_park();
                let park = park_for(now.duration_since(self.last_progress));
                shared.mailboxes[self.id].parker.park_timeout(park);
            }
        }
    }

    fn accept_batch(&mut self) -> bool {
        let mut progress = false;
        for _ in 0..ACCEPT_BATCH {
            let listener = self.listener.as_ref().expect("only reactor 0 accepts");
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progress = true;
                    self.shared.metrics.note_accept();
                    if self.shared.metrics.connections_open() as usize
                        >= self.shared.max_connections
                    {
                        // Admission control: refuse beyond the fd
                        // budget instead of dying on EMFILE later.
                        let mut s = stream;
                        let _ = Response::error(503, "server overloaded").send(&mut s, false);
                        self.shared.metrics.note_503();
                        continue;
                    }
                    // Round-robin across reactors; own slice directly.
                    let target = self.rr % self.shared.mailboxes.len();
                    self.rr = self.rr.wrapping_add(1);
                    if target == self.id {
                        self.register(stream);
                    } else {
                        self.shared.mailboxes[target]
                            .inbox
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push_back(stream);
                        self.shared.mailboxes[target].parker.unpark();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failure (peer reset mid-
                    // handshake, fd pressure): stop this batch; the
                    // park interval is the backoff.
                    break;
                }
            }
        }
        progress
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.next_gen += 1;
        let now = Instant::now();
        let conn = Conn {
            stream,
            parser: RequestParser::new(),
            sniff: Some(Vec::new()),
            work: None,
            state: ConnState::Idle,
            out: Vec::new(),
            out_pos: 0,
            gen: self.next_gen,
            last_active: now,
            write_started: None,
            close_after_write: false,
            peer_eof: false,
            timers: 1,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s] = Some(conn);
                s
            }
            None => {
                self.slab.push(Some(conn));
                self.slab.len() - 1
            }
        };
        self.wheel
            .insert((slot, self.next_gen), now + self.shared.idle_timeout, now);
        self.shared.metrics.note_conn_opened();
    }

    fn close(&mut self, slot: usize) {
        if let Some(mut conn) = self.slab[slot].take() {
            if let Some(ws) = conn.work.as_mut() {
                if let Some(queue) = self.shared.service.work_queue() {
                    ws.on_close(queue, Instant::now());
                }
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.free.push(slot);
            self.shared.metrics.note_conn_closed();
        }
    }

    fn is_work(&self, slot: usize) -> bool {
        self.slab
            .get(slot)
            .and_then(|c| c.as_ref())
            .is_some_and(|c| c.work.is_some())
    }

    fn awaits_push(&self, slot: usize) -> bool {
        self.slab
            .get(slot)
            .and_then(|c| c.as_ref())
            .and_then(|c| c.work.as_deref())
            .is_some_and(WorkStream::awaits_push)
    }

    fn close_all(&mut self) {
        for slot in 0..self.slab.len() {
            self.close(slot);
        }
    }

    /// One sweep step for one connection; returns whether it made
    /// progress.
    fn sweep_conn(
        &mut self,
        slot: usize,
        now: Instant,
        cold_sweep: bool,
        scratch: &mut [u8],
    ) -> bool {
        let Some(conn) = &mut self.slab[slot] else {
            return false;
        };
        match conn.state {
            ConnState::Handling => false, // waiting on the compute pool
            ConnState::WritingResponse => self.write_step(slot, now),
            ConnState::Idle | ConnState::ReadingRequest => {
                // Cold-tier gating: long-idle connections are swept
                // only on cold sweeps, so huge idle fleets cost a
                // fraction of the read syscalls.
                if conn.state == ConnState::Idle
                    && !cold_sweep
                    && now.duration_since(conn.last_active) > COLD_AFTER
                {
                    return false;
                }
                self.read_step(slot, now, scratch)
            }
        }
    }

    /// Nonblocking read + incremental parse + dispatch.
    fn read_step(&mut self, slot: usize, now: Instant, scratch: &mut [u8]) -> bool {
        let mut progress = false;
        let mut dead = false;
        {
            let Some(conn) = &mut self.slab[slot] else {
                return false;
            };
            loop {
                match conn.stream.read(scratch) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        progress = true;
                        break;
                    }
                    Ok(n) => {
                        Self::route_bytes(conn, &scratch[..n]);
                        conn.last_active = now;
                        conn.state = ConnState::ReadingRequest;
                        progress = true;
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close(slot);
            return true;
        }
        if progress {
            if self.is_work(slot) {
                self.drive_work(slot, now);
            } else {
                self.drive_parser(slot, now);
            }
        }
        progress
    }

    /// Feeds freshly read bytes to the right decoder: the work-stream
    /// framer once upgraded, the HTTP parser once the first bytes rule
    /// the preamble out, or the sniff buffer while still undecided.
    fn route_bytes(conn: &mut Conn, data: &[u8]) {
        if let Some(ws) = conn.work.as_mut() {
            ws.feed(data);
            return;
        }
        let Some(pre) = conn.sniff.as_mut() else {
            conn.parser.feed(data);
            return;
        };
        pre.extend_from_slice(data);
        if pre.len() >= STREAM_PREAMBLE.len() {
            let pre = conn.sniff.take().expect("sniff checked above");
            if pre[..STREAM_PREAMBLE.len()] == STREAM_PREAMBLE {
                let mut ws = Box::new(WorkStream::new());
                ws.feed(&pre[STREAM_PREAMBLE.len()..]);
                conn.work = Some(ws);
            } else {
                conn.parser.feed(&pre);
            }
        } else if !STREAM_PREAMBLE.starts_with(pre.as_slice()) {
            // Too short to be the preamble already: hand to HTTP now
            // rather than withholding a short request from the parser.
            let pre = conn.sniff.take().expect("sniff checked above");
            conn.parser.feed(&pre);
        }
    }

    /// Advances an upgraded work-stream connection: decode whatever is
    /// buffered, drive the work queue, start draining replies. Any
    /// stream error closes the connection — the worker's WAL replay on
    /// reconnect makes that equivalent to a dropped HTTP response.
    fn drive_work(&mut self, slot: usize, now: Instant) {
        let Some(queue) = self.shared.service.work_queue().cloned() else {
            // No work plane configured: a preamble here is garbage.
            self.close(slot);
            return;
        };
        let failed;
        let mut writing = false;
        {
            let Some(conn) = &mut self.slab[slot] else {
                return;
            };
            let Some(ws) = conn.work.as_mut() else {
                return;
            };
            if conn.state == ConnState::WritingResponse || conn.state == ConnState::Handling {
                return; // finish the current drain; flushed → driven again
            }
            let mut out = std::mem::take(&mut conn.out);
            failed = ws.drive(&queue, now, &mut out).is_err();
            if !failed {
                if out.is_empty() {
                    conn.out = out;
                    conn.state = if ws.has_pending_input() {
                        ConnState::ReadingRequest
                    } else {
                        ConnState::Idle
                    };
                } else {
                    conn.out = out;
                    conn.out_pos = 0;
                    conn.close_after_write = false;
                    conn.state = ConnState::WritingResponse;
                    conn.write_started = Some(now);
                    writing = true;
                }
            }
        }
        if failed {
            self.close(slot);
            return;
        }
        if writing {
            self.write_step(slot, now);
            self.arm_write_deadline(slot, now);
        } else if self
            .slab
            .get(slot)
            .and_then(|c| c.as_ref())
            .is_some_and(|c| c.peer_eof)
        {
            self.close(slot);
        }
    }

    /// Polls the incremental parser and advances the state machine:
    /// dispatch on a complete request, 400-and-close on a malformed
    /// one, close on EOF.
    fn drive_parser(&mut self, slot: usize, now: Instant) {
        let Some(conn) = &mut self.slab[slot] else {
            return;
        };
        if conn.state != ConnState::Idle && conn.state != ConnState::ReadingRequest {
            return;
        }
        match conn.parser.poll(conn.peer_eof) {
            Ok(Some(req)) => {
                let keep_alive = req.keep_alive() && !conn.peer_eof;
                conn.state = ConnState::Handling;
                conn.last_active = now;
                let job = Job {
                    reactor: self.id,
                    slot,
                    gen: conn.gen,
                    req,
                    keep_alive,
                };
                self.shared.metrics.note_request();
                match self.job_tx.try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        // Back-pressure: shed the request, keep the
                        // connection. The client sees 503 and may
                        // retry after the queue drains.
                        self.shared.metrics.note_503();
                        self.queue_response(
                            slot,
                            &Response::error(503, "server overloaded"),
                            keep_alive,
                            now,
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => self.close(slot),
                }
            }
            Ok(None) => {
                if conn.peer_eof && conn.parser.is_idle() {
                    self.close(slot);
                } else if conn.parser.is_idle() {
                    conn.state = ConnState::Idle;
                }
            }
            Err(HttpError::ConnectionClosed) => self.close(slot),
            Err(HttpError::BadRequest(why)) => {
                self.shared.metrics.note_400();
                self.queue_response(slot, &Response::error(400, &why), false, now);
            }
            Err(HttpError::Io(_)) => self.close(slot),
        }
    }

    /// Serialises `resp` straight into the connection's write buffer
    /// (reactor-side responses: 400/503 — handler responses arrive via
    /// completions) and starts draining it.
    fn queue_response(&mut self, slot: usize, resp: &Response, keep_alive: bool, now: Instant) {
        let Some(conn) = &mut self.slab[slot] else {
            return;
        };
        let mut buf = Vec::with_capacity(256 + resp.body.len());
        resp.write_into(&mut buf, keep_alive);
        conn.out = buf;
        conn.out_pos = 0;
        conn.close_after_write = !keep_alive;
        conn.state = ConnState::WritingResponse;
        conn.last_active = now;
        conn.write_started = Some(now);
        self.write_step(slot, now);
        self.arm_write_deadline(slot, now);
    }

    /// If `slot` is still stuck in `WritingResponse` after the first
    /// drain attempt, schedule a wheel token at the write deadline.
    /// The standing idle token is typically much later (idle timeout
    /// vs write timeout), so without this a stalled write would only
    /// be judged when the idle token happened to pop.
    fn arm_write_deadline(&mut self, slot: usize, now: Instant) {
        let write_timeout = self.shared.write_timeout;
        let Some(Some(conn)) = self.slab.get_mut(slot) else {
            return;
        };
        if conn.state != ConnState::WritingResponse {
            return;
        }
        let started = conn.write_started.unwrap_or(now);
        let gen = conn.gen;
        conn.timers += 1;
        self.wheel.insert((slot, gen), started + write_timeout, now);
    }

    /// Routes a compute completion to its connection (if the slot still
    /// holds the same generation).
    fn apply_completion(&mut self, c: Completion) -> bool {
        let now = Instant::now();
        let Some(Some(conn)) = self.slab.get_mut(c.slot) else {
            return false;
        };
        if conn.gen != c.gen || conn.state != ConnState::Handling {
            return false;
        }
        conn.out = c.bytes;
        conn.out_pos = 0;
        conn.close_after_write = !c.keep_alive || c.panicked;
        conn.state = ConnState::WritingResponse;
        conn.last_active = now;
        conn.write_started = Some(now);
        self.write_step(c.slot, now);
        self.arm_write_deadline(c.slot, now);
        true
    }

    /// Nonblocking write; on a full drain the connection goes back to
    /// reading (immediately serving a pipelined successor if one is
    /// already buffered) or closes.
    fn write_step(&mut self, slot: usize, now: Instant) -> bool {
        let mut progress = false;
        let mut dead = false;
        let mut drained = false;
        let mut close_after = false;
        {
            let Some(conn) = &mut self.slab[slot] else {
                return false;
            };
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.last_active = now;
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return progress,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Peer went away mid-response (EPIPE/reset):
                        // this connection dies, the reactor shrugs.
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                // Fully drained.
                drained = true;
                close_after = conn.close_after_write;
                conn.out = Vec::new();
                conn.out_pos = 0;
                conn.write_started = None;
                if !close_after {
                    conn.state = ConnState::Idle;
                    conn.last_active = now;
                }
            }
        }
        if dead || close_after {
            self.close(slot);
        } else if drained {
            if self.is_work(slot) {
                // Verdicts in that batch are now on the wire: settle
                // the in-flight gauge + latency histogram, then decode
                // anything that arrived while we were draining.
                if let Some(queue) = self.shared.service.work_queue().cloned() {
                    if let Some(Some(conn)) = self.slab.get_mut(slot) {
                        if let Some(ws) = conn.work.as_mut() {
                            ws.note_flushed(&queue, now);
                        }
                    }
                }
                self.drive_work(slot, now);
            } else {
                // A pipelined request may be fully buffered already.
                self.drive_parser(slot, now);
            }
        }
        true
    }

    /// Re-checks a popped timer token against the connection's true
    /// deadline: close if expired, reinsert otherwise.
    ///
    /// Quiet connections (`Idle`/`ReadingRequest`) are judged by
    /// inactivity — a mid-request dribble (slowloris) is reset by any
    /// byte. In-flight writes are judged from when the response
    /// *started* draining: a peer sipping one byte per interval keeps
    /// `last_active` fresh forever, so inactivity alone can never
    /// catch a slow reader holding a response open.
    fn check_deadline(&mut self, slot: usize, gen: u64, now: Instant) {
        let idle_timeout = self.shared.idle_timeout;
        let write_timeout = self.shared.write_timeout;
        let Some(Some(conn)) = self.slab.get_mut(slot) else {
            return;
        };
        if conn.gen != gen {
            return; // slot was recycled; the new conn has its own token
        }
        conn.timers = conn.timers.saturating_sub(1);
        // Surplus tokens (an armed write deadline whose response has
        // since drained) are dropped, not reinserted: the survivor
        // carries the connection. Only the last live token re-arms.
        let last_token = conn.timers == 0;
        match conn.state {
            ConnState::Idle | ConnState::ReadingRequest => {
                if now.duration_since(conn.last_active) >= idle_timeout {
                    self.shared.metrics.note_idle_closed();
                    self.close(slot);
                } else if last_token {
                    let deadline = conn.last_active + idle_timeout;
                    conn.timers += 1;
                    self.wheel.insert((slot, gen), deadline, now);
                }
            }
            ConnState::WritingResponse => {
                let started = conn.write_started.unwrap_or(conn.last_active);
                if now.duration_since(started) >= write_timeout {
                    self.shared.metrics.note_write_deadline_closed();
                    self.close(slot);
                } else if last_token {
                    conn.timers += 1;
                    self.wheel.insert((slot, gen), started + write_timeout, now);
                }
            }
            ConnState::Handling => {
                // The compute pool bounds handler time; keep the timer
                // ticking so the write deadline arms as soon as the
                // response starts draining.
                if last_token {
                    let deadline = conn.last_active + idle_timeout;
                    conn.timers += 1;
                    self.wheel.insert((slot, gen), deadline, now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_is_an_eighth_of_the_quiet_time_within_floor_and_tick() {
        let us = Duration::from_micros;
        assert_eq!(park_for(Duration::ZERO), PARK_FLOOR);
        assert_eq!(park_for(us(400)), PARK_FLOOR);
        assert_eq!(park_for(us(800)), us(100));
        assert_eq!(park_for(us(4_000)), us(500));
        assert_eq!(park_for(PARK * 8), PARK);
        assert_eq!(park_for(Duration::from_secs(3_600)), PARK);

        let mut last = Duration::ZERO;
        for quiet in (0..20_000).step_by(7).map(us) {
            let park = park_for(quiet);
            assert!(park >= last, "park shrank at quiet {quiet:?}");
            assert!(
                (PARK_FLOOR..=PARK).contains(&park),
                "park {park:?} at quiet {quiet:?}"
            );
            last = park;
        }
    }

    #[test]
    fn cold_tier_is_swept_at_most_once_per_interval_however_fast_the_loop() {
        let start = Instant::now();
        let run = Duration::from_secs(1);
        for step_us in [1, 50, 333, 1_000, 5_000, 17_000] {
            let step = Duration::from_micros(step_us);
            let (mut now, mut last) = (start, start);
            let mut sweeps = vec![start];
            while now < start + run {
                now += step;
                if cold_sweep_due(now, last) {
                    last = now;
                    sweeps.push(now);
                }
            }
            assert!(
                sweeps.len() - 1 <= (run.as_micros() / COLD_SWEEP_EVERY.as_micros()) as usize,
                "{} cold sweeps at a {step:?} loop",
                sweeps.len() - 1
            );
            for pair in sweeps.windows(2) {
                let gap = pair[1] - pair[0];
                assert!(gap >= COLD_SWEEP_EVERY, "sweeps {gap:?} apart");
                // Never starved either: the first iteration past the
                // interval sweeps.
                assert!(gap < COLD_SWEEP_EVERY + step, "sweeps {gap:?} apart");
            }
        }
    }
}
