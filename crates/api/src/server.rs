//! The HTTP server: a readiness-driven reactor behind one
//! [`ApiServer`] surface.
//!
//! The [`crate::reactor`] event loop multiplexes nonblocking sockets
//! over a few reactor threads, each connection an explicit state
//! machine, with request handling fanned out to a bounded compute pool.
//! Idle keep-alive sessions cost a slab slot, not a thread, so tens of
//! thousands can stay connected; a configurable idle timeout (deadline
//! wheel) reclaims dead ones.
//!
//! The server exposes [`ServerMetrics`] counters
//! ([`ApiServer::metrics`]): accepted/open connections, requests,
//! 503/400 counts, handler panics, idle-timeout closes, reactor parks,
//! and — the one the scaling claim hangs on — live server threads,
//! maintained by RAII guards on every thread the server spawns. The
//! 10k-idle-session soak pins `threads_live == reactor_threads +
//! compute_threads` directly from these counters.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::reactor;
use crate::service::AtlasService;

/// Server sizing and connection policy.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor event-loop threads. Each owns a slice of the
    /// connections; reactor 0 also polls the listener.
    pub reactor_threads: usize,
    /// Compute-pool threads that run request handlers.
    pub compute_threads: usize,
    /// Bounded handler queue: dispatched requests that may wait for a
    /// free compute thread. When full, the reactor answers 503 and
    /// keeps the connection.
    pub queue_depth: usize,
    /// Close a keep-alive connection idle this long (enforced by the
    /// deadline wheel, so expiry is approximate to about one wheel tick
    /// = `idle_timeout / 16`).
    pub idle_timeout: Duration,
    /// Deadline on an in-flight response: a connection still in
    /// `WritingResponse` this long after the response *started*
    /// draining is closed. Inactivity cannot catch a peer that reads
    /// one byte per interval — every sip refreshes the idle clock — so
    /// slow readers are bounded by this write-start deadline instead
    /// (same wheel, same tick granularity).
    pub write_timeout: Duration,
    /// Admission cap on concurrently open connections: beyond it, new
    /// arrivals get an immediate 503 instead of the process dying on fd
    /// exhaustion.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(8, |n| n.get());
        Self {
            // The event loop is cheap; connection counts, not core
            // counts, decide how many reactors pay off.
            reactor_threads: (cores / 4).clamp(1, 4),
            // Handlers are short and CPU-bound (campaigns run
            // lock-free) and never block on the network — the reactor
            // owns all socket I/O — so the pool tracks cores instead of
            // oversubscribing them.
            compute_threads: cores.clamp(2, 32),
            queue_depth: 64,
            idle_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            max_connections: 16_384,
        }
    }
}

impl ServerConfig {
    /// A config with explicit thread counts and queue depth.
    pub fn reactor(reactor_threads: usize, compute_threads: usize, queue_depth: usize) -> Self {
        Self {
            reactor_threads,
            compute_threads,
            queue_depth,
            ..Self::default()
        }
    }

    /// Returns `self` with the given idle timeout (builder-style).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Returns `self` with the given connection admission cap.
    pub fn with_max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap;
        self
    }

    /// Returns `self` with the given in-flight write deadline.
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }
}

/// Liveness + traffic counters. All relaxed atomics: they are
/// observability, not synchronisation.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    conns_accepted: AtomicU64,
    conns_open: AtomicU64,
    requests: AtomicU64,
    resp_503: AtomicU64,
    resp_400: AtomicU64,
    handler_panics: AtomicU64,
    idle_closed: AtomicU64,
    write_deadline_closed: AtomicU64,
    threads_live: AtomicU64,
    reactor_parks: AtomicU64,
}

impl ServerMetrics {
    pub(crate) fn note_accept(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_conn_opened(&self) {
        self.conns_open.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }
    pub(crate) fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_503(&self) {
        self.resp_503.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_400(&self) {
        self.resp_400.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_handler_panic(&self) {
        self.handler_panics.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_idle_closed(&self) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_write_deadline_closed(&self) {
        self.write_deadline_closed.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_park(&self) {
        self.reactor_parks.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn connections_open(&self) -> u64 {
        self.conns_open.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            connections_accepted: self.conns_accepted.load(Ordering::Relaxed),
            connections_open: self.conns_open.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_503: self.resp_503.load(Ordering::Relaxed),
            responses_400: self.resp_400.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            write_deadline_closed: self.write_deadline_closed.load(Ordering::Relaxed),
            threads_live: self.threads_live.load(Ordering::Relaxed),
            reactor_parks: self.reactor_parks.load(Ordering::Relaxed),
        }
    }
}

/// A copy of the server's [`ServerMetrics`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Connections the listener has accepted (including ones refused
    /// post-accept by the admission cap).
    pub connections_accepted: u64,
    /// Connections currently open (registered and not yet closed).
    pub connections_open: u64,
    /// Complete requests parsed off connections.
    pub requests: u64,
    /// 503 responses (queue-full shed + admission-cap refusals).
    pub responses_503: u64,
    /// 400 responses written for malformed requests.
    pub responses_400: u64,
    /// Handler panics caught (each cost one 500 and one connection).
    pub handler_panics: u64,
    /// Connections closed by the idle-timeout wheel.
    pub idle_closed: u64,
    /// Connections closed for blowing the in-flight write deadline
    /// (slow readers holding a response open past
    /// [`ServerConfig::write_timeout`]).
    pub write_deadline_closed: u64,
    /// Threads the server currently runs (reactors + compute pool),
    /// maintained by RAII guards on each thread.
    pub threads_live: u64,
    /// Parks after a sweep that made no progress, summed over reactors:
    /// an idle server's wake rate. Not served on `GET /api/v2/metrics`.
    pub reactor_parks: u64,
}

/// RAII thread accounting: every server thread holds one for its
/// lifetime, so `threads_live` is exact even across panics (the guard
/// drops on unwind).
pub(crate) struct ThreadGuard {
    metrics: Arc<ServerMetrics>,
}

impl ThreadGuard {
    pub(crate) fn enter(metrics: &Arc<ServerMetrics>) -> Self {
        metrics.threads_live.fetch_add(1, Ordering::Relaxed);
        Self {
            metrics: Arc::clone(metrics),
        }
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        self.metrics.threads_live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running API server.
pub struct ApiServer {
    local_addr: SocketAddr,
    service: Arc<AtlasService>,
    metrics: Arc<ServerMetrics>,
    shared: Arc<reactor::Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ApiServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `service` with default sizing.
    pub fn spawn<A: ToSocketAddrs>(addr: A, service: AtlasService) -> std::io::Result<ApiServer> {
        Self::spawn_with(addr, service, ServerConfig::default())
    }

    /// Binds `addr` and starts serving `service` with explicit sizing.
    pub fn spawn_with<A: ToSocketAddrs>(
        addr: A,
        service: AtlasService,
        config: ServerConfig,
    ) -> std::io::Result<ApiServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let service = Arc::new(service);
        let metrics = Arc::new(ServerMetrics::default());
        // Give the service a handle to the server counters so
        // `GET /api/v2/metrics` can export them alongside its own.
        service.attach_server_metrics(Arc::clone(&metrics));

        let (shared, threads) = reactor::spawn(
            listener,
            Arc::clone(&service),
            Arc::clone(&metrics),
            &config,
        )?;
        Ok(ApiServer {
            local_addr,
            service,
            metrics,
            shared,
            threads,
        })
    }

    /// The served service (e.g. to call
    /// [`AtlasService::resume_from_disk`] after spawning over a
    /// durability directory).
    pub fn service(&self) -> &AtlasService {
        &self.service
    }

    /// The bound address (resolve the real port after binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the server's own counters — the soak
    /// test's thread-count pin reads these, not `/proc`.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Stops serving and flushes the service's durable state
    /// (measurement journal files + ledger) so a graceful shutdown
    /// never loses finished work.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.halt();
        self.service.flush()
    }

    /// Stops the reactor: flags stop, wakes every thread, joins them
    /// all (reactors close their connections on the way out; the job
    /// queue disconnecting drains the compute pool). Idempotent.
    fn halt(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.unpark_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ApiServer {
    fn drop(&mut self) {
        self.halt();
        // Best-effort flush on implicit drops; `shutdown` reports errors.
        let _ = self.service.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{Platform, PlatformConfig};
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    fn spawn_server() -> ApiServer {
        let platform = Platform::build(&PlatformConfig::quick(4));
        ApiServer::spawn("127.0.0.1:0", AtlasService::new(platform)).unwrap()
    }

    fn raw_request(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_probes_over_real_sockets() {
        let server = spawn_server();
        let resp = raw_request(
            server.local_addr(),
            "GET /api/v2/probes?limit=3 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("country_code"));
        server.shutdown().unwrap();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let server = spawn_server();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        for i in 0..3 {
            s.write_all(b"GET /api/v2/credits HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            // Read exactly one response: headers + declared body.
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            let mut content_length = 0usize;
            loop {
                line.clear();
                std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().unwrap();
                }
                if line == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).unwrap();
            assert!(
                String::from_utf8_lossy(&body).contains("balance"),
                "request {i}"
            );
            // Hand the (now drained) stream back for the next iteration.
            s = reader.into_inner();
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn malformed_requests_get_400_and_close() {
        let server = spawn_server();
        let resp = raw_request(server.local_addr(), "NOTHTTP\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        let snap = server.metrics();
        assert_eq!(snap.responses_400, 1);
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_stops_accepting() {
        let server = spawn_server();
        let addr = server.local_addr();
        server.shutdown().unwrap();
        // Either refused outright, or accepted by the OS backlog and
        // never served — both manifest as an error or empty read.
        if let Ok(mut s) = TcpStream::connect(addr) {
            s.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let _ = s.write_all(b"GET /api/v2/credits HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = [0u8; 16];
            let got = s.read(&mut buf);
            assert!(
                matches!(got, Ok(0) | Err(_)),
                "server still serving: {got:?}"
            );
        }
    }

    #[test]
    fn reactor_sheds_overload_with_503_and_recovers() {
        // One compute thread, one queue slot. Occupy the compute thread
        // with a slow debug request and fill the queue; the next
        // request on a *fresh* connection must get 503 immediately (the
        // reactor sheds it without blocking), and once the queue drains
        // the same connection serves again.
        let platform = Platform::build(&PlatformConfig::quick(4));
        let server = ApiServer::spawn_with(
            "127.0.0.1:0",
            AtlasService::new(platform).with_debug_routes(),
            ServerConfig::reactor(1, 1, 1),
        )
        .unwrap();
        let addr = server.local_addr();
        let sleep_req = b"GET /api/v2/__debug/sleep?ms=700 HTTP/1.1\r\nHost: t\r\n\r\n";
        // Occupy the compute thread, then fill the single queue slot.
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(sleep_req).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let mut queued = TcpStream::connect(addr).unwrap();
        queued.write_all(sleep_req).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        // This one finds the queue full: immediate 503, connection kept.
        let mut shed = TcpStream::connect(addr).unwrap();
        shed.set_read_timeout(Some(Duration::from_millis(400)))
            .unwrap();
        shed.write_all(b"GET /api/v2/credits HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut head = [0u8; 12];
        shed.read_exact(&mut head).unwrap();
        assert_eq!(&head, b"HTTP/1.1 503");
        assert!(server.metrics().responses_503 >= 1);
        // Drain the rest of the 503 response, then reuse the very same
        // connection once the queue has drained: recovery.
        let mut drain = Vec::new();
        loop {
            let mut b = [0u8; 256];
            match shed.read(&mut b) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    drain.extend_from_slice(&b[..n]);
                    if drain.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1_800));
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        shed.write_all(b"GET /api/v2/credits HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        shed.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "no recovery: {resp}");
        server.shutdown().unwrap();
    }

    #[test]
    fn handler_panic_does_not_shrink_the_compute_pool() {
        // One compute thread: if a panic killed it, the server would
        // stop serving after the first hostile request.
        let platform = Platform::build(&PlatformConfig::quick(4));
        let server = ApiServer::spawn_with(
            "127.0.0.1:0",
            AtlasService::new(platform).with_debug_routes(),
            ServerConfig::reactor(1, 1, 4),
        )
        .unwrap();
        let addr = server.local_addr();
        for _ in 0..2 {
            let resp = raw_request(
                addr,
                "GET /api/v2/__debug/panic HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            );
            assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
        }
        let resp = raw_request(
            addr,
            "GET /api/v2/credits HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "pool died: {resp}");
        // Every response above was produced by the compute thread, so
        // both server threads are provably up — and still exactly two:
        // 1 reactor + 1 compute, panics notwithstanding.
        let snap = server.metrics();
        assert_eq!(snap.threads_live, 2, "a thread died or was spawned");
        assert_eq!(snap.handler_panics, 2);
        server.shutdown().unwrap();
    }

    #[test]
    fn hostile_percent_escape_cannot_kill_the_server() {
        // `GET /%中` used to panic percent_decode (str slice at a
        // non-char-boundary); with one compute thread that was a full
        // outage.
        let platform = Platform::build(&PlatformConfig::quick(4));
        let server = ApiServer::spawn_with(
            "127.0.0.1:0",
            AtlasService::new(platform),
            ServerConfig::reactor(1, 1, 4),
        )
        .unwrap();
        let addr = server.local_addr();
        let resp = raw_request(
            addr,
            "GET /%中 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        let resp = raw_request(
            addr,
            "GET /api/v2/credits HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "server died: {resp}");
        server.shutdown().unwrap();
    }

    #[test]
    fn parallel_requests_spread_across_the_pool() {
        let server = spawn_server();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    raw_request(
                        addr,
                        "GET /api/v2/credits HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                    )
                })
            })
            .collect();
        for h in handles {
            let resp = h.join().unwrap();
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn idle_work_streams_are_pushed_done_and_assigned_ones_are_not() {
        use crate::transport::WorkStreamClient;
        use crate::work::{self, StreamMsg, WorkQueue, WorkReply, WorkSpec};
        use std::time::Instant;

        let queue = Arc::new(WorkQueue::new(WorkSpec::quick(1, 1)));
        let service = AtlasService::new(Platform::build(&PlatformConfig::quick(4)))
            .with_work_queue(Arc::clone(&queue));
        let server =
            ApiServer::spawn_with("127.0.0.1:0", service, ServerConfig::reactor(1, 2, 16)).unwrap();
        let addr = server.local_addr();
        let wait = Duration::from_secs(5);
        let polled = |reply: fn(&WorkReply) -> bool| {
            let (mut client, id, _, _) = WorkStreamClient::connect(addr, wait, false).unwrap();
            client.send(&work::poll_payload(id)).unwrap();
            match client.recv(Instant::now() + wait).unwrap() {
                StreamMsg::Reply(r) if reply(&r) => client,
                other => panic!("unexpected poll answer {other:?}"),
            }
        };
        let mut busy = polled(|r| matches!(r, WorkReply::Assigned(_)));
        let mut idle = polled(|r| *r == WorkReply::Idle);

        // Neither stream sends another byte: the idle one is pushed Done
        // once, the one holding an assignment is pushed nothing.
        queue.finish();
        assert!(matches!(
            idle.recv(Instant::now() + wait).unwrap(),
            StreamMsg::Reply(WorkReply::Done)
        ));
        let quiet = Duration::from_millis(200);
        for (client, what) in [(&mut idle, "idle"), (&mut busy, "busy")] {
            let got = client.recv(Instant::now() + quiet);
            assert!(
                matches!(&got, Err(e) if e.kind() == std::io::ErrorKind::TimedOut),
                "{what} stream got {got:?}"
            );
        }
        assert_eq!(queue.metrics().replies_pushed, 1);

        // Hanging up takes both workers out of the fleet at once.
        drop((busy, idle));
        assert!(queue.wait_no_live_workers(wait));
        assert_eq!(
            queue.metrics().shards_freed_on_close,
            1,
            "busy held its shard"
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn idle_connections_time_out_and_active_ones_do_not() {
        // Two keep-alive sessions against a 200ms idle timeout: one
        // goes quiet, one keeps issuing requests. The quiet one must be
        // closed cleanly (EOF, not a reset mid-response); the busy one
        // must survive well past the timeout.
        let platform = Platform::build(&PlatformConfig::quick(4));
        let server = ApiServer::spawn_with(
            "127.0.0.1:0",
            AtlasService::new(platform),
            ServerConfig::reactor(1, 2, 16).with_idle_timeout(Duration::from_millis(200)),
        )
        .unwrap();
        let addr = server.local_addr();
        let idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        let mut active = TcpStream::connect(addr).unwrap();
        active
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        // Keep the active session busy across 4× the idle timeout.
        for _ in 0..8 {
            active
                .write_all(b"GET /api/v2/credits HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let mut head = [0u8; 12];
            active.read_exact(&mut head).unwrap();
            assert_eq!(&head, b"HTTP/1.1 200");
            // Drain to the end of this response (headers + body).
            let mut buf = Vec::new();
            let mut b = [0u8; 512];
            let mut content_length = None;
            loop {
                let n = active.read(&mut b).unwrap();
                buf.extend_from_slice(&b[..n]);
                if content_length.is_none() {
                    if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head_text = String::from_utf8_lossy(&buf[..end]);
                        let cl = head_text.lines().find_map(|l| {
                            l.to_ascii_lowercase()
                                .strip_prefix("content-length:")
                                .map(|v| v.trim().parse::<usize>().unwrap())
                        });
                        content_length = Some((end + 4, cl.unwrap_or(0)));
                    }
                }
                if let Some((body_at, cl)) = content_length {
                    if buf.len() >= body_at + cl {
                        break;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        // The idle session must be gone by now: a read sees clean EOF.
        let mut probe = [0u8; 8];
        let mut idle = idle;
        let got = idle.read(&mut probe);
        assert!(
            matches!(got, Ok(0)),
            "idle conn not closed cleanly: {got:?}"
        );
        assert!(server.metrics().idle_closed >= 1);
        server.shutdown().unwrap();
    }
}
