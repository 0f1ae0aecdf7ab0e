//! The adversarial connection-level battery for the readiness-driven
//! reactor (`scripts/verify.sh reactor`).
//!
//! Every scenario here is a client misbehaving at the *transport*
//! level — the layer the reactor owns — and each is pinned at 1, 2,
//! and 8 reactor threads so no pass depends on an accidental
//! single-threaded serialisation:
//!
//! * **slowloris** — a client dribbling header bytes one at a time
//!   (100 ms apart) holds only its own slab slot; concurrent fast
//!   sessions complete a full request burst while the dribble is still
//!   in progress,
//! * **split-at-every-boundary** — a pipelined keep-alive request pair
//!   delivered with a flush+pause at *every* byte boundary produces
//!   responses byte-identical to the one-shot delivery (the
//!   incremental parser holds verdict equality on the wire, not just
//!   in unit tests),
//! * **mid-response disconnect** — clients that vanish after reading
//!   one response byte never take a reactor or compute thread with
//!   them (pinned via the server's own `threads_live` counter),
//! * **slow reader** — a client draining a 32 MiB response one byte
//!   per 100 ms parks the connection in `WritingResponse`, where the
//!   idle wheel cannot see it; the write deadline reaps it (pinned via
//!   `write_deadline_closed`) while fast sessions stay unaffected,
//! * **overload shed + drain** — with a single-slot compute queue, a
//!   full queue answers 503 on the same connection immediately, and
//!   the *same* connection serves 200 again once the queue drains,
//! * **idle soak** — `SHEARS_SOAK_SESSIONS` (default 2000, set 10000
//!   where the fd limit allows) idle keep-alive sessions hold
//!   steady-state threads at exactly reactors + compute pool, and the
//!   fleet still serves afterwards,
//! * **quiet parks** — a server with two idle keep-alive sessions,
//!   quiet for 20 ms, parks no more than about once per ms (pinned via
//!   `reactor_parks`): the proportional park costs an idle server what
//!   a fixed 1 ms tick did,
//! * **wire equality** — the reactor answers a request corpus with
//!   bytes identical to an in-process parse → handle → send of the
//!   same requests on an identically seeded service.
//!
//! Everything asserts on status lines and raw bytes, not JSON bodies.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use latency_shears::api::dto::CreateMeasurementDto;
use latency_shears::api::http::{read_request, HttpError, Response};
use latency_shears::api::server::{ApiServer, ServerConfig};
use latency_shears::api::AtlasService;
use latency_shears::prelude::*;

const REACTOR_COUNTS: [usize; 3] = [1, 2, 8];

fn service() -> AtlasService {
    let platform = Platform::build(&PlatformConfig::quick(4));
    let service = AtlasService::new(platform).with_debug_routes();
    // Seed one measurement through the service (not JSON) so read
    // endpoints have something deterministic to serve.
    let created = service.create_from_spec(&CreateMeasurementDto {
        target_region: 0,
        packets: 2,
        rounds: 1,
        probe_limit: 4,
        country: None,
        fault_profile: None,
        retries: None,
        durability: false,
    });
    assert_eq!(created.status, 201);
    service
}

fn spawn(reactors: usize, compute: usize, queue: usize) -> ApiServer {
    ApiServer::spawn_with(
        "127.0.0.1:0",
        service(),
        ServerConfig::reactor(reactors, compute, queue),
    )
    .unwrap()
}

/// One `Connection: close` request, full response bytes.
fn oneshot(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(raw).unwrap();
    let mut out = Vec::new();
    s.read_to_string_lossy(&mut out);
    out
}

/// `read_to_end` that tolerates the peer resetting after close.
trait ReadAllLossy {
    fn read_to_string_lossy(&mut self, out: &mut Vec<u8>);
}
impl ReadAllLossy for TcpStream {
    fn read_to_string_lossy(&mut self, out: &mut Vec<u8>) {
        let mut buf = [0u8; 4096];
        loop {
            match self.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => out.extend_from_slice(&buf[..n]),
            }
        }
    }
}

const FAST_REQ: &[u8] = b"GET /api/v2/credits HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n";

#[test]
fn slowloris_does_not_starve_fast_sessions() {
    for reactors in REACTOR_COUNTS {
        let server = spawn(reactors, 2, 16);
        let addr = server.local_addr();

        // The slow client: request line sent whole, then the header
        // tail dribbled 1 byte / 100 ms — mid-request the whole time
        // the fast burst below runs.
        let dribble = b"host: t\r\nConnection: close\r\n\r\n";
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        slow.write_all(b"GET /api/v2/credits HTTP/1.1\r\n").unwrap();
        let dribbler = std::thread::spawn(move || {
            for &b in dribble {
                std::thread::sleep(Duration::from_millis(100));
                if slow.write_all(&[b]).is_err() {
                    panic!("slowloris connection was torn down mid-dribble");
                }
            }
            let mut out = Vec::new();
            slow.read_to_string_lossy(&mut out);
            out
        });

        // The fast burst: 25 sequential close-per-request round trips
        // must all complete while the dribble (~3 s) is still going.
        let burst_started = Instant::now();
        for i in 0..25 {
            let resp = oneshot(addr, FAST_REQ);
            assert!(
                resp.starts_with(b"HTTP/1.1 200"),
                "fast request {i} starved at {reactors} reactors: {:?}",
                String::from_utf8_lossy(&resp[..resp.len().min(40)])
            );
        }
        let burst = burst_started.elapsed();
        assert!(
            burst < Duration::from_millis(u64::try_from(dribble.len()).unwrap() * 100),
            "burst took {burst:?} — slower than the slowloris itself at {reactors} reactors"
        );

        // And the slow client still gets its answer: slow ≠ dead.
        let slow_resp = dribbler.join().unwrap();
        assert!(
            slow_resp.starts_with(b"HTTP/1.1 200"),
            "slowloris request was dropped at {reactors} reactors"
        );
        server.shutdown().unwrap();
    }
}

#[test]
fn pipelined_pair_split_at_every_boundary_matches_oneshot() {
    // A keep-alive request pipelined ahead of a closing one: both
    // responses arrive on one connection, then it closes — so a single
    // read-to-EOF captures the full double response.
    let pair: &[u8] = b"GET /api/v2/credits HTTP/1.1\r\nhost: t\r\n\r\nGET /api/v2/regions HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n";
    for reactors in REACTOR_COUNTS {
        let server = spawn(reactors, 2, 16);
        let addr = server.local_addr();
        let reference = oneshot(addr, pair);
        assert!(reference.starts_with(b"HTTP/1.1 200"), "reference broken");
        // Both responses present in the reference capture.
        assert_eq!(
            count_occurrences(&reference, b"HTTP/1.1 200"),
            2,
            "reference must hold both pipelined responses"
        );
        for split in 1..pair.len() {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.set_nodelay(true).unwrap();
            s.write_all(&pair[..split]).unwrap();
            // Give the reactor a beat to observe the partial prefix.
            std::thread::sleep(Duration::from_millis(1));
            s.write_all(&pair[split..]).unwrap();
            let mut got = Vec::new();
            s.read_to_string_lossy(&mut got);
            assert_eq!(
                got, reference,
                "split at byte {split} diverged from one-shot at {reactors} reactors"
            );
        }
        server.shutdown().unwrap();
    }
}

fn count_occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .filter(|w| *w == needle)
        .count()
}

#[test]
fn mid_response_disconnect_never_kills_the_reactor() {
    for reactors in REACTOR_COUNTS {
        let compute = 2;
        let server = spawn(reactors, compute, 16);
        let addr = server.local_addr();
        for _ in 0..20 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            // A response large enough that the write outlives our
            // read, then vanish after the first byte.
            s.write_all(
                b"GET /api/v2/probes?limit=500 HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
            let mut one = [0u8; 1];
            let _ = s.read(&mut one);
            // Drop mid-response: the server's remaining write hits a
            // dead peer.
            drop(s);
        }
        // The server is unfazed: full thread complement, still serves.
        let resp = oneshot(addr, FAST_REQ);
        assert!(
            resp.starts_with(b"HTTP/1.1 200"),
            "server dead after disconnects at {reactors} reactors"
        );
        let snap = server.metrics();
        assert_eq!(
            snap.threads_live,
            (reactors + compute) as u64,
            "a disconnect took a thread with it at {reactors} reactors"
        );
        server.shutdown().unwrap();
    }
}

#[test]
fn slow_readers_hit_the_write_deadline_without_starving_fast_sessions() {
    for reactors in [1usize, 2] {
        let server = ApiServer::spawn_with(
            "127.0.0.1:0",
            service(),
            ServerConfig::reactor(reactors, 2, 16).with_write_timeout(Duration::from_millis(400)),
        )
        .unwrap();
        let addr = server.local_addr();

        // The slow reader: asks for far more than any kernel socket
        // buffering will absorb, then drains one byte per 100 ms. The
        // server's write stalls in `WritingResponse` — a state the
        // idle wheel never reaps, which is exactly why in-flight
        // writes carry their own deadline.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        slow.write_all(
            b"GET /api/v2/__debug/blob?bytes=33554432 HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let reader = std::thread::spawn(move || {
            // Dribble for ~2.5 s, far past the 400 ms write deadline.
            // (EOF is not observable from here: the client-side kernel
            // buffer keeps serving bytes long after the server closes,
            // so the pin below reads the server's own counter instead.)
            let mut one = [0u8; 1];
            for _ in 0..25 {
                if matches!(slow.read(&mut one), Ok(0) | Err(_)) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });

        // While the slow reader stalls its connection, fast sessions
        // are untouched.
        for i in 0..10 {
            let resp = oneshot(addr, FAST_REQ);
            assert!(
                resp.starts_with(b"HTTP/1.1 200"),
                "fast request {i} starved by a slow reader at {reactors} reactors"
            );
        }

        // The server reaps the stalled write within its deadline (plus
        // sweep slack), and says so on its own counter.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if server.metrics().write_deadline_closed >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "write deadline never fired at {reactors} reactors: {:?}",
                server.metrics()
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        reader.join().unwrap();
        server.shutdown().unwrap();
    }
}

#[test]
fn overload_sheds_503_and_recovers_after_drain() {
    for reactors in REACTOR_COUNTS {
        // One compute thread, one queue slot: trivially saturated.
        let server = spawn(reactors, 1, 1);
        let addr = server.local_addr();
        let sleep_req: &[u8] = b"GET /api/v2/__debug/sleep?ms=600 HTTP/1.1\r\nhost: t\r\n\r\n";
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        busy.write_all(sleep_req).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let mut queued = TcpStream::connect(addr).unwrap();
        queued
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        queued.write_all(sleep_req).unwrap();
        std::thread::sleep(Duration::from_millis(150));

        // Queue full: an immediate 503 on a live connection...
        let mut shed = TcpStream::connect(addr).unwrap();
        shed.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        shed.write_all(b"GET /api/v2/credits HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let t0 = Instant::now();
        let mut head = [0u8; 12];
        shed.read_exact(&mut head).unwrap();
        assert_eq!(
            &head, b"HTTP/1.1 503",
            "expected immediate shed at {reactors} reactors"
        );
        assert!(
            t0.elapsed() < Duration::from_millis(400),
            "503 was not immediate at {reactors} reactors"
        );
        assert!(server.metrics().responses_503 >= 1);
        // ... drain the rest of the 503 head+body from the socket.
        drain_one_response(&mut shed);

        // After the queue drains, the same connection serves again.
        std::thread::sleep(Duration::from_millis(1_500));
        shed.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        shed.write_all(FAST_REQ).unwrap();
        let mut resp = Vec::new();
        shed.read_to_string_lossy(&mut resp);
        assert!(
            resp.starts_with(b"HTTP/1.1 200"),
            "no recovery after drain at {reactors} reactors: {:?}",
            String::from_utf8_lossy(&resp[..resp.len().min(40)])
        );
        server.shutdown().unwrap();
    }
}

/// Reads one HTTP response (head + declared body) off a keep-alive
/// stream, leaving it positioned at the next response.
fn drain_one_response(s: &mut TcpStream) {
    let mut buf = Vec::new();
    let mut b = [0u8; 512];
    let mut need = None;
    loop {
        if need.is_none() {
            if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..end]);
                let cl = head.lines().find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(|v| v.trim().parse::<usize>().unwrap())
                });
                need = Some(end + 4 + cl.unwrap_or(0));
            }
        }
        if let Some(n) = need {
            if buf.len() >= n {
                return;
            }
        }
        let n = s.read(&mut b).unwrap();
        assert!(n > 0, "peer closed while draining a response");
        buf.extend_from_slice(&b[..n]);
    }
}

#[test]
fn idle_soak_holds_thread_count_at_reactors_plus_pool() {
    // In-process soak: client and server ends share this process's fd
    // budget, so the default is 2000 sessions (≈4000 fds). Set
    // SHEARS_SOAK_SESSIONS=10000 to run the acceptance-scale soak
    // where `ulimit -n` admits ≥20k fds.
    let sessions: usize = std::env::var("SHEARS_SOAK_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let (reactors, compute) = (2usize, 4usize);
    let server = ApiServer::spawn_with(
        "127.0.0.1:0",
        service(),
        ServerConfig::reactor(reactors, compute, 64)
            .with_idle_timeout(Duration::from_secs(120))
            .with_max_connections(sessions + 64),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut fleet = Vec::with_capacity(sessions);
    for i in 0..sessions {
        match TcpStream::connect(addr) {
            Ok(s) => fleet.push(s),
            Err(e) => {
                panic!("fd budget exhausted at session {i}: {e} (lower SHEARS_SOAK_SESSIONS)")
            }
        }
    }
    // Wait until the reactor has adopted the whole fleet.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let open = server.metrics().connections_open;
        if open >= sessions as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {open}/{sessions} sessions adopted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Let the fleet sit idle, then read the pin off the server's own
    // counters: idle sessions must cost slab slots, not threads.
    std::thread::sleep(Duration::from_millis(300));
    let snap = server.metrics();
    assert_eq!(
        snap.threads_live,
        (reactors + compute) as u64,
        "idle sessions grew the thread count"
    );
    assert_eq!(snap.connections_open, sessions as u64);

    // The fleet is not just parked — sampled sessions still serve.
    for i in (0..sessions).step_by((sessions / 16).max(1)) {
        let s = &mut fleet[i];
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /api/v2/credits HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let mut head = [0u8; 12];
        s.read_exact(&mut head).unwrap();
        assert_eq!(&head, b"HTTP/1.1 200", "session {i} dead after soak");
        drain_rest_of_response(s, &head);
    }
    drop(fleet);
    server.shutdown().unwrap();
}

#[test]
fn quiet_server_parks_no_more_than_once_per_ms() {
    // A reactor parks for an eighth of its quiet time, capped at 1 ms,
    // so after 20 ms of quiet it wakes at most once per ms, as a fixed
    // 1 ms tick did. The bound is one-sided: a busy host only stretches
    // each park. A fixed 50 µs tick parks thousands of times in the
    // window and fails it.
    let server = spawn(1, 1, 16);
    let addr = server.local_addr();
    let mut sessions: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for s in &mut sessions {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /api/v2/credits HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        drain_one_response(s);
    }
    std::thread::sleep(Duration::from_millis(20));

    let (t0, before) = (Instant::now(), server.metrics().reactor_parks);
    std::thread::sleep(Duration::from_millis(500));
    let (after, window) = (server.metrics().reactor_parks, t0.elapsed());
    let parks = after - before;
    let bound = 1.2 * window.as_secs_f64() * 1e3 + 20.0;
    assert!(parks > 0, "the reactor never parked in {window:?}");
    assert!(
        parks as f64 <= bound,
        "{parks} parks in {window:?} (bound {bound:.0}): the quiet reactor wakes too often"
    );
    assert_eq!(server.metrics().connections_open, 2);
    server.shutdown().unwrap();
}

/// Finishes reading the response whose first 12 bytes are `head`.
fn drain_rest_of_response(s: &mut TcpStream, head: &[u8; 12]) {
    let mut buf = head.to_vec();
    let mut b = [0u8; 512];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let text = String::from_utf8_lossy(&buf[..end]);
            let cl: usize = text
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(|v| v.trim().parse().unwrap())
                })
                .unwrap_or(0);
            if buf.len() >= end + 4 + cl {
                return;
            }
        }
        let n = s.read(&mut b).unwrap();
        assert!(n > 0);
        buf.extend_from_slice(&b[..n]);
    }
}

/// The bytes a `Connection: close` request earns in-process: parsed by
/// the blocking reference parser, handled by `service`, serialised by
/// `Response::send` — no sockets. A malformed request earns the 400 the
/// server sends before closing; a connection that ends before a full
/// request (or sends non-UTF-8 head bytes) earns nothing.
fn in_process(service: &AtlasService, raw: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    match read_request(&mut BufReader::new(raw)) {
        Ok(req) => service
            .handle(&req)
            .send(&mut wire, req.keep_alive())
            .unwrap(),
        Err(HttpError::BadRequest(why)) => {
            Response::error(400, &why).send(&mut wire, false).unwrap()
        }
        Err(HttpError::ConnectionClosed | HttpError::Io(_)) => {}
    }
    wire
}

#[test]
fn reactor_answers_bit_identical_bytes_to_the_in_process_reference() {
    // The reactor must be indistinguishable on the wire from parsing,
    // handling and serialising each request directly, across the whole
    // route surface, including error paths.
    let reactor =
        ApiServer::spawn_with("127.0.0.1:0", service(), ServerConfig::reactor(2, 2, 16)).unwrap();
    let reference = service();
    let requests: &[&[u8]] = &[
        FAST_REQ,
        b"GET /api/v2/regions HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        b"GET /api/v2/probes?limit=5 HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        b"GET /api/v2/measurements HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        b"GET /api/v2/measurements/1 HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        b"GET /api/v2/measurements/1/results HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        b"GET /api/v2/measurements/1/stats HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        b"GET /api/v2/measurements/999 HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        b"PATCH /api/v2/credits HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        // Hostile percent-escape in the path (valid UTF-8 on the wire).
        "GET /api/v2/%中 HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n".as_bytes(),
        // Raw non-UTF-8 bytes in the request line: both fronts mirror
        // `read_line` and close without a response — still compared.
        b"GET /%\xe4%b8 HTTP/1.1\r\nhost: t\r\nConnection: close\r\n\r\n",
        b"NOTHTTP\r\n\r\n",
        b"GET / HTTP/2\r\n\r\n",
    ];
    for raw in requests {
        let a = oneshot(reactor.local_addr(), raw);
        let b = in_process(&reference, raw);
        assert_eq!(
            a,
            b,
            "reactor diverged from the in-process reference on {:?}",
            String::from_utf8_lossy(&raw[..raw.len().min(40)])
        );
        let utf8 = std::str::from_utf8(raw).is_ok();
        assert!(
            !utf8 || !a.is_empty(),
            "empty response for {:?}",
            String::from_utf8_lossy(&raw[..raw.len().min(40)])
        );
    }
    reactor.shutdown().unwrap();
}
