//! A blocking API client.
//!
//! [`ApiClient`] opens one connection per request (`Connection:
//! close`), which keeps it state-free. [`ApiSession`] holds one
//! keep-alive connection and issues requests back to back over it — the
//! shape a load generator (or any high-throughput client) wants. Both
//! read responses through [`ResponseParser`], the grammar the
//! open-loop load generator uses too, so every response must carry
//! `content-length` (ours always do). Typed helpers wrap the endpoints
//! the examples use.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use shears_atlas::json::{self, FromJson, Value};

use crate::dto::{
    CreateMeasurementDto, CreateTracerouteDto, MeasurementDto, ProbeDto, RegionDto, ResultDto,
    TracerouteDto,
};
use crate::http::{HttpError, ResponseParser};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Response violated HTTP framing.
    Protocol(String),
    /// Server answered with a non-2xx status.
    Status(u16, String),
    /// Body did not decode as the expected type.
    Decode(json::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(why) => write!(f, "protocol: {why}"),
            ClientError::Status(code, body) => write!(f, "status {code}: {body}"),
            ClientError::Decode(e) => write!(f, "decode: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking HTTP client bound to one server address.
#[derive(Debug, Clone)]
pub struct ApiClient {
    addr: SocketAddr,
    timeout: Duration,
}

impl ApiClient {
    /// Creates a client for the given server address with the default
    /// 10-second socket timeouts.
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_timeout(addr, Duration::from_secs(10))
    }

    /// Creates a client with explicit read/write socket timeouts, so a
    /// hung peer can never wedge the calling thread past `timeout`.
    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Self {
        Self { addr, timeout }
    }

    /// Issues a request and returns `(status, body)`.
    ///
    /// Idempotent `GET`s are retried exactly once on a fresh
    /// connection when the peer drops the socket mid-exchange
    /// (reset/broken pipe/unexpected EOF — the stale-keep-alive and
    /// server-restart races); other methods surface the error.
    pub fn request(
        &self,
        method: &str,
        path_and_query: &str,
        body: Option<&[u8]>,
    ) -> Result<(u16, Vec<u8>), ClientError> {
        match self.request_once(method, path_and_query, body) {
            Err(e) if method == "GET" && dropped_connection(&e) => {
                self.request_once(method, path_and_query, body)
            }
            r => r,
        }
    }

    fn request_once(
        &self,
        method: &str,
        path_and_query: &str,
        body: Option<&[u8]>,
    ) -> Result<(u16, Vec<u8>), ClientError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {path_and_query} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        read_response(&mut stream, &mut ResponseParser::new())
    }

    fn get_json<T: FromJson>(&self, path: &str) -> Result<T, ClientError> {
        let (status, body) = self.request("GET", path, None)?;
        if !(200..300).contains(&status) {
            return Err(ClientError::Status(
                status,
                String::from_utf8_lossy(&body).into_owned(),
            ));
        }
        json::from_slice(&body).map_err(ClientError::Decode)
    }

    /// `GET /api/v2/probes` with optional country/tag filters.
    pub fn list_probes(
        &self,
        country: Option<&str>,
        tag: Option<&str>,
        limit: usize,
    ) -> Result<Vec<ProbeDto>, ClientError> {
        let mut path = format!("/api/v2/probes?limit={limit}");
        if let Some(c) = country {
            path.push_str(&format!("&country={c}"));
        }
        if let Some(t) = tag {
            path.push_str(&format!("&tag={t}"));
        }
        self.get_json(&path)
    }

    /// `GET /api/v2/probes/{id}`.
    pub fn get_probe(&self, id: u32) -> Result<ProbeDto, ClientError> {
        self.get_json(&format!("/api/v2/probes/{id}"))
    }

    /// `GET /api/v2/regions`.
    pub fn list_regions(&self) -> Result<Vec<RegionDto>, ClientError> {
        self.get_json("/api/v2/regions")
    }

    /// `POST /api/v2/measurements`.
    pub fn create_measurement(
        &self,
        spec: &CreateMeasurementDto,
    ) -> Result<MeasurementDto, ClientError> {
        let body = json::to_vec(spec);
        let (status, resp) = self.request("POST", "/api/v2/measurements", Some(&body))?;
        if status != 201 {
            return Err(ClientError::Status(
                status,
                String::from_utf8_lossy(&resp).into_owned(),
            ));
        }
        json::from_slice(&resp).map_err(ClientError::Decode)
    }

    /// `GET /api/v2/measurements`.
    pub fn list_measurements(&self) -> Result<Vec<MeasurementDto>, ClientError> {
        self.get_json("/api/v2/measurements")
    }

    /// `GET /api/v2/measurements/{id}/results`.
    pub fn results(&self, id: u64) -> Result<Vec<ResultDto>, ClientError> {
        self.get_json(&format!("/api/v2/measurements/{id}/results"))
    }

    /// `POST /api/v2/traceroutes`.
    pub fn run_traceroutes(
        &self,
        spec: &CreateTracerouteDto,
    ) -> Result<Vec<TracerouteDto>, ClientError> {
        let body = json::to_vec(spec);
        let (status, resp) = self.request("POST", "/api/v2/traceroutes", Some(&body))?;
        if status != 200 {
            return Err(ClientError::Status(
                status,
                String::from_utf8_lossy(&resp).into_owned(),
            ));
        }
        json::from_slice(&resp).map_err(ClientError::Decode)
    }

    /// `GET /api/v2/credits`.
    pub fn credits(&self) -> Result<u64, ClientError> {
        let v: Value = self.get_json("/api/v2/credits")?;
        v.get("balance")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing balance".into()))
    }
}

/// Whether a client error means the peer dropped the connection —
/// the cases where retrying an idempotent request on a fresh
/// connection is safe and likely to succeed.
fn dropped_connection(e: &ClientError) -> bool {
    match e {
        ClientError::Io(e) => matches!(
            e.kind(),
            std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::UnexpectedEof
        ),
        _ => false,
    }
}

/// Reads from `stream` until `parser` completes one response and
/// returns its `(status, body)`.
fn read_response(
    stream: &mut TcpStream,
    parser: &mut ResponseParser,
) -> Result<(u16, Vec<u8>), ClientError> {
    let mut chunk = [0u8; 8192];
    loop {
        match parser.poll() {
            Ok(Some(response)) => return Ok(response),
            Ok(None) => {}
            Err(HttpError::BadRequest(why)) => return Err(ClientError::Protocol(why)),
            Err(e) => return Err(ClientError::Protocol(e.to_string())),
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if n == 0 {
            // The peer closed the connection (stale keep-alive,
            // restart): the retryable io kind, not a framing violation.
            let why = if parser.is_idle() {
                "connection closed before the status line"
            } else {
                "connection closed mid-response"
            };
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, why).into());
        }
        parser.feed(&chunk[..n]);
    }
}

/// A persistent keep-alive connection to the server.
///
/// Requests are issued sequentially over one TCP connection, so a tight
/// request loop pays no per-request connect/teardown. Responses must
/// carry `content-length` (ours always do); the connection is unusable
/// after an error.
pub struct ApiSession {
    stream: TcpStream,
    parser: ResponseParser,
    addr: SocketAddr,
    timeout: Duration,
}

impl ApiSession {
    /// Connects a session to the server.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects a session with an explicit connect + read/write
    /// timeout — load harnesses opening thousands of sessions cannot
    /// afford the OS-default connect timeout when a server stalls.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            parser: ResponseParser::new(),
            addr,
            timeout,
        })
    }

    /// Replaces the underlying TCP connection with a fresh one to the
    /// same address, using the session's configured timeouts. Any
    /// buffered bytes from the dead connection are discarded.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        *self = Self::connect_with_timeout(self.addr, self.timeout)?;
        Ok(())
    }

    /// Issues one request on the persistent connection and returns
    /// `(status, body)`.
    ///
    /// Idempotent `GET`s are retried exactly once after a transparent
    /// [`reconnect`](Self::reconnect) when the peer drops the socket —
    /// the stale-keep-alive race where the server idle-closed between
    /// two requests. Other methods leave the session unusable on error.
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&[u8]>,
    ) -> Result<(u16, Vec<u8>), ClientError> {
        match self.request_once(method, path_and_query, body) {
            Err(e) if method == "GET" && dropped_connection(&e) => {
                self.reconnect()?;
                self.request_once(method, path_and_query, body)
            }
            r => r,
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&[u8]>,
    ) -> Result<(u16, Vec<u8>), ClientError> {
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {path_and_query} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        if !body.is_empty() {
            self.stream.write_all(body)?;
        }
        self.stream.flush()?;
        read_response(&mut self.stream, &mut self.parser)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ApiServer;
    use crate::service::AtlasService;
    use shears_atlas::{Platform, PlatformConfig};

    fn server() -> ApiServer {
        let platform = Platform::build(&PlatformConfig::quick(8));
        ApiServer::spawn("127.0.0.1:0", AtlasService::new(platform)).unwrap()
    }

    #[test]
    fn full_client_round_trip() {
        let server = server();
        let client = ApiClient::new(server.local_addr());

        let regions = client.list_regions().unwrap();
        assert_eq!(regions.len(), 101);

        let probes = client.list_probes(Some("US"), None, 20).unwrap();
        assert!(!probes.is_empty());
        let one = client.get_probe(probes[0].id).unwrap();
        assert_eq!(one.country_code, "US");

        let before = client.credits().unwrap();
        let m = client
            .create_measurement(&CreateMeasurementDto {
                target_region: regions[0].index,
                packets: 3,
                rounds: 1,
                probe_limit: 8,
                country: None,
                fault_profile: None,
                retries: None,
                durability: true,
            })
            .unwrap();
        assert!(m.results > 0);
        let after = client.credits().unwrap();
        assert!(after < before);

        let results = client.results(m.id).unwrap();
        assert_eq!(results.len(), m.results);
        assert!(results.iter().any(|r| r.min_ms.unwrap_or(f64::NAN) > 0.0));
        server.shutdown().unwrap();
    }

    #[test]
    fn error_statuses_surface_as_typed_errors() {
        let server = server();
        let client = ApiClient::new(server.local_addr());
        match client.get_probe(10_000_000) {
            Err(ClientError::Status(404, body)) => assert!(body.contains("no such probe")),
            other => panic!("expected 404, got {other:?}"),
        }
        match client.results(424242) {
            Err(ClientError::Status(404, _)) => {}
            other => panic!("expected 404, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn session_issues_many_requests_on_one_connection() {
        let server = server();
        let created = server.service().create_from_spec(&CreateMeasurementDto {
            target_region: 0,
            packets: 3,
            rounds: 1,
            probe_limit: 5,
            country: None,
            fault_profile: None,
            retries: None,
            durability: true,
        });
        assert_eq!(created.status, 201);

        let mut session = ApiSession::connect(server.local_addr()).unwrap();
        for path in [
            "/api/v2/credits",
            "/api/v2/measurements",
            "/api/v2/measurements/1",
            "/api/v2/measurements/1/stats",
            "/api/v2/credits",
        ] {
            let (status, body) = session.request("GET", path, None).unwrap();
            assert_eq!(status, 200, "{path}");
            assert!(!body.is_empty(), "{path}");
        }
        // Typed listing agrees with the session's raw view.
        let client = ApiClient::new(server.local_addr());
        let listed = client.list_measurements().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].id, 1);
        server.shutdown().unwrap();
    }

    #[test]
    fn session_get_survives_a_stale_keep_alive_close() {
        use crate::server::ServerConfig;
        let platform = Platform::build(&PlatformConfig::quick(8));
        let server = ApiServer::spawn_with(
            "127.0.0.1:0",
            AtlasService::new(platform),
            ServerConfig::reactor(1, 2, 16).with_idle_timeout(Duration::from_millis(120)),
        )
        .unwrap();

        let mut session = ApiSession::connect(server.local_addr()).unwrap();
        let (status, _) = session.request("GET", "/api/v2/credits", None).unwrap();
        assert_eq!(status, 200);

        // Let the server idle-close the connection under us, then issue
        // another GET: the session must reconnect and retry on its own.
        std::thread::sleep(Duration::from_millis(400));
        let (status, _) = session.request("GET", "/api/v2/credits", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown().unwrap();
    }

    #[test]
    fn session_post_is_not_retried_after_a_dead_connection() {
        use crate::server::ServerConfig;
        let platform = Platform::build(&PlatformConfig::quick(8));
        let server = ApiServer::spawn_with(
            "127.0.0.1:0",
            AtlasService::new(platform),
            ServerConfig::reactor(1, 2, 16).with_idle_timeout(Duration::from_millis(120)),
        )
        .unwrap();

        let mut session = ApiSession::connect(server.local_addr()).unwrap();
        let (status, _) = session.request("GET", "/api/v2/credits", None).unwrap();
        assert_eq!(status, 200);

        std::thread::sleep(Duration::from_millis(400));
        // A POST on the stale connection must surface the error — it is
        // not safe to replay blindly.
        match session.request("POST", "/api/v2/traceroutes", Some(b"{}")) {
            Err(e) => assert!(dropped_connection(&e), "unexpected error class: {e}"),
            Ok((status, _)) => panic!("stale POST unexpectedly succeeded with {status}"),
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = server();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let client = ApiClient::new(addr);
                    client.list_probes(None, None, 5).unwrap().len()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
        server.shutdown().unwrap();
    }
}
