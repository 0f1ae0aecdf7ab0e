//! Minimal HTTP/1.1 message handling.
//!
//! Implements exactly the subset the API needs, correctly: request-line
//! and header parsing with size limits, content-length body framing
//! (no chunked encoding — the client never sends it), percent-decoded
//! query strings, and response serialisation with keep-alive semantics.
//! Everything returns typed errors; a malformed request can never panic
//! the connection thread.
//!
//! The parsing hot path is allocation-lean: only the headers the
//! service acts on are retained ([`Headers`]), compared
//! case-insensitively in place — arbitrary headers cost no per-header
//! `String`s. Responses serialise straight into a byte buffer
//! ([`Response::write_into`]) with no intermediate `String`.
//!
//! Two parsing front ends share one grammar: the blocking
//! [`read_request`] (the in-process reference the tests pin the
//! server's wire bytes against) and the incremental [`RequestParser`]
//! (the reactor's path), which accepts bytes in arbitrary
//! chunks — a request split at any byte boundary, down to one byte at
//! a time, reaches the same accept/reject verdict as a whole-buffer
//! parse. Both call the same request-line and header-line helpers, so
//! they cannot drift. [`ResponseParser`] is the client-side mirror the
//! open-loop load generator multiplexes over nonblocking sockets.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use shears_atlas::json::{self, ObjectWriter, ToJson};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: u64 = 1024 * 1024;

/// Parse/IO failure while reading a request.
#[derive(Debug)]
pub enum HttpError {
    /// Connection closed before a full request arrived.
    ConnectionClosed,
    /// The request violated the grammar or a size limit.
    BadRequest(String),
    /// Underlying socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// An HTTP method (the subset the API serves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
    /// DELETE.
    Delete,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

/// The request headers the service acts on, extracted during parsing.
///
/// Every header line is validated for grammar, but only this known set
/// is retained — matched case-insensitively against the raw line, so an
/// arbitrary header costs zero allocations instead of two `String`s.
#[derive(Debug, Clone, Default)]
pub struct Headers {
    /// `Content-Length`, when the client declared one (last wins).
    pub content_length: Option<u64>,
    /// Whether the client sent `Connection: close`.
    pub connection_close: bool,
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path without the query string, percent-decoded per segment.
    pub path: String,
    /// Query parameters (last occurrence wins), percent-decoded.
    pub query: BTreeMap<String, String>,
    /// Known request headers (unknown headers are validated, then
    /// skipped).
    pub headers: Headers,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default yes, unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self.headers.connection_close
    }

    /// Path segments (`/api/v2/probes/7` → `["api", "v2", "probes", "7"]`).
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Percent-decodes a URL component; invalid escapes pass through
/// verbatim (lenient, like most servers).
///
/// Operates on bytes throughout: a hostile escape like `%` followed by
/// a multi-byte character must pass through, never slice a `str` at a
/// non-boundary and panic.
pub fn percent_decode(s: &str) -> String {
    fn hex_val(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                out.push(hi << 4 | lo);
                i += 3;
                continue;
            }
        }
        if bytes[i] == b'+' {
            out.push(b' ');
        } else {
            out.push(bytes[i]);
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> BTreeMap<String, String> {
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// The parsed request line: everything before the header section.
#[derive(Debug, Clone)]
struct RequestLine {
    method: Method,
    path: String,
    query: BTreeMap<String, String>,
}

/// Parses a (already line-terminator-trimmed) request line. Shared by
/// the blocking and incremental front ends so their verdicts cannot
/// drift.
fn parse_request_line(request_line: &str) -> Result<RequestLine, HttpError> {
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| HttpError::BadRequest(format!("unsupported method in {request_line:?}")))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version}"
        )));
    }
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = path_raw
        .split('/')
        .map(percent_decode)
        .collect::<Vec<_>>()
        .join("/");
    let query = parse_query(query_raw);
    Ok(RequestLine {
        method,
        path,
        query,
    })
}

/// Parses one (trimmed, non-empty) header line into `headers`. Shared
/// by the blocking and incremental front ends.
fn parse_header_line(hl: &str, headers: &mut Headers) -> Result<(), HttpError> {
    let (k, v) = hl
        .split_once(':')
        .ok_or_else(|| HttpError::BadRequest(format!("malformed header {hl:?}")))?;
    let (k, v) = (k.trim(), v.trim());
    if k.eq_ignore_ascii_case("content-length") {
        let len = v
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))?;
        headers.content_length = Some(len);
    } else if k.eq_ignore_ascii_case("connection") {
        // `Connection` is a comma-separated token list, and a close
        // request is sticky: a later `keep-alive` (or a repeated
        // header) must not resurrect the connection.
        headers.connection_close |= v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"));
    }
    Ok(())
}

/// Validates the declared body length against the limit.
fn check_body_length(headers: &Headers) -> Result<usize, HttpError> {
    let len = headers.content_length.unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(HttpError::BadRequest(format!(
            "body of {len} bytes too large"
        )));
    }
    Ok(len as usize)
}

/// Reads one request from a buffered stream.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    // Request line.
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(HttpError::ConnectionClosed);
    }
    if line.len() > MAX_HEAD_BYTES {
        // A request line alone can't exceed the head budget (it used to
        // be counted only once a header line followed, letting a
        // never-ending first line buffer without bound).
        return Err(HttpError::BadRequest("header section too large".into()));
    }
    let rl = parse_request_line(line.trim_end())?;

    // Headers: grammar-checked line by line, known names matched in
    // place. The request line's borrows are materialised above, so the
    // scratch buffer can be recycled here.
    let mut headers = Headers::default();
    let mut head_bytes = line.len();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(HttpError::ConnectionClosed);
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("header section too large".into()));
        }
        let hl = line.trim_end();
        if hl.is_empty() {
            break;
        }
        parse_header_line(hl, &mut headers)?;
    }

    // Body.
    let len = check_body_length(&headers)?;
    let mut body = vec![0u8; len];
    if !body.is_empty() {
        std::io::Read::read_exact(reader, &mut body)?;
    }
    Ok(Request {
        method: rl.method,
        path: rl.path,
        query: rl.query,
        headers,
        body,
    })
}

/// Incremental request parser for the reactor's nonblocking read path.
///
/// Bytes arrive in arbitrary chunks via [`RequestParser::feed`];
/// [`RequestParser::poll`] makes as much progress as the buffered bytes
/// allow and returns a complete [`Request`] once one is available.
/// Verdicts (accept, reject class, parsed fields) are identical to the
/// blocking [`read_request`] path for any byte-chunk partition of the
/// same input — pinned by unit tests here and property tests in
/// `tests/proptests.rs`.
///
/// Pipelined requests are supported: bytes past the first complete
/// request stay buffered for the next `poll` cycle.
#[derive(Debug, Default)]
pub struct RequestParser {
    /// Unconsumed bytes. Consumed prefixes are drained whenever a
    /// request completes, so pipelined successors shift to the front.
    buf: Vec<u8>,
    /// Parse cursor into `buf` (bytes before it belong to the request
    /// currently being assembled).
    pos: usize,
    state: ParseState,
}

#[derive(Debug, Default)]
enum ParseState {
    /// Waiting for the request line.
    #[default]
    RequestLine,
    /// Request line parsed; reading header lines.
    Headers {
        rl: Box<RequestLine>,
        headers: Headers,
        head_bytes: usize,
    },
    /// Head complete; waiting for `need` body bytes.
    Body {
        rl: Box<RequestLine>,
        headers: Headers,
        need: usize,
    },
}

/// One `read_line`-equivalent step over a byte buffer: a line is
/// everything up to and including the next `\n`, or (only at EOF) the
/// whole remainder. Returns the line's byte range, or `None` when more
/// bytes are needed.
fn take_line(buf: &[u8], pos: usize, eof: bool) -> Option<std::ops::Range<usize>> {
    match buf[pos..].iter().position(|&b| b == b'\n') {
        Some(i) => Some(pos..pos + i + 1),
        None if eof && pos < buf.len() => Some(pos..buf.len()),
        None => None,
    }
}

impl RequestParser {
    /// A fresh parser with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether the parser holds no partial request at all — the
    /// connection is *idle*, not mid-request (the reactor's idle
    /// timeout applies to this state; a mid-request stall is a slow
    /// client, judged by the same clock but reported differently).
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && matches!(self.state, ParseState::RequestLine)
    }

    /// Decodes a line range as UTF-8, mirroring `read_line`'s
    /// `InvalidData` error on non-UTF-8 bytes.
    fn line_str(buf: &[u8], range: std::ops::Range<usize>) -> Result<&str, HttpError> {
        std::str::from_utf8(&buf[range]).map_err(|_| {
            HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))
        })
    }

    /// Drives the parse as far as the buffered bytes allow.
    ///
    /// * `Ok(Some(request))` — a complete request; trailing (pipelined)
    ///   bytes stay buffered.
    /// * `Ok(None)` — need more bytes (or, at `eof` with an empty
    ///   buffer, the connection ended cleanly between requests — that
    ///   case returns `Err(ConnectionClosed)` to match the blocking
    ///   path).
    /// * `Err(_)` — same error classes as [`read_request`]: the
    ///   connection should answer 400 (BadRequest) or just close.
    ///
    /// `eof` says the peer half-closed: buffered bytes are final.
    pub fn poll(&mut self, eof: bool) -> Result<Option<Request>, HttpError> {
        loop {
            match &mut self.state {
                ParseState::RequestLine => {
                    let Some(range) = take_line(&self.buf, self.pos, eof) else {
                        if eof && self.pos >= self.buf.len() {
                            return Err(HttpError::ConnectionClosed);
                        }
                        // Unterminated request line: the head budget
                        // still applies (the blocking path errors as
                        // soon as the line completes over budget; a
                        // line that can no longer complete under
                        // budget is rejected here without waiting).
                        if self.buf.len() - self.pos > MAX_HEAD_BYTES {
                            return Err(HttpError::BadRequest("header section too large".into()));
                        }
                        return Ok(None);
                    };
                    if range.len() > MAX_HEAD_BYTES {
                        return Err(HttpError::BadRequest("header section too large".into()));
                    }
                    let line = Self::line_str(&self.buf, range.clone())?;
                    let rl = parse_request_line(line.trim_end())?;
                    let head_bytes = range.len();
                    self.pos = range.end;
                    self.state = ParseState::Headers {
                        rl: Box::new(rl),
                        headers: Headers::default(),
                        head_bytes,
                    };
                }
                ParseState::Headers {
                    rl,
                    headers,
                    head_bytes,
                } => {
                    let Some(range) = take_line(&self.buf, self.pos, eof) else {
                        if eof {
                            // Peer closed mid-head: blocking read_line
                            // returns 0 here.
                            return Err(HttpError::ConnectionClosed);
                        }
                        if *head_bytes + (self.buf.len() - self.pos) > MAX_HEAD_BYTES {
                            return Err(HttpError::BadRequest("header section too large".into()));
                        }
                        return Ok(None);
                    };
                    *head_bytes += range.len();
                    if *head_bytes > MAX_HEAD_BYTES {
                        return Err(HttpError::BadRequest("header section too large".into()));
                    }
                    let line = Self::line_str(&self.buf, range.clone())?;
                    let hl = line.trim_end();
                    if hl.is_empty() {
                        let need = check_body_length(headers)?;
                        let rl = std::mem::take(rl);
                        let headers = std::mem::take(headers);
                        self.pos = range.end;
                        self.state = ParseState::Body { rl, headers, need };
                    } else {
                        parse_header_line(hl, headers)?;
                        self.pos = range.end;
                    }
                }
                ParseState::Body { rl, headers, need } => {
                    let have = self.buf.len() - self.pos;
                    if have < *need {
                        if eof {
                            // Mirrors read_exact on a truncated stream.
                            return Err(HttpError::Io(std::io::Error::new(
                                std::io::ErrorKind::UnexpectedEof,
                                "failed to fill whole buffer",
                            )));
                        }
                        return Ok(None);
                    }
                    let body = self.buf[self.pos..self.pos + *need].to_vec();
                    let req = Request {
                        method: rl.method,
                        path: std::mem::take(&mut rl.path),
                        query: std::mem::take(&mut rl.query),
                        headers: std::mem::take(headers),
                        body,
                    };
                    // Drop everything consumed; pipelined bytes shift
                    // to the front for the next request.
                    let consumed = self.pos + *need;
                    self.buf.drain(..consumed);
                    self.pos = 0;
                    self.state = ParseState::RequestLine;
                    return Ok(Some(req));
                }
            }
        }
    }
}

impl Default for RequestLine {
    fn default() -> Self {
        RequestLine {
            method: Method::Get,
            path: String::new(),
            query: BTreeMap::new(),
        }
    }
}

/// Incremental response parser: the client-side mirror of
/// [`RequestParser`], used by the open-loop load generator to multiplex
/// many nonblocking sessions on a few threads. Parses
/// `status line → headers → content-length body`; our server always
/// declares `content-length`, so a response without one is a protocol
/// error here.
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
    pos: usize,
    state: RespState,
}

#[derive(Debug, Default, Clone, Copy)]
enum RespState {
    #[default]
    StatusLine,
    Headers {
        status: u16,
        content_length: Option<usize>,
    },
    Body {
        status: u16,
        need: usize,
    },
}

impl ResponseParser {
    /// A fresh parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether no partial response is buffered.
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && matches!(self.state, RespState::StatusLine)
    }

    /// Drives the parse; `Ok(Some((status, body)))` when one response
    /// completed (pipelined successors stay buffered), `Ok(None)` when
    /// more bytes are needed.
    pub fn poll(&mut self) -> Result<Option<(u16, Vec<u8>)>, HttpError> {
        loop {
            match self.state {
                RespState::StatusLine => {
                    let Some(range) = take_line(&self.buf, self.pos, false) else {
                        if self.buf.len() - self.pos > MAX_HEAD_BYTES {
                            return Err(HttpError::BadRequest("status line too large".into()));
                        }
                        return Ok(None);
                    };
                    let line = RequestParser::line_str(&self.buf, range.clone())?;
                    let status: u16 = line
                        .split_whitespace()
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| {
                            HttpError::BadRequest(format!("bad status line {line:?}"))
                        })?;
                    self.pos = range.end;
                    self.state = RespState::Headers {
                        status,
                        content_length: None,
                    };
                }
                RespState::Headers {
                    status,
                    content_length,
                } => {
                    let Some(range) = take_line(&self.buf, self.pos, false) else {
                        if self.buf.len() - self.pos > MAX_HEAD_BYTES {
                            return Err(HttpError::BadRequest("header section too large".into()));
                        }
                        return Ok(None);
                    };
                    let line = RequestParser::line_str(&self.buf, range.clone())?;
                    let hl = line.trim_end();
                    self.pos = range.end;
                    if hl.is_empty() {
                        let need = content_length.ok_or_else(|| {
                            HttpError::BadRequest("response without content-length".into())
                        })?;
                        self.state = RespState::Body { status, need };
                    } else if let Some((k, v)) = hl.split_once(':') {
                        if k.trim().eq_ignore_ascii_case("content-length") {
                            let len = v.trim().parse().map_err(|_| {
                                HttpError::BadRequest(format!("bad content-length {v:?}"))
                            })?;
                            self.state = RespState::Headers {
                                status,
                                content_length: Some(len),
                            };
                        }
                    } else {
                        return Err(HttpError::BadRequest(format!("malformed header {hl:?}")));
                    }
                }
                RespState::Body { status, need } => {
                    if self.buf.len() - self.pos < need {
                        return Ok(None);
                    }
                    let body = self.buf[self.pos..self.pos + need].to_vec();
                    let consumed = self.pos + need;
                    self.buf.drain(..consumed);
                    self.pos = 0;
                    self.state = RespState::StatusLine;
                    return Ok(Some((status, body)));
                }
            }
        }
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header map (content-length and connection are managed by the
    /// writer).
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with a status.
    pub fn status(status: u16) -> Self {
        Self {
            status,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// A 200 JSON response.
    pub fn json<T: ToJson + ?Sized>(value: &T) -> Self {
        Self::json_with_status(200, value)
    }

    /// A JSON response with an explicit status.
    pub fn json_with_status<T: ToJson + ?Sized>(status: u16, value: &T) -> Self {
        Self::json_bytes(status, json::to_vec(value))
    }

    /// A JSON response around a body that is already encoded.
    pub fn json_bytes(status: u16, body: Vec<u8>) -> Self {
        let mut r = Self::status(status);
        r.headers
            .insert("content-type".into(), "application/json".into());
        r.body = body;
        r
    }

    /// A 200 binary response (`application/octet-stream`).
    pub fn octets(bytes: Vec<u8>) -> Self {
        let mut r = Self::status(200);
        r.headers
            .insert("content-type".into(), "application/octet-stream".into());
        r.body = bytes;
        r
    }

    /// A JSON error response: `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = Vec::with_capacity(16 + message.len());
        ObjectWriter::new(&mut body)
            .field("error", message)
            .finish();
        Self::json_bytes(status, body)
    }

    /// The standard reason phrase for the status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialises the response head + body into `buf`, setting
    /// content-length and the connection directive. The head is written
    /// straight into `buf` — no intermediate `String`.
    pub fn write_into(&self, buf: &mut Vec<u8>, keep_alive: bool) {
        // Writing into a `Vec` cannot fail.
        let _ = write!(buf, "HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (k, v) in &self.headers {
            let _ = write!(buf, "{k}: {v}\r\n");
        }
        let _ = write!(buf, "content-length: {}\r\n", self.body.len());
        let _ = write!(
            buf,
            "connection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        );
        buf.extend_from_slice(&self.body);
    }

    /// Writes the response to a stream.
    pub fn send<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(256 + self.body.len());
        self.write_into(&mut buf, keep_alive);
        w.write_all(&buf)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::json::Value;
    use std::io::BufReader;

    /// The `{"ok":true}` body the writer tests send.
    struct Flag {
        ok: bool,
    }
    shears_atlas::json_struct!(Flag { ok });

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse("GET /api/v2/probes?country=DE&tag=wired HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/api/v2/probes");
        assert_eq!(req.query["country"], "DE");
        assert_eq!(req.query["tag"], "wired");
        assert_eq!(req.segments(), vec!["api", "v2", "probes"]);
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_body() {
        let body = r#"{"x":1}"#;
        let raw = format!(
            "POST /api/v2/measurements HTTP/1.1\r\ncontent-length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(&raw).unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, body.as_bytes());
        assert!(!req.keep_alive());
    }

    #[test]
    fn rejects_bad_method_and_version() {
        assert!(matches!(
            parse("BREW /tea HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/2\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = "POST /x HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn closed_connection_is_distinct() {
        assert!(matches!(parse(""), Err(HttpError::ConnectionClosed)));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("caf%C3%A9"), "café");
    }

    #[test]
    fn percent_decoding_survives_multibyte_after_the_escape() {
        // '%' directly followed by a multi-byte char used to slice the
        // str at a non-char-boundary and panic — a remotely reachable
        // crash. Hostile escapes now pass through verbatim.
        assert_eq!(percent_decode("%中"), "%中");
        assert_eq!(percent_decode("%2中"), "%2中");
        assert_eq!(percent_decode("a%é%41"), "a%éA");
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%4"), "%4");
    }

    #[test]
    fn response_round_trips_through_writer() {
        let resp = Response::json(&Flag { ok: true });
        let mut buf = Vec::new();
        resp.write_into(&mut buf, true);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with(r#"{"ok":true}"#));
        let cl = text
            .lines()
            .find(|l| l.starts_with("content-length"))
            .unwrap();
        assert_eq!(cl, "content-length: 11");
    }

    #[test]
    fn send_writes_the_exact_response_bytes() {
        let mut wire = Vec::new();
        Response::error(404, "gone").send(&mut wire, false).unwrap();
        assert_eq!(
            wire,
            b"HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\n\
              content-length: 16\r\nconnection: close\r\n\r\n{\"error\":\"gone\"}"
                .to_vec()
        );
        // A second send appends a whole response after the first: a
        // keep-alive connection writes its responses back to back.
        let first = wire.len();
        Response::status(204).send(&mut wire, true).unwrap();
        assert_eq!(
            &wire[first..],
            b"HTTP/1.1 204 No Content\r\ncontent-length: 0\r\nconnection: keep-alive\r\n\r\n"
        );
    }

    #[test]
    fn error_responses_carry_json() {
        let r = Response::error(404, "no such probe");
        assert_eq!(r.status, 404);
        assert_eq!(r.reason(), "Not Found");
        assert_eq!(r.headers["content-type"], "application/json");
        let v = json::parse(&r.body).unwrap();
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("no such probe")
        );
    }

    #[test]
    fn error_bodies_are_exact_serde_json_bytes() {
        // The error body is pinned byte for byte, as serde_json wrote it.
        assert_eq!(
            Response::error(404, "no such probe").body,
            br#"{"error":"no such probe"}"#
        );
        // Escaping: quotes, backslashes, named controls, and the
        // \u00xx form for the rest of the C0 range, lowercase hex.
        let tricky = "bad \"x\\y\"\n\tchar \u{1}\u{1f} caf\u{e9}";
        let body = Response::error(400, tricky).body;
        assert_eq!(
            body,
            b"{\"error\":\"bad \\\"x\\\\y\\\"\\n\\tchar \\u0001\\u001f caf\xc3\xa9\"}".to_vec()
        );
    }

    #[test]
    fn reason_phrases_cover_served_statuses() {
        for (status, phrase) in [
            (200u16, "OK"),
            (201, "Created"),
            (204, "No Content"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (405, "Method Not Allowed"),
            (413, "Payload Too Large"),
            (500, "Internal Server Error"),
            (503, "Service Unavailable"),
            (599, "Unknown"),
        ] {
            assert_eq!(Response::status(status).reason(), phrase);
        }
    }

    #[test]
    fn delete_method_parses() {
        let req = parse("DELETE /api/v2/measurements/3 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Delete);
        assert_eq!(req.segments(), vec!["api", "v2", "measurements", "3"]);
    }

    #[test]
    fn known_headers_match_case_insensitively() {
        let req =
            parse("POST /x HTTP/1.1\r\nCONTENT-LENGTH: 2\r\nX-Custom-Header: ignored\r\n\r\nhi")
                .unwrap();
        assert_eq!(req.headers.content_length, Some(2));
        assert_eq!(req.body, b"hi");
        let req = parse("GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n").unwrap();
        assert!(req.headers.connection_close);
        assert!(!req.keep_alive());
        // A Connection value other than close keeps the default.
        let req = parse("GET / HTTP/1.1\r\nconnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_matches_tokens_and_is_sticky() {
        // `close` inside a comma-separated token list counts.
        let req = parse("GET / HTTP/1.1\r\nConnection: close, te\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        let req = parse("GET / HTTP/1.1\r\nConnection: te , Close\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        // A later keep-alive must not override an earlier close.
        let req =
            parse("GET / HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        // Substrings of close are not close.
        let req = parse("GET / HTTP/1.1\r\nConnection: closed\r\n\r\n").unwrap();
        assert!(req.keep_alive());
    }

    /// Coarse verdict classes for cross-front-end comparison: the two
    /// parsers must agree on the class, and on all fields on accept.
    fn verdict(r: &Result<Request, HttpError>) -> &'static str {
        match r {
            Ok(_) => "ok",
            Err(HttpError::ConnectionClosed) => "closed",
            Err(HttpError::BadRequest(_)) => "bad",
            Err(HttpError::Io(_)) => "io",
        }
    }

    fn parse_incremental(raw: &[u8], chunk: usize) -> Result<Request, HttpError> {
        let mut p = RequestParser::new();
        let mut i = 0;
        while i < raw.len() {
            let end = (i + chunk.max(1)).min(raw.len());
            p.feed(&raw[i..end]);
            i = end;
            match p.poll(false) {
                Ok(Some(req)) => return Ok(req),
                Ok(None) => {}
                Err(e) => return Err(e),
            }
        }
        match p.poll(true) {
            Ok(Some(req)) => Ok(req),
            Ok(None) => Err(HttpError::ConnectionClosed),
            Err(e) => Err(e),
        }
    }

    fn assert_fronts_agree(raw: &[u8], chunk: usize) {
        let whole = read_request(&mut BufReader::new(raw));
        let inc = parse_incremental(raw, chunk);
        assert_eq!(
            verdict(&whole),
            verdict(&inc),
            "chunk {chunk}: verdicts diverge on {:?}",
            String::from_utf8_lossy(raw)
        );
        if let (Ok(w), Ok(i)) = (&whole, &inc) {
            assert_eq!(w.method, i.method);
            assert_eq!(w.path, i.path);
            assert_eq!(w.query, i.query);
            assert_eq!(w.headers.content_length, i.headers.content_length);
            assert_eq!(w.headers.connection_close, i.headers.connection_close);
            assert_eq!(w.body, i.body);
        }
    }

    /// A fixed adversarial corpus; the proptest suite extends this with
    /// arbitrary partitions of generated requests.
    const CORPUS: &[&str] = &[
        "GET /api/v2/probes?country=DE&tag=wired HTTP/1.1\r\nHost: x\r\n\r\n",
        "POST /api/v2/measurements HTTP/1.1\r\ncontent-length: 7\r\nConnection: close\r\n\r\n{\"x\":1}",
        "DELETE /api/v2/measurements/3 HTTP/1.1\r\n\r\n",
        "GET /%中 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        "GET /a%20b+c?q=caf%C3%A9 HTTP/1.1\r\n\r\n",
        "BREW /tea HTTP/1.1\r\n\r\n",
        "GET /x HTTP/2\r\n\r\n",
        "GET\r\n\r\n",
        "POST /x HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
        "POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
        "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        "GET / HTTP/1.1\r\nConnection: close, te\r\n\r\n",
        "GET / HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n",
        "POST /short HTTP/1.1\r\ncontent-length: 50\r\n\r\ntruncated",
        "",
        "\r\n",
        "GET / HTTP/1.1",
        "GET / HTTP/1.1\r\nHost: t\r\n",
    ];

    #[test]
    fn incremental_parser_agrees_with_whole_buffer_at_every_chunk_size() {
        for raw in CORPUS {
            for chunk in [1, 2, 3, 7, 64, 4096] {
                assert_fronts_agree(raw.as_bytes(), chunk);
            }
        }
        // Non-UTF-8 head bytes: read_line fails with InvalidData.
        assert_fronts_agree(b"GET /\xff\xfe HTTP/1.1\r\n\r\n", 1);
        assert_fronts_agree(b"GET / HTTP/1.1\r\nX: \xff\r\n\r\n", 3);
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let raw =
            b"GET /a HTTP/1.1\r\nHost: t\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        let mut p = RequestParser::new();
        // Feed a byte at a time; collect both requests.
        let mut got = Vec::new();
        for (i, &b) in raw.iter().enumerate() {
            p.feed(&[b]);
            let eof = i == raw.len() - 1;
            loop {
                match p.poll(eof) {
                    Ok(Some(req)) => got.push(req),
                    Ok(None) => break,
                    // Once the last request is consumed, a further poll
                    // at EOF reports the clean close — exactly what the
                    // blocking front's next read_request would say.
                    Err(HttpError::ConnectionClosed) => {
                        assert!(eof, "spurious close before the final byte");
                        break;
                    }
                    Err(e) => panic!("pipelined parse failed: {e:?}"),
                }
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].path, "/a");
        assert_eq!(got[1].path, "/b");
        assert_eq!(got[1].body, b"hi");
        assert!(p.is_idle());
    }

    #[test]
    fn oversized_request_line_is_rejected_by_both_fronts() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&raw), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse_incremental(raw.as_bytes(), 4096),
            Err(HttpError::BadRequest(_))
        ));
        // The incremental front rejects an unterminated over-budget
        // line without waiting for the newline.
        let mut p = RequestParser::new();
        p.feed("GET /".as_bytes());
        p.feed("a".repeat(MAX_HEAD_BYTES + 1).as_bytes());
        assert!(matches!(p.poll(false), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn response_parser_round_trips_server_responses() {
        let mut wire = Vec::new();
        Response::json(&Flag { ok: true })
            .send(&mut wire, true)
            .unwrap();
        Response::error(404, "gone").send(&mut wire, false).unwrap();
        let mut p = ResponseParser::new();
        // Dribble one byte at a time; both responses must come out.
        let mut got = Vec::new();
        for &b in &wire {
            p.feed(&[b]);
            while let Some(r) = p.poll().unwrap() {
                got.push(r);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 200);
        assert_eq!(got[1].0, 404);
        assert_eq!(got[1].1, br#"{"error":"gone"}"#);
        assert!(p.is_idle());
    }

    #[test]
    fn read_request_reads_back_to_back_requests() {
        let raw = "GET /a HTTP/1.1\r\nHost: t\r\n\r\nGET /b HTTP/1.1\r\nHost: t\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let a = read_request(&mut reader).unwrap();
        let b = read_request(&mut reader).unwrap();
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert!(matches!(
            read_request(&mut reader),
            Err(HttpError::ConnectionClosed)
        ));
    }
}
