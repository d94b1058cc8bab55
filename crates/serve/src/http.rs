//! Minimal HTTP/1.1 framing over `std::net` — exactly what `kron serve
//! --listen` needs, and nothing more.
//!
//! The build environment has no crate registry, so there is no hyper or
//! tiny_http to lean on; this module hand-rolls the subset of RFC 9112
//! the server speaks: requests with optional bodies, keep-alive
//! connections, percent-encoded query strings, and fixed
//! `Content-Length` responses (no chunked transfer coding, no trailers,
//! no upgrades). It also ships a small blocking [`Client`] so the
//! integration tests and the cluster's own peer transport exercise the
//! real wire format instead of reimplementing it.
//!
//! Parsing is **incremental**: [`RequestBuffer`] keeps the bytes of a
//! partially received request across reads, so the event loop can feed a
//! keep-alive connection whatever each non-blocking read delivers.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The `Content-Type` of every `200` to `GET /row`: the row in the v2
/// shard format's varint delta encoding, so a caller can refuse a `200`
/// that declares anything else instead of misreading it.
pub const ROW_VD_CONTENT_TYPE: &str = "application/kron-row-vd";

/// The `Content-Type` of a `POST /rows` answer: one length-prefixed
/// varint delta row per answered vertex.
pub const ROWS_CONTENT_TYPE: &str = "application/kron-rows";

/// The `Content-Type` of a `POST /wedges` answer: one varint
/// `(count, checks)` pair per asked neighbour.
pub const WEDGES_CONTENT_TYPE: &str = "application/kron-wedges";

/// Hard cap on a request head (request line + headers).
pub const MAX_HEAD: usize = 64 * 1024;

/// Hard cap on a request body (a `POST /batch` query file).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path, without the query string.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after the
    /// response (`Connection: close`, or an HTTP/1.0 request).
    pub close: bool,
}

impl Request {
    /// First query parameter named `name`, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The incremental request parser, decoupled from any socket: bytes go
/// in via [`RequestBuffer::push`] in whatever fragments the transport
/// delivered them, complete requests come out of
/// [`RequestBuffer::next_request`].
///
/// The `poll(2)` event loop feeds it from non-blocking reads. Parsing is
/// split-point independent — any fragmentation of the same byte stream
/// yields the same request sequence (the fuzz suite pins this).
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> RequestBuffer {
        RequestBuffer::default()
    }

    /// Append received bytes (any fragmentation).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (received but not yet consumed by a
    /// parsed request).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered — i.e. the connection sits cleanly
    /// *between* requests (an EOF here is a clean close, not a truncated
    /// request).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Parse one complete request off the front of the buffer, if the
    /// bytes for one have arrived. `Ok(None)` means "need more bytes".
    ///
    /// # Errors
    ///
    /// `InvalidData` for a malformed or oversized request; the caller
    /// must answer 400 (best effort) and drop the connection — the
    /// buffer may be mid-request and can never resynchronize.
    pub fn next_request(&mut self) -> io::Result<Option<Request>> {
        match parse_request(&self.buf).map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))? {
            Some((req, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(req))
            }
            None => Ok(None),
        }
    }
}

/// The standard reason phrase for the status codes this server uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one HTTP/1.1 response (keep-alive; the server closes by
/// dropping the stream when the request asked for `Connection: close`).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n\r\n",
        reason(status),
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Try to parse one complete request off the front of `buf`. Returns the
/// request and the number of bytes it consumed, `None` if more bytes are
/// needed, or an error message for a malformed/oversized request.
#[allow(clippy::type_complexity)]
fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, String> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(format!("request head exceeds {MAX_HEAD} bytes"));
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "request head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or("missing method")?;
    let target = parts.next().ok_or("missing request target")?;
    let version = parts.next().ok_or("missing HTTP version")?;
    if parts.next().is_some() {
        return Err(format!("malformed request line {request_line:?}"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(format!("unsupported protocol version {version:?}"));
    }
    let mut content_length = 0usize;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line {line:?}"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?;
                if content_length > MAX_BODY {
                    return Err(format!("body of {content_length} bytes exceeds {MAX_BODY}"));
                }
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v == "close" {
                    close = true;
                } else if v == "keep-alive" {
                    close = false;
                }
            }
            "transfer-encoding" => {
                return Err("chunked transfer coding is not supported".into());
            }
            _ => {}
        }
    }
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(path_raw, false)?;
    let mut query = Vec::new();
    for pair in query_raw.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.push((percent_decode(k, true)?, percent_decode(v, true)?));
    }
    Ok(Some((
        Request {
            method: method.to_string(),
            path,
            query,
            body: buf[body_start..total].to_vec(),
            close,
        },
        total,
    )))
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Percent-decode a path or query component. In query components (`+` is
/// a space per the form encoding every HTTP client emits); in paths it is
/// literal.
///
/// # Errors
///
/// A message naming the truncated or non-hex percent escape, or a
/// decode that is not UTF-8.
pub fn percent_decode(s: &str, plus_as_space: bool) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated percent escape in {s:?}"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| "bad percent escape")?;
                out.push(
                    u8::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad percent escape %{hex} in {s:?}"))?,
                );
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("percent-decoded {s:?} is not UTF-8"))
}

/// Percent-encode a string for use as one query-component value
/// (everything but unreserved characters is `%XX`-escaped).
pub fn encode_query_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// A blocking keep-alive HTTP/1.1 client for tests and benchmarks.
///
/// One TCP connection, one in-flight request at a time; responses must
/// carry `Content-Length` (which this module's server always does).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect to a server address (30 s read timeout).
    ///
    /// # Errors
    ///
    /// Fails when the address does not resolve or the TCP connect fails.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Self::configure(stream, Duration::from_secs(30))
    }

    /// Connect with an explicit connect **and** read timeout — the
    /// cluster's node-to-node row fetches use this so a dead peer
    /// surfaces as a bounded error instead of a stalled query.
    ///
    /// Every resolved socket address is tried in order (matching
    /// `TcpStream::connect`'s behavior — a peer spelled `localhost:…`
    /// must work whichever of `::1`/`127.0.0.1` the node bound).
    ///
    /// # Errors
    ///
    /// Fails when the address does not resolve, or no resolved address
    /// accepts a connection within `timeout` (the last attempt's error).
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let mut last = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => return Self::configure(stream, timeout),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn configure(stream: TcpStream, read_timeout: Duration) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// `GET path` → `(status, body)`.
    ///
    /// # Errors
    ///
    /// Any transport failure, or a response this module cannot frame
    /// (missing `Content-Length`, malformed head).
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let (status, body) = self.request("GET", path, b"")?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }

    /// `GET path` → `(status, raw body bytes)` — for binary endpoints
    /// (the cluster's `/row` rows are varint delta bytes, which a lossy
    /// UTF-8 conversion would corrupt).
    ///
    /// # Errors
    ///
    /// Same as [`Client::get`].
    pub fn get_bytes(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        let (status, _ct, body) = self.request_typed("GET", path, b"")?;
        Ok((status, body))
    }

    /// `POST path` with a body → `(status, body)`.
    ///
    /// # Errors
    ///
    /// Same as [`Client::get`].
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<(u16, String)> {
        let (status, resp) = self.request("POST", path, body)?;
        Ok((status, String::from_utf8_lossy(&resp).into_owned()))
    }

    /// `DELETE path` → `(status, body)` — the job API's cancel verb.
    ///
    /// # Errors
    ///
    /// Same as [`Client::get`].
    pub fn delete(&mut self, path: &str) -> io::Result<(u16, String)> {
        let (status, resp) = self.request("DELETE", path, b"")?;
        Ok((status, String::from_utf8_lossy(&resp).into_owned()))
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let (status, _ct, resp) = self.request_typed(method, path, body)?;
        Ok((status, resp))
    }

    /// One exchange with the method spelled out → `(status,
    /// content-type, raw body bytes)`; what every verb above wraps, and
    /// what the cluster's peer transport calls directly.
    pub(crate) fn request_typed(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(u16, String, Vec<u8>)> {
        // One write for head and body: `write!` straight to the socket
        // would send each formatted piece as its own segment (the socket
        // is `TCP_NODELAY`), waking the server once per piece.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: kron\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        self.stream.write_all(&request)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, String, Vec<u8>)> {
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| bad("response head is not UTF-8".into()))?;
                let mut lines = head.split("\r\n");
                let status_line = lines.next().unwrap_or("");
                let status: u16 = status_line
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
                let mut content_length = 0usize;
                let mut content_type = String::new();
                for line in lines {
                    if let Some((name, value)) = line.split_once(':') {
                        if name.trim().eq_ignore_ascii_case("content-length") {
                            content_length = value
                                .trim()
                                .parse()
                                .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
                        } else if name.trim().eq_ignore_ascii_case("content-type") {
                            content_type = value.trim().to_string();
                        }
                    }
                }
                // the peer's head is untrusted: a length past the address
                // space is refused, not added
                let total = (head_end + 4)
                    .checked_add(content_length)
                    .ok_or_else(|| bad(format!("Content-Length {content_length} overflows")))?;
                if self.buf.len() >= total {
                    let body = self.buf[head_end + 4..total].to_vec();
                    self.buf.drain(..total);
                    return Ok((status, content_type, body));
                }
            } else if self.buf.len() > MAX_HEAD {
                return Err(bad(format!("response head exceeds {MAX_HEAD} bytes")));
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> (Request, usize) {
        parse_request(bytes).unwrap().expect("complete request")
    }

    #[test]
    fn request_line_query_and_body_parse() {
        let raw =
            b"POST /batch?x=1&name=a%20b+c HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        let (req, consumed) = parse_all(raw);
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/batch");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("name"), Some("a b c"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body, b"hello");
        assert!(!req.close);
    }

    #[test]
    fn incremental_parse_waits_for_the_full_request() {
        let raw = b"GET /query?q=degree%205 HTTP/1.1\r\nHost: h\r\n\r\n";
        for cut in 0..raw.len() {
            assert!(
                parse_request(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must not parse"
            );
        }
        let (req, consumed) = parse_all(raw);
        assert_eq!(consumed, raw.len());
        assert_eq!(req.query_param("q"), Some("degree 5"));
    }

    #[test]
    fn pipelined_requests_consume_one_at_a_time() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, consumed) = parse_all(raw);
        assert_eq!(first.path, "/healthz");
        assert!(!first.close);
        let (second, consumed2) = parse_all(&raw[consumed..]);
        assert_eq!(second.path, "/stats");
        assert!(second.close);
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        let (req, _) = parse_all(b"GET / HTTP/1.0\r\n\r\n");
        assert!(req.close);
        let (req, _) = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!req.close);
    }

    #[test]
    fn malformed_requests_are_errors_not_hangs() {
        for raw in [
            &b"FROB\r\n\r\n"[..],
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET /%zz HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(parse_request(raw).is_err(), "{raw:?} must be rejected");
        }
        // an oversized head errors instead of buffering forever
        let huge = vec![b'a'; MAX_HEAD + 5];
        assert!(parse_request(&huge).is_err());
        // an oversized declared body errors up front
        let raw = format!(
            "POST /b HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(parse_request(raw.as_bytes()).is_err());
    }

    #[test]
    fn percent_coding_roundtrips() {
        let line = "tri_edge 12 34";
        let enc = encode_query_component(line);
        assert_eq!(enc, "tri_edge%2012%2034");
        assert_eq!(percent_decode(&enc, true).unwrap(), line);
        assert_eq!(percent_decode("a+b", true).unwrap(), "a b");
        assert_eq!(percent_decode("a+b", false).unwrap(), "a+b");
        assert!(percent_decode("%g1", true).is_err());
        assert!(percent_decode("%2", true).is_err());
    }

    #[test]
    fn responses_carry_exact_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", b"ok\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok\n"), "{text}");
        assert_eq!(reason(422), "Unprocessable Entity");
    }

    #[test]
    fn untrusted_response_heads_are_invalid_data_not_panics() {
        let endless = format!("HTTP/1.1 200 OK\r\nX: {}", "a".repeat(MAX_HEAD));
        for head in [
            "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n".to_string(),
            endless,
        ] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            // a one-shot peer: answer one request with `head`, then hold
            // the connection open until the client hangs up
            let peer = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                let mut request = [0u8; 1024];
                let _ = conn.read(&mut request).unwrap();
                let _ = conn.write_all(head.as_bytes());
                let _ = conn.read_to_end(&mut Vec::new());
            });
            let mut client = Client::connect(addr).unwrap();
            let err = client.get("/shards").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            drop(client);
            peer.join().unwrap();
        }
    }
}
