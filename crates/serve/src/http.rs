//! A hand-rolled HTTP/1.1 request/response layer over blocking streams.
//!
//! The server speaks the smallest useful subset of HTTP: one request per
//! connection (`Connection: close` on every response), fixed
//! `Content-Length` bodies only (no chunked encoding), `GET`, `POST` and
//! `DELETE`.
//! That subset is enough for every client we care about (`curl`, the
//! [`crate::client`] module, browsers) and keeps the parser small enough to
//! test exhaustively — the corrupt-request suite feeds every truncation
//! prefix of a valid request through [`read_request`] and asserts the
//! connection either gets a 4xx or drops cleanly, never a panic.
//!
//! Every parse failure is a typed [`HttpError`]. The variant decides the
//! wire behaviour via [`HttpError::response_status`]: `Some(status)` means
//! the server still owes the peer a status line (malformed syntax, limits
//! exceeded), `None` means the peer is gone or never spoke and the
//! connection is dropped without a response.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead};
use std::sync::Arc;

/// Longest accepted request line (method + target + version), in bytes.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;
/// Longest accepted single header line, in bytes.
pub const MAX_HEADER_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted on one request.
pub const MAX_HEADER_COUNT: usize = 64;

/// The request methods the server implements.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
    /// `DELETE`.
    Delete,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        })
    }
}

/// One parsed request: line, lower-cased headers, and the full body.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The path component of the target, percent-decoded (`/graphs/g1`).
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Headers with ASCII-lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == lower).map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. [`response_status`](Self::response_status)
/// maps each variant onto the wire behaviour.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending any byte.
    ConnectionClosed,
    /// The peer closed (or timed out) mid-request: inside a line, between
    /// headers, or before the declared body arrived.
    Truncated {
        /// What the parser was in the middle of reading.
        while_reading: &'static str,
    },
    /// The socket failed underneath the parser (includes read timeouts).
    Io(io::Error),
    /// The request line exceeded [`MAX_REQUEST_LINE_BYTES`].
    RequestLineTooLong,
    /// The request line was not `<method> <target> HTTP/1.x`.
    MalformedRequestLine(String),
    /// A method other than `GET`/`POST`/`DELETE`.
    UnsupportedMethod(String),
    /// An `HTTP/<major>.<minor>` version other than 1.0/1.1.
    UnsupportedVersion(String),
    /// A header line exceeded [`MAX_HEADER_LINE_BYTES`].
    HeaderTooLarge,
    /// More than [`MAX_HEADER_COUNT`] headers.
    TooManyHeaders,
    /// A header line without a `:` separator, or a non-UTF-8 line.
    MalformedHeader(String),
    /// `Content-Length` present but not a base-10 integer.
    BadContentLength(String),
    /// A `POST` without a `Content-Length` header.
    MissingContentLength,
    /// The declared body exceeds the configured limit.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
}

impl HttpError {
    /// The status line still owed to the peer, or `None` when the
    /// connection should be dropped without a response (the peer is gone or
    /// never spoke).
    pub fn response_status(&self) -> Option<u16> {
        match self {
            HttpError::ConnectionClosed | HttpError::Io(_) => None,
            // The peer half-closed mid-request: it may still be reading, so
            // tell it what went wrong before closing our side too.
            HttpError::Truncated { .. } => Some(400),
            HttpError::RequestLineTooLong => Some(414),
            HttpError::MalformedRequestLine(_)
            | HttpError::MalformedHeader(_)
            | HttpError::BadContentLength(_) => Some(400),
            HttpError::UnsupportedMethod(_) => Some(405),
            HttpError::UnsupportedVersion(_) => Some(505),
            HttpError::HeaderTooLarge | HttpError::TooManyHeaders => Some(431),
            HttpError::MissingContentLength => Some(411),
            HttpError::BodyTooLarge { .. } => Some(413),
        }
    }

    /// A short machine-readable code for the JSON error body.
    pub fn code(&self) -> &'static str {
        match self {
            HttpError::ConnectionClosed => "connection_closed",
            HttpError::Truncated { .. } => "truncated_request",
            HttpError::Io(_) => "io",
            HttpError::RequestLineTooLong => "request_line_too_long",
            HttpError::MalformedRequestLine(_) => "malformed_request_line",
            HttpError::UnsupportedMethod(_) => "method_not_allowed",
            HttpError::UnsupportedVersion(_) => "http_version_not_supported",
            HttpError::HeaderTooLarge => "header_too_large",
            HttpError::TooManyHeaders => "too_many_headers",
            HttpError::MalformedHeader(_) => "malformed_header",
            HttpError::BadContentLength(_) => "bad_content_length",
            HttpError::MissingContentLength => "length_required",
            HttpError::BodyTooLarge { .. } => "body_too_large",
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed before any request"),
            HttpError::Truncated { while_reading } => {
                write!(f, "connection closed while reading {while_reading}")
            }
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::RequestLineTooLong => {
                write!(f, "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes")
            }
            HttpError::MalformedRequestLine(line) => {
                write!(f, "malformed request line {line:?}; expected `<method> <target> HTTP/1.1`")
            }
            HttpError::UnsupportedMethod(m) => {
                write!(f, "method {m:?} not allowed; expected GET, POST or DELETE")
            }
            HttpError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v:?}; expected HTTP/1.0 or HTTP/1.1")
            }
            HttpError::HeaderTooLarge => {
                write!(f, "a header line exceeds {MAX_HEADER_LINE_BYTES} bytes")
            }
            HttpError::TooManyHeaders => write!(f, "more than {MAX_HEADER_COUNT} headers"),
            HttpError::MalformedHeader(line) => {
                write!(f, "malformed header line {line:?}; expected `Name: value`")
            }
            HttpError::BadContentLength(v) => {
                write!(f, "Content-Length {v:?} is not a base-10 integer")
            }
            HttpError::MissingContentLength => {
                write!(f, "POST requires a Content-Length header")
            }
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Read one line (terminated by `\n`, optional `\r` stripped) without ever
/// buffering more than `limit` bytes. `Ok(None)` is clean EOF before any
/// byte of this line.
fn read_line_limited(
    reader: &mut impl BufRead,
    limit: usize,
    over_limit: fn() -> HttpError,
    while_reading: &'static str,
) -> Result<Option<Vec<u8>>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Truncated { while_reading });
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if line.len() + pos > limit {
                return Err(over_limit());
            }
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(line));
        }
        if line.len() + buf.len() > limit {
            return Err(over_limit());
        }
        line.extend_from_slice(buf);
        let n = buf.len();
        reader.consume(n);
    }
}

/// Parse one request off the stream. `max_body_bytes` bounds what a
/// `Content-Length` may declare; everything else is bounded by the module
/// constants. Never reads past the declared body.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Request, HttpError> {
    let line = read_line_limited(
        reader,
        MAX_REQUEST_LINE_BYTES,
        || HttpError::RequestLineTooLong,
        "the request line",
    )?
    .ok_or(HttpError::ConnectionClosed)?;
    let line = String::from_utf8(line).map_err(|e| {
        HttpError::MalformedRequestLine(String::from_utf8_lossy(e.as_bytes()).into_owned())
    })?;

    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::MalformedRequestLine(line.clone())),
    };
    if !version.starts_with("HTTP/") {
        return Err(HttpError::MalformedRequestLine(line.clone()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "DELETE" => Method::Delete,
        other => return Err(HttpError::UnsupportedMethod(other.to_string())),
    };
    if !target.starts_with('/') {
        return Err(HttpError::MalformedRequestLine(line.clone()));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path, false);
    let query = raw_query.map(parse_query).unwrap_or_default();

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line_limited(
            reader,
            MAX_HEADER_LINE_BYTES,
            || HttpError::HeaderTooLarge,
            "a header line",
        )?
        .ok_or(HttpError::Truncated { while_reading: "the header block" })?;
        if line.is_empty() {
            break; // end of headers
        }
        if headers.len() == MAX_HEADER_COUNT {
            return Err(HttpError::TooManyHeaders);
        }
        let line = String::from_utf8(line).map_err(|e| {
            HttpError::MalformedHeader(String::from_utf8_lossy(e.as_bytes()).into_owned())
        })?;
        let (name, value) =
            line.split_once(':').ok_or_else(|| HttpError::MalformedHeader(line.clone()))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::MalformedHeader(line.clone()));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => {
            Some(v.parse::<usize>().map_err(|_| HttpError::BadContentLength(v.clone()))?)
        }
        None => None,
    };
    let body = match (method, content_length) {
        (Method::Post, None) => return Err(HttpError::MissingContentLength),
        (_, None) | (_, Some(0)) => Vec::new(),
        (_, Some(declared)) => {
            if declared > max_body_bytes {
                return Err(HttpError::BodyTooLarge { declared, limit: max_body_bytes });
            }
            let mut body = vec![0u8; declared];
            read_exact_or_truncated(reader, &mut body)?;
            body
        }
    };

    Ok(Request { method, path, query, headers, body })
}

/// `read_exact` that reports EOF as a truncated request, not a bare io error.
fn read_exact_or_truncated(reader: &mut impl BufRead, buf: &mut [u8]) -> Result<(), HttpError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            return Err(HttpError::Truncated { while_reading: "the request body" });
        }
        filled += n;
    }
    Ok(())
}

/// Split `a=1&b=two` into decoded pairs; a key without `=` gets an empty
/// value.
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(pair, true), String::new()),
        })
        .collect()
}

/// Decode `%xx` escapes (and `+` as space inside query strings). Invalid
/// escapes pass through verbatim — a lenient decoder cannot be used to smuggle
/// anything here because paths are re-matched against a fixed route table.
pub fn percent_decode(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                match (hex_digit(bytes[i + 1]), hex_digit(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi * 16 + lo);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// The canonical reason phrase for every status the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// An outgoing response; serialized by [`write_to`](Self::write_to) with a
/// `Content-Length` and `Connection: close` on every reply.
#[derive(Clone, Debug)]
pub struct Response {
    /// The status code.
    pub status: u16,
    headers: Vec<(String, String)>,
    /// The body bytes (empty for 304). Shared, not copied: a cached
    /// artifact's response holds the cache entry's own buffer.
    pub body: Arc<Vec<u8>>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Self {
        Response { status, headers: Vec::new(), body: Arc::default() }
    }

    /// A response with a body and explicit content type. Takes an owned
    /// `Vec<u8>` (moved into a fresh `Arc`, not copied) or an already shared
    /// `Arc<Vec<u8>>`.
    pub fn with_body(status: u16, content_type: &str, body: impl Into<Arc<Vec<u8>>>) -> Self {
        Response::new(status).header("Content-Type", content_type).body(body)
    }

    /// A `application/json` response.
    pub fn json(status: u16, body: String) -> Self {
        Response::with_body(status, "application/json", body.into_bytes())
    }

    /// Add a header (builder style).
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Replace the body (builder style).
    pub fn body(mut self, body: impl Into<Arc<Vec<u8>>>) -> Self {
        self.body = body.into();
        self
    }

    /// First header value with the given (case-insensitive) name.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Serialize onto the wire. 304 responses carry headers but no body
    /// bytes and no Content-Length (per RFC 9110 the validator headers
    /// describe the representation that was *not* sent).
    pub fn write_to(&self, writer: &mut dyn io::Write) -> io::Result<()> {
        write!(writer, "HTTP/1.1 {} {}\r\n", self.status, reason_phrase(self.status))?;
        for (name, value) in &self.headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        if self.status != 304 {
            write!(writer, "Content-Length: {}\r\n", self.body.len())?;
        }
        write!(writer, "Connection: close\r\n\r\n")?;
        if self.status != 304 {
            writer.write_all(&self.body)?;
        }
        Ok(())
    }
}

/// Parsed headers as a lookup map (used by tests and the client).
pub fn header_map(headers: &[(String, String)]) -> BTreeMap<String, String> {
    headers.iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.to_vec()), 1024 * 1024)
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let req = parse(
            b"GET /graphs/g1/terrain?measure=kcore&width=640 HTTP/1.1\r\nHost: x\r\nIf-None-Match: \"abc\"\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/graphs/g1/terrain");
        assert_eq!(req.query_param("measure"), Some("kcore"));
        assert_eq!(req.query_param("width"), Some("640"));
        assert_eq!(req.header("if-none-match"), Some("\"abc\""));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_exactly_to_content_length() {
        let req = parse(b"POST /graphs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello extra").unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_a_bodyless_delete() {
        let req = parse(b"DELETE /graphs/g1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Delete);
        assert_eq!(req.path, "/graphs/g1");
        assert!(req.body.is_empty(), "DELETE needs no Content-Length");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse(b"GET /stats HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/stats");
    }

    #[test]
    fn percent_decoding_applies_to_path_and_query() {
        let req = parse(b"GET /graphs/my%20graph?q=a+b%21 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/graphs/my graph");
        assert_eq!(req.query_param("q"), Some("a b!"));
    }

    #[test]
    fn typed_errors_map_to_the_right_status() {
        let cases: Vec<(&[u8], u16)> = vec![
            (b"FLY /x HTTP/1.1\r\n\r\n" as &[u8], 405),
            (b"GET /x HTTP/2.0\r\n\r\n", 505),
            (b"GET\r\n\r\n", 400),
            (b"GET /x\r\n\r\n", 400),
            (b"GET x HTTP/1.1\r\n\r\n", 400),
            (b"POST /graphs HTTP/1.1\r\n\r\n", 411),
            (b"POST /graphs HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
        ];
        for (raw, status) in cases {
            let err = parse(raw).unwrap_err();
            assert_eq!(
                err.response_status(),
                Some(status),
                "{:?} should map to {status}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn eof_before_any_byte_is_a_silent_close() {
        let err = parse(b"").unwrap_err();
        assert!(matches!(err, HttpError::ConnectionClosed));
        assert_eq!(err.response_status(), None);
    }

    #[test]
    fn truncation_mid_request_is_a_400() {
        for raw in [
            b"GET /stats HT".as_slice(),
            b"GET /stats HTTP/1.1\r\nHost: x".as_slice(),
            b"POST /graphs HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf".as_slice(),
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.response_status(), Some(400), "{:?}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn limits_are_enforced() {
        let mut long_line = b"GET /".to_vec();
        long_line.extend(std::iter::repeat(b'a').take(MAX_REQUEST_LINE_BYTES + 10));
        long_line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(parse(&long_line).unwrap_err().response_status(), Some(414));

        let mut big_header = b"GET /x HTTP/1.1\r\nX-Big: ".to_vec();
        big_header.extend(std::iter::repeat(b'b').take(MAX_HEADER_LINE_BYTES + 10));
        big_header.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse(&big_header).unwrap_err().response_status(), Some(431));

        let mut many = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADER_COUNT {
            many.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(parse(&many).unwrap_err().response_status(), Some(431));

        let err = read_request(
            &mut Cursor::new(b"POST /graphs HTTP/1.1\r\nContent-Length: 100\r\n\r\n".to_vec()),
            10,
        )
        .unwrap_err();
        assert_eq!(err.response_status(), Some(413));
    }

    #[test]
    fn responses_serialize_with_content_length_and_close() {
        let mut wire = Vec::new();
        Response::json(200, "{}".into())
            .header("ETag", "\"deadbeef\"")
            .write_to(&mut wire)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("ETag: \"deadbeef\"\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn not_modified_sends_no_body_or_content_length() {
        let mut wire = Vec::new();
        Response::new(304)
            .header("ETag", "\"x\"")
            .body(b"should not appear".to_vec())
            .write_to(&mut wire)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(!text.contains("should not appear"));
    }
}
