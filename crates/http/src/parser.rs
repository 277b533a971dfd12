//! Incremental HTTP/1.1 parsing.
//!
//! Sockets hand bytes over in arbitrary chunks, so both parsers here are
//! push-based: [`RequestParser::feed`] buffers whatever a `read` returned
//! and [`RequestParser::parse`] yields [`Parsed::Complete`] once the head
//! and the full `Content-Length` body are buffered, [`Parsed::Partial`]
//! otherwise. Bytes of a pipelined next message are left in the buffer.
//! A head is parsed once, when its blank line arrives, and kept until its
//! body is complete: a body that arrives in many reads costs no more head
//! parses than one that arrives in one.
//!
//! Malformed input is a typed [`ParseError`] — never a panic — so the
//! server can answer `400 Bad Request` and move on. Chunked transfer
//! encoding is deliberately unsupported (every peer in this workspace
//! sends `Content-Length`); a `Transfer-Encoding` header is rejected
//! rather than misparsed.

use std::fmt;

use wsg_net::cov;

use crate::message::{Headers, Request, Response};

/// Hard cap on the head (request/status line + headers) in bytes.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard cap on a message body in bytes.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Why a message could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line was not `METHOD SP target SP HTTP/1.x`.
    BadRequestLine(String),
    /// The status line was not `HTTP/1.x SP code SP reason`.
    BadStatusLine(String),
    /// A header field was malformed (no colon, empty or non-token name).
    BadHeader(String),
    /// `Content-Length` was not a decimal integer.
    BadContentLength(String),
    /// `Transfer-Encoding` (e.g. chunked) is not supported.
    UnsupportedTransferEncoding,
    /// The head exceeded the configured limit without terminating.
    HeadTooLarge(usize),
    /// The declared body length exceeded the configured limit.
    BodyTooLarge(usize),
    /// The head contained bytes that are not valid UTF-8.
    NonUtf8Head,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadRequestLine(line) => write!(f, "malformed request line: {line:?}"),
            ParseError::BadStatusLine(line) => write!(f, "malformed status line: {line:?}"),
            ParseError::BadHeader(line) => write!(f, "malformed header field: {line:?}"),
            ParseError::BadContentLength(v) => write!(f, "invalid Content-Length: {v:?}"),
            ParseError::UnsupportedTransferEncoding => {
                write!(f, "Transfer-Encoding is not supported")
            }
            ParseError::HeadTooLarge(n) => write!(f, "message head exceeds {n} bytes"),
            ParseError::BodyTooLarge(n) => write!(f, "declared body of {n} bytes exceeds limit"),
            ParseError::NonUtf8Head => write!(f, "message head is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Outcome of a parse attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed<T> {
    /// A full message; trailing pipelined bytes stay buffered.
    Complete(T),
    /// More bytes are needed.
    Partial,
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// RFC 9110 token characters (header names, methods).
fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes().all(|b| {
            b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
        })
}

fn parse_header_lines<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Headers, ParseError> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            cov!();
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            cov!();
            return Err(ParseError::BadHeader(line.to_string()));
        };
        if !is_token(name) {
            cov!();
            return Err(ParseError::BadHeader(line.to_string()));
        }
        cov!();
        headers.push(name, value.trim());
    }
    Ok(headers)
}

fn content_length(headers: &Headers, max_body: usize) -> Result<usize, ParseError> {
    if headers.get("transfer-encoding").is_some() {
        cov!();
        return Err(ParseError::UnsupportedTransferEncoding);
    }
    let length = match headers.get("content-length") {
        Some(v) => {
            cov!();
            v.trim().parse::<usize>().map_err(|_| {
                cov!();
                ParseError::BadContentLength(v.to_string())
            })?
        }
        None => {
            cov!();
            0
        }
    };
    if length > max_body {
        cov!();
        return Err(ParseError::BodyTooLarge(length));
    }
    Ok(length)
}

/// Shared buffering logic for both parsers.
#[derive(Debug)]
struct Buffer {
    bytes: Vec<u8>,
    max_head: usize,
    max_body: usize,
    /// The head at the front of `bytes`, once parsed, while its body is
    /// still arriving.
    head: Option<Head>,
}

/// A parsed head: the request or status line, the header fields, and
/// where in the buffer the body lies.
#[derive(Debug)]
struct Head {
    start_line: String,
    headers: Headers,
    body_start: usize,
    body_len: usize,
}

/// A whole message: its start line, its header fields and its body.
type Message = (String, Headers, Vec<u8>);

impl Buffer {
    fn new(max_head: usize, max_body: usize) -> Self {
        Buffer { bytes: Vec::new(), max_head, max_body, head: None }
    }

    fn feed(&mut self, chunk: &[u8]) {
        self.bytes.extend_from_slice(chunk);
    }

    /// Split the message at the front off once its head and body are
    /// buffered. Returns `Ok(None)` when more bytes are needed.
    fn split_message(&mut self) -> Result<Option<Message>, ParseError> {
        if self.head.is_none() {
            self.head = self.parse_head()?;
        }
        let buffered = self.bytes.len();
        let Some(head) = self.head.take_if(|head| buffered >= head.body_start + head.body_len) else {
            cov!();
            return Ok(None);
        };
        cov!();
        let body_end = head.body_start + head.body_len;
        let body = self.bytes[head.body_start..body_end].to_vec();
        self.bytes.drain(..body_end);
        Ok(Some((head.start_line, head.headers, body)))
    }

    /// The head at the front of the buffer, once its blank line is
    /// buffered: `Ok(None)` before.
    fn parse_head(&self) -> Result<Option<Head>, ParseError> {
        let Some(head_end) = find_head_end(&self.bytes) else {
            if self.bytes.len() > self.max_head {
                cov!();
                return Err(ParseError::HeadTooLarge(self.max_head));
            }
            cov!();
            return Ok(None);
        };
        if head_end > self.max_head {
            cov!();
            return Err(ParseError::HeadTooLarge(self.max_head));
        }
        let head = std::str::from_utf8(&self.bytes[..head_end]).map_err(|_| {
            cov!();
            ParseError::NonUtf8Head
        })?;
        let mut lines = head.split("\r\n");
        let start_line = lines.next().unwrap_or("").to_string();
        let headers = parse_header_lines(lines)?;
        let body_len = content_length(&headers, self.max_body)?;
        Ok(Some(Head { start_line, headers, body_start: head_end + 4, body_len }))
    }
}

/// Incremental parser for HTTP requests (server side).
#[derive(Debug)]
pub struct RequestParser {
    buffer: Buffer,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser with the default head/body limits.
    pub fn new() -> Self {
        Self::with_limits(MAX_HEAD_BYTES, MAX_BODY_BYTES)
    }

    /// A parser with explicit head/body limits.
    pub fn with_limits(max_head: usize, max_body: usize) -> Self {
        RequestParser { buffer: Buffer::new(max_head, max_body) }
    }

    /// Buffer another chunk read from the socket.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buffer.feed(chunk);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buffer.bytes.len()
    }

    /// Try to produce a complete request from the buffered bytes.
    ///
    /// # Errors
    ///
    /// Any [`ParseError`]; the connection should be answered with 400 and
    /// closed, since resynchronisation is impossible.
    pub fn parse(&mut self) -> Result<Parsed<Request>, ParseError> {
        let Some((request_line, headers, body)) = self.buffer.split_message()? else {
            return Ok(Parsed::Partial);
        };
        let (method, target, version) = parse_request_line(&request_line)?;
        Ok(Parsed::Complete(Request { method, target, version, headers, body }))
    }
}

fn parse_request_line(line: &str) -> Result<(String, String, String), ParseError> {
    let bad = || ParseError::BadRequestLine(line.to_string());
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            cov!();
            return Err(bad());
        }
    };
    if !is_token(method) || target.is_empty() {
        cov!();
        return Err(bad());
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        cov!();
        return Err(bad());
    }
    cov!();
    Ok((method.to_string(), target.to_string(), version.to_string()))
}

/// Incremental parser for HTTP responses (client side).
#[derive(Debug)]
pub struct ResponseParser {
    buffer: Buffer,
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseParser {
    /// A parser with the default head/body limits.
    pub fn new() -> Self {
        ResponseParser { buffer: Buffer::new(MAX_HEAD_BYTES, MAX_BODY_BYTES) }
    }

    /// Buffer another chunk read from the socket.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buffer.feed(chunk);
    }

    /// Try to produce a complete response from the buffered bytes.
    ///
    /// # Errors
    ///
    /// Any [`ParseError`]; the connection should be discarded.
    pub fn parse(&mut self) -> Result<Parsed<Response>, ParseError> {
        let Some((status_line, headers, body)) = self.buffer.split_message()? else {
            return Ok(Parsed::Partial);
        };
        let (version, status, reason) = parse_status_line(&status_line)?;
        Ok(Parsed::Complete(Response { version, status, reason, headers, body }))
    }
}

fn parse_status_line(line: &str) -> Result<(String, u16, String), ParseError> {
    let bad = || ParseError::BadStatusLine(line.to_string());
    let mut parts = line.splitn(3, ' ');
    let (version, code) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => {
            cov!();
            return Err(bad());
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        cov!();
        return Err(bad());
    }
    let status = code.parse::<u16>().map_err(|_| {
        cov!();
        bad()
    })?;
    if !(100..=599).contains(&status) {
        cov!();
        return Err(bad());
    }
    cov!();
    let reason = parts.next().unwrap_or("").to_string();
    Ok((version.to_string(), status, reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(wire: &[u8]) -> Result<Parsed<Request>, ParseError> {
        let mut p = RequestParser::new();
        p.feed(wire);
        p.parse()
    }

    #[test]
    fn whole_request_in_one_chunk() {
        let wire = b"POST /gossip HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        match parse_all(wire).unwrap() {
            Parsed::Complete(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.target, "/gossip");
                assert_eq!(req.body, b"hello");
            }
            Parsed::Partial => panic!("should be complete"),
        }
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 3\r\nSOAPAction: \"urn:x\"\r\n\r\nabc";
        let mut p = RequestParser::new();
        for (i, byte) in wire.iter().enumerate() {
            p.feed(&[*byte]);
            let parsed = p.parse().unwrap();
            if i + 1 < wire.len() {
                assert!(matches!(parsed, Parsed::Partial), "early completion at byte {i}");
            } else {
                match parsed {
                    Parsed::Complete(req) => {
                        assert_eq!(req.body, b"abc");
                        assert_eq!(req.soap_action(), Some("urn:x"));
                    }
                    Parsed::Partial => panic!("never completed"),
                }
            }
        }
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipelined_requests_keep_remainder() {
        let wire = b"POST /a HTTP/1.1\r\nContent-Length: 1\r\n\r\nXPOST /b HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let mut p = RequestParser::new();
        p.feed(wire);
        let first = match p.parse().unwrap() {
            Parsed::Complete(r) => r,
            Parsed::Partial => panic!(),
        };
        assert_eq!(first.target, "/a");
        assert_eq!(first.body, b"X");
        let second = match p.parse().unwrap() {
            Parsed::Complete(r) => r,
            Parsed::Partial => panic!(),
        };
        assert_eq!(second.target, "/b");
        assert!(second.body.is_empty());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let wire = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        match parse_all(wire).unwrap() {
            Parsed::Complete(req) => assert!(req.body.is_empty()),
            Parsed::Partial => panic!(),
        }
    }

    #[test]
    fn malformed_request_lines_error() {
        for line in [
            "",
            "POST",
            "POST /x",
            "POST /x HTTP/1.1 extra",
            "POST  HTTP/1.1",
            "POST /x HTTP/9.9",
            "P()ST /x HTTP/1.1",
            " POST /x HTTP/1.1",
        ] {
            let wire = format!("{line}\r\n\r\n");
            assert!(
                matches!(parse_all(wire.as_bytes()), Err(ParseError::BadRequestLine(_))),
                "line {line:?} should be rejected"
            );
        }
    }

    #[test]
    fn malformed_headers_error() {
        let no_colon = b"POST / HTTP/1.1\r\nBadHeader\r\n\r\n";
        assert!(matches!(parse_all(no_colon), Err(ParseError::BadHeader(_))));
        let spaced_name = b"POST / HTTP/1.1\r\nBad Header: v\r\n\r\n";
        assert!(matches!(parse_all(spaced_name), Err(ParseError::BadHeader(_))));
    }

    #[test]
    fn bad_content_length_errors() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert!(matches!(parse_all(wire), Err(ParseError::BadContentLength(_))));
    }

    #[test]
    fn chunked_is_rejected_not_misparsed() {
        let wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        assert!(matches!(
            parse_all(wire),
            Err(ParseError::UnsupportedTransferEncoding)
        ));
    }

    #[test]
    fn oversized_head_errors() {
        let mut p = RequestParser::with_limits(64, 1024);
        p.feed(b"POST / HTTP/1.1\r\n");
        let long = format!("X-Filler: {}\r\n", "y".repeat(100));
        p.feed(long.as_bytes());
        assert!(matches!(p.parse(), Err(ParseError::HeadTooLarge(_))));
    }

    #[test]
    fn oversized_body_errors() {
        let mut p = RequestParser::with_limits(1024, 8);
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n");
        assert!(matches!(p.parse(), Err(ParseError::BodyTooLarge(9))));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::with_body(200, "OK", "text/plain", b"yo".to_vec());
        let mut p = ResponseParser::new();
        p.feed(&resp.to_bytes());
        match p.parse().unwrap() {
            Parsed::Complete(parsed) => {
                assert_eq!(parsed.status, 200);
                assert_eq!(parsed.reason, "OK");
                assert_eq!(parsed.body, b"yo");
            }
            Parsed::Partial => panic!(),
        }
    }

    #[test]
    fn response_reason_may_contain_spaces() {
        let wire = b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n";
        let mut p = ResponseParser::new();
        p.feed(wire);
        match p.parse().unwrap() {
            Parsed::Complete(resp) => {
                assert_eq!(resp.status, 500);
                assert_eq!(resp.reason, "Internal Server Error");
            }
            Parsed::Partial => panic!(),
        }
    }

    #[test]
    fn malformed_status_lines_error() {
        for line in ["", "HTTP/1.1", "HTTP/2 200 OK", "HTTP/1.1 abc OK", "HTTP/1.1 99 low"] {
            let wire = format!("{line}\r\nContent-Length: 0\r\n\r\n");
            let mut p = ResponseParser::new();
            p.feed(wire.as_bytes());
            assert!(
                matches!(p.parse(), Err(ParseError::BadStatusLine(_))),
                "status line {line:?} should be rejected"
            );
        }
    }
}
