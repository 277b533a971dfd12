//! Incremental HTTP/1.1 parsing.
//!
//! Sockets hand bytes over in arbitrary chunks, so both parsers here are
//! incremental: [`RequestParser::read_from`] reads what the message at the
//! front still needs straight off a socket (or [`RequestParser::feed`]
//! hands over bytes read elsewhere), and [`RequestParser::parse`] yields
//! [`Parsed::Complete`] once the head and the full `Content-Length` body
//! are in, [`Parsed::Partial`] otherwise. Bytes of a pipelined next
//! message are kept for the next parse.
//!
//! There is one read path, and a received byte is copied at most once in
//! user space. A head is read into the parser's small head buffer, a
//! `HEAD_RESERVE` at a time, and parsed once, when its blank line
//! arrives. Its `Content-Length` is checked against the body cap and
//! then, and only then, the body gets a `Vec` of exactly that length:
//! the body bytes that came with the head are copied into it, the rest
//! are read into it directly, and the finished message takes it by move.
//! A head buffer left empty is given back, so an idle connection's parser
//! holds nothing.
//!
//! Malformed input is a typed [`ParseError`] — never a panic — so the
//! server can answer `400 Bad Request` and move on. Chunked transfer
//! encoding is deliberately unsupported (every peer in this workspace
//! sends `Content-Length`); a `Transfer-Encoding` header is rejected
//! rather than misparsed.

use std::fmt;
use std::io::Read;

use wsg_net::cov;

use crate::message::{Headers, Request, Response};

/// Hard cap on the head (request/status line + headers) in bytes.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// What one read of a head asks for. A whole request of the open-loop
/// benchmark workloads (1.0 KB per POST on `steady_small`, measured) and
/// every response arrive in one such read; a larger body is read into its
/// own `Vec` after the head, so what a head read brings of it is copied
/// once.
const HEAD_RESERVE: usize = 4 * 1024;

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

/// Where the blank line that ends a head starts in `buf`, if it is there.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    #[cfg(test)]
    tests::SCANNED.with(|scanned| scanned.set(scanned.get() + buf.len()));
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
    /// Bytes not yet part of a parsed head or body: a head still arriving,
    /// and what followed it in the same read.
    bytes: Vec<u8>,
    /// How much of `bytes` has been searched for the blank line, in vain:
    /// the next search resumes just before it.
    scanned: usize,
    max_head: usize,
    max_body: usize,
    /// The head parsed off the front of `bytes`, while its body arrives.
    head: Option<Head>,
}

/// A parsed head: the request or status line, the header fields, and the
/// body as far as it has arrived.
#[derive(Debug)]
struct Head {
    start_line: String,
    headers: Headers,
    /// What the head took on the wire, blank line included.
    len: usize,
    /// Room for the whole declared body, reserved once.
    body: Vec<u8>,
    body_len: usize,
}

impl Head {
    /// Body bytes still to arrive.
    fn missing(&self) -> usize {
        self.body_len - self.body.len()
    }
}

/// A whole message: its start line, its header fields and its body.
type Message = (String, Headers, Vec<u8>);

impl Buffer {
    fn new(max_head: usize, max_body: usize) -> Self {
        Buffer { bytes: Vec::new(), scanned: 0, max_head, max_body, head: None }
    }

    /// Take bytes read elsewhere, routed as [`Buffer::read_from`] routes
    /// what it reads: what a parsed head's body still misses goes into the
    /// body, the rest into the head buffer.
    fn feed(&mut self, mut chunk: &[u8]) {
        if let Some(head) = &mut self.head {
            let (body, rest) = chunk.split_at(head.missing().min(chunk.len()));
            head.body.extend_from_slice(body);
            chunk = rest;
        }
        self.bytes.extend_from_slice(chunk);
    }

    /// Read what the message at the front still needs from `reader`: the
    /// rest of a parsed head's body straight into the body, else up to a
    /// head reserve into the head buffer. Returns the bytes read, `Ok(0)`
    /// at end of stream. A read that brought bytes and then found the
    /// reader quiet (or failing) returns the bytes; the next read meets
    /// the error again.
    fn read_from(&mut self, reader: &mut impl Read) -> std::io::Result<usize> {
        if let Some(head) = self.head.as_mut().filter(|head| head.missing() > 0) {
            // `read_to_end` reads a socket into the capacity reserved for
            // the body without zeroing it first, and `take` stops it at the
            // body's end: never a byte of the next message, never a
            // reallocation.
            let before = head.body.len();
            // wsg_lint: allow(T1) — the reader's timeouts are the caller's: the server arms them at accept, the client where it connects
            let read = reader.take(head.missing() as u64).read_to_end(&mut head.body);
            return match (head.body.len() - before, read) {
                (0, Err(err)) => Err(err),
                (n, _) => Ok(n),
            };
        }
        let filled = self.bytes.len();
        self.bytes.resize(filled + HEAD_RESERVE, 0);
        let read = read_some(reader, &mut self.bytes[filled..]);
        self.bytes.truncate(filled + read.as_ref().map_or(0, |&n| n));
        self.give_back_if_empty();
        read
    }

    /// Split the message at the front off once its head and body are in.
    /// Returns `Ok(None)` when more bytes are needed.
    fn split_message(&mut self) -> Result<Option<Message>, ParseError> {
        if self.head.is_none() {
            self.head = self.parse_head()?;
        }
        let Some(head) = self.head.take_if(|head| head.missing() == 0) else {
            cov!();
            return Ok(None);
        };
        cov!();
        Ok(Some((head.start_line, head.headers, head.body)))
    }

    /// The head at the front of the buffer, once its blank line is in
    /// (`Ok(None)` before), with the body bytes that came with it moved
    /// into a body `Vec` reserved for the declared length.
    fn parse_head(&mut self) -> Result<Option<Head>, ParseError> {
        // A blank line may straddle the end of the last search.
        let from = self.scanned.saturating_sub(3);
        let Some(head_end) = find_head_end(&self.bytes[from..]).map(|at| from + at) else {
            self.scanned = self.bytes.len();
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
        let len = head_end + 4;
        let arrived = self.bytes.len().min(len + body_len);
        let mut body = Vec::with_capacity(body_len);
        body.extend_from_slice(&self.bytes[len..arrived]);
        self.bytes.drain(..arrived);
        self.scanned = 0;
        self.give_back_if_empty();
        Ok(Some(Head { start_line, headers, len, body, body_len }))
    }

    /// Free an empty head buffer: a connection between requests holds
    /// nothing, and the next head read reserves afresh.
    fn give_back_if_empty(&mut self) {
        if self.bytes.is_empty() {
            self.bytes = Vec::new();
        }
    }

    /// Bytes taken in and not yet handed out as a message.
    fn buffered(&self) -> usize {
        self.bytes.len() + self.head.as_ref().map_or(0, |head| head.len + head.body.len())
    }
}

/// `reader.read(buf)`, read again when a signal cut it short: a socket
/// read with a timeout armed fails with `EINTR` instead of restarting,
/// however the handler was installed, and says nothing about the
/// connection. (Taken for a failure, it dropped a live connection in the
/// server, and had the client post a batch the server already dispatched
/// again.)
pub(crate) fn read_some(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match reader.read(buf) {
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            read => return read,
        }
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

    /// Take another chunk read from the socket elsewhere.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buffer.feed(chunk);
    }

    /// Read what the request at the front still needs from `reader`:
    /// `Ok(0)` at end of stream. `EINTR` is read again; a read timeout is
    /// the reader's error, and a partial request waits here for the next
    /// read. Call [`RequestParser::parse`] between reads.
    ///
    /// # Errors
    ///
    /// Whatever the read failed with, unless it brought bytes first.
    pub fn read_from(&mut self, reader: &mut impl Read) -> std::io::Result<usize> {
        self.buffer.read_from(reader)
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buffer.buffered()
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

    /// Take another chunk read from the socket elsewhere.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buffer.feed(chunk);
    }

    /// Read what the response at the front still needs from `reader`, as
    /// [`RequestParser::read_from`] does.
    ///
    /// # Errors
    ///
    /// Whatever the read failed with, unless it brought bytes first.
    pub fn read_from(&mut self, reader: &mut impl Read) -> std::io::Result<usize> {
        self.buffer.read_from(reader)
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
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::io::ErrorKind;

    thread_local! {
        /// Bytes `find_head_end` has searched on this thread.
        pub(super) static SCANNED: Cell<usize> = const { Cell::new(0) };
    }

    /// A reader that plays back a script: each step is bytes (handed out
    /// as far as the caller's buffer takes them) or an error.
    struct Script(VecDeque<Result<Vec<u8>, ErrorKind>>);

    impl Script {
        fn new(steps: impl IntoIterator<Item = Result<Vec<u8>, ErrorKind>>) -> Self {
            Script(steps.into_iter().collect())
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.push_front(Ok(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn post(body: &[u8]) -> Vec<u8> {
        Request::post("/gossip", body.to_vec()).with_header("Host", "x").to_bytes()
    }

    /// Read and parse `parser`'s requests off `reader` until it ends.
    fn read_all(parser: &mut RequestParser, mut reader: impl Read) -> Vec<Request> {
        let mut requests = Vec::new();
        loop {
            while let Parsed::Complete(request) = parser.parse().unwrap() {
                requests.push(request);
            }
            match parser.read_from(&mut reader) {
                Ok(0) => return requests,
                Ok(_) => {}
                Err(err) => assert_eq!(err.kind(), ErrorKind::WouldBlock),
            }
        }
    }

    #[test]
    fn a_head_sent_a_byte_at_a_time_is_searched_once() {
        // A head of nearly 16 KiB, one byte per read and a parse after each:
        // each search resumes three bytes before where the last one stopped.
        // Searched from the start each time, it was 123.5 M bytes.
        let filler = format!("X-Filler: {}\r\n", "y".repeat(100)).repeat(140);
        let wire = format!("POST / HTTP/1.1\r\n{filler}Content-Length: 2\r\n\r\nab");
        assert!(wire.len() > 15 * 1024 && wire.len() < MAX_HEAD_BYTES);
        let mut p = RequestParser::new();
        SCANNED.with(|scanned| scanned.set(0));
        for byte in wire.as_bytes() {
            p.feed(&[*byte]);
            if let Parsed::Complete(request) = p.parse().unwrap() {
                assert_eq!(request.body, b"ab");
            }
        }
        let scanned = SCANNED.with(Cell::get);
        assert!(scanned <= 4 * wire.len(), "searched {scanned} bytes of a {}-byte head", wire.len());
    }

    #[test]
    fn a_body_is_read_into_the_room_its_head_reserved() {
        // A 100 KiB request and a small one pipelined behind it, in reads
        // of up to 7 000 bytes with the reader going quiet between them.
        let large = vec![b'x'; 100 * 1024];
        let mut wire = post(&large);
        wire.extend_from_slice(&post(b"small"));
        let mut steps = Vec::new();
        for piece in wire.chunks(7_000) {
            steps.extend([Ok(piece.to_vec()), Err(ErrorKind::WouldBlock)]);
        }
        let mut p = RequestParser::new();
        let mut reader = Script::new(steps);
        // The first read brings the head and the front of the body.
        assert_eq!(p.read_from(&mut reader).unwrap(), HEAD_RESERVE);
        assert!(matches!(p.parse(), Ok(Parsed::Partial)));
        let head = p.buffer.head.as_ref().expect("the head is parsed");
        assert_eq!(head.body.capacity(), large.len());
        assert_eq!(p.buffer.bytes.capacity(), 0, "an empty head buffer is given back");
        let buffered = p.buffered();
        // The body's rest is read into its room, up to its end and no
        // further: the next request is not read with it.
        let n = p.read_from(&mut reader).unwrap();
        assert_eq!((n, p.buffered()), (7_000 - HEAD_RESERVE, buffered + n));
        let requests = read_all(&mut p, reader);
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[0].body, large);
        assert_eq!(requests[0].body.capacity(), large.len());
        assert_eq!(requests[1].body, b"small");
        assert_eq!((p.buffered(), p.buffer.bytes.capacity()), (0, 0));
    }

    #[test]
    fn a_read_a_signal_cut_short_is_read_again_for_head_and_body() {
        let wire = post(&[b'z'; 10_000]);
        let steps = wire.chunks(3_000).flat_map(|piece| {
            [Err(ErrorKind::Interrupted), Err(ErrorKind::Interrupted), Ok(piece.to_vec())]
        });
        let requests = read_all(&mut RequestParser::new(), Script::new(steps));
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].body, [b'z'; 10_000]);
    }

    #[test]
    fn a_body_cut_short_by_the_peer_ends_the_stream() {
        // The body's bytes that came are counted; then the end of stream.
        let wire = post(&[b'q'; 9_000]);
        let mut p = RequestParser::new();
        let mut reader = Script::new([Ok(wire[..8_000].to_vec())]);
        assert_eq!(p.read_from(&mut reader).unwrap(), HEAD_RESERVE);
        assert!(matches!(p.parse(), Ok(Parsed::Partial)));
        assert_eq!(p.read_from(&mut reader).unwrap(), 8_000 - HEAD_RESERVE);
        assert_eq!(p.read_from(&mut reader).unwrap(), 0);
        assert!(matches!(p.parse(), Ok(Parsed::Partial)));
        assert_eq!(p.buffered(), 8_000);
    }

    #[test]
    fn feeding_routes_bytes_as_reading_does() {
        // A chunk that ends one body and starts the next request.
        let (first, second) = (post(&[b'a'; 5_000]), post(b"b"));
        let mut p = RequestParser::new();
        p.feed(&first[..4_000]);
        assert!(matches!(p.parse(), Ok(Parsed::Partial)));
        let mut rest = first[4_000..].to_vec();
        rest.extend_from_slice(&second);
        p.feed(&rest);
        assert_eq!(p.buffer.head.as_ref().map(Head::missing), Some(0));
        assert_eq!(p.buffer.bytes, second);
        let Ok(Parsed::Complete(request)) = p.parse() else { panic!("the first is complete") };
        assert_eq!((request.body.len(), request.body.capacity()), (5_000, 5_000));
        assert!(matches!(p.parse(), Ok(Parsed::Complete(r)) if r.body == b"b"));
    }

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
