//! HTTP/1.1 message types and their wire serialisation.
//!
//! Requests and responses are plain owned structs; [`Headers`] keeps
//! insertion order and looks names up case-insensitively, as RFC 9110
//! requires (`Content-Length`, `content-length` and `CONTENT-LENGTH` are
//! the same header on the wire).

use std::fmt::Write as _;
use std::time::Duration;

/// An ordered header list with case-insensitive name lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// An empty header list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header (duplicates are kept; [`Headers::get`] returns the
    /// first).
    pub fn push(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// First value of `name`, compared case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All entries, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Whether a message with these headers keeps the connection open.
///
/// HTTP/1.1 defaults to keep-alive unless `Connection: close`; HTTP/1.0
/// defaults to close unless `Connection: keep-alive`.
fn keep_alive(version: &str, headers: &Headers) -> bool {
    let connection = headers.get("connection").unwrap_or("");
    if connection.eq_ignore_ascii_case("close") {
        return false;
    }
    if version == "HTTP/1.0" {
        return connection.eq_ignore_ascii_case("keep-alive");
    }
    true
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method ("POST", "GET", ...).
    pub method: String,
    /// Request target ("/gossip").
    pub target: String,
    /// Protocol version ("HTTP/1.1").
    pub version: String,
    /// Header fields in order of appearance.
    pub headers: Headers,
    /// The message body (empty when no `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// A POST request carrying `body`, with `Content-Length` set.
    pub fn post(target: impl Into<String>, body: Vec<u8>) -> Self {
        let mut headers = Headers::new();
        headers.push("Content-Length", body.len().to_string());
        Request {
            method: "POST".into(),
            target: target.into(),
            version: "HTTP/1.1".into(),
            headers,
            body,
        }
    }

    /// Builder: append a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push(name, value);
        self
    }

    /// First value of a header, case-insensitive.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    /// The `SOAPAction` header value with optional surrounding quotes
    /// stripped, as the SOAP 1.1 HTTP binding writes it.
    pub fn soap_action(&self) -> Option<&str> {
        self.headers
            .get("soapaction")
            .map(|v| v.trim().trim_matches('"'))
    }

    /// Whether the connection stays open after this exchange.
    pub fn keep_alive(&self) -> bool {
        keep_alive(&self.version, &self.headers)
    }

    /// Serialise to wire bytes (head + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = String::new();
        // wsg_lint: allow(E2) — fmt::Write to a String is infallible
        let _ = write!(head, "{} {} {}\r\n", self.method, self.target, self.version);
        for (name, value) in self.headers.iter() {
            // wsg_lint: allow(E2) — fmt::Write to a String is infallible
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Protocol version ("HTTP/1.1").
    pub version: String,
    /// Status code (200, 202, 400, 500, ...).
    pub status: u16,
    /// Reason phrase ("OK").
    pub reason: String,
    /// Header fields in order of appearance.
    pub headers: Headers,
    /// The message body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status, an empty body and
    /// `Content-Length: 0`.
    pub fn new(status: u16, reason: impl Into<String>) -> Self {
        let mut headers = Headers::new();
        headers.push("Content-Length", "0");
        Response {
            version: "HTTP/1.1".into(),
            status,
            reason: reason.into(),
            headers,
            body: Vec::new(),
        }
    }

    /// A response carrying `body` with the given content type
    /// (`Content-Length` is set from the body).
    pub(crate) fn with_body(status: u16, reason: impl Into<String>, content_type: &str, body: Vec<u8>) -> Self {
        let mut headers = Headers::new();
        headers.push("Content-Type", content_type);
        headers.push("Content-Length", body.len().to_string());
        Response {
            version: "HTTP/1.1".into(),
            status,
            reason: reason.into(),
            headers,
            body,
        }
    }

    /// Builder: append a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push(name, value);
        self
    }

    /// First value of a header, case-insensitive.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    /// Whether the connection stays open after this exchange.
    pub fn keep_alive(&self) -> bool {
        keep_alive(&self.version, &self.headers)
    }

    /// How long the server keeps the connection open while it is idle, as
    /// its `Keep-Alive: timeout=<seconds>` says; `None` when it says
    /// nothing of it.
    pub fn keep_alive_timeout(&self) -> Option<Duration> {
        let timeout = self.header("keep-alive")?.split(',').find_map(|param| {
            let (name, value) = param.split_once('=')?;
            name.trim().eq_ignore_ascii_case("timeout").then(|| value.trim().parse().ok())?
        })?;
        Some(Duration::from_secs(timeout))
    }

    /// The body as UTF-8 text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Serialise to wire bytes (head + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = String::new();
        // wsg_lint: allow(E2) — fmt::Write to a String is infallible
        let _ = write!(head, "{} {} {}\r\n", self.version, self.status, self.reason);
        for (name, value) in self.headers.iter() {
            // wsg_lint: allow(E2) — fmt::Write to a String is infallible
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_lookup_is_case_insensitive() {
        let mut headers = Headers::new();
        headers.push("Content-Length", "12");
        headers.push("SOAPAction", "\"urn:op\"");
        assert_eq!(headers.get("content-length"), Some("12"));
        assert_eq!(headers.get("CONTENT-LENGTH"), Some("12"));
        assert_eq!(headers.get("soapaction"), Some("\"urn:op\""));
        assert_eq!(headers.get("missing"), None);
    }

    #[test]
    fn post_sets_content_length() {
        let req = Request::post("/gossip", b"hello".to_vec());
        assert_eq!(req.header("Content-Length"), Some("5"));
        let wire = String::from_utf8(req.to_bytes()).unwrap();
        assert!(wire.starts_with("POST /gossip HTTP/1.1\r\n"));
        assert!(wire.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn soap_action_strips_quotes() {
        let req = Request::post("/", Vec::new()).with_header("SOAPAction", "\"urn:notify\"");
        assert_eq!(req.soap_action(), Some("urn:notify"));
        let bare = Request::post("/", Vec::new()).with_header("soapaction", "urn:notify");
        assert_eq!(bare.soap_action(), Some("urn:notify"));
    }

    #[test]
    fn keep_alive_timeout_is_read_in_whole_seconds() {
        let said = |value: &str| Response::new(202, "Accepted").with_header("Keep-Alive", value).keep_alive_timeout();
        assert_eq!(said("timeout=5"), Some(Duration::from_secs(5)));
        assert_eq!(said("max=100, Timeout = 3"), Some(Duration::from_secs(3)));
        assert_eq!(said("max=100"), None);
        assert_eq!(said("timeout=soon"), None);
        assert_eq!(Response::new(202, "Accepted").keep_alive_timeout(), None);
    }

    #[test]
    fn keep_alive_defaults_by_version() {
        let http11 = Request::post("/", Vec::new());
        assert!(http11.keep_alive());
        let close = Request::post("/", Vec::new()).with_header("Connection", "close");
        assert!(!close.keep_alive());
        let mut http10 = Request::post("/", Vec::new());
        http10.version = "HTTP/1.0".into();
        assert!(!http10.keep_alive());
        let http10_ka = http10.with_header("Connection", "Keep-Alive");
        assert!(http10_ka.keep_alive());
    }

    #[test]
    fn response_serialises_status_line() {
        let resp = Response::with_body(500, "Internal Server Error", "application/soap+xml", b"<f/>".to_vec());
        let wire = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(wire.starts_with("HTTP/1.1 500 Internal Server Error\r\n"));
        assert!(wire.contains("Content-Length: 4\r\n"));
        assert!(wire.ends_with("\r\n\r\n<f/>"));
    }
}
