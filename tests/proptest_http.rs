//! Property-based tests for the `wsg_http` HTTP/1.1 parser on the
//! in-tree `wsg_net::check` harness: random header casing, random body
//! sizes, arbitrary read-boundary splits, and hostile request lines. The
//! one invariant that matters above all: the parser **never panics** —
//! malformed input is a typed error the server turns into a 400.

use wsg_net::check::{run, Gen};
use wsg_net::{prop_assert, prop_assert_eq};

use wsg_http::message::Request;
use wsg_http::parser::{ParseError, Parsed, RequestParser, ResponseParser};

/// Randomise the ASCII case of a header name ("content-length" →
/// "CoNtEnT-lEnGtH"); lookups must not care.
fn random_case(g: &mut Gen, name: &str) -> String {
    name.chars()
        .map(|c| if g.bool(0.5) { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() })
        .collect()
}

/// Feed `wire` to a parser in random chunks, mimicking arbitrary
/// `read()` boundaries, and return the first parse outcome after the
/// last byte.
fn parse_in_random_chunks(g: &mut Gen, wire: &[u8]) -> Result<Parsed<Request>, ParseError> {
    let mut parser = RequestParser::new();
    let mut rest = wire;
    while !rest.is_empty() {
        let take = g.usize(1..=rest.len());
        parser.feed(&rest[..take]);
        rest = &rest[take..];
        if !rest.is_empty() {
            // Mid-message polls must never panic either.
            let _ = parser.parse();
        }
    }
    parser.parse()
}

/// A well-formed POST parses identically no matter how the bytes are
/// split across reads, with randomly-cased header names and a random
/// binary body.
#[test]
fn split_boundaries_never_change_the_parse() {
    run("split_boundaries_never_change_the_parse", 96, |g| {
        let body = g.bytes(512);
        let mut wire = Vec::new();
        wire.extend_from_slice(b"POST /gossip HTTP/1.1\r\n");
        wire.extend_from_slice(
            format!("{}: {}\r\n", random_case(g, "content-length"), body.len()).as_bytes(),
        );
        wire.extend_from_slice(
            format!("{}: \"urn:svc:Notify\"\r\n", random_case(g, "soapaction")).as_bytes(),
        );
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&body);

        match parse_in_random_chunks(g, &wire).map_err(|e| e.to_string())? {
            Parsed::Complete(request) => {
                prop_assert_eq!(request.method.as_str(), "POST");
                prop_assert_eq!(request.body, body);
                prop_assert_eq!(request.soap_action(), Some("urn:svc:Notify"));
            }
            Parsed::Partial => prop_assert!(false, "full wire message must parse completely"),
        }
        Ok(())
    });
}

/// Bodies of arbitrary size round-trip exactly (no truncation, no
/// over-read), and the parser consumes exactly the message's bytes.
#[test]
fn random_body_sizes_roundtrip_exactly() {
    run("random_body_sizes_roundtrip_exactly", 96, |g| {
        let size = g.usize(0..=4096);
        let body: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let wire = Request::post("/gossip", body.clone()).to_bytes();
        let mut parser = RequestParser::new();
        parser.feed(&wire);
        match parser.parse().map_err(|e| e.to_string())? {
            Parsed::Complete(request) => prop_assert_eq!(request.body, body),
            Parsed::Partial => prop_assert!(false, "complete message must parse"),
        }
        prop_assert_eq!(parser.buffered(), 0);
        Ok(())
    });
}

/// Arbitrary garbage request lines produce a typed error — never a panic,
/// never a bogus `Complete`.
#[test]
fn malformed_request_lines_error_instead_of_panicking() {
    run("malformed_request_lines_error_instead_of_panicking", 128, |g| {
        // Random ASCII with injected spaces: virtually never a valid
        // "METHOD SP target SP HTTP/1.x" triple.
        let mut line = g.ascii_string(60);
        if g.bool(0.5) {
            line.push(' ');
            line.push_str(&g.ascii_string(10));
        }
        let wire = format!("{line}\r\n\r\n");
        let mut parser = RequestParser::new();
        parser.feed(wire.as_bytes());
        match parser.parse() {
            Ok(Parsed::Complete(request)) => {
                // The only way to "succeed" is to actually be well-formed.
                prop_assert!(
                    line.split(' ').count() == 3
                        && (line.ends_with("HTTP/1.1") || line.ends_with("HTTP/1.0")),
                    "bogus line parsed as a request: {line:?}"
                );
                prop_assert!(!request.method.is_empty());
            }
            Ok(Parsed::Partial) => prop_assert!(false, "terminated head cannot be partial"),
            Err(_) => {}
        }
        Ok(())
    });
}

/// Totally random bytes — fed in random chunks — never panic either
/// parser and never yield a `Complete` without a valid head.
#[test]
fn random_bytes_never_panic_the_parsers() {
    run("random_bytes_never_panic_the_parsers", 128, |g| {
        let noise = g.bytes(2048);
        let mut request_parser = RequestParser::new();
        let mut response_parser = ResponseParser::new();
        let mut rest = noise.as_slice();
        while !rest.is_empty() {
            let take = g.usize(1..=rest.len());
            request_parser.feed(&rest[..take]);
            response_parser.feed(&rest[..take]);
            rest = &rest[take..];
            let _ = request_parser.parse();
            let _ = response_parser.parse();
        }
        Ok(())
    });
}

/// Keep-alive semantics hold under random header-name casing and random
/// HTTP versions.
#[test]
fn keep_alive_is_case_insensitive() {
    run("keep_alive_is_case_insensitive", 64, |g| {
        let version = *g.pick(&["HTTP/1.1", "HTTP/1.0"]);
        let value = *g.pick(&["close", "keep-alive", "Close", "Keep-Alive"]);
        let wire = format!(
            "POST / {version}\r\n{}: {value}\r\nContent-Length: 0\r\n\r\n",
            random_case(g, "connection"),
        );
        let mut parser = RequestParser::new();
        parser.feed(wire.as_bytes());
        let Parsed::Complete(request) = parser.parse().map_err(|e| e.to_string())? else {
            prop_assert!(false, "complete message must parse");
            return Ok(());
        };
        let expected = if value.eq_ignore_ascii_case("close") {
            false
        } else {
            version == "HTTP/1.1" || value.eq_ignore_ascii_case("keep-alive")
        };
        prop_assert_eq!(request.keep_alive(), expected);
        Ok(())
    });
}

/// Two or three requests pipelined on one connection, their bytes cut
/// into reads at random with a parse after every read: each request comes
/// out once, in order, with its own head and its own body — a head kept
/// while its body arrives is never the next request's — and nothing is
/// left over.
#[test]
fn pipelined_requests_cut_anywhere_parse_to_their_own_bodies() {
    run("pipelined_requests_cut_anywhere_parse_to_their_own_bodies", 128, |g| {
        let sent: Vec<(String, Vec<u8>)> = (0..g.usize(2..=3))
            .map(|n| {
                let size = if g.bool(0.2) { g.usize(0..=64 * 1024) } else { g.usize(0..=300) };
                let fill = g.usize(0..=255);
                (format!("/r{n}"), (0..size).map(|i| ((i + fill) % 251) as u8).collect())
            })
            .collect();
        let mut wire = Vec::new();
        for (n, (target, body)) in sent.iter().enumerate() {
            let request = Request::post(target.as_str(), body.clone())
                .with_header(random_case(g, "x-wsg-node"), n.to_string());
            wire.extend_from_slice(&request.to_bytes());
        }
        let mut parser = RequestParser::new();
        let mut received = Vec::new();
        let mut rest = wire.as_slice();
        while !rest.is_empty() {
            let most = if g.bool(0.5) { 16 } else { rest.len() };
            let take = g.usize(1..=most.min(rest.len()));
            parser.feed(&rest[..take]);
            rest = &rest[take..];
            while let Parsed::Complete(request) = parser.parse().map_err(|e| e.to_string())? {
                received.push(request);
            }
        }
        prop_assert_eq!(parser.buffered(), 0);
        prop_assert_eq!(received.len(), sent.len());
        for (n, (request, (target, body))) in received.iter().zip(&sent).enumerate() {
            prop_assert_eq!(&request.target, target);
            let node = n.to_string();
            prop_assert_eq!(request.header("X-WSG-Node"), Some(node.as_str()));
            prop_assert!(request.body == *body, "request {n}: {} bytes for {}", request.body.len(), body.len());
        }
        Ok(())
    });
}
