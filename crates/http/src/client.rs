//! The SOAP-over-HTTP client: pooled keep-alive connections, timeouts,
//! and bounded retry with seeded jittered exponential backoff.
//!
//! [`SoapHttpClient`] keeps one small pool of idle `TcpStream`s per peer
//! address. A [`SoapHttpClient::post`] first drains the pool — a pooled
//! connection that turns out dead (the server idled it out) is discarded
//! *without* consuming a retry attempt, since no fresh connect was tried
//! yet — then falls back to a fresh `connect_timeout`.
//!
//! Transport failures (refused/reset/timeout) are retried up to
//! `retries` times with exponential backoff jittered into `[0.5, 1.0]` of
//! the nominal delay. The jitter comes from a seeded `wsg_net::rng::Pcg32`,
//! so a failing test replays with identical sleep schedules. An HTTP-level
//! error (a 4xx/5xx response) is **not** retried: the bytes made it across,
//! which is all the transport promises.
//!
//! Every pooled connection remembers the text of the last message it
//! carried, as the server at its other end does: a
//! [`SoapHttpClient::post_batch`] front-codes its first message against
//! it (`wsg_soap::batch`). Each attempt is encoded for the connection it
//! is about to be written to, so a retry on a fresh connection — whose
//! reference is empty — goes whole.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsg_net::rng::{Pcg32, RngExt};
use wsg_net::sync::Mutex;
use wsg_obs::{Counter, Family, HistogramMetric, Registry};
use wsg_soap::batch::{text_of, write_batch_parts, BATCH_ACTION};

use crate::message::Response;
use crate::parser::{Parsed, ResponseParser};
use crate::server::SOAP_CONTENT_TYPE;

/// Tuning knobs for [`SoapHttpClient`].
#[derive(Debug, Clone)]
pub struct HttpClientConfig {
    /// Timeout for establishing a fresh connection.
    pub connect_timeout: Duration,
    /// Timeout for reading a response.
    pub read_timeout: Duration,
    /// Timeout for writing a request.
    pub write_timeout: Duration,
    /// Transport-level retries after the first attempt.
    pub retries: u32,
    /// Nominal backoff before retry `n` is `backoff_base * 2^(n-1)`...
    pub backoff_base: Duration,
    /// ...capped at this much, then jittered into `[0.5, 1.0]` of nominal.
    pub backoff_cap: Duration,
}

impl Default for HttpClientConfig {
    fn default() -> Self {
        HttpClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            retries: 2,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

/// A delivered exchange: the response plus how hard it was to get.
#[derive(Debug, Clone)]
pub struct PostOutcome {
    /// The parsed HTTP response (any status — 500 is still an outcome).
    pub response: Response,
    /// Connect attempts made, counting the successful one.
    pub attempts: u32,
    /// Bytes the request left out because its connection had carried them
    /// already (0 for a bare [`SoapHttpClient::post`]).
    pub left_out: usize,
}

/// All attempts failed at the transport level.
#[derive(Debug)]
pub struct PostError {
    /// Connect attempts made.
    pub attempts: u32,
    /// The error from the final attempt.
    pub last: std::io::Error,
}

impl std::fmt::Display for PostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "post failed after {} attempts: {}", self.attempts, self.last)
    }
}

impl std::error::Error for PostError {}

/// Live metric handles the client updates, registered under
/// `wsg_http_client_*` in the registry handed to
/// [`SoapHttpClient::new_observed`] (a fresh private registry otherwise).
#[derive(Debug)]
struct ClientMetrics {
    posts: Arc<Counter>,
    post_failures: Arc<Counter>,
    retries: Arc<Counter>,
    pool_hits: Arc<Counter>,
    pool_misses: Arc<Counter>,
    pool_evictions: Arc<Counter>,
    backoff_micros: Arc<Counter>,
    responses: Arc<Family<Counter>>,
    post_micros: Arc<HistogramMetric>,
}

impl ClientMetrics {
    fn new(registry: &Registry) -> Self {
        ClientMetrics {
            posts: registry.register_counter("wsg_http_client_posts_total", "Posts started."),
            post_failures: registry.register_counter(
                "wsg_http_client_post_failures_total",
                "Posts abandoned after exhausting transport retries.",
            ),
            retries: registry.register_counter(
                "wsg_http_client_retries_total",
                "Transport-level retries performed (backoff sleeps taken).",
            ),
            pool_hits: registry.register_counter(
                "wsg_http_client_pool_hits_total",
                "Posts answered over a pooled keep-alive connection.",
            ),
            pool_misses: registry.register_counter(
                "wsg_http_client_pool_misses_total",
                "Posts that needed a fresh connection.",
            ),
            pool_evictions: registry.register_counter(
                "wsg_http_client_pool_evictions_total",
                "Idle pooled connections dropped because their peer failed or was declared dead.",
            ),
            backoff_micros: registry.register_counter(
                "wsg_http_client_backoff_micros_total",
                "Total wall-clock time spent sleeping in retry backoff, microseconds.",
            ),
            responses: registry.register_counter_family(
                "wsg_http_client_responses_total",
                "Responses received by status class (2xx/4xx/5xx).",
                &["class"],
            ),
            post_micros: registry.register_histogram(
                "wsg_http_client_post_micros",
                "Wall-clock time per successful post (including retries), microseconds.",
            ),
        }
    }
}

/// A kept-alive connection and the text of the last message it carried:
/// what the next batch written to it is front-coded against.
struct Conn {
    stream: TcpStream,
    said: String,
}

/// Reused buffers: each post formats its head and body into `wire` instead
/// of building a `Request` + `to_bytes` pair (a batch's body is written to
/// `body` first), then hands them back for the next post.
#[derive(Default)]
struct Scratch {
    wire: Vec<u8>,
    body: String,
}

/// A pooled, retrying SOAP-over-HTTP client.
pub struct SoapHttpClient {
    config: HttpClientConfig,
    pool: Mutex<HashMap<SocketAddr, Vec<Conn>>>,
    rng: Mutex<Pcg32>,
    counters: ClientMetrics,
    scratch: Mutex<Scratch>,
}

impl SoapHttpClient {
    /// A client whose backoff jitter is derived from `seed`, with a
    /// private metric registry.
    pub fn new(seed: u64, config: HttpClientConfig) -> Self {
        Self::new_observed(seed, config, &Registry::new())
    }

    /// Like [`SoapHttpClient::new`], but register the client's metrics
    /// in a caller-provided registry (the node runtime shares one
    /// registry per node between its server and client).
    pub fn new_observed(seed: u64, config: HttpClientConfig, registry: &Registry) -> Self {
        SoapHttpClient {
            config,
            pool: Mutex::new(HashMap::new()),
            rng: Mutex::new(Pcg32::new(seed, 0x5350_4f54)),
            counters: ClientMetrics::new(registry),
            scratch: Mutex::new(Scratch::default()),
        }
    }

    /// POST a SOAP envelope (as raw XML bytes) to `addr`, bare.
    ///
    /// `action` becomes the quoted `SOAPAction` header — unless it holds a
    /// control byte or a `"`, which no quoted header value can carry: then
    /// none is sent. `extra_headers` are appended verbatim. Returns the
    /// response for **any** HTTP status; [`Err`] means the bytes never made
    /// it across despite `1 + retries` attempts. The envelope's text is
    /// what the connection carried last, for the next batch on it.
    ///
    /// # Errors
    ///
    /// [`PostError`] carries the final attempt's I/O error.
    pub fn post(
        &self,
        addr: SocketAddr,
        target: &str,
        action: Option<&str>,
        extra_headers: &[(String, String)],
        body: &[u8],
    ) -> Result<PostOutcome, PostError> {
        let text = std::str::from_utf8(body).map_or("", text_of);
        self.send(addr, |said, scratch| {
            said.clear();
            said.push_str(text);
            frame(&mut scratch.wire, addr, target, action, extra_headers, body);
            0
        })
    }

    /// POST `items` — `(target, parts)` as `wsg_soap::batch::write_batch_parts`
    /// takes them — to `addr` as one `wsgb:Batch` with the batch
    /// `SOAPAction`, its first message front-coded against the last one the
    /// connection carried: a pooled connection's, nothing on a fresh one.
    /// [`PostOutcome::left_out`] is what coding saved on the attempt that
    /// got across. Otherwise as [`SoapHttpClient::post`].
    ///
    /// # Errors
    ///
    /// [`PostError`] carries the final attempt's I/O error.
    pub fn post_batch<'a>(
        &self,
        addr: SocketAddr,
        target: &str,
        extra_headers: &[(String, String)],
        items: impl Iterator<Item = (Option<&'a str>, [&'a str; 3])> + Clone,
    ) -> Result<PostOutcome, PostError> {
        self.send(addr, |said, scratch| {
            let left_out = write_batch_parts(items.clone(), said, &mut scratch.body);
            let body = scratch.body.as_bytes();
            frame(&mut scratch.wire, addr, target, Some(BATCH_ACTION), extra_headers, body);
            left_out
        })
    }

    /// Run one post: `encode` writes the request into `wire` for the
    /// connection about to carry it — advancing that connection's reference
    /// — and returns the bytes it left out.
    fn send(
        &self,
        addr: SocketAddr,
        mut encode: impl FnMut(&mut String, &mut Scratch) -> usize,
    ) -> Result<PostOutcome, PostError> {
        self.counters.posts.inc();
        let started = Instant::now();
        let mut scratch = std::mem::take(&mut *self.scratch.lock());
        let result = self.drive(addr, &mut scratch, &mut encode, started);
        *self.scratch.lock() = scratch;
        result
    }

    /// The retry loop behind [`SoapHttpClient::send`]: every attempt is
    /// encoded for the connection it is written to.
    fn drive(
        &self,
        addr: SocketAddr,
        scratch: &mut Scratch,
        encode: &mut impl FnMut(&mut String, &mut Scratch) -> usize,
        started: Instant,
    ) -> Result<PostOutcome, PostError> {
        let mut attempts = 0u32;
        loop {
            // Pooled connections first. A dead one costs nothing: the
            // server may have idled it out, which says nothing about
            // whether the peer is reachable now.
            while let Some(mut conn) = self.take_pooled(addr) {
                let left_out = encode(&mut conn.said, scratch);
                if let Ok(response) = self.exchange(&conn.stream, &scratch.wire) {
                    self.counters.pool_hits.inc();
                    self.maybe_pool(addr, conn, &response);
                    return Ok(self.finish(response, attempts.max(1), left_out, started));
                }
            }
            attempts += 1;
            match self.connect_and_exchange(addr, scratch, encode) {
                Ok((conn, response, left_out)) => {
                    if attempts == 1 {
                        self.counters.pool_misses.inc();
                    }
                    self.maybe_pool(addr, conn, &response);
                    return Ok(self.finish(response, attempts, left_out, started));
                }
                Err(err) => {
                    // A fresh connect failed, so any idle streams to this
                    // peer are almost certainly dead too — drop them now
                    // instead of burning a round-trip each on discovery.
                    self.evict(addr);
                    if attempts > self.config.retries {
                        self.counters.post_failures.inc();
                        return Err(PostError { attempts, last: err });
                    }
                    self.counters.retries.inc();
                    let backoff = self.backoff(attempts);
                    self.counters
                        .backoff_micros
                        .add(backoff.as_micros().min(u128::from(u64::MAX)) as u64);
                    std::thread::sleep(backoff);
                }
            }
        }
    }

    // Record the per-post metrics a delivered exchange contributes.
    fn finish(
        &self,
        response: Response,
        attempts: u32,
        left_out: usize,
        started: Instant,
    ) -> PostOutcome {
        let class = match response.status / 100 {
            2 => "2xx",
            3 => "3xx",
            4 => "4xx",
            _ => "5xx",
        };
        self.counters.responses.with(&[class]).inc();
        self.counters
            .post_micros
            .observe(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        PostOutcome { response, attempts, left_out }
    }

    /// Nominal exponential backoff before retry `n` (1-based), jittered
    /// into `[0.5, 1.0]` of nominal so synchronized peers desynchronize.
    fn backoff(&self, n: u32) -> Duration {
        let nominal = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (n - 1).min(16))
            .min(self.config.backoff_cap);
        let jitter = self.rng.lock().gen_range(0.5..1.0);
        nominal.mul_f64(jitter)
    }

    fn take_pooled(&self, addr: SocketAddr) -> Option<Conn> {
        self.pool.lock().get_mut(&addr)?.pop()
    }

    /// Drop every idle pooled connection to `addr`.
    ///
    /// Called internally whenever a fresh connect to `addr` fails, and by
    /// membership-aware runtimes when a failure detector declares the
    /// peer `Suspect`/`Dead` — keeping sockets to a dead peer only delays
    /// discovering the failure on the next post. Returns how many idle
    /// streams were dropped.
    pub fn evict(&self, addr: SocketAddr) -> usize {
        let dropped = self.pool.lock().remove(&addr).map_or(0, |idle| idle.len());
        if dropped > 0 {
            self.counters.pool_evictions.add(dropped as u64);
        }
        dropped
    }

    /// Idle connections kept per peer address.
    const POOL_PER_HOST: usize = 2;

    /// Keep `conn` for the next post to `addr` — unless the server closes
    /// it (as it does after a request it could not unwrap), and with it
    /// the reference the two ends shared.
    fn maybe_pool(&self, addr: SocketAddr, conn: Conn, response: &Response) {
        if !response.keep_alive() {
            return;
        }
        let mut pool = self.pool.lock();
        let idle = pool.entry(addr).or_default();
        if idle.len() < Self::POOL_PER_HOST {
            idle.push(conn);
        }
    }

    fn connect_and_exchange(
        &self,
        addr: SocketAddr,
        scratch: &mut Scratch,
        encode: &mut impl FnMut(&mut String, &mut Scratch) -> usize,
    ) -> std::io::Result<(Conn, Response, usize)> {
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        // Armed once, for as long as the connection lives in the pool:
        // every exchange over it is bounded by these two.
        stream.set_write_timeout(Some(self.config.write_timeout))?;
        stream.set_read_timeout(Some(self.config.read_timeout))?;
        // wsg_lint: allow(E2) — Nagle is a latency tuning; a socket that rejects it still serves
        let _ = stream.set_nodelay(true);
        // A fresh connection has carried nothing to code against.
        let mut conn = Conn { stream, said: String::new() };
        let left_out = encode(&mut conn.said, scratch);
        let response = self.exchange(&conn.stream, &scratch.wire)?;
        Ok((conn, response, left_out))
    }

    fn exchange(&self, mut stream: &TcpStream, wire: &[u8]) -> std::io::Result<Response> {
        // wsg_lint: allow(T1) — both timeouts armed where the stream is created (connect_and_exchange)
        stream.write_all(wire)?;
        let mut parser = ResponseParser::new();
        let mut chunk = [0u8; 4096];
        loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a full response",
                ));
            }
            parser.feed(&chunk[..n]);
            match parser.parse() {
                Ok(Parsed::Complete(response)) => return Ok(response),
                Ok(Parsed::Partial) => continue,
                Err(err) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unparseable response: {err}"),
                    ))
                }
            }
        }
    }

    /// Total posts started.
    pub fn posts(&self) -> u64 {
        self.counters.posts.get()
    }

    /// Transport-level retries performed (sleeps taken).
    #[cfg(test)]
    pub(crate) fn retries_performed(&self) -> u64 {
        self.counters.retries.get()
    }

    /// Posts answered over a pooled (kept-alive) connection.
    #[cfg(test)]
    pub(crate) fn pool_hits(&self) -> u64 {
        self.counters.pool_hits.get()
    }

    /// Idle pooled connections for `addr` right now (test visibility).
    pub fn pooled(&self, addr: SocketAddr) -> usize {
        self.pool.lock().get(&addr).map_or(0, Vec::len)
    }

    /// Idle pooled connections dropped by [`SoapHttpClient::evict`].
    #[cfg(test)]
    pub(crate) fn pool_evictions(&self) -> u64 {
        self.counters.pool_evictions.get()
    }
}

/// Format the POST of `body` into `wire` — byte-identical to
/// `Request::post(..).with_header(..).to_bytes()` (regression-tested below)
/// without an allocation per post, and written by a single `write_all`.
fn frame(
    wire: &mut Vec<u8>,
    addr: SocketAddr,
    target: &str,
    action: Option<&str>,
    extra_headers: &[(String, String)],
    body: &[u8],
) {
    wire.clear();
    wire.extend_from_slice(b"POST ");
    wire.extend_from_slice(target.as_bytes());
    wire.extend_from_slice(b" HTTP/1.1\r\nContent-Length: ");
    // wsg_lint: allow(E2) — io::Write to a Vec is infallible
    let _ = write!(wire, "{}", body.len());
    wire.extend_from_slice(b"\r\nHost: ");
    // wsg_lint: allow(E2) — io::Write to a Vec is infallible
    let _ = write!(wire, "{addr}");
    wire.extend_from_slice(b"\r\nContent-Type: ");
    wire.extend_from_slice(SOAP_CONTENT_TYPE.as_bytes());
    wire.extend_from_slice(b"\r\n");
    // A forwarded envelope's `wsa:Action` is whatever its sender wrote,
    // decoded: one that would end the quoted string or the header line is
    // not repeated here (the envelope carries it regardless).
    let quotable = |action: &&str| !action.bytes().any(|b| b.is_ascii_control() || b == b'"');
    if let Some(action) = action.filter(quotable) {
        wire.extend_from_slice(b"SOAPAction: \"");
        wire.extend_from_slice(action.as_bytes());
        wire.extend_from_slice(b"\"\r\n");
    }
    for (name, value) in extra_headers {
        wire.extend_from_slice(name.as_bytes());
        wire.extend_from_slice(b": ");
        wire.extend_from_slice(value.as_bytes());
        wire.extend_from_slice(b"\r\n");
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Request;
    use crate::server::{HttpServerConfig, SoapHttpServer, SoapReply, SoapRequest, Service};
    use std::sync::Arc;
    use wsg_soap::{Envelope, MessageHeaders};
    use wsg_xml::Element;

    fn accept_service() -> Service {
        Arc::new(|_req: SoapRequest| Ok(SoapReply::Accepted))
    }

    fn sample_xml() -> String {
        Envelope::request(
            MessageHeaders::request("http://node1/gossip", "urn:svc:Notify"),
            Element::text_node("tick", "ACME 101.25"),
        )
        .to_xml()
    }

    #[test]
    fn post_roundtrip_and_pooling() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", accept_service(), HttpServerConfig::default())
                .unwrap();
        let client = SoapHttpClient::new(7, HttpClientConfig::default());
        let xml = sample_xml();
        let first = client
            .post(server.local_addr(), "/gossip", Some("urn:svc:Notify"), &[], xml.as_bytes())
            .unwrap();
        assert_eq!(first.response.status, 202);
        assert_eq!(first.attempts, 1);
        assert_eq!(client.pooled(server.local_addr()), 1);
        let second = client
            .post(server.local_addr(), "/gossip", Some("urn:svc:Notify"), &[], xml.as_bytes())
            .unwrap();
        assert_eq!(second.response.status, 202);
        assert_eq!(client.pool_hits(), 1);
        server.shutdown();
    }

    #[test]
    fn a_pooled_connection_keeps_the_timeouts_it_was_opened_with() {
        // The timeouts are set where the stream is created, not per post:
        // a stream that comes back out of the pool must still carry both.
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", accept_service(), HttpServerConfig::default())
                .unwrap();
        let config = HttpClientConfig::default();
        let client = SoapHttpClient::new(7, config.clone());
        let xml = sample_xml();
        for _ in 0..2 {
            client.post(server.local_addr(), "/gossip", None, &[], xml.as_bytes()).unwrap();
        }
        assert_eq!(client.pool_hits(), 1);
        let pooled = client.take_pooled(server.local_addr()).expect("kept alive").stream;
        // The OS may round a timeout up to its timer granularity.
        let read = pooled.read_timeout().unwrap().expect("read timeout armed");
        assert!(read >= config.read_timeout, "{read:?}");
        let write = pooled.write_timeout().unwrap().expect("write timeout armed");
        assert!(write >= config.write_timeout, "{write:?}");
        server.shutdown();
    }

    #[test]
    fn refused_connection_exhausts_retries() {
        // Bind then drop: the port is (almost certainly) refused.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let config = HttpClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            connect_timeout: Duration::from_millis(200),
            ..HttpClientConfig::default()
        };
        let client = SoapHttpClient::new(11, config);
        let err = client.post(addr, "/gossip", None, &[], b"<x/>").unwrap_err();
        assert_eq!(err.attempts, 4, "1 initial + 3 retries");
        assert_eq!(client.retries_performed(), 3);
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let config = HttpClientConfig::default();
        let a = SoapHttpClient::new(99, config.clone());
        let b = SoapHttpClient::new(99, config);
        let delays_a: Vec<Duration> = (1..=4).map(|n| a.backoff(n)).collect();
        let delays_b: Vec<Duration> = (1..=4).map(|n| b.backoff(n)).collect();
        assert_eq!(delays_a, delays_b);
        // Nominal doubling with cap: each delay sits in [0.5, 1.0]×nominal.
        let base = Duration::from_millis(20);
        for (i, d) in delays_a.iter().enumerate() {
            let nominal = base.saturating_mul(1 << i).min(Duration::from_millis(200));
            assert!(*d >= nominal.mul_f64(0.5) && *d <= nominal, "delay {i}: {d:?}");
        }
    }

    #[test]
    fn dead_pooled_connection_does_not_burn_an_attempt() {
        let config = HttpServerConfig {
            keep_alive: Duration::from_millis(80),
            ..HttpServerConfig::default()
        };
        let mut server = SoapHttpServer::bind("127.0.0.1:0", accept_service(), config).unwrap();
        let client = SoapHttpClient::new(3, HttpClientConfig::default());
        let xml = sample_xml();
        let addr = server.local_addr();
        client.post(addr, "/gossip", None, &[], xml.as_bytes()).unwrap();
        assert_eq!(client.pooled(addr), 1);
        // Wait for the server to idle the pooled connection out.
        std::thread::sleep(Duration::from_millis(300));
        let outcome = client.post(addr, "/gossip", None, &[], xml.as_bytes()).unwrap();
        assert_eq!(outcome.response.status, 202);
        assert_eq!(outcome.attempts, 1, "stale pool entry must not count as an attempt");
        assert_eq!(client.retries_performed(), 0);
        server.shutdown();
    }

    #[test]
    fn a_retry_on_a_fresh_connection_codes_its_first_message_against_nothing() {
        // A server that idles connections out after 80 ms, recording every
        // message as it unwrapped it.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let service: Service = Arc::new(move |req: SoapRequest| {
            log.lock().push(req.raw);
            Ok(SoapReply::Accepted)
        });
        let config = HttpServerConfig {
            keep_alive: Duration::from_millis(80),
            ..HttpServerConfig::default()
        };
        let mut server = SoapHttpServer::bind("127.0.0.1:0", service, config).unwrap();
        let addr = server.local_addr();
        let client = SoapHttpClient::new(3, HttpClientConfig::default());
        let xmls: Vec<String> = (0..4)
            .map(|n| {
                Envelope::request(
                    MessageHeaders::request("http://node1/gossip", "urn:svc:Notify"),
                    Element::text_node("tick", format!("ACME 101.2{n}")),
                )
                .to_xml()
            })
            .collect();
        let post = |xml: &String| {
            let outcome = client
                .post_batch(addr, "/gossip", &[], std::iter::once((None, [xml.as_str(), "", ""])))
                .unwrap();
            assert_eq!(outcome.response.status, 202);
            outcome
        };
        // A fresh connection carried nothing; the pooled one, the first.
        assert_eq!(post(&xmls[0]).left_out, 0);
        assert!(post(&xmls[1]).left_out > xmls[1].len() / 2);
        assert_eq!(client.pool_hits(), 1);
        // The server closes the pooled connection: the attempt written to
        // it was coded against the second message, the retry on a fresh
        // connection — the one that gets across — goes whole.
        std::thread::sleep(Duration::from_millis(300));
        let after_close = post(&xmls[2]);
        assert_eq!((after_close.attempts, after_close.left_out), (1, 0));
        assert!(post(&xmls[3]).left_out > 0);
        assert_eq!(*seen.lock(), xmls, "every message unwrapped as it was sent");
        server.shutdown();
    }

    #[test]
    fn eviction_drops_idle_streams_and_counts_them() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", accept_service(), HttpServerConfig::default())
                .unwrap();
        let client = SoapHttpClient::new(21, HttpClientConfig::default());
        let addr = server.local_addr();
        let xml = sample_xml();
        client.post(addr, "/gossip", None, &[], xml.as_bytes()).unwrap();
        assert_eq!(client.pooled(addr), 1);
        assert_eq!(client.evict(addr), 1, "one idle stream to drop");
        assert_eq!(client.pooled(addr), 0);
        assert_eq!(client.pool_evictions(), 1);
        assert_eq!(client.evict(addr), 0, "eviction is idempotent");
        assert_eq!(client.pool_evictions(), 1, "empty evictions are not counted");
        server.shutdown();
    }

    #[test]
    fn failed_connect_evicts_the_peers_pool() {
        // Pool a live connection, kill the server, then post again: the
        // fresh connect fails and must flush the now-dead pooled stream.
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", accept_service(), HttpServerConfig::default())
                .unwrap();
        let addr = server.local_addr();
        let config = HttpClientConfig {
            retries: 0,
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(300),
            ..HttpClientConfig::default()
        };
        let client = SoapHttpClient::new(17, config);
        let xml = sample_xml();
        client.post(addr, "/gossip", None, &[], xml.as_bytes()).unwrap();
        assert_eq!(client.pooled(addr), 1);
        server.shutdown();
        // The pooled stream fails first (without costing an attempt), then
        // the fresh connect fails, which evicts whatever is left keyed on
        // this address.
        assert!(client.post(addr, "/gossip", None, &[], xml.as_bytes()).is_err());
        assert_eq!(client.pooled(addr), 0, "dead peer must not retain pool entries");
    }

    #[test]
    fn observed_client_exports_transport_metrics() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", accept_service(), HttpServerConfig::default())
                .unwrap();
        let registry = Registry::new();
        let client = SoapHttpClient::new_observed(7, HttpClientConfig::default(), &registry);
        let xml = sample_xml();
        client.post(server.local_addr(), "/gossip", None, &[], xml.as_bytes()).unwrap();
        client.post(server.local_addr(), "/gossip", None, &[], xml.as_bytes()).unwrap();
        let text = registry.render();
        assert!(text.contains("wsg_http_client_posts_total 2\n"), "got: {text}");
        assert!(text.contains("wsg_http_client_pool_hits_total 1\n"), "got: {text}");
        assert!(text.contains("wsg_http_client_pool_misses_total 1\n"), "got: {text}");
        assert!(text.contains("wsg_http_client_responses_total{class=\"2xx\"} 2\n"));
        assert!(text.contains("wsg_http_client_post_micros_count 2\n"));
        server.shutdown();
    }

    #[test]
    fn failed_posts_count_retries_and_backoff_time() {
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let registry = Registry::new();
        let config = HttpClientConfig {
            retries: 2,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(8),
            connect_timeout: Duration::from_millis(100),
            ..HttpClientConfig::default()
        };
        let client = SoapHttpClient::new_observed(13, config, &registry);
        assert!(client.post(addr, "/gossip", None, &[], b"<x/>").is_err());
        let text = registry.render();
        assert!(text.contains("wsg_http_client_post_failures_total 1\n"), "got: {text}");
        assert!(text.contains("wsg_http_client_retries_total 2\n"), "got: {text}");
        let samples = wsg_obs::parse_exposition(&text).unwrap();
        let backoff = samples
            .iter()
            .find(|(k, _)| k == "wsg_http_client_backoff_micros_total")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(backoff > 0.0, "backoff sleeps must be accounted");
    }

    #[test]
    fn wire_bytes_are_byte_identical_to_the_request_builder() {
        // Capture what post() actually writes with a raw listener and
        // compare against the builder path the client used before the
        // scratch-buffer rewrite. Two posts over one kept-alive stream
        // prove the reused buffer is cleared between posts, and that a
        // bare post is the envelope's own bytes whatever the connection
        // carried before.
        use crate::parser::RequestParser;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            for _ in 0..2 {
                loop {
                    let mut probe = RequestParser::new();
                    probe.feed(&buf);
                    if matches!(probe.parse(), Ok(Parsed::Complete(_))) {
                        break;
                    }
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client closed early");
                    buf.extend_from_slice(&chunk[..n]);
                }
                stream
                    .write_all(b"HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n")
                    .unwrap();
                tx.send(std::mem::take(&mut buf)).unwrap();
            }
        });

        let client = SoapHttpClient::new(1, HttpClientConfig::default());
        let xml = sample_xml();
        let node_header = [("X-WSG-Node".to_string(), "3".to_string())];
        for round in 0..2 {
            let outcome = client
                .post(addr, "/gossip", Some("urn:svc:Notify"), &node_header, xml.as_bytes())
                .unwrap();
            assert_eq!(outcome.response.status, 202);
            let captured = rx.recv().unwrap();
            let expected = Request::post("/gossip", xml.clone().into_bytes())
                .with_header("Host", addr.to_string())
                .with_header("Content-Type", SOAP_CONTENT_TYPE)
                .with_header("SOAPAction", "\"urn:svc:Notify\"")
                .with_header("X-WSG-Node", "3")
                .to_bytes();
            assert_eq!(
                String::from_utf8_lossy(&captured),
                String::from_utf8_lossy(&expected),
                "post {round} diverged from the builder wire format"
            );
        }
        server.join().unwrap();
    }

    #[test]
    fn an_action_that_cannot_be_quoted_is_not_sent() {
        // `wsa:Action` values a forwarded envelope may carry (`&#13;&#10;`
        // and `&quot;` are legal XML): written into the head raw they
        // would add a header line, end the head early, or close the
        // quoted string. The head must hold exactly the expected lines.
        let xml = sample_xml();
        let hostile = [
            "urn:svc:Notify\r\nX-Injected: yes",
            "urn:svc:Notify\r\n\r\nPOST /admin HTTP/1.1",
            "urn:svc:\"Notify\"",
            "urn:svc:Notify\n",
            "urn:svc:\0Notify\x7f",
        ];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let body = xml.clone().into_bytes();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..hostile.len() + 1 {
                // However the head came out, the body ends the request.
                let (mut buf, mut chunk) = (Vec::new(), [0u8; 4096]);
                while !buf.ends_with(&body) {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client closed early");
                    buf.extend_from_slice(&chunk[..n]);
                }
                stream.write_all(b"HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n").unwrap();
                tx.send(buf).unwrap();
            }
        });

        let client = SoapHttpClient::new(1, HttpClientConfig::default());
        let node_header = [("X-WSG-Node".to_string(), "3".to_string())];
        let head_of = |action: &str| {
            let outcome =
                client.post(addr, "/gossip", Some(action), &node_header, xml.as_bytes()).unwrap();
            assert_eq!(outcome.response.status, 202);
            let captured = String::from_utf8(rx.recv().unwrap()).unwrap();
            captured.strip_suffix(xml.as_str()).expect("the body closes the request").to_string()
        };
        let expected = format!(
            "POST /gossip HTTP/1.1\r\nContent-Length: {}\r\nHost: {addr}\r\n\
             Content-Type: {SOAP_CONTENT_TYPE}\r\nX-WSG-Node: 3\r\n\r\n",
            xml.len()
        );
        for action in hostile {
            assert_eq!(head_of(action), expected, "{action:?}");
        }
        // An ordinary action is quoted as ever.
        let labelled = expected.replace("X-WSG", "SOAPAction: \"urn:svc:Notify\"\r\nX-WSG");
        assert_eq!(head_of("urn:svc:Notify"), labelled);
        server.join().unwrap();
    }

    #[test]
    fn http_error_status_is_not_retried() {
        let service: Service = Arc::new(|_req| {
            Err(wsg_soap::Fault::new(wsg_soap::FaultCode::Receiver, "always fails"))
        });
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", service, HttpServerConfig::default()).unwrap();
        let client = SoapHttpClient::new(5, HttpClientConfig::default());
        let outcome = client
            .post(server.local_addr(), "/gossip", None, &[], sample_xml().as_bytes())
            .unwrap();
        assert_eq!(outcome.response.status, 500);
        assert_eq!(client.retries_performed(), 0);
        server.shutdown();
    }
}
