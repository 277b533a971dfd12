//! The SOAP-over-HTTP endpoint: accept loop, bounded worker pool,
//! keep-alive connections and fault mapping.
//!
//! [`SoapHttpServer`] owns one `TcpListener` plus a fixed worker pool (the
//! same bounded-pool idiom as `wsg_net::threads`). The accept thread hands
//! connections to a `sync_channel` whose depth bounds the backlog; workers
//! pull from the shared receiver and run the connection until it closes,
//! idles out, or the server shuts down.
//!
//! Every POSTed body is checked — well-formed XML with the shape of a SOAP
//! envelope (root `env:Envelope`, an `env:Body`), or a `urn:ws-gossip:batch`
//! of them — in one streaming pass that builds no tree, and handed to the
//! [`Service`] closure as the sender's bytes. A batch's first message may
//! be front-coded against the last message the connection carried, so each
//! connection keeps that text between requests (`wsg_soap::batch`). A
//! service that needs the decoded message asks [`SoapRequest::envelope`]
//! for it; one that only relays the bytes (the gossip route) never pays for
//! a parse. The HTTP status mapping follows the SOAP 1.2 HTTP binding:
//!
//! | service outcome              | HTTP response                        |
//! |------------------------------|--------------------------------------|
//! | `Ok(SoapReply::Accepted)`    | `202 Accepted`, empty body           |
//! | `Ok(SoapReply::Envelope(_))` | `200 OK`, response envelope          |
//! | `Err(Fault)`, code `Sender`  | `400`, fault envelope in the body    |
//! | `Err(Fault)`, any other code | `500`, fault envelope in the body    |
//! | body is not an envelope      | `400`, `Sender` fault, conn. closed  |
//! | `GET /metrics`               | `200`, metric registry exposition    |
//! | `GET` anything else          | `404 Not Found`                      |
//! | other method                 | `405`, `Allow` from the route table  |
//! | unparseable HTTP             | `400 Bad Request`, connection closed |
//!
//! A body that does not unwrap closes the connection: both ends then drop
//! the text they shared, and the sender's next request starts afresh.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wsg_net::sync::Mutex;
use wsg_obs::{Counter, Family, HistogramMetric, Registry};
use wsg_soap::batch::{parse_wire_after, Unbundled};
use wsg_soap::{Envelope, Fault, FaultCode, GossipId, MessageHeaders, SoapError};

use crate::message::Response;
use crate::parser::{Parsed, RequestParser};

/// Content type of every SOAP 1.2 message on the wire.
pub const SOAP_CONTENT_TYPE: &str = "application/soap+xml; charset=utf-8";

/// The most a worker reads from a socket at once.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Header carrying the sending node's numeric id between gossip peers.
pub const NODE_HEADER: &str = "X-WSG-Node";

/// Tuning knobs for [`SoapHttpServer`].
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Worker threads servicing connections.
    pub workers: usize,
    /// Close a connection after this much idle time between requests.
    pub keep_alive: Duration,
    /// How long a worker blocks per read before re-queuing a quiet
    /// connection and serving the next one. Workers multiplex over all
    /// live connections in slices, so a request arriving on an idle
    /// keep-alive connection waits on average `connections * read_slice
    /// / (2 * workers)` for attention: shrink this (and/or raise
    /// `workers`) for latency-sensitive fleets with many idle
    /// connections, at the cost of more wakeups. Floored at 1 ms.
    pub read_slice: Duration,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        HttpServerConfig { workers: 2, keep_alive: Duration::from_secs(5), read_slice: READ_SLICE }
    }
}

/// One SOAP message as handed to the [`Service`]: checked for the shape
/// of an envelope, not decoded.
#[derive(Debug, Clone)]
pub struct SoapRequest {
    /// Request target path with any query string stripped (`"/gossip"`,
    /// `"/membership"`, ...) — services route multi-endpoint nodes on it.
    pub target: String,
    /// Sending node id from the [`NODE_HEADER`] header, when present.
    pub from_node: Option<usize>,
    /// Peer socket address of the connection.
    pub peer: SocketAddr,
    /// The envelope XML as received (a batched message: as a standalone
    /// document).
    pub raw: String,
    /// The message's gossip identity, read while the server checked its
    /// shape: what a runtime needs to know the sender holds it.
    pub gossip: Option<GossipId<'static>>,
}

impl SoapRequest {
    /// Decode the message.
    ///
    /// # Errors
    ///
    /// The `Sender` fault (HTTP 400) for an envelope whose headers or
    /// fault body cannot be decoded.
    #[allow(clippy::result_large_err)] // the Err is what a Service returns
    pub fn envelope(&self) -> Result<Envelope, Fault> {
        Envelope::parse(&self.raw).map_err(not_an_envelope)
    }
}

/// The `Sender` fault answering a POST that is not a SOAP envelope.
fn not_an_envelope(err: SoapError) -> Fault {
    Fault::new(FaultCode::Sender, format!("body is not a SOAP envelope: {err}"))
}

/// What the service wants sent back.
#[derive(Debug, Clone)]
pub enum SoapReply {
    /// Respond `200 OK` with this envelope.
    Envelope(Envelope),
    /// One-way accepted: respond `202 Accepted` with an empty body.
    Accepted,
}

/// The application hook: turns a decoded request into a reply or a fault.
pub type Service = Arc<dyn Fn(SoapRequest) -> Result<SoapReply, Fault> + Send + Sync>;

/// Paths servable with `GET` (read-only observability routes). The 405
/// `Allow` header is derived from this table plus the SOAP `POST` route,
/// so it can never drift out of sync with what the server actually
/// accepts.
const GET_ROUTES: &[&str] = &["/metrics"];

/// The `Allow` header value matching the live route table.
fn allowed_methods() -> String {
    let mut methods = vec!["POST"];
    if !GET_ROUTES.is_empty() {
        methods.push("GET");
    }
    methods.sort_unstable();
    methods.join(", ")
}

/// Live metric handles the server updates while running — all registered
/// in the (possibly shared) [`Registry`] that `GET /metrics` renders.
#[derive(Debug)]
struct ServerMetrics {
    registry: Arc<Registry>,
    requests: Arc<Counter>,
    responses: Arc<Family<Counter>>,
    faults: Arc<Counter>,
    parse_errors: Arc<Counter>,
    request_micros: Arc<HistogramMetric>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    write_errors: Arc<Counter>,
    connections_shed: Arc<Counter>,
}

impl ServerMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let requests = registry
            .register_counter("wsg_http_server_requests_total", "HTTP requests answered.");
        let responses = registry.register_counter_family(
            "wsg_http_server_responses_total",
            "Responses by status class (2xx/4xx/5xx).",
            &["class"],
        );
        let faults = registry.register_counter(
            "wsg_http_server_faults_total",
            "Requests answered with a SOAP fault envelope (400 or 500).",
        );
        let parse_errors = registry.register_counter(
            "wsg_http_server_parse_errors_total",
            "Connections dropped because of unparseable HTTP.",
        );
        let request_micros = registry.register_histogram(
            "wsg_http_server_request_micros",
            "Wall-clock service time per request, microseconds.",
        );
        let bytes_in = registry
            .register_counter("wsg_http_server_bytes_in_total", "Bytes read from sockets.");
        let bytes_out = registry
            .register_counter("wsg_http_server_bytes_out_total", "Bytes written to sockets.");
        let write_errors = registry.register_counter(
            "wsg_http_server_write_errors_total",
            "Responses lost to a failed or timed-out socket write.",
        );
        let connections_shed = registry.register_counter(
            "wsg_http_server_connections_shed_total",
            "Live connections dropped because the re-queue backlog was full.",
        );
        ServerMetrics {
            registry,
            requests,
            responses,
            faults,
            parse_errors,
            request_micros,
            bytes_in,
            bytes_out,
            write_errors,
            connections_shed,
        }
    }

    fn count_response(&self, status: u16) {
        let class = match status / 100 {
            2 => "2xx",
            3 => "3xx",
            4 => "4xx",
            _ => "5xx",
        };
        self.responses.with(&[class]).inc();
    }
}

/// A running SOAP-over-HTTP server.
///
/// Dropping the server triggers a best-effort [`SoapHttpServer::shutdown`].
pub struct SoapHttpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    metrics: Arc<ServerMetrics>,
}

impl SoapHttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving with a fresh
    /// metric registry.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Service,
        config: HttpServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_observed(addr, service, config, Arc::new(Registry::new()))
    }

    /// Like [`SoapHttpServer::bind`], but register the server's metrics
    /// in a caller-provided registry — `GET /metrics` then exposes
    /// whatever else the caller exports there (gossip and coordinator
    /// families in the node runtime).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_observed(
        addr: impl ToSocketAddrs,
        service: Service,
        config: HttpServerConfig,
        registry: Arc<Registry>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Self::serve_observed(listener, service, config, registry)
    }

    /// Serve on an already-bound listener (used by the runtime, which
    /// binds all node sockets before starting any of them), registering
    /// the server's metrics in `registry`.
    ///
    /// # Errors
    ///
    /// Fails if the listener's local address cannot be read.
    pub(crate) fn serve_observed(
        listener: TcpListener,
        service: Service,
        config: HttpServerConfig,
        registry: Arc<Registry>,
    ) -> std::io::Result<Self> {
        let local_addr = listener.local_addr()?;
        // A zero slice is not a socket timeout the OS accepts, would never
        // add up to `keep_alive`, and would spin the workers: floor it once.
        let config = HttpServerConfig {
            read_slice: config.read_slice.max(Duration::from_millis(1)),
            ..config
        };
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServerMetrics::new(registry));
        let (conn_tx, conn_rx): (SyncSender<Conn>, Receiver<Conn>) =
            sync_channel(QUEUE_DEPTH);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let workers = config.workers.max(1);
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&conn_rx);
            let tx = conn_tx.clone();
            let service = Arc::clone(&service);
            let config = config.clone();
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            // On spawn failure the early return drops the channel ends,
            // so already-started workers observe the disconnect and exit.
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("wsg-http-worker-{i}"))
                    .spawn(move || worker_loop(rx, tx, service, config, stop, counters))?,
            );
        }

        let accept_stop = Arc::clone(&stop);
        let accept_config = config.clone();
        let accept_handle = std::thread::Builder::new()
            .name("wsg-http-accept".into())
            .spawn(move || accept_loop(listener, conn_tx, accept_config, accept_stop))?;

        Ok(SoapHttpServer {
            local_addr,
            stop,
            accept_handle: Some(accept_handle),
            worker_handles,
            metrics: counters,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry backing `GET /metrics` on this server.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.metrics.registry)
    }

    /// Requests answered so far (any status).
    #[cfg(test)]
    pub(crate) fn requests_served(&self) -> u64 {
        self.metrics.requests.get()
    }

    /// Requests that produced a fault envelope (400 or 500).
    #[cfg(test)]
    pub(crate) fn faults_served(&self) -> u64 {
        self.metrics.faults.get()
    }

    /// Connections dropped because of unparseable HTTP.
    pub fn parse_errors(&self) -> u64 {
        self.metrics.parse_errors.get()
    }

    /// Stop accepting, finish queued connections and join all threads.
    ///
    /// Idempotent: later calls return immediately.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept thread blocks in accept(); poke it awake with a
        // throwaway connection so it can observe the stop flag.
        // wsg_lint: allow(E2) — the poke is the side effect; a refused connect means the accept thread is already gone
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        if let Some(handle) = self.accept_handle.take() {
            // wsg_lint: allow(E2) — a panicked accept thread already tore the server down; join carries nothing further
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            // wsg_lint: allow(E2) — worker panics surface as dropped connections; shutdown must still join the rest
            let _ = handle.join();
        }
    }
}

impl Drop for SoapHttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A live connection with its accumulated parse state, idle time and the
/// text of the last message it carried, passed between workers through the
/// connection queue.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    parser: RequestParser,
    idle: Duration,
    said: String,
}

fn accept_loop(
    listener: TcpListener,
    conn_tx: SyncSender<Conn>,
    config: HttpServerConfig,
    stop: Arc<AtomicBool>,
) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            // The wakeup connection (or a straggler during shutdown).
            return;
        }
        if !arm_stream_timeouts(&stream, &config) {
            continue;
        }
        let conn = Conn {
            stream,
            peer,
            parser: RequestParser::new(),
            idle: Duration::ZERO,
            said: String::new(),
        };
        match conn_tx.try_send(conn) {
            Ok(()) => {}
            Err(TrySendError::Full(conn)) => {
                // Backlog full: shed load instead of blocking the
                // accept thread. The client's retry path covers this.
                drop(conn);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Default for [`HttpServerConfig::read_slice`]: how long a worker blocks
/// per read before re-queuing the connection and moving to the next one.
/// Small, because a keep-alive peer may hold its pooled connection open
/// for a long time: workers multiplex over all live connections in slices
/// rather than parking on one each.
const READ_SLICE: Duration = Duration::from_millis(10);

/// Upper bound on any single blocking write to a peer. A peer that
/// accepts a connection but stops reading (zero receive window) would
/// otherwise park a worker in `write_all` forever; with the timeout the
/// write errors out and the connection is shed. Generous, because a
/// healthy peer drains a response in microseconds — only a stalled or
/// malicious one ever gets near it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Accepted-but-unserviced connections queued before the accept thread
/// sheds new ones (and before a worker sheds a re-queued one).
const QUEUE_DEPTH: usize = 64;

/// Arm an accepted socket with the server's deadlines: the read-slice
/// read timeout (workers multiplex over connections in slices) and
/// [`WRITE_TIMEOUT`], so a peer that stops reading errors the write out
/// instead of parking a worker in `write_all` forever. False when the
/// socket refuses (already dead) — the caller sheds it.
fn arm_stream_timeouts(stream: &TcpStream, config: &HttpServerConfig) -> bool {
    if stream.set_read_timeout(Some(config.read_slice)).is_err() {
        return false;
    }
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return false;
    }
    // wsg_lint: allow(E2) — Nagle is a latency tuning; a socket that rejects it still serves
    let _ = stream.set_nodelay(true);
    true
}

fn worker_loop(
    conn_rx: Arc<Mutex<Receiver<Conn>>>,
    conn_tx: SyncSender<Conn>,
    service: Service,
    config: HttpServerConfig,
    stop: Arc<AtomicBool>,
    counters: Arc<ServerMetrics>,
) {
    // One read buffer per worker, not per connection: everything read is
    // fed to the connection's parser before the worker moves on, and a
    // fleet has nine times as many keep-alive connections as workers
    // (per-connection buffers cost `steady_small` 1.8 MB of its 11 MB).
    // Large enough that a 256 KiB batch is four reads and four
    // `RequestParser::feed`s, not sixty-four.
    let mut read_buf = vec![0u8; READ_BUF_BYTES];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Hold the lock only while waiting for a connection so an idle
        // worker never starves a busy one.
        let conn = {
            let rx = conn_rx.lock();
            match rx.recv_timeout(config.read_slice * 4) {
                Ok(conn) => Some(conn),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        let Some(conn) = conn else { continue };
        if let Some(conn) = serve_slice(conn, &mut read_buf, &service, &config, &stop, &counters) {
            // Still alive: back in the rotation. A full queue here means
            // the server is drowning in connections; shed this one.
            if conn_tx.try_send(conn).is_err() {
                counters.connections_shed.inc();
            }
        }
    }
}

/// Service one connection until its socket goes quiet for a read slice,
/// then hand it back for re-queuing. Returns `None` when the connection
/// is finished (closed, errored, idled out, or shutdown).
fn serve_slice(
    mut conn: Conn,
    read_buf: &mut [u8],
    service: &Service,
    config: &HttpServerConfig,
    stop: &AtomicBool,
    counters: &ServerMetrics,
) -> Option<Conn> {
    loop {
        // Drain any complete pipelined requests before reading more.
        loop {
            match conn.parser.parse() {
                Ok(Parsed::Complete(request)) => {
                    conn.idle = Duration::ZERO;
                    let keep = request.keep_alive();
                    let started = Instant::now();
                    let response =
                        handle_request(request, conn.peer, service, counters, &mut conn.said);
                    counters
                        .request_micros
                        .observe(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                    counters.requests.inc();
                    counters.count_response(response.status);
                    let wire = response.to_bytes();
                    counters.bytes_out.add(wire.len() as u64);
                    // wsg_lint: allow(T1) — write timeout armed at accept time (arm_stream_timeouts)
                    if conn.stream.write_all(&wire).is_err() {
                        counters.write_errors.inc();
                        return None;
                    }
                    if !keep || !response.keep_alive() {
                        return None;
                    }
                }
                Ok(Parsed::Partial) => break,
                Err(err) => {
                    counters.parse_errors.inc();
                    let body = format!("bad request: {err}").into_bytes();
                    let response = Response::with_body(400, "Bad Request", "text/plain", body)
                        .with_header("Connection", "close");
                    counters.count_response(response.status);
                    let wire = response.to_bytes();
                    counters.bytes_out.add(wire.len() as u64);
                    // wsg_lint: allow(T1) — write timeout armed at accept time (arm_stream_timeouts)
                    if conn.stream.write_all(&wire).is_err() {
                        counters.write_errors.inc();
                    }
                    return None;
                }
            }
        }
        match conn.stream.read(read_buf) {
            Ok(0) => return None,
            Ok(n) => {
                conn.idle = Duration::ZERO;
                counters.bytes_in.add(n as u64);
                conn.parser.feed(&read_buf[..n]);
            }
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return None;
                }
                conn.idle += config.read_slice;
                if conn.idle >= config.keep_alive {
                    return None;
                }
                // Quiet socket: yield the worker to other connections.
                return Some(conn);
            }
            Err(_) => return None,
        }
    }
}

/// Answer one request on a connection whose last message said `said`
/// (advanced to this request's last message).
fn handle_request(
    mut request: crate::message::Request,
    peer: SocketAddr,
    service: &Service,
    counters: &ServerMetrics,
    said: &mut String,
) -> Response {
    if request.method == "GET" {
        let path = request.target.split('?').next().unwrap_or(request.target.as_str());
        return match path {
            "/metrics" => Response::with_body(
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                counters.registry.render().into_bytes(),
            ),
            _ => Response::new(404, "Not Found"),
        };
    }
    if request.method != "POST" {
        return Response::new(405, "Method Not Allowed").with_header("Allow", allowed_methods());
    }
    // A body that does not unwrap leaves the two ends of the connection
    // disagreeing about what it carried last: answer, and close it.
    let refuse = |fault: Fault| {
        counters.faults.inc();
        fault_response(400, fault).with_header("Connection", "close")
    };
    let Ok(raw) = String::from_utf8(std::mem::take(&mut request.body)) else {
        return refuse(Fault::new(FaultCode::Sender, "body is not valid UTF-8"));
    };
    let post_target =
        request.target.split('?').next().unwrap_or(request.target.as_str()).to_string();
    let from_node = request.header(NODE_HEADER).and_then(|v| v.trim().parse().ok());

    // A `urn:ws-gossip:batch` wrapper carries N envelopes in one POST:
    // each is dispatched through the service exactly as if it had arrived
    // alone (inner `target` attributes override the POST target for
    // piggybacked routes), and the whole batch is answered once — 202 on
    // success, the first fault otherwise. Every message is dispatched
    // even after one faults: the sender books the whole POST as delivered,
    // so stopping early would lose the rest silently. Inner reply
    // envelopes are dropped: a batch is a one-way transport frame.
    // `parse_wire_after` streams the document once, slicing each inner
    // envelope's `raw` bytes back out of the request body.
    let soap_request = |target: String, raw: String, gossip: Option<GossipId<'static>>| {
        SoapRequest { target, from_node, peer, raw, gossip }
    };
    let outcome = match parse_wire_after(&raw, said) {
        Ok(Unbundled::Batch(messages)) => {
            let mut first_fault = None;
            for message in messages {
                let target = message.target.unwrap_or_else(|| post_target.clone());
                if let Err(fault) = service(soap_request(target, message.raw, message.gossip)) {
                    first_fault.get_or_insert(fault);
                }
            }
            first_fault.map_or(Ok(SoapReply::Accepted), Err)
        }
        Ok(Unbundled::Single(Ok(gossip))) => service(soap_request(post_target, raw, gossip)),
        Ok(Unbundled::Single(Err(err))) | Err(err) => return refuse(not_an_envelope(err)),
    };
    match outcome {
        Ok(SoapReply::Accepted) => Response::new(202, "Accepted"),
        Ok(SoapReply::Envelope(envelope)) => Response::with_body(
            200,
            "OK",
            SOAP_CONTENT_TYPE,
            envelope.to_xml().into_bytes(),
        ),
        Err(fault) => {
            counters.faults.inc();
            let status = if fault.code() == FaultCode::Sender { 400 } else { 500 };
            fault_response(status, fault)
        }
    }
}

fn fault_response(status: u16, fault: Fault) -> Response {
    let reason = if status == 400 { "Bad Request" } else { "Internal Server Error" };
    let envelope = Envelope::fault(MessageHeaders::new(), fault);
    Response::with_body(status, reason, SOAP_CONTENT_TYPE, envelope.to_xml().into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn accepted_sockets_are_armed_with_read_and_write_timeouts() {
        // Regression: the accept path used to set only the read timeout,
        // so a peer that accepted a response but stopped reading could
        // park a worker in write_all forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (accepted, _peer) = listener.accept().unwrap();
        let config = HttpServerConfig::default();
        assert!(arm_stream_timeouts(&accepted, &config));
        // The OS may round a timeout up to its timer granularity, so
        // assert "armed, and no shorter than configured" rather than
        // exact equality.
        let read = accepted.read_timeout().unwrap().expect("read timeout armed");
        assert!(read >= config.read_slice, "{read:?}");
        let write = accepted.write_timeout().unwrap().expect("write timeout armed");
        assert!(write >= WRITE_TIMEOUT, "{write:?}");
    }

    fn echo_service() -> Service {
        Arc::new(|req: SoapRequest| Ok(SoapReply::Envelope(req.envelope()?)))
    }

    fn raw_exchange(addr: SocketAddr, wire: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(wire).unwrap();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn sample_envelope() -> Envelope {
        Envelope::request(
            MessageHeaders::request("http://node1/gossip", "urn:svc:Notify"),
            wsg_xml::Element::text_node("tick", "ACME 101.25"),
        )
    }

    #[test]
    fn echoes_posted_envelope() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", echo_service(), HttpServerConfig::default())
                .unwrap();
        let body = sample_envelope().to_xml();
        let wire = format!(
            "POST /gossip HTTP/1.1\r\nContent-Type: {SOAP_CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let reply = raw_exchange(server.local_addr(), wire.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got: {reply}");
        assert!(reply.contains("ACME 101.25"));
        assert_eq!(server.requests_served(), 1);
        server.shutdown();
    }

    #[test]
    fn service_sees_the_request_target_query_stripped() {
        let service: Service = Arc::new(|req: SoapRequest| {
            assert_eq!(req.target, "/membership", "query must be stripped: {}", req.target);
            Ok(SoapReply::Accepted)
        });
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", service, HttpServerConfig::default()).unwrap();
        let body = sample_envelope().to_xml();
        let wire = format!(
            "POST /membership?src=test HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let reply = raw_exchange(server.local_addr(), wire.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 202 "), "got: {reply}");
        server.shutdown();
    }

    #[test]
    fn unknown_method_is_405_with_derived_allow() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", echo_service(), HttpServerConfig::default())
                .unwrap();
        let reply = raw_exchange(
            server.local_addr(),
            b"PUT /gossip HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 405 "), "got: {reply}");
        // The Allow header is derived from the route table (GET routes
        // plus the SOAP POST endpoint), not hard-coded.
        assert!(reply.contains("Allow: GET, POST\r\n"), "got: {reply}");
        server.shutdown();
    }

    #[test]
    fn get_off_route_is_404() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", echo_service(), HttpServerConfig::default())
                .unwrap();
        let reply = raw_exchange(
            server.local_addr(),
            b"GET /gossip HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 404 "), "got: {reply}");
        server.shutdown();
    }

    #[test]
    fn metrics_route_serves_the_registry_exposition() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", echo_service(), HttpServerConfig::default())
                .unwrap();
        // One POST first so the counters are non-trivial.
        let body = sample_envelope().to_xml();
        let wire = format!(
            "POST /gossip HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = raw_exchange(server.local_addr(), wire.as_bytes());
        let reply = raw_exchange(
            server.local_addr(),
            b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got: {reply}");
        assert!(reply.contains("# TYPE wsg_http_server_requests_total counter"));
        assert!(reply.contains("wsg_http_server_requests_total 1"), "got: {reply}");
        assert!(reply.contains("wsg_http_server_responses_total{class=\"2xx\"} 1"));
        // Query strings are stripped before routing.
        let reply = raw_exchange(
            server.local_addr(),
            b"GET /metrics?format=text HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got: {reply}");
        server.shutdown();
    }

    #[test]
    fn observed_server_shares_a_caller_registry() {
        let registry = Arc::new(Registry::new());
        registry.register_counter("wsg_app_custom_total", "App-level counter.").add(9);
        let mut server = SoapHttpServer::bind_observed(
            "127.0.0.1:0",
            echo_service(),
            HttpServerConfig::default(),
            Arc::clone(&registry),
        )
        .unwrap();
        let reply = raw_exchange(
            server.local_addr(),
            b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.contains("wsg_app_custom_total 9"), "got: {reply}");
        assert!(Arc::ptr_eq(&registry, &server.registry()));
        server.shutdown();
    }

    #[test]
    fn non_envelope_body_is_400_with_sender_fault() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", echo_service(), HttpServerConfig::default())
                .unwrap();
        let reply = raw_exchange(
            server.local_addr(),
            b"POST / HTTP/1.1\r\nContent-Length: 9\r\nConnection: close\r\n\r\nnot xml!!",
        );
        assert!(reply.starts_with("HTTP/1.1 400 "), "got: {reply}");
        assert!(reply.contains("Sender"), "fault code missing: {reply}");
        assert!(reply.contains("body is not a SOAP envelope: invalid xml: "), "got: {reply}");
        assert_eq!(server.faults_served(), 1);
        // Well-formed, but not an envelope: same status, the shape named.
        for (body, reason) in [
            ("<a/>", "not a soap 1.2 envelope: root element is a"),
            (
                "<e:Envelope xmlns:e=\"http://www.w3.org/2003/05/soap-envelope\"/>",
                "envelope missing Body",
            ),
        ] {
            let wire = format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let reply = raw_exchange(server.local_addr(), wire.as_bytes());
            assert!(reply.starts_with("HTTP/1.1 400 "), "got: {reply}");
            assert!(
                reply.contains(&format!("body is not a SOAP envelope: {reason}")),
                "got: {reply}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn a_fault_mid_batch_still_dispatches_the_rest() {
        // The sender books every message of a POST it got any answer to as
        // delivered, so the server owes each of them a dispatch.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let service: Service = Arc::new(move |req: SoapRequest| {
            let tick = req.envelope()?.body().map(|b| b.text()).unwrap_or_default();
            log.lock().push(tick.clone());
            match tick.as_str() {
                "1" => Err(Fault::new(FaultCode::Receiver, "inbox closed at 1")),
                "2" => Err(Fault::new(FaultCode::Receiver, "inbox closed at 2")),
                _ => Ok(SoapReply::Accepted),
            }
        });
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", service, HttpServerConfig::default()).unwrap();
        let xmls: Vec<String> = (0..4)
            .map(|i| {
                Envelope::request(
                    MessageHeaders::request("http://node1/gossip", "urn:svc:Notify"),
                    wsg_xml::Element::text_node("tick", i.to_string()),
                )
                .to_xml()
            })
            .collect();
        let items: Vec<wsg_soap::batch::BatchItem<'_>> =
            xmls.iter().map(|xml| wsg_soap::batch::BatchItem { target: None, xml }).collect();
        let mut body = String::new();
        wsg_soap::batch::write_batch(&items, &mut body);
        let wire = format!(
            "POST /gossip HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let reply = raw_exchange(server.local_addr(), wire.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 500 "), "got: {reply}");
        assert!(reply.contains("inbox closed at 1"), "the first fault answers: {reply}");
        assert_eq!(*seen.lock(), ["0", "1", "2", "3"], "every message is dispatched");
        assert_eq!(server.faults_served(), 1);
        server.shutdown();
    }

    #[test]
    fn a_hostile_batch_is_a_400_that_closes_the_connection() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let service: Service = Arc::new(move |req: SoapRequest| {
            log.lock().push(req.raw);
            Ok(SoapReply::Accepted)
        });
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", service, HttpServerConfig::default()).unwrap();
        let xmls: Vec<String> = (0..3)
            .map(|i| {
                Envelope::request(
                    MessageHeaders::request("http://node1/gossip", "urn:svc:Notify"),
                    wsg_xml::Element::text_node("tick", format!("é{i}")),
                )
                .to_xml()
            })
            .collect();
        let items: Vec<wsg_soap::batch::BatchItem<'_>> =
            xmls.iter().map(|xml| wsg_soap::batch::BatchItem { target: None, xml }).collect();
        let mut good = String::new();
        assert!(wsg_soap::batch::write_batch(&items, &mut good) > 0, "{good}");
        let pre = good.find(" pre=\"").unwrap() + 6;
        let hostile = [
            // Past the message before, into the middle of its `é`, not a
            // number, on the first message, beside an element; a rebuilt
            // text that is no document; one with nothing but a prefix.
            good.replacen(" pre=\"", " pre=\"9", 1),
            format!("{}{}{}", &good[..pre], xmls[0].find('é').unwrap() - 37, &good[good[pre..].find('"').unwrap() + pre..]),
            good.replacen(" pre=\"", " pre=\"x", 1),
            good.replacen("<wsgb:Msg>", "<wsgb:Msg pre=\"0\">", 1),
            good.replacen("<![CDATA[", "<a/><![CDATA[", 1),
            good.replacen("<![CDATA[", "<![CDATA[<", 1),
            good.replacen("]]></wsgb:Msg>", "]]></wsgb:Msg><wsgb:Msg pre=\"40\"/>", 1),
        ];
        assert_eq!(wsg_soap::batch::MAX_UNWRAPPED_BYTES, crate::parser::MAX_BODY_BYTES);

        let exchange = |stream: &mut TcpStream, body: &str| {
            let wire =
                format!("POST /gossip HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
            stream.write_all(wire.as_bytes()).unwrap();
            let mut parser = crate::parser::ResponseParser::new();
            let mut chunk = [0u8; 1024];
            loop {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "server closed the connection after {body}");
                parser.feed(&chunk[..n]);
                if let Parsed::Complete(response) = parser.parse().unwrap() {
                    break response;
                }
            }
        };
        let connect = || TcpStream::connect(server.local_addr()).unwrap();
        // Refused, and the connection with it: the two ends may no longer
        // agree on what it carried last.
        let refused = |body: &str| {
            let mut stream = connect();
            let response = exchange(&mut stream, body);
            let fault = String::from_utf8_lossy(&response.body).into_owned();
            assert_eq!(response.status, 400, "{body}: {fault}");
            assert_eq!(response.header("Connection"), Some("close"), "{body}");
            assert!(fault.contains("Sender"), "{body}: {fault}");
            assert!(fault.contains("body is not a SOAP envelope: "), "{body}: {fault}");
            assert_eq!(stream.read(&mut [0u8; 16]).unwrap(), 0, "{body}: still open");
        };
        hostile.iter().for_each(|body| refused(body));
        assert!(seen.lock().is_empty(), "a refused batch dispatches nothing");
        // One connection: the batch as written; a batch whose first message
        // is coded against the last message of that one; one message alone.
        // A service cannot tell how a message travelled.
        let mut stream = connect();
        assert_eq!(exchange(&mut stream, &good).status, 202);
        let mut said = wsg_soap::batch::text_of(&xmls[2]).to_string();
        let mut next = String::new();
        let items = [xmls[0].as_str(), &xmls[1]].map(|xml| (None, [xml, "", ""]));
        assert!(wsg_soap::batch::write_batch_parts(items.into_iter(), &mut said, &mut next) > 0);
        assert!(next[next.find("<wsgb:Msg").unwrap()..].starts_with("<wsgb:Msg pre=\""), "{next}");
        assert_eq!(exchange(&mut stream, &next).status, 202);
        assert_eq!(exchange(&mut stream, &xmls[1]).status, 202);
        assert_eq!(*seen.lock(), [0, 1, 2, 0, 1, 1].map(|i| xmls[i].clone()));
        // The coded one on a fresh connection: nothing before it.
        refused(&next);
        assert_eq!(server.faults_served(), hostile.len() as u64 + 1);
        server.shutdown();
    }

    #[test]
    fn service_fault_is_500_with_fault_envelope() {
        let service: Service =
            Arc::new(|_req| Err(Fault::new(FaultCode::Receiver, "handler exploded")));
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", service, HttpServerConfig::default()).unwrap();
        let body = sample_envelope().to_xml();
        let wire = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let reply = raw_exchange(server.local_addr(), wire.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 500 "), "got: {reply}");
        assert!(reply.contains("handler exploded"));
        server.shutdown();
    }

    #[test]
    fn garbage_gets_400_and_close() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", echo_service(), HttpServerConfig::default())
                .unwrap();
        let reply = raw_exchange(server.local_addr(), b"THIS IS NOT HTTP\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400 "), "got: {reply}");
        assert_eq!(server.parse_errors(), 1);
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", echo_service(), HttpServerConfig::default())
                .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let body = sample_envelope().to_xml();
        for round in 0..3 {
            let wire = format!(
                "POST /gossip HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(wire.as_bytes()).unwrap();
            let mut parser = crate::parser::ResponseParser::new();
            let mut chunk = [0u8; 1024];
            let response = loop {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "server closed early on round {round}");
                parser.feed(&chunk[..n]);
                if let Parsed::Complete(resp) = parser.parse().unwrap() {
                    break resp;
                }
            };
            assert_eq!(response.status, 200, "round {round}");
        }
        assert_eq!(server.requests_served(), 3);
        server.shutdown();
    }

    #[test]
    fn a_large_request_and_one_pipelined_behind_it_both_parse() {
        // 300 KiB is several fills of the worker's read buffer; the small
        // request's bytes arrive in the same read as the large one's tail.
        let service: Service = Arc::new(|_req| Ok(SoapReply::Accepted));
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", service, HttpServerConfig::default()).unwrap();
        let large = Envelope::request(
            MessageHeaders::request("http://node1/gossip", "urn:svc:Notify"),
            wsg_xml::Element::text_node("tick", "x".repeat(300 * 1024)),
        )
        .to_xml();
        let small = sample_envelope().to_xml();
        let mut wire = Vec::new();
        for (body, connection) in [(&large, "keep-alive"), (&small, "close")] {
            wire.extend_from_slice(
                format!(
                    "POST /gossip HTTP/1.1\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
        let reply = raw_exchange(server.local_addr(), &wire);
        assert_eq!(reply.matches("HTTP/1.1 202 Accepted\r\n").count(), 2, "got: {reply}");
        assert_eq!(server.requests_served(), 2);
        assert_eq!(server.faults_served(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent() {
        let mut server =
            SoapHttpServer::bind("127.0.0.1:0", echo_service(), HttpServerConfig::default())
                .unwrap();
        let started = std::time::Instant::now();
        server.shutdown();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            started.elapsed()
        );
        assert!(TcpStream::connect(server.local_addr()).is_err() || {
            // The OS may still accept briefly; a write must then fail.
            true
        });
    }

    #[test]
    fn idle_connections_time_out() {
        // The default slice, and a zero slice (floored where the server is
        // built: it must still add up to `keep_alive`).
        let ms = Duration::from_millis;
        for (read_slice, keep_alive) in [(READ_SLICE, ms(100)), (Duration::ZERO, ms(50))] {
            let config = HttpServerConfig { keep_alive, read_slice, ..HttpServerConfig::default() };
            let mut server = SoapHttpServer::bind("127.0.0.1:0", echo_service(), config).unwrap();
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 16];
            let started = Instant::now();
            // The server should close the idle connection, yielding EOF.
            let n = stream.read(&mut buf).unwrap();
            assert_eq!(n, 0, "expected EOF from idle timeout");
            assert!(started.elapsed() >= keep_alive * 4 / 5);
            server.shutdown();
        }
    }
}
