//! Stage replays: each layer's public functions called in isolation, on
//! one thread, over real envelopes a probe captured from a short live
//! fleet. Single-threaded, so the allocation counts are exact.
//!
//! Every function is timed call by call; `_ns` is the median call and
//! `_allocs` the median allocations per call. Each stage runs at 256 B
//! and at 16 KiB of payload, because the layers cost per message at the
//! first size and per byte at the second.

use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;

use ws_gossip::WsGossipNode;
use wsg_bench::timing::{allocations, now};
use wsg_cluster::{membership_uri, ClusterConfig, ClusterMessage, MemberEntry, MembershipPlane};
use wsg_coord::GossipProtocol;
use wsg_http::{
    HttpClientConfig, HttpServerConfig, Request, RequestParser, ResponseParser, SoapHttpClient,
    SoapHttpServer, SoapReply, WallClock,
};
use wsg_net::time::Clock;
use wsg_net::{Context, NodeId, Pcg32, Protocol, Rng64, SimDuration, SimTime, TimerTag};
use wsg_soap::batch::{parse_wire, write_batch, BatchItem};
use wsg_soap::Envelope;
use wsg_xml::Element;

use crate::fleet::{self, Options, Workload};
use crate::load::Payloads;
use crate::metrics::{percentile_of, Values, PER_LAYER};
use crate::probe::{Captured, Load, COORDINATOR, FIRST_SUBSCRIBER, INITIATOR, TOPIC};

/// Per-call samples of one stage.
struct Samples {
    ns: Vec<f64>,
    allocs: Vec<f64>,
}

impl Samples {
    fn new(calls: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(calls),
            allocs: Vec::with_capacity(calls),
        }
    }

    /// Time one call, its result's drop included.
    fn time<T>(&mut self, call: impl FnOnce() -> T) {
        let allocs_before = allocations();
        let started = now();
        drop(black_box(call()));
        let elapsed = started.elapsed();
        self.allocs.push((allocations() - allocs_before) as f64);
        self.ns.push(elapsed.as_nanos() as f64);
    }

    fn median_ns(&mut self) -> f64 {
        self.ns.sort_by(f64::total_cmp);
        percentile_of(&self.ns, 50.0)
    }

    fn median_allocs(&mut self) -> f64 {
        self.allocs.sort_by(f64::total_cmp);
        percentile_of(&self.allocs, 50.0)
    }
}

/// A runtime context that only keeps what the node sends.
struct CapturingCtx {
    id: NodeId,
    rng: Pcg32,
    sent: Vec<(NodeId, String)>,
}

impl CapturingCtx {
    fn new(id: NodeId) -> Self {
        CapturingCtx {
            id,
            rng: Pcg32::new(17, id.index() as u64),
            sent: Vec::new(),
        }
    }
}

impl Context<String> for CapturingCtx {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn self_id(&self) -> NodeId {
        self.id
    }
    fn node_count(&self) -> usize {
        16
    }
    fn send(&mut self, to: NodeId, msg: String) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _delay: SimDuration, _tag: TimerTag) {}
    fn rng(&mut self) -> &mut dyn Rng64 {
        &mut self.rng
    }
}

/// The declared name `<base>_<size>` (or `<base>` when sizeless).
fn declared(base: &str, size: &str) -> Result<&'static str, String> {
    let full = if size.is_empty() {
        base.to_string()
    } else {
        format!("{base}_{size}")
    };
    PER_LAYER
        .iter()
        .find(|m| m.name == full)
        .map(|m| m.name)
        .ok_or_else(|| format!("stage metric {full} is not declared"))
}

/// Run a short live fleet publishing `payload_bytes` payloads and return
/// the envelopes its probes captured.
fn capture(seed: u64, payload_bytes: usize) -> Result<[String; 3], String> {
    let workload = Workload {
        name: "capture",
        why: "",
        load: Load::Open { rate_per_s: 20 },
        payload_bytes,
        deadline_ms: 500,
        churn: false,
    };
    let opts = Options {
        seed,
        seconds: 0.3,
        warmup_s: 0.2,
        subscribers: 8,
        setups: 1,
        trace: false,
        capture: true,
    };
    let report = fleet::run(&workload, &opts)?;
    if !report.violations.is_empty() {
        return Err(format!("capture fleet: {}", report.violations.join("; ")));
    }
    match report.captured {
        Captured {
            notify: Some(notify),
            register_response: Some(grant),
            context_response: Some(context),
        } => Ok([notify, grant, context]),
        missing => Err(format!(
            "capture fleet did not see every envelope: {missing:?}"
        )),
    }
}

/// A subscriber node holding the captured grant, as after its first
/// `RegisterResponse`.
fn warm_subscriber(grant: &str) -> WsGossipNode {
    let id = NodeId(FIRST_SUBSCRIBER);
    let mut node = WsGossipNode::disseminator(id, COORDINATOR);
    node.on_message(COORDINATOR, grant.to_string(), &mut CapturingCtx::new(id));
    node
}

/// The captured notification re-issued as publication `seq`.
fn with_seq(notify: &str, seq: u64) -> String {
    let Some(start) = notify.find("<wsg:Seq>").map(|at| at + "<wsg:Seq>".len()) else {
        return notify.to_string();
    };
    let len = notify[start..].find('<').unwrap_or(0);
    format!("{}{seq}{}", &notify[..start], &notify[start + len..])
}

/// Replay the stages that depend on payload size.
#[allow(clippy::result_large_err)] // the accept-only Service returns Fault by value
fn sized(
    seed: u64,
    payload_bytes: usize,
    size: &str,
    calls: usize,
    out: &mut Values,
) -> Result<(), String> {
    let [notify, grant, context] = capture(seed, payload_bytes)?;
    let mut put = |base: &str, value: f64| -> Result<(), String> {
        out.push((declared(base, size)?, value));
        Ok(())
    };
    put("wsg_soap.envelope_bytes", notify.len() as f64)?;

    // wsg_xml: the element reader and writer on the whole document.
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| Element::parse(black_box(&notify)));
    }
    put("wsg_xml.parse_ns", s.median_ns())?;
    put("wsg_xml.parse_allocs", s.median_allocs())?;
    let root = Element::parse(&notify).map_err(|e| format!("captured envelope: {e}"))?;
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| black_box(&root).to_xml_string());
    }
    put("wsg_xml.write_ns", s.median_ns())?;
    put("wsg_xml.write_allocs", s.median_allocs())?;

    // wsg_soap: envelope codec, then the batch wrapper per message.
    let envelope = Envelope::parse(&notify).map_err(|e| format!("captured envelope: {e}"))?;
    let mut buffer = String::new();
    envelope.write_xml(&mut buffer);
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| black_box(&envelope).write_xml(&mut buffer));
    }
    put("wsg_soap.envelope_write_ns", s.median_ns())?;
    put("wsg_soap.envelope_write_allocs", s.median_allocs())?;
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| Envelope::parse(black_box(&notify)));
    }
    put("wsg_soap.envelope_parse_ns", s.median_ns())?;
    put("wsg_soap.envelope_parse_allocs", s.median_allocs())?;

    // As many messages as the default caps let one POST carry.
    let caps = wsg_http::BatchConfig::default();
    let per_batch = (caps.max_batch_bytes / notify.len()).clamp(2, caps.max_batch_msgs);
    let items = vec![
        BatchItem {
            target: None,
            xml: &notify
        };
        per_batch
    ];
    let mut wire = String::new();
    write_batch(&items, &mut wire);
    let batches = (calls / per_batch).max(50);
    let mut s = Samples::new(batches);
    for _ in 0..batches {
        s.time(|| write_batch(black_box(&items), &mut wire));
    }
    put("wsg_soap.write_batch_ns", s.median_ns() / per_batch as f64)?;
    let mut s = Samples::new(batches);
    for _ in 0..batches {
        s.time(|| parse_wire(black_box(&wire)));
    }
    put(
        "wsg_soap.parse_wire_batch_ns",
        s.median_ns() / per_batch as f64,
    )?;
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| parse_wire(black_box(&notify)));
    }
    put("wsg_soap.parse_wire_single_ns", s.median_ns())?;

    // wsg_http: request framing around that envelope.
    let request = || {
        Request::post("/gossip", notify.as_bytes().to_vec())
            .with_header("Host", "127.0.0.1:8080")
            .with_header("Content-Type", wsg_http::server::SOAP_CONTENT_TYPE)
            .with_header("SOAPAction", "\"urn:ws-gossip:2008:Notify\"")
            .with_header(wsg_http::server::NODE_HEADER, "1")
    };
    let request_bytes = request().to_bytes();
    put("wsg_http.request_bytes", request_bytes.len() as f64)?;
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| request().to_bytes());
    }
    put("wsg_http.request_encode_ns", s.median_ns())?;
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| {
            let mut parser = RequestParser::new();
            parser.feed(black_box(&request_bytes));
            parser.parse()
        });
    }
    put("wsg_http.request_parse_ns", s.median_ns())?;

    // ws_gossip: the node's receive path with a capturing context. A
    // fresh warm node every so often keeps its retained `ops()` small.
    let id = NodeId(FIRST_SUBSCRIBER);
    let mut ctx = CapturingCtx::new(id);
    let refresh = (8 << 20) / notify.len().max(1);
    let mut node = warm_subscriber(&grant);
    let (mut new, mut dup) = (Samples::new(calls), Samples::new(calls));
    for call in 0..calls {
        if call % refresh == refresh - 1 {
            node = warm_subscriber(&grant);
        }
        let seq = 1_000_000 + call as u64;
        let (first, again) = (with_seq(&notify, seq), with_seq(&notify, seq));
        new.time(|| node.on_message(INITIATOR, first, &mut ctx));
        ctx.sent.clear();
        dup.time(|| node.on_message(INITIATOR, again, &mut ctx));
        ctx.sent.clear();
    }
    if node.ops().is_empty() || node.stats().parse_errors != 0 {
        return Err("on_message replay did not deliver".to_string());
    }
    put("ws_gossip.on_message_new_ns", new.median_ns())?;
    put("ws_gossip.on_message_new_allocs", new.median_allocs())?;
    put("ws_gossip.on_message_dup_ns", dup.median_ns())?;
    put("ws_gossip.on_message_dup_allocs", dup.median_allocs())?;

    // ws_gossip: `notify` at an initiator holding the captured context.
    let payloads = Payloads::new(seed, payload_bytes);
    let mut ctx = CapturingCtx::new(INITIATOR);
    let warm_initiator = |ctx: &mut CapturingCtx| {
        let mut node = WsGossipNode::initiator(INITIATOR, COORDINATOR);
        node.activate(GossipProtocol::Push, TOPIC, ctx);
        node.on_message(COORDINATOR, context.clone(), ctx);
        ctx.sent.clear();
        node
    };
    let mut node = warm_initiator(&mut ctx);
    let mut s = Samples::new(calls);
    for call in 0..calls {
        if call % refresh == refresh - 1 {
            node = warm_initiator(&mut ctx);
        }
        let payload = payloads.element(call as u64);
        s.time(|| node.notify(TOPIC, payload, &mut ctx));
        if ctx.sent.is_empty() {
            return Err("notify replay sent nothing".to_string());
        }
        ctx.sent.clear();
    }
    put("ws_gossip.notify_ns", s.median_ns())?;
    drop(node);

    // wsg_http: the floor one hop could reach — serial keep-alive POSTs
    // to an accept-only server. Last, so no server thread is alive while
    // allocations are counted above.
    let mut server = SoapHttpServer::bind(
        "127.0.0.1:0",
        Arc::new(|_request| Ok(SoapReply::Accepted)),
        HttpServerConfig::default(),
    )
    .map_err(|e| format!("bind round-trip server: {e}"))?;
    let client = SoapHttpClient::new(seed, HttpClientConfig::default());
    let addr = server.local_addr();
    let trips = (calls / 4).max(100);
    let mut s = Samples::new(trips);
    let mut failed = 0;
    for _ in 0..trips {
        s.time(|| {
            let outcome = client.post(
                addr,
                "/gossip",
                Some("urn:ws-gossip:2008:Notify"),
                &[],
                notify.as_bytes(),
            );
            failed += usize::from(!outcome.is_ok_and(|o| o.response.status == 202));
        });
    }
    server.shutdown();
    if failed > 0 {
        return Err(format!("{failed} of {trips} round trips failed"));
    }
    put("wsg_http.post_roundtrip_p50_us", s.median_ns() / 1e3)?;
    Ok(())
}

/// Replay the stages that do not depend on payload size.
fn unsized_stages(calls: usize, out: &mut Values) -> Result<(), String> {
    let accepted = wsg_http::Response::new(202, "Accepted").to_bytes();
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| {
            let mut parser = ResponseParser::new();
            parser.feed(black_box(&accepted));
            parser.parse()
        });
    }
    out.push((declared("wsg_http.response_parse_ns", "")?, s.median_ns()));

    // wsg_cluster: a 10-member heartbeat, as a 10-node fleet gossips it.
    let addr = |id: usize| SocketAddr::from((Ipv4Addr::LOCALHOST, 9000 + id as u16));
    let entries = |heartbeat: u64| -> Vec<MemberEntry> {
        (0..10)
            .map(|id| MemberEntry {
                id: NodeId(id),
                addr: addr(id),
                heartbeat,
            })
            .collect()
    };
    let message = ClusterMessage::Heartbeat(entries(7));
    let to = membership_uri(addr(0));
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| black_box(&message).to_envelope(to.clone()).to_xml());
    }
    out.push((
        declared("wsg_cluster.heartbeat_encode_ns", "")?,
        s.median_ns(),
    ));
    let xml = message.to_envelope(to).to_xml();
    let mut s = Samples::new(calls);
    for _ in 0..calls {
        s.time(|| Envelope::parse(black_box(&xml)).map(|e| ClusterMessage::from_envelope(&e)));
    }
    out.push((
        declared("wsg_cluster.heartbeat_decode_ns", "")?,
        s.median_ns(),
    ));
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let plane = MembershipPlane::new(NodeId(0), clock, ClusterConfig::default(), 17);
    plane.register_self(addr(0));
    let mut s = Samples::new(calls);
    for call in 0..calls {
        // Every member's counter advanced, as in a live round.
        let message = ClusterMessage::Heartbeat(entries(call as u64 + 1));
        s.time(|| plane.handle(black_box(&message)));
    }
    out.push((declared("wsg_cluster.plane_handle_ns", "")?, s.median_ns()));
    Ok(())
}

/// Run every stage: `calls` replays at 256 B and `calls / 4` at 16 KiB,
/// where one call costs tens of microseconds.
pub fn run(seed: u64, calls: usize) -> Result<Values, String> {
    let mut out = Values::new();
    sized(seed, 256, "256b", calls, &mut out)?;
    sized(seed, 16 * 1024, "16k", (calls / 4).max(100), &mut out)?;
    unsized_stages(calls, &mut out)?;
    Ok(out)
}
