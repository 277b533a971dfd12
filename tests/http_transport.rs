//! The full WS-Gossip middleware over **real loopback sockets**: every
//! node owns a `127.0.0.1` HTTP listener and gossip rounds are serialized
//! SOAP envelopes POSTed between them by `wsg_http::NetRuntime`.
//!
//! This is the strongest claim in the dissemination chain: the same
//! protocol state machines that run in the simulator and on channel-backed
//! threads also run on actual sockets, including a refused peer that
//! drives the client's retry/backoff path mid-dissemination.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ws_gossip::{Role, WsGossipNode};
use wsg_coord::GossipPolicy;
use wsg_gossip::GossipParams;
use wsg_http::client::HttpClientConfig;
use wsg_http::runtime::{NetRuntime, NetRuntimeConfig};
use wsg_net::{Context, NodeId, Protocol, SimDuration};
use wsg_xml::Element;

/// Snappy transport settings for loopback: refused connections fail fast
/// and retry quickly, so a dead peer cannot stall a sender thread.
fn loopback_config() -> NetRuntimeConfig {
    NetRuntimeConfig {
        client: HttpClientConfig {
            connect_timeout: Duration::from_millis(300),
            retries: 2,
            ..HttpClientConfig::default()
        },
        ..NetRuntimeConfig::default()
    }
}

/// The acceptance scenario: ten nodes (eight of them live subscribers or
/// infrastructure), one refused. A publication pushed by the initiator
/// must reach every live subscriber via real HTTP traffic, and the
/// refused consumer must leave retry evidence in the transport counters.
#[test]
fn full_dissemination_over_loopback_sockets_with_a_refused_peer() {
    let coordinator = NodeId(0);
    let ticks: Vec<Element> = (0..4)
        .map(|i| Element::text_node("tick", format!("ACME {}", 100 + i)))
        .collect();
    let total = ticks.len();

    // n0 coordinator, n1 initiator, n2-n6 disseminators, n7-n8 consumers,
    // n9 a consumer whose socket refuses connections. Saturating fanout
    // makes completeness on the live subscribers deterministic.
    let mut nodes = vec![
        WsGossipNode::coordinator(coordinator)
            .with_policy(GossipPolicy::new(GossipParams::new(10, 6))),
        WsGossipNode::initiator(NodeId(1), coordinator).with_publish_schedule(
            "quotes",
            ticks,
            SimDuration::from_millis(150),
        ),
    ];
    for i in 2..7 {
        nodes.push(WsGossipNode::disseminator(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }
    for i in 7..10 {
        nodes.push(WsGossipNode::consumer(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }
    assert!(nodes.len() >= 8, "the scenario must deploy at least 8 gossip nodes");

    let mut config = loopback_config();
    config.refuse = vec![NodeId(9)];
    let net = NetRuntime::spawn(nodes, 2024, config);
    let finished = net.shutdown_after(Duration::from_millis(3500));

    // Every live subscriber saw the complete feed.
    for (i, node) in finished.iter().enumerate() {
        if i == 9 || !matches!(node.protocol.role(), Role::Disseminator | Role::Consumer) {
            continue;
        }
        assert_eq!(
            node.protocol.distinct_ops().len(),
            total,
            "node {i} ({}) missed ticks; transport: {:?}",
            node.protocol.endpoint(),
            node.transport
        );
    }

    // Nobody returned a tick to the node that published it: with a
    // saturating fanout every disseminator drew the initiator, and dropped it.
    let origin = finished[1].protocol.layer_stats().expect("the initiator has a gossip layer");
    assert_eq!(origin.duplicates_suppressed, 0, "the origin was sent its own notification");
    for node in &finished[2..7] {
        let layer = node.protocol.layer_stats().expect("disseminators have a gossip layer");
        assert!(layer.forwards_suppressed >= total as u64, "{layer:?}");
    }

    // The refused consumer received nothing...
    assert!(finished[9].protocol.distinct_ops().is_empty());

    // ...and somebody paid for trying: failed posts with retries behind
    // them (attempts strictly exceed the number of posts).
    let failed: u64 = finished.iter().map(|n| n.transport.posts_failed).sum();
    let attempts: u64 = finished.iter().map(|n| n.transport.attempts).sum();
    let posts: u64 = finished.iter().map(|n| n.transport.posts_ok + n.transport.posts_failed).sum();
    assert!(failed > 0, "the refused node should have failed somebody's posts");
    assert!(
        attempts > posts,
        "retries should make attempts ({attempts}) exceed posts ({posts})"
    );

    // And the dissemination itself was real traffic, not channel luck.
    let ok: u64 = finished.iter().map(|n| n.transport.posts_ok).sum();
    assert!(ok as usize >= total * 7, "expected at least one post per tick per subscriber");

    // Batching accounts exactly on every node: it never inflates POSTs,
    // and what it saved is envelopes minus POSTs.
    for (i, node) in finished.iter().enumerate() {
        let t = node.transport;
        assert!(t.msgs_ok >= t.posts_ok, "node {i}: {t:?}");
        assert_eq!(t.posts_saved, t.msgs_ok - t.posts_ok, "node {i}: {t:?}");
    }
}

/// Under a stream of publications every node queues a copy of each
/// notification for every peer, and many of those peers send it their own
/// copy first: the runtime withdraws the queued one. Nothing a node would
/// deliver is ever withdrawn — every subscriber delivers every publication
/// exactly once — and what was withdrawn was never posted, so every
/// envelope a sender booked as delivered still reached a node.
#[test]
fn a_live_fleet_withdraws_what_peers_sent_first_and_still_delivers_everything() {
    let coordinator = NodeId(0);
    let total = 240;
    let ticks = (0..total).map(|i| Element::text_node("tick", format!("ACME {i}"))).collect();
    // n0 coordinator, n1 initiator, n2-n9 subscribers. A saturating
    // fanout: at first receipt a node queues a copy for every peer that
    // does not provably hold the notification already.
    let mut nodes = vec![
        WsGossipNode::coordinator(coordinator)
            .with_policy(GossipPolicy::new(GossipParams::new(10, 6))),
        WsGossipNode::initiator(NodeId(1), coordinator).with_publish_schedule(
            "quotes",
            ticks,
            SimDuration::from_millis(4),
        ),
    ];
    for i in 2..10 {
        nodes.push(WsGossipNode::disseminator(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }
    let tallies: Vec<Arc<AtomicUsize>> = nodes.iter().map(|_| Arc::default()).collect();
    let nodes = nodes
        .into_iter()
        .zip(&tallies)
        .map(|(node, delivered)| Tallied { node, delivered: Arc::clone(delivered) })
        .collect();
    let net = NetRuntime::spawn(nodes, 2028, loopback_config());
    let registries: Vec<_> = (0..10).map(|i| net.registry_of(NodeId(i))).collect();
    // However slow the machine, the fleet runs until every subscriber has
    // every publication, and no longer than the deadline.
    let deadline = Instant::now() + Duration::from_secs(60);
    while tallies[2..].iter().any(|tally| tally.load(Ordering::Relaxed) < total)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(50));
    }
    let finished = net.shutdown_after(Duration::from_millis(300));

    let withdrawn: u64 = finished.iter().map(|node| node.transport.withdrawn).sum();
    assert!(withdrawn > 0, "no queued copy was withdrawn");
    let scraped: u64 = registries
        .iter()
        .map(|registry| registry.register_counter("wsg_transport_withdrawn_total", "").get())
        .sum();
    assert_eq!(scraped, withdrawn);
    for (i, node) in finished.iter().enumerate().skip(2) {
        let ops = node.protocol.node.ops();
        assert_eq!(ops.len(), total, "node {i} delivered {} of {total}", ops.len());
        assert_eq!(node.protocol.node.distinct_ops().len(), total, "node {i} delivered twice");
    }
    // Σ msgs_ok = Σ messages_received: a withdrawn copy was never posted,
    // and every posted one was handed to a node.
    let sent: u64 = finished.iter().map(|node| node.transport.msgs_ok).sum();
    let received: u64 =
        finished.iter().map(|node| node.protocol.node.stats().messages_received).sum();
    assert_eq!(sent, received, "{withdrawn} withdrawn");
    assert!(finished.iter().all(|node| node.transport.posts_failed == 0));
}

/// A [`WsGossipNode`], unmodified, that keeps a count of what it has
/// delivered where the test can watch it, and — an initiator — publishes
/// its first notification only once every subscription is in: a grant
/// names the subscribers known when it is handed out, for good.
struct Tallied {
    node: WsGossipNode,
    delivered: Arc<AtomicUsize>,
}

/// The context `on_start` sees: the first publication is held back.
struct HeldBack<'a>(&'a mut dyn Context<String>);

impl Context<String> for HeldBack<'_> {
    fn now(&self) -> wsg_net::SimTime {
        self.0.now()
    }
    fn self_id(&self) -> NodeId {
        self.0.self_id()
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn send(&mut self, to: NodeId, msg: String) {
        self.0.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: wsg_net::TimerTag) {
        let held = if tag == ws_gossip::node::PUBLISH_TICK { SimDuration::from_millis(1000) } else { delay };
        self.0.set_timer(held, tag);
    }
    fn rng(&mut self) -> &mut dyn wsg_net::rng::Rng64 {
        self.0.rng()
    }
}

impl Protocol for Tallied {
    type Message = String;
    fn on_start(&mut self, ctx: &mut dyn Context<String>) {
        self.node.on_start(&mut HeldBack(ctx));
    }
    fn on_message(&mut self, from: NodeId, msg: String, ctx: &mut dyn Context<String>) {
        self.node.on_message(from, msg, ctx);
        self.delivered.store(self.node.ops().len(), Ordering::Relaxed);
    }
    fn on_timer(&mut self, tag: wsg_net::TimerTag, ctx: &mut dyn Context<String>) {
        self.node.on_timer(tag, ctx);
    }
}

/// A [`WsGossipNode`], unmodified, whose outgoing notifications have their
/// `wsa:Action` rewritten on the way to the transport: what a foreign (or
/// hostile) publisher's stack might put there.
struct ForeignAction {
    node: WsGossipNode,
    /// Escaped text appended to the action of what this node sends.
    suffix: &'static str,
}

struct Rewriting<'a> {
    inner: &'a mut dyn Context<String>,
    suffix: &'static str,
}

impl Context<String> for Rewriting<'_> {
    fn now(&self) -> wsg_net::SimTime {
        self.inner.now()
    }
    fn self_id(&self) -> NodeId {
        self.inner.self_id()
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn send(&mut self, to: NodeId, msg: String) {
        let rewritten = format!(":Notify{}</wsa:Action>", self.suffix);
        self.inner.send(to, msg.replace(":Notify</wsa:Action>", &rewritten));
    }
    fn set_timer(&mut self, delay: SimDuration, tag: wsg_net::TimerTag) {
        self.inner.set_timer(delay, tag);
    }
    fn rng(&mut self) -> &mut dyn wsg_net::rng::Rng64 {
        self.inner.rng()
    }
}

impl Protocol for ForeignAction {
    type Message = String;
    fn on_start(&mut self, ctx: &mut dyn Context<String>) {
        self.node.on_start(&mut Rewriting { inner: ctx, suffix: self.suffix });
    }
    fn on_message(&mut self, from: NodeId, msg: String, ctx: &mut dyn Context<String>) {
        self.node.on_message(from, msg, &mut Rewriting { inner: ctx, suffix: self.suffix });
    }
    fn on_timer(&mut self, tag: wsg_net::TimerTag, ctx: &mut dyn Context<String>) {
        self.node.on_timer(tag, &mut Rewriting { inner: ctx, suffix: self.suffix });
    }
}

/// A notification whose `wsa:Action` decodes to line breaks and a quote —
/// legal XML, carried through every hop as written — still reaches every
/// subscriber: no hop's `SOAPAction` line ends a request head early, adds
/// a header to it, or gets a POST refused.
#[test]
fn an_action_no_http_header_can_carry_still_disseminates() {
    let coordinator = NodeId(0);
    let ticks: Vec<Element> =
        (0..3).map(|i| Element::text_node("tick", format!("ACME {}", 100 + i))).collect();
    let total = ticks.len() as u64;
    let mut nodes = vec![
        WsGossipNode::coordinator(coordinator)
            .with_policy(GossipPolicy::new(GossipParams::new(10, 6))),
        WsGossipNode::initiator(NodeId(1), coordinator).with_publish_schedule(
            "quotes",
            ticks,
            SimDuration::from_millis(150),
        ),
    ];
    for i in 2..6 {
        nodes.push(WsGossipNode::disseminator(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }
    for i in 6..8 {
        nodes.push(WsGossipNode::consumer(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }
    // Only the publisher's stack is foreign; every forward repeats what
    // it decoded.
    let nodes: Vec<ForeignAction> = (nodes.into_iter().enumerate())
        .map(|(i, node)| ForeignAction {
            node,
            suffix: if i == 1 { "&#13;&#10;&#13;&#10;X-Injected: &quot;yes" } else { "" },
        })
        .collect();

    let net = NetRuntime::spawn(nodes, 2026, loopback_config());
    let registries: Vec<_> = (0..8).map(|i| net.registry_of(NodeId(i))).collect();
    let finished = net.shutdown_after(Duration::from_millis(2500));

    for (i, node) in finished.iter().enumerate() {
        let stats = node.protocol.node.stats();
        assert_eq!(stats.parse_errors, 0, "node {i}: {stats:?}");
        assert_eq!(node.transport.posts_failed, 0, "node {i}: {:?}", node.transport);
        let served = registries[i].render();
        assert!(!served.contains("wsg_http_server_responses_total{class=\"4xx\"}"), "node {i}: {served}");
        assert!(served.contains("wsg_http_server_parse_errors_total 0"), "node {i}: {served}");
        if !matches!(node.protocol.node.role(), Role::Disseminator | Role::Consumer) {
            continue;
        }
        // The action names no operation of this middleware, so the
        // application is not handed the message — it got there all the same,
        // once per tick where a gossip layer drops the duplicates.
        assert!(stats.unroutable >= total, "node {i} missed ticks: {stats:?}");
        if let Some(layer) = node.protocol.node.layer_stats() {
            assert_eq!(stats.unroutable, total, "node {i}: {stats:?} {layer:?}");
            assert!(layer.forwards_sent > 0, "node {i} forwarded nothing: {layer:?}");
        }
    }
}

/// A [`WsGossipNode`], unmodified, that counts what it is handed and, if it
/// publishes, does so in bursts: every `BURST`-th publication waits `GAP`
/// instead of the schedule's interval (the first one too, so the context
/// is ready before anything is published).
struct Bursts {
    node: WsGossipNode,
    received: u64,
    armed: u32,
}

const BURST: u32 = 4;
const GAP: SimDuration = SimDuration::from_millis(500);

struct Paced<'a> {
    inner: &'a mut dyn Context<String>,
    armed: &'a mut u32,
}

impl Context<String> for Paced<'_> {
    fn now(&self) -> wsg_net::SimTime {
        self.inner.now()
    }
    fn self_id(&self) -> NodeId {
        self.inner.self_id()
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn send(&mut self, to: NodeId, msg: String) {
        self.inner.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: wsg_net::TimerTag) {
        let mut delay = delay;
        if tag == ws_gossip::node::PUBLISH_TICK {
            if self.armed.is_multiple_of(BURST) {
                delay = GAP;
            }
            *self.armed += 1;
        }
        self.inner.set_timer(delay, tag);
    }
    fn rng(&mut self) -> &mut dyn wsg_net::rng::Rng64 {
        self.inner.rng()
    }
}

impl Protocol for Bursts {
    type Message = String;
    fn on_start(&mut self, ctx: &mut dyn Context<String>) {
        self.node.on_start(&mut Paced { inner: ctx, armed: &mut self.armed });
    }
    fn on_message(&mut self, from: NodeId, msg: String, ctx: &mut dyn Context<String>) {
        self.received += 1;
        self.node.on_message(from, msg, &mut Paced { inner: ctx, armed: &mut self.armed });
    }
    fn on_timer(&mut self, tag: wsg_net::TimerTag, ctx: &mut dyn Context<String>) {
        self.node.on_timer(tag, &mut Paced { inner: ctx, armed: &mut self.armed });
    }
}

/// Every POST is coded against the last message its connection carried,
/// and the server idles connections out between bursts: the sender must
/// start each fresh connection from nothing, or the receiver refuses what
/// it cannot unwrap. Nothing is lost or altered either way.
#[test]
fn messages_survive_connections_that_idle_out_between_bursts() {
    let coordinator = NodeId(0);
    let texts: Vec<String> = (0..12).map(|i| format!("ACME {} & <co> é{i}", 100 + i)).collect();
    let ticks = texts.iter().map(|text| Element::text_node("tick", text.as_str())).collect();
    let mut nodes = vec![
        WsGossipNode::coordinator(coordinator)
            .with_policy(GossipPolicy::new(GossipParams::new(10, 6))),
        WsGossipNode::initiator(NodeId(1), coordinator).with_publish_schedule(
            "quotes",
            ticks,
            SimDuration::from_millis(15),
        ),
    ];
    for i in 2..5 {
        nodes.push(WsGossipNode::disseminator(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }
    nodes.push(WsGossipNode::consumer(NodeId(5), coordinator).with_auto_subscribe("quotes"));
    let nodes: Vec<Bursts> =
        nodes.into_iter().map(|node| Bursts { node, received: 0, armed: 0 }).collect();

    let mut config = loopback_config();
    // Idle for a tenth of a gap and a connection is closed; the bursts'
    // 15 ms spacing keeps it open.
    config.server.keep_alive = Duration::from_millis(100);
    let net = NetRuntime::spawn(nodes, 2025, config);
    let registries: Vec<_> = (0..6).map(|i| net.registry_of(NodeId(i))).collect();
    let finished = net.shutdown_after(Duration::from_millis(2600));

    let counter = |i: usize, name: &str| registries[i].register_counter(name, "").get();
    let sum = |name: &str| (0..6).map(|i| counter(i, name)).sum::<u64>();
    // Σ msgs_ok = Σ on_message: every envelope a sender booked as
    // delivered was handed to a node, none twice, none refused.
    let sent: u64 = finished.iter().map(|node| node.transport.msgs_ok).sum();
    let received: u64 = finished.iter().map(|node| node.protocol.received).sum();
    assert_eq!(sent, received);
    for (i, node) in finished.iter().enumerate() {
        let stats = node.protocol.node.stats();
        assert_eq!(stats.parse_errors, 0, "node {i}: {stats:?}");
        assert_eq!(node.transport.posts_failed, 0, "node {i}: {:?}", node.transport);
        let served = registries[i].render();
        assert!(!served.contains("wsg_http_server_responses_total{class=\"4xx\"}"), "node {i}: {served}");
        // Every subscriber got every tick, as it was published.
        if matches!(node.protocol.node.role(), Role::Disseminator | Role::Consumer) {
            let ops = node.protocol.node.distinct_ops();
            assert_eq!(ops.len(), texts.len(), "node {i}");
            for op in ops {
                assert_eq!(op.payload.text(), texts[op.seq as usize], "node {i} seq {}", op.seq);
            }
        }
    }
    assert_eq!(sum("wsg_http_server_parse_errors_total"), 0);
    // Messages left out what their connection had carried...
    assert!(sum("wsg_transport_batch_shared_bytes_total") > 0);
    // ...and the initiator's connections did idle out: it opened more
    // than the one to each of the five peers it talks to (13 when every
    // gap closes all four subscribers' connections).
    assert!(counter(1, "wsg_http_client_pool_misses_total") > 5, "{}", registries[1].render());
}

/// A node's socket survives hostile bytes: raw garbage gets an HTTP 400
/// and the node keeps serving well-formed envelopes afterwards.
#[test]
fn garbage_on_the_wire_does_not_poison_a_node() {
    let nodes = vec![
        WsGossipNode::coordinator(NodeId(0)),
        WsGossipNode::consumer(NodeId(1), NodeId(0)),
    ];
    let net = NetRuntime::spawn(nodes, 5, loopback_config());

    let mut stream = TcpStream::connect(net.addr_of(NodeId(0))).unwrap();
    stream.write_all(b"EHLO not-http\r\n\r\n").unwrap();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400 "), "got: {reply}");

    // The same node still accepts a real envelope afterwards.
    let envelope = wsg_soap::Envelope::request(
        wsg_soap::MessageHeaders::request("http://node0/gossip", "urn:wsg:Probe"),
        Element::text_node("probe", "still alive"),
    );
    let outcome = net
        .post_external(NodeId(0), Some("urn:wsg:Probe"), &envelope.to_xml())
        .unwrap();
    assert_eq!(outcome.response.status, 202);
    net.shutdown();
}

/// Deterministic replay at the transport level: the same seed produces
/// the same jittered backoff schedule, so a refused-peer run is
/// reproducible wall-clock behaviour, not luck.
#[test]
fn refused_posts_follow_a_seeded_backoff_schedule() {
    use wsg_http::client::SoapHttpClient;

    let refused = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let config = HttpClientConfig {
        connect_timeout: Duration::from_millis(200),
        retries: 3,
        ..HttpClientConfig::default()
    };
    for _ in 0..2 {
        let client = SoapHttpClient::new(77, config.clone());
        let err = client.post(refused, "/gossip", None, &[], b"<x/>").unwrap_err();
        assert_eq!(err.attempts, 4, "1 initial + 3 retries");
    }
}
