//! `GET /metrics` on a **live** [`wsg_http::server::SoapHttpServer`],
//! exercised over real loopback sockets.
//!
//! The acceptance claims:
//!
//! * the endpoint answers `200` with a Prometheus-style text exposition
//!   whose families span all three layers — gossip (`wsg_gossip_*`),
//!   coordinator (`wsg_coord_*`), and HTTP transport (`wsg_http_*`);
//! * the exposition is deterministically ordered (sorted by metric name,
//!   label tuples sorted within a family), so two scrapes of the same
//!   state are byte-identical;
//! * counters are monotone across scrapes of a live server;
//! * unsupported methods get a `405` whose `Allow` header is derived
//!   from the real route table.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ws_gossip::WsGossipNode;
use wsg_coord::{
    ActivationService, GossipPolicy, GossipProtocol, RegistrationService, SubscriptionList,
};
use wsg_gossip::{EngineStats, GossipConfig, GossipEngine, GossipParams, GossipStyle};
use wsg_http::client::HttpClientConfig;
use wsg_http::runtime::{NetRuntime, NetRuntimeConfig};
use wsg_http::server::{HttpServerConfig, Service, SoapHttpServer, SoapReply, SoapRequest};
use wsg_net::sim::{SimConfig, SimNet};
use wsg_net::{NodeId, SimDuration, SimTime};
use wsg_obs::{monotone_keys, parse_exposition, Registry};

fn accept_service() -> Service {
    #[allow(clippy::result_large_err)] // the Err size is fixed by the Service signature
    Arc::new(|_req: SoapRequest| Ok(SoapReply::Accepted))
}

/// One raw HTTP exchange; returns the full response text.
fn raw_exchange(addr: SocketAddr, wire: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(wire).expect("send request");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// GET /metrics over a real socket; returns (head, body).
fn scrape(addr: SocketAddr) -> (String, String) {
    let reply = raw_exchange(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    let (head, body) = reply.split_once("\r\n\r\n").expect("head/body split");
    (head.to_string(), body.to_string())
}

/// Build a registry already carrying gossip and coordinator families:
/// a small eager-push epidemic merged across nodes, and a coordinator
/// with one context, registrations, and live subscriptions.
fn populated_registry() -> Arc<Registry> {
    let registry = Arc::new(Registry::new());

    // Gossip: run a real 6-node epidemic in the simulator and export the
    // fleet-wide EngineStats under the style label.
    let style = GossipStyle::EagerPush;
    let mut net = SimNet::new(SimConfig::default().seed(99));
    let n = 6;
    net.add_nodes(n, |id| {
        let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
        GossipEngine::<u64>::new(GossipConfig::new(style, GossipParams::new(3, 5)), peers)
    });
    net.start();
    net.invoke(NodeId(0), |engine, ctx| {
        engine.publish(7, ctx);
    });
    net.run_to_quiescence();
    let mut merged = EngineStats::default();
    for id in net.node_ids() {
        merged.merge(net.node(id).stats());
    }
    merged.export(&registry, style.label());

    // Coordinator: one context, two participants, two topics.
    let mut activation = ActivationService::new("http://c/activation", "http://c/registration");
    let ctx = activation.create_context(GossipProtocol::Push, GossipPolicy::default(), SimTime::ZERO);
    let mut registration = RegistrationService::new();
    registration.register(ctx.identifier(), "http://n1/gossip");
    registration.register(ctx.identifier(), "http://n2/gossip");
    let mut subscriptions = SubscriptionList::new();
    subscriptions.subscribe("quotes", "http://n1/gossip", u64::MAX);
    subscriptions.subscribe("alerts", "http://n2/gossip", u64::MAX);
    wsg_coord::obs::export(&registry, &activation, &registration, &subscriptions, 0);

    registry
}

#[test]
fn live_metrics_endpoint_spans_gossip_coordinator_and_http_families() {
    let registry = populated_registry();
    let mut server = SoapHttpServer::bind_observed(
        "127.0.0.1:0",
        accept_service(),
        HttpServerConfig::default(),
        Arc::clone(&registry),
    )
    .expect("bind metrics server");
    let addr = server.local_addr();

    let (head, body) = scrape(addr);
    assert!(head.starts_with("HTTP/1.1 200 "), "got: {head}");
    assert!(head.contains("Content-Type: text/plain; version=0.0.4"), "got: {head}");

    // All three layers are present in one exposition.
    assert!(body.contains("wsg_gossip_published_total{style=\"eager_push\"} 1"), "{body}");
    assert!(body.contains("wsg_gossip_payloads_sent_total{style=\"eager_push\"}"), "{body}");
    assert!(body.contains("wsg_gossip_delivery_rounds_count{style=\"eager_push\"} 6"), "{body}");
    assert!(body.contains("wsg_coord_contexts_created_total 1"), "{body}");
    assert!(body.contains("wsg_coord_registrations_total 2"), "{body}");
    assert!(body.contains("wsg_coord_subscribers{topic=\"alerts\"} 1"), "{body}");
    assert!(body.contains("wsg_http_server_requests_total"), "{body}");

    // Deterministic ordering: families sorted by name, and the parsed
    // sample keys reproduce exactly on a second scrape of unchanged
    // gossip/coord state.
    let families: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    let mut sorted = families.clone();
    sorted.sort_unstable();
    assert_eq!(families, sorted, "families must render in sorted order");

    let first = parse_exposition(&body).expect("parseable exposition");
    assert!(!first.is_empty());

    // Unchanged state renders byte-identically — determinism at the
    // source, independent of the scrapes mutating the server counters.
    assert_eq!(registry.render(), registry.render());

    // Monotonicity across scrapes: the scrape itself bumps the server
    // counters; families may gain label children (the first scrape mints
    // the 2xx response class), but no sample disappears and no counter
    // ever decreases.
    let (_, body2) = scrape(addr);
    let second = parse_exposition(&body2).expect("parseable second scrape");
    let lookup = |samples: &[(String, f64)], key: &str| {
        samples.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    };
    let counters: Vec<&str> = monotone_keys(&first);
    for (key, before) in &first {
        let after = lookup(&second, key).expect("samples never disappear");
        if counters.contains(&key.as_str()) {
            assert!(after >= *before, "{key} went backwards: {before} -> {after}");
        }
    }
    assert_eq!(
        lookup(&second, "wsg_http_server_requests_total"),
        lookup(&first, "wsg_http_server_requests_total").map(|v| v + 1.0),
        "each scrape is itself one served request"
    );

    // Route-table-derived 405 for unsupported methods.
    let reply = raw_exchange(
        addr,
        b"PUT /metrics HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 405 "), "got: {reply}");
    assert!(reply.contains("Allow: GET, POST\r\n"), "got: {reply}");

    server.shutdown();
}

/// The membership plane publishes its gauges into the same per-node
/// registry the listener serves: scraping a live cluster node's socket
/// yields the `wsg_membership_*` family, and the gauges track the view
/// through a crash.
#[test]
fn live_cluster_node_exposes_membership_gauges() {
    use wsg_cluster::{ClusterConfig, ClusterRuntime};
    use wsg_net::{Context, PeerLiveness, Protocol};

    #[derive(Debug, Default)]
    struct Idle;
    impl Protocol for Idle {
        type Message = String;
        fn on_message(&mut self, _from: NodeId, _msg: String, _ctx: &mut dyn Context<String>) {}
    }

    let mut fleet: ClusterRuntime<Idle> = ClusterRuntime::new(
        7,
        NetRuntimeConfig::default(),
        ClusterConfig::for_interval(SimDuration::from_millis(20)),
    );
    let seed = fleet.add_seed(|_| Idle);
    for _ in 0..2 {
        fleet.add_node(seed, |_| Idle).expect("join via seed");
    }

    // Heartbeat gossip converges the 3-node view, and the gauges follow.
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    loop {
        let (alive, _, _) = fleet.plane(seed).status_counts();
        if alive == 3 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "view never converged");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Joins alone converge the view, so the first scrape can land before
    // any heartbeat envelope has arrived — poll until the counter moves.
    let (head, mut body) = scrape(fleet.net().addr_of(seed));
    assert!(head.starts_with("HTTP/1.1 200 "), "got: {head}");
    let get = |body: &str, key: &str| {
        parse_exposition(body)
            .expect("cluster exposition parses")
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{key} missing from: {body}"))
    };
    while get(&body, "wsg_membership_heartbeats_total") < 1.0 {
        assert!(std::time::Instant::now() < deadline, "no heartbeat ever scraped: {body}");
        std::thread::sleep(Duration::from_millis(20));
        body = scrape(fleet.net().addr_of(seed)).1;
    }
    assert_eq!(get(&body, "wsg_membership_alive"), 3.0, "{body}");
    assert_eq!(get(&body, "wsg_membership_suspect"), 0.0, "{body}");
    assert_eq!(get(&body, "wsg_membership_dead"), 0.0, "{body}");

    // Crash a member: once the survivor's detector condemns it, the next
    // scrape of the same socket shows the dead gauge move.
    let victim = NodeId(2);
    fleet.crash(victim).expect("crash a live member");
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while fleet.plane(seed).is_live(victim) {
        assert!(std::time::Instant::now() < deadline, "crash never detected");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (_, body2) = scrape(fleet.net().addr_of(seed));
    let after = parse_exposition(&body2).expect("second cluster scrape parses");
    let dead = after
        .iter()
        .find(|(k, _)| k == "wsg_membership_dead")
        .map(|(_, v)| *v)
        .expect("dead gauge present");
    assert!(dead >= 1.0, "crashed member should be counted dead: {body2}");

    fleet.shutdown();
}

/// The node runtime wires one registry per node into its server and
/// sender threads: scraping a live gossip node's socket works, and the
/// transport counters it exposes move with real traffic.
#[test]
fn live_runtime_node_serves_its_own_metrics() {
    let coordinator = NodeId(0);
    let nodes = vec![
        WsGossipNode::coordinator(coordinator),
        WsGossipNode::initiator(NodeId(1), coordinator).with_publish_schedule(
            "quotes",
            vec![wsg_xml::Element::text_node("tick", "ACME 100")],
            SimDuration::from_millis(50),
        ),
        WsGossipNode::disseminator(NodeId(2), coordinator).with_auto_subscribe("quotes"),
        WsGossipNode::disseminator(NodeId(3), coordinator).with_auto_subscribe("quotes"),
    ];
    let config = NetRuntimeConfig {
        client: HttpClientConfig {
            connect_timeout: Duration::from_millis(300),
            retries: 1,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            ..HttpClientConfig::default()
        },
        ..NetRuntimeConfig::default()
    };
    let net = NetRuntime::spawn(nodes, 2025, config);

    // Let the subscription + publication traffic flow.
    std::thread::sleep(Duration::from_millis(900));

    // Scrape the coordinator's node socket while the fleet is live.
    let (head, body) = scrape(net.addr_of(coordinator));
    assert!(head.starts_with("HTTP/1.1 200 "), "got: {head}");
    let samples = parse_exposition(&body).expect("node exposition parses");
    let get = |key: &str| {
        samples
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{key} missing from: {body}"))
    };
    assert!(get("wsg_http_server_requests_total") >= 1.0, "subscribe traffic arrived");
    assert!(get("wsg_transport_posts_ok_total") >= 1.0, "grant responses went out");

    // The wire-batching histogram is scraped live from the same socket:
    // one observation per successful POST, its sum counting envelopes,
    // so sum >= count and the POSTs-saved counter is their difference.
    let batch_count = get("wsg_transport_batch_msgs_count");
    let batch_sum = get("wsg_transport_batch_msgs_sum");
    assert!(batch_count >= 1.0, "every successful POST observes a batch size: {body}");
    assert!(batch_sum >= batch_count, "batches carry at least one envelope each: {body}");
    assert_eq!(
        get("wsg_transport_posts_saved_total"),
        batch_sum - batch_count,
        "saved POSTs are exactly envelopes minus POSTs: {body}"
    );
    // Beside it, what those POSTs did not have to say twice: every
    // envelope of this stack starts like every other, so a node that sent
    // a message where its connection had carried one before — in the same
    // batch or a kept-alive connection's earlier POST — left bytes out,
    // and one that never did, none.
    let shared = get("wsg_transport_batch_shared_bytes_total");
    let reused = get("wsg_http_client_pool_hits_total") > 0.0 || batch_sum > batch_count;
    assert_eq!(shared > 0.0, reused, "{body}");
    // And what the sender dropped unposted because the peer sent the same
    // notification first: the coordinator queues grants and responses,
    // no gossip copy, so it never withdraws any.
    assert_eq!(get("wsg_transport_withdrawn_total"), 0.0, "{body}");

    // After shutdown, the finished protocol enriches the same registry
    // with node/coordinator families — the full per-node picture.
    let registry = net.registry_of(coordinator);
    let finished = net.shutdown_after(Duration::from_millis(200));
    finished[0].protocol.export_metrics(&registry, SimTime::ZERO);
    let text = registry.render();
    assert!(text.contains("wsg_node_messages_received_total"), "{text}");
    assert!(text.contains("wsg_coord_subscribes_total"), "{text}");
    assert!(
        finished[2].protocol.distinct_ops().len() == 1,
        "dissemination happened during the live window"
    );
    // A disseminator's layer families say what it did not send: its sample
    // is the initiator and the other disseminator, and the initiator
    // published the tick.
    let registry = Registry::new();
    finished[2].protocol.export_metrics(&registry, SimTime::ZERO);
    let layer = parse_exposition(&registry.render()).expect("layer exposition parses");
    let suppressed = layer
        .iter()
        .find(|(k, _)| k == "wsg_layer_forwards_suppressed_total")
        .map(|(_, v)| *v);
    assert!(suppressed >= Some(1.0), "{layer:?}");
}
