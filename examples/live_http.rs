//! The full WS-Gossip middleware over **real loopback HTTP sockets**:
//! every node binds its own `127.0.0.1` listener via `wsg_http` and
//! gossip rounds are serialized SOAP envelopes POSTed between them — the
//! networked counterpart of the `live_threads` demo. One consumer's
//! socket refuses connections to show the client's retry/backoff path in
//! the transport counters.
//!
//! While the fleet gossips, the example scrapes `GET /metrics` from the
//! coordinator's own socket — twice — and validates the exposition:
//! parseable samples, and `_total`/`_count` counters that never move
//! backwards between scrapes. CI runs this binary, so the observability
//! endpoint is smoke-tested on every push.
//!
//! Run with:
//! ```text
//! cargo run --example live_http
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ws_gossip::{Role, WsGossipNode};
use wsg_coord::GossipPolicy;
use wsg_gossip::GossipParams;
use wsg_http::client::HttpClientConfig;
use wsg_http::runtime::{NetRuntime, NetRuntimeConfig, TransportStats};
use wsg_net::{NodeId, SimDuration};
use wsg_obs::{monotone_keys, parse_exposition};
use wsg_xml::Element;

/// Scrape `GET /metrics` from a live node socket; returns the body.
fn scrape_metrics(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to node socket");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\r\n")
        .expect("send scrape request");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read scrape response");
    let (head, body) = reply.split_once("\r\n\r\n").expect("http head/body split");
    assert!(head.starts_with("HTTP/1.1 200 "), "metrics scrape failed: {head}");
    body.to_string()
}

/// Smoke-validate two consecutive scrapes: both parse, sample keys are
/// deterministic where state overlaps, and no counter moves backwards.
fn validate_scrapes(first: &str, second: &str) -> usize {
    let before = parse_exposition(first).expect("first scrape parses");
    let after = parse_exposition(second).expect("second scrape parses");
    assert!(!before.is_empty(), "exposition must carry samples");
    let counters = monotone_keys(&before);
    for (key, old) in &before {
        let new = after
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("sample {key} disappeared between scrapes"));
        if counters.contains(&key.as_str()) {
            assert!(new >= *old, "counter {key} went backwards: {old} -> {new}");
        }
    }
    after.len()
}

fn main() {
    let coordinator = NodeId(0);
    let ticks: Vec<Element> = (0..5)
        .map(|i| Element::text_node("tick", format!("ACME {}", 100 + i)))
        .collect();
    let total = ticks.len();

    // n0 coordinator, n1 self-driving initiator, n2-n4 disseminators,
    // n5-n6 consumers, n7 a consumer whose socket refuses connections.
    // Saturating fanout keeps the live subscribers' completeness
    // deterministic, as in the threaded demo.
    let mut nodes = vec![
        WsGossipNode::coordinator(coordinator)
            .with_policy(GossipPolicy::new(GossipParams::new(8, 6))),
        WsGossipNode::initiator(NodeId(1), coordinator).with_publish_schedule(
            "quotes",
            ticks,
            SimDuration::from_millis(150),
        ),
    ];
    for i in 2..5 {
        nodes.push(WsGossipNode::disseminator(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }
    for i in 5..8 {
        nodes.push(WsGossipNode::consumer(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }
    let refused = NodeId(7);

    let config = NetRuntimeConfig {
        client: HttpClientConfig {
            connect_timeout: Duration::from_millis(300),
            retries: 2,
            ..HttpClientConfig::default()
        },
        refuse: vec![refused],
        ..NetRuntimeConfig::default()
    };

    println!("== WS-Gossip live on {} loopback HTTP sockets ==", nodes.len());
    let net = NetRuntime::spawn(nodes, 99, config);
    for id in 0..net.node_count() {
        let marker = if NodeId(id) == refused { "  (refuses connections)" } else { "" };
        println!("  n{id} listening on {}{marker}", net.addr_of(NodeId(id)));
    }
    println!("\npublishing {total} ticks at 150ms intervals over HTTP\n");

    // Scrape the coordinator's /metrics endpoint mid-flight, let more
    // gossip traffic land, then scrape again and check the counters only
    // ever go up. The exposition excerpt below is what a Prometheus
    // scraper would ingest.
    let metrics_addr = net.addr_of(coordinator);
    std::thread::sleep(Duration::from_millis(1200));
    let first = scrape_metrics(metrics_addr);
    std::thread::sleep(Duration::from_millis(1200));
    let second = scrape_metrics(metrics_addr);
    let samples = validate_scrapes(&first, &second);
    println!("scraped http://{metrics_addr}/metrics twice: {samples} samples, counters monotone");
    println!("exposition excerpt:");
    for line in second.lines().filter(|l| l.contains("wsg_http_server_")) {
        println!("  {line}");
    }
    println!();

    let finished = net.shutdown_after(Duration::from_millis(1100));

    let mut all_complete = true;
    for (i, node) in finished.iter().enumerate() {
        if !matches!(node.protocol.role(), Role::Disseminator | Role::Consumer) {
            continue;
        }
        let got = node.protocol.distinct_ops().len();
        let note = if NodeId(i) == refused { "  <- refused, never reachable" } else { "" };
        println!("{} ({}): {got}/{total} ticks{note}", node.protocol.endpoint(), node.protocol.role());
        if NodeId(i) != refused && got != total {
            all_complete = false;
        }
    }

    let totals = finished.iter().fold(TransportStats::default(), |mut acc, n| {
        acc.posts_ok += n.transport.posts_ok;
        acc.posts_failed += n.transport.posts_failed;
        acc.attempts += n.transport.attempts;
        acc.unroutable += n.transport.unroutable;
        acc
    });
    println!(
        "\ntransport: {} envelopes delivered, {} abandoned after retries, {} connect attempts",
        totals.posts_ok, totals.posts_failed, totals.attempts
    );

    assert!(all_complete, "every reachable subscriber should get the full feed");
    assert!(totals.posts_failed > 0, "the refused node should show up in the counters");
    println!("\nall reachable subscribers received the complete feed over real sockets.");
}
