//! Live churn over **real loopback sockets**: a WS-Gossip fleet whose
//! membership is not configured but *discovered* — every node runs a
//! `wsg_cluster` heartbeat plane on its own listener, joiners bootstrap
//! through a seed node, and crash-stopped peers are detected by silence
//! (φ accrual) or refused connections, with no announcement. The gossip
//! layer draws its per-round peer list from the live view, so
//! dissemination keeps reaching every live member while the fleet churns
//! under a publication stream.
//!
//! CI runs this binary with `WSG_BENCH_FAST=1`, which shrinks the fleet
//! and the stream so the smoke test stays quick.
//!
//! Run with:
//! ```text
//! cargo run --example live_churn
//! ```

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ws_gossip::WsGossipNode;
use wsg_cluster::{ClusterConfig, ClusterRuntime, MembershipPlane};
use wsg_coord::GossipPolicy;
use wsg_gossip::GossipParams;
use wsg_http::client::HttpClientConfig;
use wsg_http::runtime::NetRuntimeConfig;
use wsg_http::server::HttpServerConfig;
use wsg_net::{NodeId, PeerLiveness, SimDuration};
use wsg_xml::Element;

const TOPIC: &str = "quotes";
const MEMBERSHIP_INTERVAL_MS: u64 = 50;
const PUBLISH_INTERVAL_MS: u64 = 200;

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

fn live_set(plane: &Arc<MembershipPlane>) -> BTreeSet<NodeId> {
    plane.live_members().into_iter().collect()
}

/// Poll `cond` every 25ms until it holds; panics with `what` after ~20s.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) -> Duration {
    let started = Instant::now();
    for _ in 0..800 {
        if cond() {
            return started.elapsed();
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

fn main() {
    let fast = std::env::var("WSG_BENCH_FAST").is_ok_and(|v| v == "1");
    let disseminators = if fast { 4 } else { 6 };
    let consumers = if fast { 2 } else { 4 };
    let total_ticks = if fast { 10 } else { 18 };
    let fleet_size = 2 + disseminators + consumers;

    let ticks: Vec<Element> = (0..total_ticks)
        .map(|i| Element::text_node("tick", format!("ACME {}", 100 + i)))
        .collect();
    // Saturating fanout: dissemination completeness is deterministic, so
    // any gap would point straight at the membership plane.
    let policy = || GossipPolicy::new(GossipParams::new(32, 6));
    let config = NetRuntimeConfig {
        client: HttpClientConfig {
            connect_timeout: Duration::from_millis(300),
            retries: 1,
            ..HttpClientConfig::default()
        },
        server: HttpServerConfig {
            workers: 4,
            read_slice: Duration::from_millis(2),
            ..HttpServerConfig::default()
        },
        ..NetRuntimeConfig::default()
    };

    println!("== WS-Gossip live churn: {fleet_size}-node fleet, dynamic membership ==");
    let mut fleet: ClusterRuntime<WsGossipNode> = ClusterRuntime::new(
        2025,
        config,
        ClusterConfig::for_interval(SimDuration::from_millis(MEMBERSHIP_INTERVAL_MS)),
    );

    // n0 coordinator doubles as the membership seed; everyone else joins
    // through it and learns the rest of the fleet from heartbeat gossip.
    let coordinator = fleet.add_seed(|plane| {
        WsGossipNode::coordinator(NodeId(0)).with_policy(policy()).with_liveness(plane)
    });
    fleet
        .add_node(coordinator, |plane| {
            WsGossipNode::initiator(NodeId(1), coordinator)
                .with_publish_schedule(TOPIC, ticks, SimDuration::from_millis(PUBLISH_INTERVAL_MS))
                .with_liveness(plane)
        })
        .expect("initiator joins");
    for i in 2..2 + disseminators {
        fleet
            .add_node(coordinator, move |plane| {
                WsGossipNode::disseminator(NodeId(i), coordinator)
                    .with_auto_subscribe(TOPIC)
                    .with_liveness(plane)
            })
            .expect("disseminator joins");
    }
    for i in 2 + disseminators..fleet_size {
        fleet
            .add_node(coordinator, move |plane| {
                WsGossipNode::consumer(NodeId(i), coordinator)
                    .with_auto_subscribe(TOPIC)
                    .with_liveness(plane)
            })
            .expect("consumer joins");
    }
    for id in 0..fleet_size {
        println!("  n{id} listening on {}", fleet.net().addr_of(NodeId(id)));
    }

    let everyone: BTreeSet<NodeId> = (0..fleet_size).map(NodeId).collect();
    let took = wait_for("initial convergence", || {
        everyone.iter().all(|id| live_set(&fleet.plane(*id)) == everyone)
    });
    println!("\nall {fleet_size} members discovered each other in {took:?}");

    // Crash-stop the last consumer mid-stream: no goodbye, listener down
    // first. Survivors detect it by silence and refused heartbeats.
    let victim = NodeId(fleet_size - 1);
    fleet.crash(victim).expect("crash a live consumer");
    let survivors: BTreeSet<NodeId> = (0..fleet_size - 1).map(NodeId).collect();
    let took = wait_for("crash detection", || {
        survivors.iter().all(|id| !fleet.plane(*id).is_live(victim))
    });
    println!("crash of n{} detected by all survivors in {took:?}", victim.index());

    // A late consumer joins through the seed while ticks still flow.
    let joiner = fleet
        .add_node(coordinator, move |plane| {
            WsGossipNode::consumer(NodeId(fleet_size), coordinator)
                .with_auto_subscribe(TOPIC)
                .with_liveness(plane)
        })
        .expect("late consumer joins");
    let live: BTreeSet<NodeId> = survivors.iter().copied().chain([joiner]).collect();
    let took = wait_for("post-churn agreement", || {
        live.iter().all(|id| live_set(&fleet.plane(*id)) == live)
    });
    println!("post-churn view agreed by all {} live members in {took:?}", live.len());

    // The membership gauges are live on every node's own /metrics.
    let scraped = scrape_metrics(fleet.net().addr_of(coordinator));
    println!("\nmembership exposition at the seed:");
    for line in scraped.lines().filter(|l| l.starts_with("wsg_membership_")) {
        println!("  {line}");
    }
    assert!(
        scraped.contains(&format!("wsg_membership_alive {}", live.len())),
        "seed gauge should count the live fleet: {scraped}"
    );

    // Let the stream finish, then check dissemination tracked the view.
    std::thread::sleep(Duration::from_millis(PUBLISH_INTERVAL_MS * total_ticks as u64 + 1500));
    let finished = fleet.shutdown();

    println!();
    let mut complete = 0;
    for node in &finished {
        let role = node.protocol.role();
        let got = node.protocol.distinct_ops().len();
        if !matches!(role, ws_gossip::Role::Disseminator | ws_gossip::Role::Consumer) {
            continue;
        }
        let is_joiner = node.protocol.endpoint() == ws_gossip::endpoint::endpoint_of(joiner);
        let note = if is_joiner { "  <- joined mid-stream" } else { "" };
        println!("{} ({role}): {got}/{total_ticks} ticks{note}", node.protocol.endpoint());
        if got == total_ticks {
            complete += 1;
        }
        if is_joiner {
            let max_seq = node.protocol.distinct_ops().iter().map(|op| op.seq).max();
            assert_eq!(
                max_seq,
                Some(total_ticks as u64 - 1),
                "the joiner must receive ticks published after it subscribed"
            );
        }
    }
    assert!(
        complete >= disseminators,
        "every original disseminator should end with the complete stream"
    );
    println!("\ndissemination followed the live view through a crash and a join.");
}
