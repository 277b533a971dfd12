//! The full WS-Gossip middleware on **real OS threads**: every node runs
//! in its own thread, exchanging serialized SOAP envelopes over channels
//! with wall-clock timers — no simulator involved. The deployment is
//! self-driving: subscribers auto-subscribe at startup and the initiator
//! activates its context and publishes on a schedule.
//!
//! Run with:
//! ```text
//! cargo run --example live_threads
//! ```

use std::time::Duration;

use ws_gossip::{Role, WsGossipNode};
use wsg_coord::GossipPolicy;
use wsg_gossip::GossipParams;
use wsg_net::threads::ThreadNet;
use wsg_net::{NodeId, SimDuration};
use wsg_xml::Element;

fn main() {
    let coordinator = NodeId(0);
    let ticks: Vec<Element> = (0..5)
        .map(|i| Element::text_node("tick", format!("ACME {}", 100 + i)))
        .collect();
    let total = ticks.len();

    // n0 coordinator, n1 self-driving initiator, n2-n4 disseminators,
    // n5-n6 consumers.
    // Saturating fanout: with 5 subscribers every forward floods, so the
    // demo's completeness assertion is deterministic (the probabilistic
    // regime is what the E2 experiment is for).
    let mut nodes = vec![
        WsGossipNode::coordinator(coordinator)
            .with_policy(GossipPolicy::new(GossipParams::new(8, 6))),
        WsGossipNode::initiator(NodeId(1), coordinator).with_publish_schedule(
            "quotes",
            ticks,
            SimDuration::from_millis(120),
        ),
    ];
    for i in 2..5 {
        nodes.push(WsGossipNode::disseminator(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }
    for i in 5..7 {
        nodes.push(WsGossipNode::consumer(NodeId(i), coordinator).with_auto_subscribe("quotes"));
    }

    println!("== WS-Gossip live on {} OS threads ==", nodes.len());
    println!("publishing {total} ticks at 120ms intervals, wall-clock\n");

    let net = ThreadNet::spawn(nodes, 99);
    let finished = net.shutdown_after(Duration::from_millis(1500));

    let mut all_complete = true;
    for node in &finished {
        if !matches!(node.role(), Role::Disseminator | Role::Consumer) {
            continue;
        }
        let got = node.distinct_ops().len();
        println!("{} ({}): {got}/{total} ticks", node.endpoint(), node.role());
        if got != total {
            all_complete = false;
        }
    }
    println!("\nsample of one consumer's control-plane log and first deliveries:");
    if let Some(consumer) = finished.iter().find(|n| n.role() == Role::Consumer) {
        for line in consumer.events() {
            println!("  {line}");
        }
        for op in consumer.ops().iter().take(6) {
            println!("  [{}] op delivered topic={} seq={} round={}", op.at, op.topic, op.seq, op.round);
        }
    }
    assert!(all_complete, "every live subscriber should get the full feed");
    println!("\nall subscribers received the complete feed over real threads.");
}
