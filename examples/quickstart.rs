//! Quickstart: the paper's Figure 1, executed.
//!
//! Builds a coordinator, an initiator, four disseminators and two
//! consumers; subscribes everyone, activates a WS-PushGossip coordination
//! context, publishes one notification, and prints the complete message
//! trace — activation, registration, subscription and the gossip rounds —
//! followed by each node's application-level event log.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use ws_gossip::scenario::{
    self, Figure1Shape, COORDINATOR, INITIATOR,
};
use wsg_net::sim::SimConfig;
use wsg_xml::Element;

fn main() {
    let shape = Figure1Shape { disseminators: 4, consumers: 2 };
    let mut net = scenario::build_figure1_network(SimConfig::default().seed(42), shape);
    let trace = scenario::install_tracer(&mut net);

    println!("== WS-Gossip quickstart: Figure 1 of the paper ==");
    println!(
        "roles: n0 = Coordinator, n1 = Initiator, n2..n5 = Disseminators, n6..n7 = Consumers\n"
    );

    // 1. Consumers and disseminators subscribe to the topic.
    scenario::subscribe_all(&mut net, "quotes");
    net.run_to_quiescence();

    // 2. The initiator activates a gossip coordination context.
    scenario::activate(&mut net, "quotes");
    net.run_to_quiescence();

    // 3. One notification; the gossip layer does the rest.
    scenario::notify(&mut net, "quotes", Element::text_node("tick", "ACME 101.25"));
    net.run_to_quiescence();

    println!("-- network trace ({} events) --", trace.lock().unwrap().len());
    for line in trace.lock().unwrap().iter() {
        println!("  {line}");
    }

    println!("\n-- per-node control-plane logs and deliveries --");
    for id in net.node_ids() {
        let node = net.node(id);
        println!("{id} ({}):", node.role());
        for event in node.events() {
            println!("    {event}");
        }
        for op in node.ops() {
            println!(
                "    [{}] op delivered topic={} origin={} seq={} round={}",
                op.at, op.topic, op.origin, op.seq, op.round
            );
        }
    }

    let coverage = scenario::coverage(&net, 1);
    println!("\ncoverage: {:.0}% of subscribers received the notification", coverage * 100.0);
    println!(
        "messages on the wire: {} ({} bytes of SOAP)",
        net.stats().sent,
        net.stats().bytes_sent
    );
    let coordinator = net.node(COORDINATOR);
    println!(
        "coordinator log has {} entries; initiator context: {:?}",
        coordinator.events().len(),
        net.node(INITIATOR).context_for("quotes").map(|c| c.identifier().to_string())
    );
    assert_eq!(coverage, 1.0, "quickstart must reach everyone");
}
