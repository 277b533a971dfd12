//! Scenario helpers: build and drive Figure-1-shaped networks.
//!
//! Used by the examples, the integration tests and the E1 harness so they
//! all exercise the same, fully faithful message flow.

use std::sync::{Arc, Mutex};

use wsg_coord::GossipProtocol;
use wsg_net::sim::{SimConfig, SimNet};
use wsg_net::{NodeId, TraceEvent};
use wsg_soap::gossip::GossipHeader;
use wsg_xml::Element;

use crate::actions;
use crate::node::{Role, WsGossipNode};

/// How many of each gossip-capable role to deploy (plus exactly one
/// Coordinator at node 0 and one Initiator at node 1).
#[derive(Debug, Clone, Copy)]
pub struct Figure1Shape {
    /// Nodes with the gossip handler configured (middleware change only).
    pub disseminators: usize,
    /// Completely unchanged nodes.
    pub consumers: usize,
}

/// Node id of the Coordinator in scenario networks.
pub const COORDINATOR: NodeId = NodeId(0);
/// Node id of the Initiator in scenario networks.
pub const INITIATOR: NodeId = NodeId(1);

/// Build the Figure 1 network: node 0 Coordinator, node 1 Initiator, then
/// `disseminators` Disseminators, then `consumers` Consumers.
pub fn build_figure1_network(config: SimConfig, shape: Figure1Shape) -> SimNet<WsGossipNode> {
    // Peer sampling in the gossip layer runs on the node's own stream,
    // not the simulator's; derive it from the master seed so the whole
    // run remains a pure function of the configured seed.
    let seed = config.master_seed();
    let mut net = SimNet::new(config);
    let total = 2 + shape.disseminators + shape.consumers;
    net.add_nodes(total, |id| {
        let node = match id.index() {
            0 => WsGossipNode::coordinator(id),
            1 => WsGossipNode::initiator(id, COORDINATOR),
            i if i < 2 + shape.disseminators => WsGossipNode::disseminator(id, COORDINATOR),
            _ => WsGossipNode::consumer(id, COORDINATOR),
        };
        node.with_seed(seed)
    });
    net.set_size_fn(Box::new(|xml: &String| xml.len()));
    net.start();
    net
}

/// Subscribe every disseminator and consumer to `topic`.
pub fn subscribe_all(net: &mut SimNet<WsGossipNode>, topic: &str) {
    for id in net.node_ids() {
        let role = net.node(id).role();
        if matches!(role, Role::Disseminator | Role::Consumer) {
            let topic = topic.to_string();
            net.invoke(id, move |node, ctx| node.subscribe(&topic, ctx));
        }
    }
}

/// Initiator activates a WS-PushGossip context for `topic`.
pub fn activate(net: &mut SimNet<WsGossipNode>, topic: &str) {
    activate_with(net, GossipProtocol::Push, topic);
}

/// Initiator activates a context with an explicit protocol.
pub fn activate_with(net: &mut SimNet<WsGossipNode>, protocol: GossipProtocol, topic: &str) {
    let topic = topic.to_string();
    net.invoke(INITIATOR, move |node, ctx| node.activate(protocol, &topic, ctx));
}

/// Initiator publishes one notification on `topic`.
pub fn notify(net: &mut SimNet<WsGossipNode>, topic: &str, payload: Element) {
    let topic = topic.to_string();
    net.invoke(INITIATOR, move |node, ctx| node.notify(&topic, payload, ctx));
}

/// Fraction of subscribers (disseminators + consumers) that received at
/// least `min_distinct` distinct notifications.
pub fn coverage(net: &SimNet<WsGossipNode>, min_distinct: usize) -> f64 {
    let subscribers: Vec<NodeId> = net
        .node_ids()
        .into_iter()
        .filter(|id| matches!(net.node(*id).role(), Role::Disseminator | Role::Consumer))
        .collect();
    if subscribers.is_empty() {
        return 0.0;
    }
    let reached = subscribers
        .iter()
        .filter(|id| net.node(**id).distinct_ops().len() >= min_distinct)
        .count();
    reached as f64 / subscribers.len() as f64
}

/// Install a tracer that renders each network event with a terse,
/// WS-Gossip-aware message label (`Notify[seq=0 r=2]`, `Register`, …);
/// returns the shared buffer the trace accumulates into.
pub fn install_tracer(net: &mut SimNet<WsGossipNode>) -> Arc<Mutex<Vec<String>>> {
    let buffer: Arc<Mutex<Vec<String>>> = Arc::default();
    let sink = buffer.clone();
    net.set_label_fn(Box::new(label_for));
    net.set_tracer(Box::new(move |event: &TraceEvent| {
        sink.lock().expect("tracer lock").push(event.to_line());
    }));
    buffer
}

/// Shape of a distributed-coordinator deployment: `coordinators`
/// coordinator nodes replicate state among themselves; subscribers are
/// assigned home coordinators round-robin.
#[derive(Debug, Clone, Copy)]
pub struct DistributedShape {
    /// Number of coordinator replicas (nodes `0..coordinators`).
    pub coordinators: usize,
    /// Disseminator count.
    pub disseminators: usize,
    /// Consumer count.
    pub consumers: usize,
}

/// Build a distributed-coordinator network: nodes `0..k` are coordinators
/// gossiping their state to each other (paper §3's distributed
/// Coordinator), node `k` is the Initiator (homed at coordinator 0), and
/// subscribers follow with round-robin home coordinators.
pub fn build_distributed_network(
    config: SimConfig,
    shape: DistributedShape,
) -> SimNet<WsGossipNode> {
    assert!(shape.coordinators >= 1, "need at least one coordinator");
    let k = shape.coordinators;
    let coordinator_ids: Vec<NodeId> = (0..k).map(NodeId).collect();
    let total = k + 1 + shape.disseminators + shape.consumers;
    // As in `build_figure1_network`: node-local RNG streams must derive
    // from the master seed.
    let seed = config.master_seed();
    let mut net = SimNet::new(config);
    net.add_nodes(total, |id| {
        let i = id.index();
        if i < k {
            WsGossipNode::coordinator(id)
                .with_seed(seed)
                .with_coordinator_peers(coordinator_ids.clone())
        } else if i == k {
            WsGossipNode::initiator(id, NodeId(0)).with_seed(seed)
        } else {
            // Home coordinator round-robin over the replicas.
            let home = NodeId((i - k - 1) % k);
            if i < k + 1 + shape.disseminators {
                WsGossipNode::disseminator(id, home).with_seed(seed)
            } else {
                WsGossipNode::consumer(id, home).with_seed(seed)
            }
        }
    });
    net.set_size_fn(Box::new(|xml: &String| xml.len()));
    net.start();
    net
}

/// The Initiator node id in distributed networks built by
/// [`build_distributed_network`].
pub fn distributed_initiator(shape: DistributedShape) -> NodeId {
    NodeId(shape.coordinators)
}

/// Terse label for a serialized envelope (used in traces).
#[allow(clippy::ptr_arg)] // signature fixed by SimNet's LabelFn
pub(crate) fn label_for(xml: &String) -> String {
    let Ok(envelope) = wsg_soap::Envelope::parse(xml) else {
        return "<unparseable>".into();
    };
    let action = envelope.addressing().action().unwrap_or("?");
    let short = action.rsplit(':').next().unwrap_or(action);
    match GossipHeader::from_envelope(&envelope) {
        Some(h) if action == actions::NOTIFY => {
            format!("{short}[{} seq={} r={}]", h.topic, h.seq, h.round)
        }
        _ => short.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_basic(seed: u64, shape: Figure1Shape) -> SimNet<WsGossipNode> {
        let mut net = build_figure1_network(SimConfig::default().seed(seed), shape);
        subscribe_all(&mut net, "quotes");
        net.run_to_quiescence();
        activate(&mut net, "quotes");
        net.run_to_quiescence();
        notify(&mut net, "quotes", Element::text_node("tick", "ACME 101.25"));
        net.run_to_quiescence();
        net
    }

    #[test]
    fn figure1_flow_reaches_all_subscribers() {
        let net = run_basic(1, Figure1Shape { disseminators: 4, consumers: 3 });
        assert_eq!(coverage(&net, 1), 1.0);
    }

    #[test]
    fn consumers_receive_without_any_gossip_machinery() {
        let net = run_basic(2, Figure1Shape { disseminators: 3, consumers: 2 });
        for id in net.node_ids() {
            let node = net.node(id);
            if node.role() == Role::Consumer {
                assert!(node.layer_stats().is_none());
                assert!(!node.distinct_ops().is_empty());
            }
        }
    }

    #[test]
    fn disseminators_register_with_coordinator() {
        let net = run_basic(3, Figure1Shape { disseminators: 4, consumers: 1 });
        // Initiator + every disseminator that received the op registers.
        let registered: u64 = net
            .node_ids()
            .into_iter()
            .filter_map(|id| net.node(id).layer_stats())
            .map(|s| s.registers_sent)
            .sum();
        assert!(registered >= 1, "at least the first disseminator registers");
        let coordinator = net.node(COORDINATOR);
        assert_eq!(coordinator.role(), Role::Coordinator);
    }

    #[test]
    fn multiple_notifications_all_delivered() {
        // A saturating fanout makes every message a deterministic flood, so
        // strict full coverage is a sound assertion (the probabilistic
        // regime is exercised by the E2 reliability experiment instead).
        let mut net = SimNet::new(SimConfig::default().seed(4));
        net.add_nodes(9, |id| match id.index() {
            0 => WsGossipNode::coordinator(id).with_policy(wsg_coord::GossipPolicy::new(
                wsg_gossip::GossipParams::new(8, 6),
            )),
            1 => WsGossipNode::initiator(id, COORDINATOR),
            i if i < 7 => WsGossipNode::disseminator(id, COORDINATOR),
            _ => WsGossipNode::consumer(id, COORDINATOR),
        });
        net.start();
        subscribe_all(&mut net, "quotes");
        net.run_to_quiescence();
        activate(&mut net, "quotes");
        net.run_to_quiescence();
        for i in 0..5 {
            notify(&mut net, "quotes", Element::text_node("tick", format!("v{i}")));
        }
        net.run_to_quiescence();
        assert_eq!(coverage(&net, 5), 1.0, "all 5 ops at every subscriber");
    }

    #[test]
    fn notify_before_activation_response_is_queued_then_sent() {
        let mut net = build_figure1_network(
            SimConfig::default().seed(5),
            Figure1Shape { disseminators: 3, consumers: 1 },
        );
        subscribe_all(&mut net, "quotes");
        net.run_to_quiescence();
        // Activate and notify back-to-back without letting the response
        // arrive in between.
        activate(&mut net, "quotes");
        notify(&mut net, "quotes", Element::text_node("tick", "early"));
        net.run_to_quiescence();
        assert_eq!(coverage(&net, 1), 1.0);
    }

    #[test]
    fn trace_contains_figure1_message_kinds() {
        let mut net = build_figure1_network(
            SimConfig::default().seed(6),
            Figure1Shape { disseminators: 2, consumers: 1 },
        );
        let trace = install_tracer(&mut net);
        subscribe_all(&mut net, "quotes");
        net.run_to_quiescence();
        activate(&mut net, "quotes");
        net.run_to_quiescence();
        notify(&mut net, "quotes", Element::text_node("tick", "X"));
        net.run_to_quiescence();
        let lines = trace.lock().unwrap().join("\n");
        for needle in [
            "Subscribe",
            "SubscribeResponse",
            "CreateCoordinationContext",
            "CreateCoordinationContextResponse",
            "Register",
            "RegisterResponse",
            "Notify[quotes",
        ] {
            assert!(lines.contains(needle), "trace missing {needle}:\n{lines}");
        }
    }

    #[test]
    fn deterministic_scenario() {
        let a = run_basic(7, Figure1Shape { disseminators: 4, consumers: 2 });
        let b = run_basic(7, Figure1Shape { disseminators: 4, consumers: 2 });
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn nobody_is_sent_a_notification_it_provably_holds() {
        use std::collections::BTreeMap;
        use wsg_net::TraceKind;

        // The live fleet's shape: eight subscribers, fanout 5 of a pool of 8.
        let shape = Figure1Shape { disseminators: 8, consumers: 0 };
        let seeds = 50;
        let mut covered = 0.0;
        for seed in 0..seeds {
            let mut net = build_figure1_network(SimConfig::default().seed(seed), shape);
            let notifications: Arc<Mutex<Vec<(TraceKind, NodeId, NodeId)>>> = Arc::default();
            let sink = Arc::clone(&notifications);
            net.set_label_fn(Box::new(label_for));
            net.set_tracer(Box::new(move |event: &TraceEvent| {
                if event.label.starts_with("Notify[") {
                    sink.lock().expect("tracer lock").push((event.kind, event.from, event.to));
                }
            }));
            subscribe_all(&mut net, "quotes");
            net.run_to_quiescence();
            activate(&mut net, "quotes");
            net.run_to_quiescence();
            notify(&mut net, "quotes", Element::text_node("tick", "ACME 101.25"));
            net.run_to_quiescence();
            covered += coverage(&net, 1);

            // An origin never receives its own notification...
            let origin = net.node(INITIATOR).layer_stats().expect("initiator has a gossip layer");
            assert_eq!(origin.duplicates_suppressed, 0, "seed {seed}");
            // ...and nobody returns a copy to the peer it first heard from.
            let mut heard_from: BTreeMap<NodeId, NodeId> = BTreeMap::new();
            for (kind, from, to) in notifications.lock().expect("tracer lock").iter().copied() {
                match kind {
                    TraceKind::Deliver => {
                        heard_from.entry(to).or_insert(from);
                    }
                    TraceKind::Send => {
                        assert_ne!(heard_from.get(&from), Some(&to), "seed {seed}: {from} -> {to}")
                    }
                    _ => {}
                }
            }
            assert!(heard_from.len() > 1, "seed {seed}: the notification went nowhere");
        }
        // Suppression removes no copy that could inform: a subscriber is
        // missed with probability (3/8)^8, as without it.
        assert!(covered / seeds as f64 >= 0.995, "mean coverage {}", covered / seeds as f64);
    }

    #[test]
    fn wire_bytes_accounted() {
        let net = run_basic(8, Figure1Shape { disseminators: 2, consumers: 1 });
        assert!(net.stats().bytes_sent > 0, "size_fn installed by builder");
    }
}
