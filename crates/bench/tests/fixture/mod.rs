//! The live fleet's notification as a disseminator receives and forwards
//! it, shared by the allocation budgets and the wire-bytes pins.

use ws_gossip::endpoint::{endpoint_of, registration_endpoint};
use ws_gossip::{actions, WsGossipNode};
use wsg_coord::{CoordinationContext, GossipGrant, GossipPolicy, GossipProtocol};
use wsg_net::{Context, NodeId, Pcg32, Protocol, Rng64, SimDuration, SimTime, TimerTag};
use wsg_soap::gossip::GossipHeader;
use wsg_soap::{EndpointReference, Envelope, MessageHeaders};
use wsg_xml::Element;

/// A send-capturing runtime for one node under test.
pub struct Capture {
    pub me: NodeId,
    pub rng: Pcg32,
    pub sent: Vec<(NodeId, String)>,
}

impl Context<String> for Capture {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn self_id(&self) -> NodeId {
        self.me
    }
    fn node_count(&self) -> usize {
        10
    }
    fn send(&mut self, to: NodeId, msg: String) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _delay: SimDuration, _tag: TimerTag) {}
    fn rng(&mut self) -> &mut dyn Rng64 {
        &mut self.rng
    }
}

const CONTEXT: &str = "urn:ws-gossip:ctx:7";
pub const SUBSCRIBER: NodeId = NodeId(2);

/// Text with an `&`, a `<` and a `>` in every 28 characters: dense enough
/// that the XML writer spells it as one CDATA section (256 bytes are 268
/// that way, 346 escaped).
pub fn payload_text(bytes: usize) -> String {
    "tick 101.25 & rising <fast> ".chars().cycle().take(bytes).collect()
}

/// Publication `seq` of `origin` as `sender` hands it on: the
/// `CoordinationContext` and `wsg:Gossip` headers of a live fleet, and a
/// payload of `bytes` bytes.
pub fn notification_via(origin: NodeId, sender: NodeId, seq: u64, bytes: usize) -> String {
    let context = CoordinationContext::new(
        CONTEXT,
        GossipProtocol::Push,
        registration_endpoint(NodeId(0)),
        GossipPolicy::atomic_for(8),
    );
    let gossip = GossipHeader {
        context_id: CONTEXT.into(),
        topic: "quotes".into(),
        origin: endpoint_of(origin).into(),
        seq,
        round: 1,
    };
    Envelope::request(
        MessageHeaders::request(endpoint_of(SUBSCRIBER), actions::NOTIFY)
            .with_message_id(format!("urn:uuid:{seq:032x}"))
            .with_from(EndpointReference::new(endpoint_of(sender))),
        Element::text_node("tick", payload_text(bytes)),
    )
    .with_header(context.to_header())
    .with_header(gossip.to_element())
    .to_xml()
}

/// A disseminator granted `fanout` of `peers`, as after its first
/// `RegisterResponse`.
pub fn subscriber_granted(
    fanout: usize,
    peers: impl Iterator<Item = NodeId>,
    ctx: &mut Capture,
) -> WsGossipNode {
    let grant = GossipGrant {
        fanout,
        rounds: GossipPolicy::atomic_for(8).params().rounds(),
        peers: peers.map(endpoint_of).collect(),
    };
    let response = Envelope::request(
        MessageHeaders::request(endpoint_of(SUBSCRIBER), actions::REGISTER_RESPONSE),
        grant.to_register_response(CONTEXT),
    );
    let mut node = WsGossipNode::disseminator(SUBSCRIBER, NodeId(0));
    node.on_message(NodeId(0), response.to_xml(), ctx);
    node
}
