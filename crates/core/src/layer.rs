//! The gossip layer: the handler in the middleware stack.
//!
//! Paper §3: adopting WS-PushGossip at a Disseminator "will require
//! configuring an additional handler, the gossip layer, in the middleware
//! stack, which intercepts the outgoing message and re-routes it to
//! selected destinations" and "upon arrival … if this is an unknown gossip
//! interaction, it registers itself with the Registration service, thus
//! obtaining gossip targets to which it will forward the message."
//!
//! [`GossipHandler`] implements exactly that as a [`wsg_soap::Handler`]:
//!
//! * **outbound** messages carrying a `wsg:Gossip` header are intercepted;
//!   copies are re-routed to `fanout` peers from the current grant;
//! * **inbound** gossip messages are deduplicated — against the newest
//!   65 536 sequence numbers remembered per origin; anything older counts
//!   as seen — delivered to the application (`Continue`), and forwarded
//!   another round;
//! * a forward draws `fanout` peers and then skips the ones that provably
//!   hold the message — its origin, and the peer that delivered this copy;
//! * the first message of an unknown interaction triggers a `Register`
//!   call to the context's Registration service; messages queue (bounded,
//!   shedding oldest-first and re-sending the `Register`) until the
//!   `RegisterResponse` grant arrives.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use wsg_coord::{CoordinationContext, GossipGrant, RegistrationService, WSCOOR_NS, WSGOSSIP_NS};
use wsg_net::sync::Mutex;
use wsg_net::{AllLive, Pcg32, PeerLiveness, RngExt};
use wsg_soap::{
    Envelope, EndpointReference, Handler, HandlerOutcome, MessageContext, MessageHeaders, Uuid,
};
use wsg_xml::QName;

use crate::actions;
use crate::header::{GossipHeader, GossipHeaderRef};

/// Counters exposed by the gossip layer (experiment E1/E7 bookkeeping).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GossipLayerStats {
    /// Outgoing notifications intercepted at the origin.
    pub intercepted: u64,
    /// Forward copies re-routed to peers.
    pub forwards_sent: u64,
    /// Sampled forward targets dropped because they provably hold the
    /// message already: its origin, and the peer that handed it to us.
    /// `forwards_sent + forwards_suppressed` is the number of targets drawn.
    pub forwards_suppressed: u64,
    /// `Register` calls issued for unknown interactions.
    pub registers_sent: u64,
    /// Inbound copies suppressed as duplicates.
    pub duplicates_suppressed: u64,
    /// Queued messages dropped, oldest first, from a context whose grant
    /// had not arrived when its queue reached its cap (1024 messages).
    pub pending_shed: u64,
}

/// Messages one context queues while its `Register` is unanswered. A live
/// fleet's closed loops keep up to 1024 publications outstanding, all of
/// which can reach a subscriber inside its first registration round trip;
/// beyond that the coordinator's reply is taken for lost.
const PENDING_CAP: usize = 1024;

/// A context whose `Register` is in flight: what waits for the grant, and
/// how many messages have queued since the `Register` last went out.
#[derive(Debug, Default)]
struct Registering {
    queue: VecDeque<Envelope>,
    since_register: usize,
}

/// Sequence numbers one origin's dedup memory holds at most (≈ 1 MB);
/// anything that arrives this far behind the newest is taken for a
/// duplicate. A closed loop keeps 1 024 notifications outstanding, but the
/// slowest copies of `saturate_small` arrive ~9 000 publications late
/// (p99.9 16 s at 550/s through the unbounded sender queues): a 4 096
/// window lost 0.2 % of first deliveries there, this one none.
const SEEN_WINDOW: usize = 65_536;

/// What has been seen from one origin: the newest [`SEEN_WINDOW`] sequence
/// numbers, and a floor below which every number counts as seen — such a
/// message is suppressed, never delivered twice.
#[derive(Debug, Default)]
struct SeenWindow {
    floor: u64,
    seqs: BTreeSet<u64>,
}

#[derive(Debug)]
struct LayerState {
    me: String,
    rng: Pcg32,
    // Dedup memory, per origin; a lookup borrows the origin from the header.
    seen: BTreeMap<String, SeenWindow>,
    grants: BTreeMap<String, Arc<GossipGrant>>,
    registering: BTreeMap<String, Registering>,
    // Liveness oracle consulted when sampling forward targets; grants can
    // outlive their peers, so dead members are filtered out per round
    // instead of waiting for the coordinator to re-issue the grant.
    liveness: Arc<dyn PeerLiveness>,
    stats: GossipLayerStats,
}

impl LayerState {
    fn fresh_message_id(&mut self) -> String {
        Uuid::random(&mut self.rng).to_urn()
    }

    /// Record a message key in the dedup memory. Returns `true` when the
    /// key was new — neither remembered nor below its origin's floor.
    fn mark_seen(&mut self, origin: &str, seq: u64) -> bool {
        let seen = match self.seen.get_mut(origin) {
            Some(seen) => seen,
            None => self.seen.entry(origin.to_string()).or_default(),
        };
        if seq < seen.floor || !seen.seqs.insert(seq) {
            return false;
        }
        if seen.seqs.len() > SEEN_WINDOW {
            if let Some(oldest) = seen.seqs.pop_first() {
                seen.floor = oldest + 1;
            }
        }
        true
    }

    fn sample_peers<'g>(&mut self, grant: &'g GossipGrant) -> Vec<&'g str> {
        let mut pool: Vec<&str> = grant
            .peers
            .iter()
            .map(String::as_str)
            .filter(|p| *p != self.me)
            .filter(|p| {
                // Endpoints that don't map to a node id (external URIs)
                // are not the liveness plane's to veto.
                crate::endpoint::node_of(p).is_none_or(|id| self.liveness.is_live(id))
            })
            .collect();
        self.rng.shuffle(&mut pool);
        pool.truncate(grant.fanout);
        pool
    }

    /// The `Register` call for `context_id`, addressed to `registration`.
    fn register(&mut self, registration: String, context_id: &str) -> Envelope {
        let body = RegistrationService::encode_register(context_id, &self.me);
        let headers = MessageHeaders::request(registration, actions::REGISTER)
            .with_message_id(self.fresh_message_id())
            .with_from(EndpointReference::new(self.me.clone()))
            .with_reply_to(EndpointReference::new(self.me.clone()));
        self.stats.registers_sent += 1;
        Envelope::request(headers, body)
    }
}

fn sampling_rng(seed: u64) -> Pcg32 {
    Pcg32::new(seed, 0x60551)
}

/// Whether `peer` is known to hold the message `envelope` carries: it
/// published it (`wsg:Origin`), or it is the `wsa:From` of this very copy.
/// Nothing is remembered — a push-once node decides about a message once,
/// at its first receipt, when it has heard from exactly one peer.
fn provably_holds(envelope: &Envelope, header: &GossipHeader, peer: &str) -> bool {
    peer == header.origin || envelope.addressing().from().is_some_and(|from| from.address() == peer)
}

/// The Registration service a message names — the address travels in its
/// `CoordinationContext` header — if it carries one.
fn registration_of(envelope: &Envelope) -> Option<String> {
    let header = envelope.header(WSCOOR_NS, "CoordinationContext")?;
    let context = CoordinationContext::from_header(header).ok()?;
    Some(context.registration_service().to_string())
}

/// Shared handle onto the gossip layer: the node keeps one clone (to seed
/// grants and read statistics), the handler in the chain keeps the other.
#[derive(Debug, Clone)]
pub struct GossipLayerHandle {
    state: Arc<Mutex<LayerState>>,
}

impl GossipLayerHandle {
    /// A new layer for the node with endpoint `me`; `seed` fixes the
    /// deterministic peer-sampling stream.
    pub fn new(me: impl Into<String>, seed: u64) -> Self {
        GossipLayerHandle {
            state: Arc::new(Mutex::new(LayerState {
                me: me.into(),
                rng: sampling_rng(seed),
                seen: BTreeMap::new(),
                grants: BTreeMap::new(),
                registering: BTreeMap::new(),
                liveness: Arc::new(AllLive),
                stats: GossipLayerStats::default(),
            })),
        }
    }

    /// Restart the peer-sampling stream from `seed`, as [`Self::new`] seeds it.
    pub(crate) fn reseed(&self, seed: u64) {
        self.state.lock().rng = sampling_rng(seed);
    }

    /// Install a liveness oracle (e.g. a `wsg_cluster` membership plane):
    /// per-round peer sampling skips members it reports dead, so gossip
    /// stops dialing crashed nodes even while grants still name them.
    pub(crate) fn set_liveness(&self, liveness: Arc<dyn PeerLiveness>) {
        self.state.lock().liveness = liveness;
    }

    /// Build the chain handler sharing this state.
    pub fn handler(&self) -> GossipHandler {
        GossipHandler { state: self.state.clone() }
    }

    /// Install a grant (e.g. the one returned by Activation) — present
    /// interactions forward immediately instead of registering first.
    pub fn set_grant(&self, context_id: &str, grant: GossipGrant) {
        self.state.lock().grants.insert(context_id.to_string(), Arc::new(grant));
    }

    /// The grant for a context, if known.
    pub fn grant(&self, context_id: &str) -> Option<GossipGrant> {
        self.state.lock().grants.get(context_id).map(|grant| grant.as_ref().clone())
    }

    /// Layer counters.
    pub fn stats(&self) -> GossipLayerStats {
        self.state.lock().stats.clone()
    }

    /// Number of message keys the dedup memory holds.
    #[cfg(test)]
    fn seen_count(&self) -> usize {
        self.state.lock().seen.values().map(|seen| seen.seqs.len()).sum()
    }
}

/// The middleware handler; see the [module documentation](self).
#[derive(Debug)]
pub struct GossipHandler {
    state: Arc<Mutex<LayerState>>,
}

impl GossipHandler {
    /// The forward copies of `envelope` for the next round: one per
    /// sampled peer that does not provably hold the message, differing in
    /// `To`, `MessageID`, `From` and `wsg:Round` and sharing the payload.
    ///
    /// The targets are drawn first, exactly as if every one were sent to,
    /// and the holders dropped afterwards: the copies that remain are the
    /// ones an unfiltered forward sends, so the epidemic's reach is its
    /// reach, and the effective fanout is not silently raised.
    fn forward(
        state: &mut LayerState,
        envelope: &Envelope,
        header: &GossipHeader,
        grant: &GossipGrant,
    ) -> Vec<Envelope> {
        if header.round >= grant.rounds {
            return Vec::new(); // round budget exhausted
        }
        let mut peers = state.sample_peers(grant);
        let sampled = peers.len();
        peers.retain(|peer| !provably_holds(envelope, header, peer));
        state.stats.forwards_suppressed += (sampled - peers.len()) as u64;
        if peers.is_empty() {
            return Vec::new();
        }
        let mut template = envelope.clone();
        template.remove_header(WSGOSSIP_NS, "Gossip");
        template.push_header(header.next_round().to_element());
        template.addressing_mut().set_from(EndpointReference::new(state.me.clone()));
        let mut copies = Vec::with_capacity(peers.len());
        for peer in peers {
            let mut copy = template.clone();
            let message_id = state.fresh_message_id();
            let addressing = copy.addressing_mut();
            addressing.set_to(peer);
            addressing.set_message_id(message_id);
            state.stats.forwards_sent += 1;
            copies.push(copy);
        }
        copies
    }

    /// Forward `envelope` under the context's grant, or — for an unknown
    /// interaction — register with the context's Registration service if
    /// we have not yet, and queue the message until the grant arrives.
    /// Returns what to send.
    fn route(state: &mut LayerState, envelope: &Envelope, header: &GossipHeader) -> Vec<Envelope> {
        if let Some(grant) = state.grants.get(&header.context_id).map(Arc::clone) {
            return Self::forward(state, envelope, header, &grant);
        }
        let Some(waiting) = state.registering.get_mut(&header.context_id) else {
            let Some(registration) = registration_of(envelope) else {
                // No context header: it cannot register, so no grant would
                // ever flush it from the queue — it is not queued.
                return Vec::new();
            };
            let waiting = Registering { queue: VecDeque::from([envelope.clone()]), since_register: 1 };
            state.registering.insert(header.context_id.clone(), waiting);
            return vec![state.register(registration, &header.context_id)];
        };
        // Register already in flight: its grant flushes the queue.
        if waiting.queue.len() >= PENDING_CAP {
            waiting.queue.pop_front();
            state.stats.pending_shed += 1;
        }
        waiting.queue.push_back(envelope.clone());
        waiting.since_register += 1;
        if waiting.since_register <= PENDING_CAP {
            return Vec::new();
        }
        // More than the queue holds has gone by since the Register went
        // out, so this message shed one: the reply is taken for lost, and
        // the traffic itself is the retry — once per queue's worth of
        // messages, not once per message.
        let Some(registration) = registration_of(envelope) else {
            return Vec::new(); // the next message that names the service retries
        };
        waiting.since_register = 1;
        vec![state.register(registration, &header.context_id)]
    }

    fn handle_register_response(&self, ctx: &mut MessageContext) -> HandlerOutcome {
        let mut state = self.state.lock();
        let Some(body) = ctx.envelope.body() else {
            return HandlerOutcome::Consumed;
        };
        let Ok(grant) = GossipGrant::from_parent(body) else {
            return HandlerOutcome::Consumed;
        };
        let Some(context_id) = body
            .child_ns(WSGOSSIP_NS, "ContextIdentifier")
            .map(|c| c.text())
        else {
            return HandlerOutcome::Consumed;
        };
        let grant = Arc::new(grant);
        state.grants.insert(context_id.clone(), Arc::clone(&grant));
        let waiting = state.registering.remove(&context_id).unwrap_or_default();
        for envelope in waiting.queue {
            if let Some(header) = GossipHeader::from_envelope(&envelope) {
                for copy in Self::forward(&mut state, &envelope, &header, &grant) {
                    ctx.send_envelope(copy);
                }
            }
        }
        HandlerOutcome::Consumed
    }
}

impl Handler for GossipHandler {
    fn name(&self) -> &str {
        "gossip"
    }

    fn understands(&self, header: &QName) -> bool {
        header.matches(Some(WSGOSSIP_NS), "Gossip")
            || header.matches(Some(WSCOOR_NS), "CoordinationContext")
    }

    fn process(&mut self, ctx: &mut MessageContext) -> HandlerOutcome {
        use wsg_soap::handler::Direction;

        // Grant arrivals are middleware-level traffic.
        if ctx.direction == Direction::Inbound
            && ctx.envelope.addressing().action() == Some(actions::REGISTER_RESPONSE)
        {
            return self.handle_register_response(ctx);
        }

        let Some(header) = GossipHeaderRef::from_envelope(&ctx.envelope) else {
            return HandlerOutcome::Continue; // not gossip traffic
        };

        let mut state = self.state.lock();
        // The header alone decides a duplicate, and it is read in place:
        // nothing of the message has been built, let alone copied.
        let new = state.mark_seen(&header.origin, header.seq);
        let outcome = match ctx.direction {
            // Interception at the origin: never let the original (which
            // is addressed to a topic URI, not a node) hit the wire.
            Direction::Outbound => {
                state.stats.intercepted += 1;
                HandlerOutcome::Consumed
            }
            Direction::Inbound if !new => {
                state.stats.duplicates_suppressed += 1;
                return HandlerOutcome::Consumed;
            }
            Direction::Inbound => HandlerOutcome::Continue, // deliver to the application too
        };
        let sends = Self::route(&mut state, &ctx.envelope, &header.to_header());
        drop(state);
        for send in sends {
            ctx.send_envelope(send);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_coord::{GossipPolicy, GossipProtocol};
    use wsg_soap::handler::{Direction, Disposition};
    use wsg_soap::HandlerChain;
    use wsg_xml::Element;

    fn notification(ctx_id: &str, origin: &str, seq: u64, round: u32) -> Envelope {
        let context = CoordinationContext::new(
            ctx_id,
            GossipProtocol::Push,
            "http://node0/registration",
            GossipPolicy::default(),
        );
        let gossip = GossipHeader {
            context_id: ctx_id.to_string(),
            topic: "quotes".into(),
            origin: origin.to_string(),
            seq,
            round,
        };
        Envelope::request(
            MessageHeaders::request(crate::endpoint::topic_uri("quotes"), actions::NOTIFY)
                .with_message_id("urn:uuid:test-1"),
            Element::text_node("tick", "ACME"),
        )
        .with_header(context.to_header())
        .with_header(gossip.to_element())
    }

    fn grant(peers: &[&str]) -> GossipGrant {
        GossipGrant {
            fanout: 2,
            rounds: 4,
            peers: peers.iter().map(|p| p.to_string()).collect(),
        }
    }

    /// `envelope` as the copy `sender` hands on: its `wsa:From` names it.
    fn sent_by(mut envelope: Envelope, sender: &str) -> Envelope {
        envelope.addressing_mut().set_from(EndpointReference::new(sender));
        envelope
    }

    /// Publication `seq` of node 1 as node 3 hands it on.
    fn from_node3(seq: u64) -> Envelope {
        sent_by(notification("ctx", "http://node1/gossip", seq, 1), "http://node3/gossip")
    }

    fn register_response(ctx_id: &str, grant: &GossipGrant) -> Envelope {
        let mut body = grant.to_register_response();
        body.push_child(Element::in_ns("wsg", WSGOSSIP_NS, "ContextIdentifier").with_text(ctx_id));
        Envelope::request(
            MessageHeaders::request("http://node2/gossip", actions::REGISTER_RESPONSE),
            body,
        )
    }

    fn targets(sends: &[Envelope]) -> Vec<&str> {
        sends.iter().map(|copy| copy.addressing().to().expect("a forward names its peer")).collect()
    }

    fn chain_with(handle: &GossipLayerHandle) -> HandlerChain {
        let mut chain = HandlerChain::new();
        chain.push(Box::new(handle.handler()));
        chain
    }

    #[test]
    fn outbound_with_grant_reroutes_to_fanout_peers() {
        let handle = GossipLayerHandle::new("http://node1/gossip", 1);
        handle.set_grant("ctx", grant(&["http://node2/gossip", "http://node3/gossip", "http://node4/gossip"]));
        let mut chain = chain_with(&handle);
        let result = chain.process(
            Direction::Outbound,
            notification("ctx", "http://node1/gossip", 0, 0),
            "http://node1/gossip",
        );
        assert!(matches!(result.disposition, Disposition::Consumed));
        assert_eq!(result.sends.len(), 2, "fanout 2");
        for copy in &result.sends {
            let header = GossipHeader::from_envelope(copy).unwrap();
            assert_eq!(header.round, 1);
            assert_ne!(copy.addressing().to(), Some("http://node1/gossip"));
            assert_eq!(copy.addressing().action(), Some(actions::NOTIFY));
        }
        assert_eq!(handle.stats().intercepted, 1);
        assert_eq!(handle.stats().forwards_sent, 2);
        // At the origin nobody else holds the message yet.
        assert_eq!(handle.stats().forwards_suppressed, 0);
    }

    #[test]
    fn outbound_without_grant_registers_and_queues() {
        let handle = GossipLayerHandle::new("http://node1/gossip", 2);
        let mut chain = chain_with(&handle);
        let result = chain.process(
            Direction::Outbound,
            notification("ctx", "http://node1/gossip", 0, 0),
            "http://node1/gossip",
        );
        assert!(matches!(result.disposition, Disposition::Consumed));
        assert_eq!(result.sends.len(), 1);
        let register = &result.sends[0];
        assert_eq!(register.addressing().action(), Some(actions::REGISTER));
        assert_eq!(register.addressing().to(), Some("http://node0/registration"));
        assert_eq!(handle.stats().registers_sent, 1);
    }

    #[test]
    fn inbound_new_message_delivers_and_forwards() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 3);
        handle.set_grant("ctx", grant(&["http://node3/gossip", "http://node4/gossip"]));
        let mut chain = chain_with(&handle);
        let result = chain.process(
            Direction::Inbound,
            notification("ctx", "http://node1/gossip", 0, 1),
            "http://node2/gossip",
        );
        assert!(matches!(result.disposition, Disposition::Deliver(_)), "app must see it");
        assert_eq!(result.sends.len(), 2);
        for copy in &result.sends {
            assert_eq!(GossipHeader::from_envelope(copy).unwrap().round, 2);
        }
    }

    #[test]
    fn inbound_duplicate_suppressed() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 4);
        handle.set_grant("ctx", grant(&["http://node3/gossip"]));
        let mut chain = chain_with(&handle);
        let first = chain.process(
            Direction::Inbound,
            notification("ctx", "http://node1/gossip", 7, 1),
            "http://node2/gossip",
        );
        assert!(matches!(first.disposition, Disposition::Deliver(_)));
        let second = chain.process(
            Direction::Inbound,
            notification("ctx", "http://node1/gossip", 7, 2),
            "http://node2/gossip",
        );
        assert!(matches!(second.disposition, Disposition::Consumed));
        assert!(second.sends.is_empty(), "duplicates are not re-forwarded");
        assert_eq!(handle.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn header_order_is_the_senders_business() {
        // One notification as builds before the conversation-first header
        // order wrote it — `To`, `Action`, `MessageID`, then the blocks —
        // and as this one does: the same message to every layer above the
        // text, in both directions.
        let old = include_str!("../../../fuzz/corpus/envelope/seed-gossip-old-order");
        let new = include_str!("../../../fuzz/corpus/envelope/seed-gossip");
        let gossip_at = |xml: &str| xml.find("<wsg:Gossip").unwrap();
        assert!(old.find("<wsa:To>").unwrap() < gossip_at(old), "{old}");
        assert!(new.find("<wsa:To>").unwrap() > gossip_at(new), "{new}");
        assert!(new.find("<wsa:Action>").unwrap() < gossip_at(new), "{new}");
        assert_eq!(old.len(), new.len(), "order moves no byte count");
        let parsed = Envelope::parse(old).unwrap();
        assert_eq!(parsed, Envelope::parse(new).unwrap());
        assert_eq!(parsed.to_xml(), new, "whatever came in, this order goes out");

        for (first, twin) in [(old, new), (new, old)] {
            let handle = GossipLayerHandle::new("http://node2/gossip", 21);
            handle.set_grant(
                "urn:ws-gossip:ctx:0",
                grant(&["http://node3/gossip", "http://node4/gossip", "http://node5/gossip"]),
            );
            let mut chain = chain_with(&handle);
            let inbound = Envelope::parse(first).unwrap();
            let result = chain.process(Direction::Inbound, inbound, "http://node2/gossip");
            assert!(matches!(result.disposition, Disposition::Deliver(_)));
            assert_eq!(result.sends.len(), 2);
            for copy in &result.sends {
                // The forward says the conversation first, and parses back
                // to what was sent.
                let wire = copy.to_xml();
                assert!(wire.find("<wsa:From>").unwrap() < gossip_at(&wire), "{wire}");
                assert!(wire.find("<wsa:MessageID>").unwrap() > gossip_at(&wire), "{wire}");
                let again = Envelope::parse(&wire).unwrap();
                assert_eq!(&again, copy);
                let header = GossipHeader::from_envelope(&again).unwrap();
                assert_eq!((header.seq, header.round), (12, 2));
                assert_eq!(again.body().unwrap().text(), "ACME");
            }
            let twin = Envelope::parse(twin).unwrap();
            let second = chain.process(Direction::Inbound, twin, "http://node2/gossip");
            assert!(matches!(second.disposition, Disposition::Consumed));
            assert!(second.sends.is_empty());
            assert_eq!(handle.stats().duplicates_suppressed, 1);
        }
    }

    #[test]
    fn a_forward_carries_the_coordination_context_as_it_arrived_or_as_it_meant() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 13);
        handle.set_grant("ctx", grant(&["http://node3/gossip", "http://node4/gossip"]));
        let mut chain = chain_with(&handle);
        let wire = notification("ctx", "http://node1/gossip", 0, 1).to_xml();
        let context = |envelope: &Envelope| {
            let header = envelope.header(WSCOOR_NS, "CoordinationContext").expect("carried on");
            CoordinationContext::from_header(header).expect("decodes")
        };
        let expected = context(&Envelope::parse(&wire).unwrap());
        let forward_of = |chain: &mut HandlerChain, wire: &str| {
            let inbound = Envelope::parse(wire).unwrap();
            let result = chain.process(Direction::Inbound, inbound, "http://node2/gossip");
            assert_eq!(result.sends.len(), 2);
            result.sends[0].to_xml()
        };

        // A foreign stack's spelling of the block — a comment, a CDATA
        // section — goes out byte for byte: the block is never a tree here.
        let foreign = wire.replace(
            "<wscoor:Identifier>ctx</wscoor:Identifier>",
            "<!-- theirs --><wscoor:Identifier><![CDATA[ctx]]></wscoor:Identifier>",
        );
        assert_ne!(foreign, wire);
        let forwarded = forward_of(&mut chain, &foreign);
        assert!(forwarded.contains("<!-- theirs --><wscoor:Identifier><![CDATA[ctx]]>"), "{forwarded}");
        assert_eq!(context(&Envelope::parse(&forwarded).unwrap()), expected);

        // With its prefix declared on env:Envelope the block's bytes would
        // mean nothing in the envelope the forward writes: it is written
        // from its tree, which declares what it uses.
        let decl = format!(" xmlns:wscoor=\"{WSCOOR_NS}\"");
        let leaning = wire
            .replace("<wsg:Seq>0</wsg:Seq>", "<wsg:Seq>1</wsg:Seq>")
            .replace(&decl, "")
            .replacen("<env:Envelope", &format!("<env:Envelope{decl}"), 1);
        assert!(leaning.contains("<wscoor:CoordinationContext><wscoor:Identifier>"), "{leaning}");
        let forwarded = forward_of(&mut chain, &leaning);
        assert!(forwarded.contains(&format!("<wscoor:CoordinationContext{decl}>")), "{forwarded}");
        let next_hop = Envelope::parse(&forwarded).unwrap();
        assert_eq!(context(&next_hop), expected);
        assert_eq!(GossipHeader::from_envelope(&next_hop).unwrap().round, 2);
    }

    #[test]
    fn round_budget_stops_forwarding() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 5);
        handle.set_grant("ctx", grant(&["http://node3/gossip"])); // rounds = 4
        let mut chain = chain_with(&handle);
        let result = chain.process(
            Direction::Inbound,
            notification("ctx", "http://node1/gossip", 0, 4),
            "http://node2/gossip",
        );
        assert!(matches!(result.disposition, Disposition::Deliver(_)), "still delivered");
        assert!(result.sends.is_empty(), "round 4 >= budget 4: no forward");
    }

    #[test]
    fn grant_arrival_flushes_pending() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 6);
        let mut chain = chain_with(&handle);
        // An inbound message for an unknown interaction queues + registers.
        let first = chain.process(
            Direction::Inbound,
            notification("ctx", "http://node1/gossip", 0, 1),
            "http://node2/gossip",
        );
        assert_eq!(first.sends.len(), 1, "register only");
        // Now the RegisterResponse arrives.
        let response = register_response("ctx", &grant(&["http://node5/gossip", "http://node6/gossip"]));
        let result = chain.process(Direction::Inbound, response, "http://node2/gossip");
        assert!(matches!(result.disposition, Disposition::Consumed));
        assert_eq!(result.sends.len(), 2, "queued message forwarded to 2 peers");
        assert!(handle.grant("ctx").is_some());
    }

    #[test]
    fn a_message_without_a_context_header_neither_registers_nor_blocks_the_one_that_can() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 12);
        let mut chain = chain_with(&handle);
        let bare = |seq| {
            let mut envelope = notification("ctx", "http://node1/gossip", seq, 1);
            assert!(envelope.remove_header(WSCOOR_NS, "CoordinationContext"));
            envelope
        };
        // It names no Registration service: delivered, but nothing to send
        // and — no grant being on its way — nothing to wait for.
        let first = chain.process(Direction::Inbound, bare(0), "http://node2/gossip");
        assert!(matches!(first.disposition, Disposition::Deliver(_)));
        assert!(first.sends.is_empty());
        // The next message of the interaction carries the context: it
        // registers (the bare one used to mark the register as in flight,
        // so this one queued behind it forever).
        let second = chain.process(
            Direction::Inbound,
            notification("ctx", "http://node1/gossip", 1, 1),
            "http://node2/gossip",
        );
        assert_eq!(second.sends.len(), 1);
        assert_eq!(second.sends[0].addressing().action(), Some(actions::REGISTER));
        // With the register in flight a bare message waits for the grant too.
        let third = chain.process(Direction::Inbound, bare(2), "http://node2/gossip");
        assert!(third.sends.is_empty());
        assert_eq!(handle.stats().registers_sent, 1);

        let response = register_response("ctx", &grant(&["http://node5/gossip", "http://node6/gossip"]));
        let result = chain.process(Direction::Inbound, response, "http://node2/gossip");
        let mut forwarded: Vec<u64> =
            result.sends.iter().map(|copy| GossipHeader::from_envelope(copy).unwrap().seq).collect();
        forwarded.dedup();
        assert_eq!(forwarded, [1, 2], "both queued messages forward, each to the fanout");
        assert_eq!(result.sends.len(), 4);
        assert_eq!(handle.stats().registers_sent, 1);
    }

    /// A grant whose fanout covers its whole pool: every peer is sampled.
    fn everyone(peers: &[&str]) -> GossipGrant {
        GossipGrant { fanout: peers.len(), ..grant(peers) }
    }

    const PEERS: [&str; 4] =
        ["http://node1/gossip", "http://node3/gossip", "http://node4/gossip", "http://node5/gossip"];

    #[test]
    fn a_forward_skips_the_origin_and_the_peer_that_delivered_the_copy() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 14);
        handle.set_grant("ctx", everyone(&PEERS));
        let mut chain = chain_with(&handle);
        let result = chain.process(Direction::Inbound, from_node3(0), "http://node2/gossip");
        assert!(matches!(result.disposition, Disposition::Deliver(_)));
        let mut to = targets(&result.sends);
        to.sort_unstable();
        assert_eq!(to, ["http://node4/gossip", "http://node5/gossip"]);
        let stats = handle.stats();
        assert_eq!((stats.forwards_sent, stats.forwards_suppressed), (2, 2));
    }

    #[test]
    fn a_copy_that_names_no_sender_spares_the_origin_only() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 15);
        handle.set_grant("ctx", everyone(&PEERS));
        let mut chain = chain_with(&handle);
        let inbound = notification("ctx", "http://node1/gossip", 0, 1);
        assert!(inbound.addressing().from().is_none());
        let result = chain.process(Direction::Inbound, inbound, "http://node2/gossip");
        let mut to = targets(&result.sends);
        to.sort_unstable();
        assert_eq!(to, ["http://node3/gossip", "http://node4/gossip", "http://node5/gossip"]);
        let stats = handle.stats();
        assert_eq!((stats.forwards_sent, stats.forwards_suppressed), (3, 1));
    }

    #[test]
    fn a_forward_whose_every_target_holds_the_message_sends_nothing() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 16);
        handle.set_grant("ctx", everyone(&PEERS[..2]));
        let mut chain = chain_with(&handle);
        let result = chain.process(Direction::Inbound, from_node3(0), "http://node2/gossip");
        assert!(matches!(result.disposition, Disposition::Deliver(_)), "still delivered here");
        assert!(result.sends.is_empty());
        let stats = handle.stats();
        assert_eq!((stats.forwards_sent, stats.forwards_suppressed), (0, 2));
    }

    #[test]
    fn the_pending_flush_spares_each_queued_copy_its_own_sender() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 17);
        let mut chain = chain_with(&handle);
        for (seq, sender) in [(0, "http://node3/gossip"), (1, "http://node4/gossip")] {
            let inbound = sent_by(notification("ctx", "http://node1/gossip", seq, 1), sender);
            chain.process(Direction::Inbound, inbound, "http://node2/gossip");
        }
        assert_eq!(handle.stats().registers_sent, 1);
        let response = register_response("ctx", &everyone(&PEERS));
        let result = chain.process(Direction::Inbound, response, "http://node2/gossip");
        let seq_of = |copy: &Envelope| GossipHeader::from_envelope(copy).unwrap().seq;
        let mut forwarded: Vec<(u64, &str)> =
            result.sends.iter().map(seq_of).zip(targets(&result.sends)).collect();
        forwarded.sort_unstable();
        assert_eq!(
            forwarded,
            [
                (0, "http://node4/gossip"),
                (0, "http://node5/gossip"),
                (1, "http://node3/gossip"),
                (1, "http://node5/gossip"),
            ]
        );
        let stats = handle.stats();
        assert_eq!((stats.forwards_sent, stats.forwards_suppressed), (4, 4));
    }

    #[test]
    fn a_lost_register_response_is_retried_by_the_traffic_and_the_queue_is_bounded() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 18);
        let mut chain = chain_with(&handle);
        let mut receive = |seq: u64| {
            chain.process(Direction::Inbound, from_node3(seq), "http://node2/gossip").sends
        };
        let registers = |sends: &[Envelope]| {
            assert!(sends.iter().all(|s| s.addressing().action() == Some(actions::REGISTER)));
            sends.len()
        };
        let queued = |handle: &GossipLayerHandle| handle.state.lock().registering["ctx"].queue.len();

        assert_eq!(registers(&receive(0)), 1);
        // The reply never comes. The queue fills without a word...
        let cap = PENDING_CAP as u64;
        for seq in 1..cap {
            assert_eq!(registers(&receive(seq)), 0);
        }
        assert_eq!((queued(&handle), handle.stats().pending_shed), (PENDING_CAP, 0));
        // ...and the message that does not fit sheds the oldest and asks again.
        assert_eq!(registers(&receive(cap)), 1);
        assert_eq!((queued(&handle), handle.stats().pending_shed), (PENDING_CAP, 1));
        assert_eq!(handle.stats().registers_sent, 2);
        // Once per queue's worth of messages, not once per message.
        for seq in cap + 1..2 * cap {
            assert_eq!(registers(&receive(seq)), 0);
        }
        assert_eq!(registers(&receive(2 * cap)), 1);
        assert_eq!((queued(&handle), handle.stats().pending_shed), (PENDING_CAP, cap + 1));

        // The grant arrives after all: what is still queued goes out, under
        // the same rule as any forward (node1 published, node3 delivered).
        let response = register_response("ctx", &everyone(&PEERS));
        let sends = chain.process(Direction::Inbound, response, "http://node2/gossip").sends;
        assert_eq!(sends.len(), 2 * PENDING_CAP);
        assert!(targets(&sends).iter().all(|to| PEERS[2..].contains(to)), "neither node1 nor node3");
        let oldest = sends.iter().map(|copy| GossipHeader::from_envelope(copy).unwrap().seq).min();
        assert_eq!(oldest, Some(cap + 1), "the oldest were shed");
        assert!(handle.state.lock().registering.is_empty());
        assert_eq!(handle.stats().forwards_suppressed, 2 * cap);
    }

    #[test]
    fn suppression_only_ever_removes_targets_from_the_sample() {
        use wsg_net::check::{run, Gen};
        use wsg_net::{prop_assert, prop_assert_eq};

        let suppressing = std::cell::Cell::new(0);
        run("suppression_only_ever_removes_targets_from_the_sample", 192, |g: &mut Gen| {
            let me = "http://node0/gossip";
            // A random grant, now and then naming this node too.
            let mut peers: Vec<String> =
                (1..=g.usize(1..=12)).map(|i| format!("http://node{i}/gossip")).collect();
            if g.bool(0.3) {
                let at = g.usize(0..=peers.len());
                peers.insert(at, me.to_string());
            }
            let grant = GossipGrant { fanout: g.usize(0..=peers.len() + 1), rounds: 4, peers };
            let seed = g.next_u64();
            let members: Vec<&String> = grant.peers.iter().filter(|p| *p != me).collect();
            let origin = g.pick(&members).to_string();
            let sender = g.bool(0.8).then(|| g.pick(&members).to_string());

            // The same layer (same seed, same grant, so the same draws)
            // forwards the notification once as published and handed on by
            // strangers to the grant, once by two of its members.
            let forwards = |origin: &str, sender: Option<&str>| {
                let handle = GossipLayerHandle::new(me, seed);
                handle.set_grant("ctx", grant.clone());
                let mut inbound = notification("ctx", origin, 0, 1);
                if let Some(sender) = sender {
                    inbound = sent_by(inbound, sender);
                }
                let sends = chain_with(&handle).process(Direction::Inbound, inbound, me).sends;
                let to: Vec<String> = targets(&sends).into_iter().map(str::to_string).collect();
                (to, handle.stats())
            };
            let stranger = sender.as_ref().map(|_| "http://stranger/gossip");
            let (sample, unfiltered) = forwards("http://elsewhere/gossip", stranger);
            let (sent, filtered) = forwards(&origin, sender.as_deref());

            prop_assert_eq!(unfiltered.forwards_suppressed, 0);
            prop_assert_eq!(unfiltered.forwards_sent as usize, sample.len());
            prop_assert!(sample.len() <= grant.fanout && !sample.iter().any(|to| to == me));
            let expected: Vec<String> = sample
                .iter()
                .filter(|to| **to != origin && Some(to.as_str()) != sender.as_deref())
                .cloned()
                .collect();
            // Never adds, reorders or re-draws a target.
            prop_assert_eq!(&sent, &expected);
            let drawn = filtered.forwards_sent + filtered.forwards_suppressed;
            prop_assert_eq!(drawn as usize, sample.len());
            suppressing.set(suppressing.get() + usize::from(sent.len() < sample.len()));
            Ok(())
        });
        assert!(suppressing.get() > 0, "no case drew a holder: the property was never exercised");
    }

    #[test]
    fn second_message_in_known_context_forwards_without_register() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 7);
        handle.set_grant("ctx", grant(&["http://node3/gossip"]));
        let mut chain = chain_with(&handle);
        for seq in 0..3 {
            let result = chain.process(
                Direction::Inbound,
                notification("ctx", "http://node1/gossip", seq, 1),
                "http://node2/gossip",
            );
            assert_eq!(result.sends.len(), 1);
        }
        assert_eq!(handle.stats().registers_sent, 0);
    }

    #[test]
    fn non_gossip_traffic_passes_through() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 8);
        let mut chain = chain_with(&handle);
        let plain = Envelope::request(
            MessageHeaders::request("http://node2/gossip", "urn:other:Op"),
            Element::new("op"),
        );
        let result = chain.process(Direction::Inbound, plain, "http://node2/gossip");
        assert!(matches!(result.disposition, Disposition::Deliver(_)));
        assert!(result.sends.is_empty());
    }

    #[test]
    fn dedup_memory_is_one_bounded_window_per_origin() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 10);
        handle.set_grant("ctx", grant(&["http://node3/gossip"]));
        let origin = "http://node1/gossip";
        let sent = 10 * SEEN_WINDOW as u64;
        {
            let mut state = handle.state.lock();
            for seq in 0..sent {
                assert!(state.mark_seen(origin, seq));
                assert!(state.seen[origin].seqs.len() <= SEEN_WINDOW);
            }
            // Another origin's numbers are its own.
            assert!(state.mark_seen("http://node4/gossip", 0));
        }
        assert_eq!(handle.seen_count(), SEEN_WINDOW + 1);
        let mut chain = chain_with(&handle);
        let mut receive = |seq: u64| {
            chain.process(Direction::Inbound, notification("ctx", origin, seq, 2), "http://node2/gossip")
        };
        // Inside the window a duplicate is a duplicate, as ever...
        assert!(matches!(receive(sent - 1).disposition, Disposition::Consumed));
        // ...below the floor everything is one: a late copy is suppressed,
        // not delivered a second time, and forwarded to nobody.
        let late = receive(0);
        assert!(matches!(late.disposition, Disposition::Consumed));
        assert!(late.sends.is_empty());
        // What is new is delivered and moves the window on.
        assert!(matches!(receive(sent).disposition, Disposition::Deliver(_)));
        assert_eq!(handle.seen_count(), SEEN_WINDOW + 1);
    }

    #[test]
    fn reseeding_restarts_the_stream_a_new_layer_would_draw() {
        let reseeded = GossipLayerHandle::new("http://node2/gossip", 0);
        reseeded.state.lock().fresh_message_id();
        reseeded.reseed(7);
        let fresh = GossipLayerHandle::new("http://node2/gossip", 7);
        assert_eq!(reseeded.state.lock().fresh_message_id(), fresh.state.lock().fresh_message_id());
    }

    #[test]
    fn dead_peers_are_excluded_from_sampling() {
        #[derive(Debug)]
        struct DeadNode3;
        impl PeerLiveness for DeadNode3 {
            fn is_live(&self, peer: wsg_net::NodeId) -> bool {
                peer != wsg_net::NodeId(3)
            }
        }
        let handle = GossipLayerHandle::new("http://node1/gossip", 11);
        handle.set_liveness(Arc::new(DeadNode3));
        handle.set_grant(
            "ctx",
            GossipGrant {
                fanout: 5,
                rounds: 4,
                peers: vec![
                    "http://node2/gossip".into(),
                    "http://node3/gossip".into(),
                    "http://node4/gossip".into(),
                    "urn:external:endpoint".into(),
                ],
            },
        );
        let mut chain = chain_with(&handle);
        let result = chain.process(
            Direction::Outbound,
            notification("ctx", "http://node1/gossip", 0, 0),
            "http://node1/gossip",
        );
        // node3 is filtered; node2, node4 and the (unmapped, never vetoed)
        // external endpoint remain.
        assert_eq!(result.sends.len(), 3);
        for copy in &result.sends {
            assert_ne!(copy.addressing().to(), Some("http://node3/gossip"));
        }
    }

    #[test]
    fn forwards_never_target_self() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 9);
        handle.set_grant(
            "ctx",
            GossipGrant {
                fanout: 5,
                rounds: 9,
                peers: vec!["http://node2/gossip".into(), "http://node3/gossip".into()],
            },
        );
        let mut chain = chain_with(&handle);
        let result = chain.process(
            Direction::Inbound,
            notification("ctx", "http://node1/gossip", 0, 1),
            "http://node2/gossip",
        );
        for copy in &result.sends {
            assert_ne!(copy.addressing().to(), Some("http://node2/gossip"));
        }
    }
}
