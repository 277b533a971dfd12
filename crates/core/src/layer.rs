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
//! * **inbound** gossip messages are deduplicated, delivered to the
//!   application (`Continue`), and forwarded another round;
//! * the first message of an unknown interaction triggers a `Register`
//!   call to the context's Registration service; messages queue until the
//!   `RegisterResponse` grant arrives.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, LazyLock};

use wsg_coord::{CoordinationContext, GossipGrant, RegistrationService, WSCOOR_NS, WSGOSSIP_NS};
use wsg_net::sync::Mutex;
use wsg_net::{AllLive, Pcg32, PeerLiveness, RngExt};
use wsg_soap::{
    Envelope, EndpointReference, Handler, HandlerOutcome, MessageContext, MessageHeaders, Uuid,
};
use wsg_xml::QName;

use crate::actions;
use crate::header::{GossipHeader, GossipHeaderRef};

// Every inbound message's action is compared against this one.
static REGISTER_RESPONSE: LazyLock<String> = LazyLock::new(actions::register_response);

/// Counters exposed by the gossip layer (experiment E1/E7 bookkeeping).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GossipLayerStats {
    /// Outgoing notifications intercepted at the origin.
    pub intercepted: u64,
    /// Forward copies re-routed to peers.
    pub forwards_sent: u64,
    /// `Register` calls issued for unknown interactions.
    pub registers_sent: u64,
    /// Inbound copies suppressed as duplicates.
    pub duplicates_suppressed: u64,
}

#[derive(Debug)]
struct LayerState {
    me: String,
    rng: Pcg32,
    // Dedup memory: per origin, the sequence numbers seen — one `u64` a
    // message, and a lookup that borrows the origin from the header.
    seen: BTreeMap<String, BTreeSet<u64>>,
    seen_count: usize,
    // Arrival order, for eviction; kept only once a cap is set.
    seen_order: VecDeque<(String, u64)>,
    seen_cap: usize,
    grants: BTreeMap<String, GossipGrant>,
    pending: BTreeMap<String, Vec<Envelope>>,
    registering: BTreeSet<String>,
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

    /// Record a message key in the dedup set, evicting the oldest entries
    /// beyond the configured cap. Returns `true` when the key was new.
    fn mark_seen(&mut self, origin: &str, seq: u64) -> bool {
        let new = match self.seen.get_mut(origin) {
            Some(seqs) => seqs.insert(seq),
            None => self.seen.entry(origin.to_string()).or_default().insert(seq),
        };
        if !new {
            return false;
        }
        self.seen_count += 1;
        if self.seen_cap != usize::MAX {
            self.seen_order.push_back((origin.to_string(), seq));
            self.evict_beyond_cap();
        }
        true
    }

    fn evict_beyond_cap(&mut self) {
        while self.seen_order.len() > self.seen_cap {
            let Some((origin, seq)) = self.seen_order.pop_front() else { break };
            if let Some(seqs) = self.seen.get_mut(&origin) {
                seqs.remove(&seq);
                if seqs.is_empty() {
                    self.seen.remove(&origin);
                }
            }
            self.seen_count -= 1;
        }
    }

    fn sample_peers(&mut self, grant: &GossipGrant) -> Vec<String> {
        let mut pool: Vec<String> = grant
            .peers
            .iter()
            .filter(|p| p.as_str() != self.me)
            .filter(|p| {
                // Endpoints that don't map to a node id (external URIs)
                // are not the liveness plane's to veto.
                crate::endpoint::node_of(p).is_none_or(|id| self.liveness.is_live(id))
            })
            .cloned()
            .collect();
        self.rng.shuffle(&mut pool);
        pool.truncate(grant.fanout);
        pool
    }
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
                rng: Pcg32::new(seed, 0x60551),
                seen: BTreeMap::new(),
                seen_count: 0,
                seen_order: VecDeque::new(),
                seen_cap: usize::MAX,
                grants: BTreeMap::new(),
                pending: BTreeMap::new(),
                registering: BTreeSet::new(),
                liveness: Arc::new(AllLive),
                stats: GossipLayerStats::default(),
            })),
        }
    }

    /// Install a liveness oracle (e.g. a `wsg_cluster` membership plane):
    /// per-round peer sampling skips members it reports dead, so gossip
    /// stops dialing crashed nodes even while grants still name them.
    pub fn set_liveness(&self, liveness: Arc<dyn PeerLiveness>) {
        self.state.lock().liveness = liveness;
    }

    /// Build the chain handler sharing this state.
    pub fn handler(&self) -> GossipHandler {
        GossipHandler { state: self.state.clone() }
    }

    /// Bound the duplicate-suppression memory to the most recent `cap`
    /// message keys (FIFO eviction). Unbounded by default; long-running
    /// deployments should set a cap and accept that a message older than
    /// the window could, in principle, be re-delivered.
    pub fn set_seen_cap(&self, cap: usize) {
        assert!(cap > 0, "seen cap must be positive");
        let mut state = self.state.lock();
        if state.seen_cap == usize::MAX {
            // Arrival order was not kept while unbounded: age what is
            // already there per origin, oldest sequence number first.
            state.seen_order = state
                .seen
                .iter()
                .flat_map(|(origin, seqs)| seqs.iter().map(move |seq| (origin.clone(), *seq)))
                .collect();
        }
        state.seen_cap = cap;
        state.evict_beyond_cap();
    }

    /// Install a grant (e.g. the one returned by Activation) — present
    /// interactions forward immediately instead of registering first.
    pub fn set_grant(&self, context_id: &str, grant: GossipGrant) {
        self.state.lock().grants.insert(context_id.to_string(), grant);
    }

    /// The grant for a context, if known.
    pub fn grant(&self, context_id: &str) -> Option<GossipGrant> {
        self.state.lock().grants.get(context_id).cloned()
    }

    /// Layer counters.
    pub fn stats(&self) -> GossipLayerStats {
        self.state.lock().stats.clone()
    }

    /// Number of distinct messages seen.
    pub fn seen_count(&self) -> usize {
        self.state.lock().seen_count
    }
}

/// The middleware handler; see the [module documentation](self).
#[derive(Debug)]
pub struct GossipHandler {
    state: Arc<Mutex<LayerState>>,
}

impl GossipHandler {
    /// The forward copies of `envelope` for the next round: one per
    /// sampled peer, differing in `To`, `MessageID`, `From` and
    /// `wsg:Round` and sharing the payload.
    fn forward(
        state: &mut LayerState,
        envelope: &Envelope,
        header: &GossipHeader,
        grant: &GossipGrant,
    ) -> Vec<Envelope> {
        if header.round >= grant.rounds {
            return Vec::new(); // round budget exhausted
        }
        let mut template = envelope.clone();
        template.remove_header(WSGOSSIP_NS, "Gossip");
        template.push_header(header.next_round().to_element());
        template.addressing_mut().set_from(EndpointReference::new(state.me.clone()));
        let peers = state.sample_peers(grant);
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
        if let Some(grant) = state.grants.get(&header.context_id).cloned() {
            return Self::forward(state, envelope, header, &grant);
        }
        if state.registering.contains(&header.context_id) {
            // Register already in flight: its grant flushes the queue.
            state.pending.entry(header.context_id.clone()).or_default().push(envelope.clone());
            return Vec::new();
        }
        // The registration address travels in the CoordinationContext
        // header of the message itself.
        let registration = envelope
            .header(WSCOOR_NS, "CoordinationContext")
            .and_then(|h| CoordinationContext::from_header(h).ok())
            .map(|c| c.registration_service().to_string());
        let Some(registration) = registration else {
            // No context header: it cannot register, so no grant would
            // ever flush it from the queue — it is not queued.
            return Vec::new();
        };
        state.registering.insert(header.context_id.clone());
        state.pending.entry(header.context_id.clone()).or_default().push(envelope.clone());
        let me = state.me.clone();
        let body = RegistrationService::encode_register(&header.context_id, &me);
        let headers = MessageHeaders::request(registration, actions::register())
            .with_message_id(state.fresh_message_id())
            .with_from(EndpointReference::new(me))
            .with_reply_to(EndpointReference::new(state.me.clone()));
        state.stats.registers_sent += 1;
        vec![Envelope::request(headers, body)]
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
        state.grants.insert(context_id.clone(), grant.clone());
        state.registering.remove(&context_id);
        let queued = state.pending.remove(&context_id).unwrap_or_default();
        for envelope in queued {
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
            && ctx.envelope.addressing().action() == Some(REGISTER_RESPONSE.as_str())
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
            MessageHeaders::request(crate::endpoint::topic_uri("quotes"), actions::notify())
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
            assert_eq!(copy.addressing().action(), Some(actions::notify().as_str()));
        }
        assert_eq!(handle.stats().intercepted, 1);
        assert_eq!(handle.stats().forwards_sent, 2);
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
        assert_eq!(register.addressing().action(), Some(actions::register().as_str()));
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
        let mut body = grant(&["http://node5/gossip", "http://node6/gossip"]).to_register_response();
        body.push_child(
            Element::in_ns("wsg", WSGOSSIP_NS, "ContextIdentifier").with_text("ctx"),
        );
        let response = Envelope::request(
            MessageHeaders::request("http://node2/gossip", actions::register_response()),
            body,
        );
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
        assert_eq!(second.sends[0].addressing().action(), Some(actions::register().as_str()));
        // With the register in flight a bare message waits for the grant too.
        let third = chain.process(Direction::Inbound, bare(2), "http://node2/gossip");
        assert!(third.sends.is_empty());
        assert_eq!(handle.stats().registers_sent, 1);

        let mut body = grant(&["http://node5/gossip", "http://node6/gossip"]).to_register_response();
        body.push_child(Element::in_ns("wsg", WSGOSSIP_NS, "ContextIdentifier").with_text("ctx"));
        let response = Envelope::request(
            MessageHeaders::request("http://node2/gossip", actions::register_response()),
            body,
        );
        let result = chain.process(Direction::Inbound, response, "http://node2/gossip");
        let mut forwarded: Vec<u64> =
            result.sends.iter().map(|copy| GossipHeader::from_envelope(copy).unwrap().seq).collect();
        forwarded.dedup();
        assert_eq!(forwarded, [1, 2], "both queued messages forward, each to the fanout");
        assert_eq!(result.sends.len(), 4);
        assert_eq!(handle.stats().registers_sent, 1);
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
    fn seen_cap_bounds_memory_with_fifo_eviction() {
        let handle = GossipLayerHandle::new("http://node2/gossip", 10);
        handle.set_seen_cap(3);
        handle.set_grant("ctx", grant(&["http://node3/gossip"]));
        let mut chain = chain_with(&handle);
        for seq in 0..10 {
            chain.process(
                Direction::Inbound,
                notification("ctx", "http://node1/gossip", seq, 1),
                "http://node2/gossip",
            );
        }
        assert_eq!(handle.seen_count(), 3, "bounded at the cap");
        // A message inside the window is still deduplicated...
        let result = chain.process(
            Direction::Inbound,
            notification("ctx", "http://node1/gossip", 9, 2),
            "http://node2/gossip",
        );
        assert!(matches!(result.disposition, Disposition::Consumed));
        // ...one outside the window is (by design) re-admitted.
        let result = chain.process(
            Direction::Inbound,
            notification("ctx", "http://node1/gossip", 0, 2),
            "http://node2/gossip",
        );
        assert!(matches!(result.disposition, Disposition::Deliver(_)));
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
