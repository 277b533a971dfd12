//! The WS-Gossip node: one service endpoint with its middleware stack.

use std::collections::BTreeMap;

use wsg_gossip::FifoBuffer;

use wsg_coord::{
    ActivationService, CoordinationContext, CoordinatorSync, GossipGrant, GossipPolicy,
    GossipProtocol, RegistrationService, SubscriptionList,
};
use std::sync::Arc;

use wsg_net::{
    AllLive, Context, NodeId, Pcg32, PeerLiveness, Protocol, RngExt, SimDuration, SimTime,
    SplitMix64, TimerTag,
};
use wsg_soap::gossip::GossipHeader;
use wsg_soap::handler::{Direction, Disposition};
use wsg_soap::{EndpointReference, Envelope, HandlerChain, MessageHeaders, Outgoing, Uuid};
use wsg_xml::Element;

use crate::actions;
use crate::endpoint::{endpoint_of, is_live, node_of, registration_endpoint, topic_uri};
use crate::layer::{GossipLayerHandle, GossipLayerStats};

/// Timer tag for the coordinator replication tick (distributed mode).
pub const COORD_SYNC_TICK: TimerTag = TimerTag(0xC003D);

/// Timer tag driving scheduled publications (self-driving deployments).
pub const PUBLISH_TICK: TimerTag = TimerTag(0x9B71);

/// Timer tag driving subscription lease renewal.
pub const RENEW_TICK: TimerTag = TimerTag(0x2E4E);

/// Interval between coordinator replication gossips.
pub(crate) const COORD_SYNC_INTERVAL: SimDuration = SimDuration::from_millis(250);

/// The four roles of paper §3 / Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Hosts Activation, Registration and the subscription list.
    Coordinator,
    /// Application changed to activate a context and issue one notification.
    Initiator,
    /// Application oblivious; gossip handler configured in the stack.
    Disseminator,
    /// Completely unchanged service.
    Consumer,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Role::Coordinator => "coordinator",
            Role::Initiator => "initiator",
            Role::Disseminator => "disseminator",
            Role::Consumer => "consumer",
        };
        f.write_str(name)
    }
}

/// A notification delivered to the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredOp {
    /// The topic it belongs to ("?" if the gossip header was absent).
    pub topic: String,
    /// Originating endpoint.
    pub origin: String,
    /// Per-origin sequence number.
    pub seq: u64,
    /// Hop count at delivery.
    pub round: u32,
    /// Virtual time of delivery.
    pub at: SimTime,
    /// The application payload.
    pub payload: Element,
}

/// Node-level counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Wire messages received.
    pub messages_received: u64,
    /// Wire messages that failed to parse as SOAP.
    pub parse_errors: u64,
    /// Faults produced by the inbound chain.
    pub faults: u64,
    /// Envelopes that could not be routed to a node.
    pub unroutable: u64,
    /// Application notifications delivered (including duplicates at
    /// consumers, which have no gossip layer to suppress them).
    pub ops_delivered: u64,
    /// Coordinator-sync messages received (distributed coordinator mode).
    pub sync_received: u64,
}

#[derive(Debug)]
struct CoordinatorState {
    activation: ActivationService,
    registration: RegistrationService,
    subscriptions: SubscriptionList,
    // context id -> topic
    topics: BTreeMap<String, String>,
    policy: Option<GossipPolicy>,
    // Peer coordinators (distributed coordinator mode, paper §3).
    peers: Vec<NodeId>,
}

impl CoordinatorState {
    /// The grant for `participant` of `context`: the context's gossip
    /// parameters, and as peers the topic's subscribers and the context's
    /// participants — in that order, each once — less the participant
    /// itself and the members `liveness` reports dead.
    fn grant(
        &self,
        context: &CoordinationContext,
        topic: &str,
        participant: &str,
        liveness: &dyn PeerLiveness,
        now: SimTime,
    ) -> GossipGrant {
        let mut peers = self.subscriptions.subscribers(topic, now.as_millis());
        for p in self.registration.participants(context.identifier()) {
            if !peers.contains(p) {
                peers.push(p.clone());
            }
        }
        peers.retain(|p| p != participant && is_live(liveness, p));
        let params = context.policy().params();
        GossipGrant { fanout: params.fanout(), rounds: params.rounds(), peers }
    }

    /// The `(topic, context id)` of every context whose topic the
    /// subscription key `filter` (an exact topic or a wildcard filter)
    /// covers, in order.
    fn covered_contexts(&self, filter: &str) -> Vec<(&String, &String)> {
        let mut covered: Vec<(&String, &String)> = self
            .topics
            .iter()
            .filter(|(_, topic)| wsg_coord::topics::covers(filter, topic))
            .map(|(id, topic)| (topic, id))
            .collect();
        covered.sort();
        covered
    }
}

#[derive(Debug, Default)]
struct SelfDrive {
    // Subscribe to these topics at startup.
    subscribe: Vec<String>,
    // Activate + publish this schedule: (topic, payloads, interval).
    publish: Option<(String, Vec<Element>, SimDuration)>,
    published: usize,
    // Bounded subscription lease; renewed at half-life while alive.
    subscription_ttl: Option<SimDuration>,
    // Topics this node has subscribed to (for renewal).
    subscribed_topics: Vec<String>,
}

#[derive(Debug, Default)]
struct InitiatorState {
    // topic -> active context
    contexts: BTreeMap<String, CoordinationContext>,
    // topics with an activation in flight
    activating: Vec<String>,
    // notifications queued until their topic's context is ready
    pending: Vec<(String, Element)>,
    next_seq: u64,
}

/// One WS-Gossip node; implements [`wsg_net::Protocol`] over serialized
/// SOAP envelopes. See the [crate docs](crate) for the quickstart.
#[derive(Debug)]
pub struct WsGossipNode {
    me: NodeId,
    role: Role,
    coordinator: NodeId,
    endpoint: String,
    chain: HandlerChain,
    layer: Option<GossipLayerHandle>,
    coord: Option<CoordinatorState>,
    init: InitiatorState,
    ops: Vec<DeliveredOp>,
    events: Vec<String>,
    stats: NodeStats,
    rng: Pcg32,
    drive: SelfDrive,
    // Per-origin FIFO reordering of app deliveries, when enabled, keyed
    // by the origin endpoint.
    fifo: Option<FifoBuffer<String, DeliveredOp>>,
    // Reusable serialisation buffer: every outbound envelope is written
    // into it, so steady-state transmits reuse one allocation per node.
    scratch: String,
    // Liveness oracle: coordinator grants and layer peer sampling exclude
    // members it reports dead. `AllLive` for static deployments.
    liveness: Arc<dyn PeerLiveness>,
}

impl WsGossipNode {
    fn new(me: NodeId, role: Role, coordinator: NodeId) -> Self {
        let endpoint = endpoint_of(me);
        let layer = match role {
            Role::Initiator | Role::Disseminator => Some(GossipLayerHandle::new(endpoint.clone(), 0)),
            _ => None,
        };
        let mut chain = HandlerChain::new();
        if let Some(layer) = &layer {
            chain.push(Box::new(layer.handler()));
        }
        let coord = match role {
            Role::Coordinator => Some(CoordinatorState {
                activation: ActivationService::new(
                    crate::endpoint::activation_endpoint(me),
                    registration_endpoint(me),
                ),
                registration: RegistrationService::new(),
                subscriptions: SubscriptionList::new(),
                topics: BTreeMap::new(),
                policy: None,
                peers: Vec::new(),
            }),
            _ => None,
        };
        WsGossipNode {
            me,
            role,
            coordinator,
            endpoint,
            chain,
            layer,
            coord,
            init: InitiatorState::default(),
            ops: Vec::new(),
            events: Vec::new(),
            stats: NodeStats::default(),
            rng: Pcg32::new(0, 0), // `with_seed` below draws the real stream
            drive: SelfDrive::default(),
            fifo: None,
            scratch: String::new(),
            liveness: Arc::new(AllLive),
        }
        .with_seed(0)
    }

    /// A Coordinator node.
    pub fn coordinator(me: NodeId) -> Self {
        Self::new(me, Role::Coordinator, me)
    }

    /// An Initiator whose coordinator is `coordinator`.
    pub fn initiator(me: NodeId, coordinator: NodeId) -> Self {
        Self::new(me, Role::Initiator, coordinator)
    }

    /// A Disseminator (gossip handler in the stack, app oblivious).
    pub fn disseminator(me: NodeId, coordinator: NodeId) -> Self {
        Self::new(me, Role::Disseminator, coordinator)
    }

    /// A Consumer (completely unchanged service).
    pub fn consumer(me: NodeId, coordinator: NodeId) -> Self {
        Self::new(me, Role::Consumer, coordinator)
    }

    /// Builder: replace the deterministic seed (varies peer-sampling).
    pub(crate) fn with_seed(mut self, seed: u64) -> Self {
        let mut seeder = SplitMix64::new(seed ^ (self.me.index() as u64).wrapping_mul(0x9E37));
        if let Some(layer) = &self.layer {
            layer.reseed(seeder.next());
        }
        self.rng = Pcg32::new(seeder.next(), self.me.index() as u64);
        self
    }

    /// Builder (coordinator only): fix the gossip policy handed to new
    /// contexts instead of sizing from the subscriber count.
    pub fn with_policy(mut self, policy: GossipPolicy) -> Self {
        if let Some(coord) = &mut self.coord {
            coord.policy = Some(policy);
        }
        self
    }

    /// Builder: subscribe with a bounded lease of `ttl`, renewed
    /// automatically at half-life (WS-Eventing-style expirations): a
    /// crashed subscriber silently ages out of the coordinator's list
    /// instead of being gossiped to forever.
    pub fn with_subscription_ttl(mut self, ttl: SimDuration) -> Self {
        self.drive.subscription_ttl = Some(ttl);
        self
    }

    /// Builder: deliver notifications to the application in per-origin
    /// FIFO order (hold out-of-order arrivals until the gap fills). The
    /// ordering guarantee the stock-ticker scenario needs.
    pub fn with_fifo_delivery(mut self) -> Self {
        self.fifo = Some(FifoBuffer::new());
        self
    }

    /// Builder: subscribe to `topic` automatically at startup, so the node
    /// needs no external driver (live `ThreadNet` deployments).
    pub fn with_auto_subscribe(mut self, topic: impl Into<String>) -> Self {
        self.drive.subscribe.push(topic.into());
        self
    }

    /// Builder (initiator only): at startup activate `topic` and publish
    /// the given payloads one per `interval` — a fully self-driving
    /// publisher for live deployments.
    pub fn with_publish_schedule(
        mut self,
        topic: impl Into<String>,
        payloads: Vec<Element>,
        interval: SimDuration,
    ) -> Self {
        self.drive.publish = Some((topic.into(), payloads, interval));
        self
    }

    /// Builder: consult a liveness oracle (a `wsg_cluster` membership
    /// plane in live deployments) when building gossip grants and when
    /// the gossip layer samples per-round forward targets — members the
    /// oracle reports dead stop being gossip destinations immediately,
    /// without waiting for their subscription lease to expire.
    pub fn with_liveness(mut self, liveness: Arc<dyn PeerLiveness>) -> Self {
        if let Some(layer) = &self.layer {
            layer.set_liveness(Arc::clone(&liveness));
        }
        self.liveness = liveness;
        self
    }

    /// Builder (coordinator only): enter distributed-coordinator mode with
    /// the given peer coordinators — "the list of subscribers can be
    /// maintained in a distributed fashion as proposed by WS-Membership"
    /// (paper §3). State replicates by periodic gossip; see
    /// [`wsg_coord::CoordinatorSync`].
    pub(crate) fn with_coordinator_peers(mut self, peers: Vec<NodeId>) -> Self {
        if let Some(coord) = &mut self.coord {
            coord.peers = peers.into_iter().filter(|p| *p != self.me).collect();
        }
        self
    }

    /// This node's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// This node's endpoint URI.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Application-level deliveries, in order (consumers may see
    /// duplicates; see [`WsGossipNode::distinct_ops`]).
    pub fn ops(&self) -> &[DeliveredOp] {
        &self.ops
    }

    /// Deliveries deduplicated by (origin, seq).
    pub fn distinct_ops(&self) -> Vec<&DeliveredOp> {
        let mut seen = std::collections::BTreeSet::new();
        self.ops
            .iter()
            .filter(|op| seen.insert((op.origin.clone(), op.seq)))
            .collect()
    }

    /// Human-readable control-plane log: subscriptions, activations,
    /// registrations, contexts becoming ready, faults. Publications and
    /// deliveries are not logged here — [`ops`](Self::ops) records them.
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// Node counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Gossip-layer counters, when the role has a gossip layer.
    pub fn layer_stats(&self) -> Option<GossipLayerStats> {
        self.layer.as_ref().map(|l| l.stats())
    }

    /// Export this node's counters into `registry` as `wsg_node_*` /
    /// `wsg_layer_*` families (plus the coordinator's `wsg_coord_*`
    /// families when this node hosts the coordination services).
    ///
    /// Observe-only snapshot: all sources are monotone, so re-exporting
    /// after more progress keeps every counter monotone. Safe to call
    /// from bench/report code without perturbing the simulation.
    pub fn export_metrics(&self, registry: &wsg_obs::Registry, now: SimTime) {
        let set = |name: &str, help: &str, value: u64| {
            registry.register_counter(name, help).set(value);
        };
        set(
            "wsg_node_messages_received_total",
            "Wire messages received by the node.",
            self.stats.messages_received,
        );
        set(
            "wsg_node_parse_errors_total",
            "Wire messages that failed to parse as SOAP.",
            self.stats.parse_errors,
        );
        set(
            "wsg_node_faults_total",
            "Faults produced by the inbound handler chain.",
            self.stats.faults,
        );
        set(
            "wsg_node_unroutable_total",
            "Envelopes that could not be routed to a node.",
            self.stats.unroutable,
        );
        set(
            "wsg_node_ops_delivered_total",
            "Application notifications delivered.",
            self.stats.ops_delivered,
        );
        set(
            "wsg_node_sync_received_total",
            "Coordinator-sync messages received.",
            self.stats.sync_received,
        );
        if let Some(layer) = self.layer_stats() {
            set(
                "wsg_layer_intercepted_total",
                "Outgoing notifications intercepted by the gossip layer.",
                layer.intercepted,
            );
            set(
                "wsg_layer_forwards_sent_total",
                "Forward copies re-routed to peers by the gossip layer.",
                layer.forwards_sent,
            );
            set(
                "wsg_layer_forwards_suppressed_total",
                "Sampled forward targets skipped because they provably hold the message.",
                layer.forwards_suppressed,
            );
            set(
                "wsg_layer_registers_sent_total",
                "Register calls issued for unknown gossip interactions.",
                layer.registers_sent,
            );
            set(
                "wsg_layer_duplicates_suppressed_total",
                "Inbound copies suppressed as duplicates by the gossip layer.",
                layer.duplicates_suppressed,
            );
            set(
                "wsg_layer_pending_shed_total",
                "Queued messages shed from a context still waiting for its grant.",
                layer.pending_shed,
            );
        }
        if let Some(coord) = &self.coord {
            wsg_coord::obs::export(
                registry,
                &coord.activation,
                &coord.registration,
                &coord.subscriptions,
                now.as_millis(),
            );
        }
    }

    /// Coordinator: number of active subscribers of `topic`.
    pub fn subscriber_count(&self, topic: &str, now: SimTime) -> usize {
        self.coord
            .as_ref()
            .map(|c| c.subscriptions.subscriber_count(topic, now.as_millis()))
            .unwrap_or(0)
    }

    /// Coordinator: all known subscriber endpoints of a topic (post-sync
    /// in distributed mode this includes subscriptions taken elsewhere).
    pub fn subscribers_of(&self, topic: &str, now: SimTime) -> Vec<String> {
        self.coord
            .as_ref()
            .map(|c| c.subscriptions.subscribers(topic, now.as_millis()))
            .unwrap_or_default()
    }

    /// Coordinator: number of registered participants of a context.
    pub fn participant_count(&self, context_id: &str) -> usize {
        self.coord
            .as_ref()
            .map(|c| c.registration.participant_count(context_id))
            .unwrap_or(0)
    }

    /// Initiator: the active context for `topic`, once activation completed.
    pub fn context_for(&self, topic: &str) -> Option<&CoordinationContext> {
        self.init.contexts.get(topic)
    }

    fn log(&mut self, now: SimTime, line: impl Into<String>) {
        self.events.push(format!("[{now}] {}", line.into()));
    }

    fn fresh_id(&mut self) -> String {
        Uuid::random(&mut self.rng).to_urn()
    }

    // ----- public operations (drive via SimNet::invoke) -----

    /// Subscribe this node to `topic` at its coordinator (consumers and
    /// disseminators in Figure 1 all subscribe). With a configured
    /// [`WsGossipNode::with_subscription_ttl`], the lease is bounded and
    /// auto-renewed.
    pub fn subscribe(&mut self, topic: &str, ctx: &mut dyn Context<String>) {
        let expiry = match self.drive.subscription_ttl {
            Some(ttl) => (ctx.now() + ttl).as_millis(),
            None => u64::MAX,
        };
        if !self.drive.subscribed_topics.iter().any(|t| t == topic) {
            self.drive.subscribed_topics.push(topic.to_string());
            if let Some(ttl) = self.drive.subscription_ttl {
                ctx.set_timer(ttl.div(2), RENEW_TICK);
            }
        }
        let body = SubscriptionList::encode_subscribe(topic, &self.endpoint, expiry);
        let headers = MessageHeaders::request(
            endpoint_of(self.coordinator),
            actions::SUBSCRIBE,
        )
        .with_message_id(self.fresh_id())
        .with_from(EndpointReference::new(self.endpoint.clone()))
        .with_reply_to(EndpointReference::new(self.endpoint.clone()));
        self.log(ctx.now(), format!("subscribe topic={topic}"));
        self.transmit(Envelope::request(headers, body), ctx);
    }

    /// Cancel this node's subscription to `topic`.
    pub fn unsubscribe(&mut self, topic: &str, ctx: &mut dyn Context<String>) {
        let body = SubscriptionList::encode_unsubscribe(topic, &self.endpoint);
        let headers = MessageHeaders::request(
            endpoint_of(self.coordinator),
            actions::UNSUBSCRIBE,
        )
        .with_message_id(self.fresh_id())
        .with_from(EndpointReference::new(self.endpoint.clone()));
        self.log(ctx.now(), format!("unsubscribe topic={topic}"));
        self.transmit(Envelope::request(headers, body), ctx);
    }

    /// Initiator: activate a gossip coordination context for `topic`.
    pub fn activate(&mut self, protocol: GossipProtocol, topic: &str, ctx: &mut dyn Context<String>) {
        assert_eq!(self.role, Role::Initiator, "only initiators activate");
        let body = ActivationService::encode_request(protocol, topic);
        let headers = MessageHeaders::request(
            endpoint_of(self.coordinator),
            actions::CREATE_CONTEXT,
        )
        .with_message_id(self.fresh_id())
        .with_from(EndpointReference::new(self.endpoint.clone()))
        .with_reply_to(EndpointReference::new(self.endpoint.clone()));
        self.init.activating.push(topic.to_string());
        self.log(ctx.now(), format!("activate protocol={protocol:?} topic={topic}"));
        self.transmit(Envelope::request(headers, body), ctx);
    }

    /// Initiator: publish `payload` on `topic` — the "single notification"
    /// of paper §3. Queues until activation completes.
    pub fn notify(&mut self, topic: &str, payload: Element, ctx: &mut dyn Context<String>) {
        assert_eq!(self.role, Role::Initiator, "only initiators notify");
        if self.init.contexts.contains_key(topic) {
            self.do_notify(topic.to_string(), payload, ctx);
        } else {
            assert!(
                self.init.activating.iter().any(|t| t == topic),
                "notify on topic '{topic}' with no activation requested"
            );
            self.init.pending.push((topic.to_string(), payload));
        }
    }

    fn do_notify(&mut self, topic: String, payload: Element, ctx: &mut dyn Context<String>) {
        let context = self.init.contexts.get(&topic).expect("context ready").clone();
        let seq = self.init.next_seq;
        self.init.next_seq += 1;
        let headers = MessageHeaders::request(topic_uri(&topic), actions::NOTIFY)
            .with_message_id(self.fresh_id())
            .with_from(EndpointReference::new(self.endpoint.clone()));
        let gossip = GossipHeader {
            context_id: context.identifier().into(),
            topic: topic.as_str().into(),
            origin: self.endpoint.as_str().into(),
            seq,
            round: 0,
        };
        let envelope = Envelope::request(headers, payload)
            .with_header(context.to_header())
            .with_header(gossip.to_element());
        // The outbound middleware stack intercepts and re-routes.
        let result = self.chain.process(Direction::Outbound, envelope);
        self.transmit_all(result.sends, ctx);
    }

    // ----- internals -----

    fn send_coordinator_sync(&mut self, ctx: &mut dyn Context<String>) {
        let Some(coord) = &self.coord else { return };
        if coord.peers.is_empty() {
            return;
        }
        let snapshot = CoordinatorSync {
            subscriptions: coord.subscriptions.snapshot(),
            registrations: coord.registration.snapshot(),
            contexts: coord
                .activation
                .snapshot()
                .into_iter()
                .map(|c| {
                    let topic = coord
                        .topics
                        .get(c.identifier())
                        .cloned()
                        .unwrap_or_default();
                    (c, topic)
                })
                .collect(),
        };
        let peer = *self.rng.choose(&coord.peers).expect("non-empty");
        let headers = MessageHeaders::request(endpoint_of(peer), actions::COORDINATOR_SYNC)
            .with_message_id(self.fresh_id())
            .with_from(EndpointReference::new(self.endpoint.clone()));
        self.transmit(Envelope::request(headers, snapshot.to_element()), ctx);
    }

    fn handle_coordinator_sync(&mut self, envelope: Envelope, ctx: &mut dyn Context<String>) {
        self.stats.sync_received += 1;
        let now = ctx.now();
        let Some(body) = envelope.body() else { return };
        let Ok(sync) = CoordinatorSync::from_element(body) else {
            self.stats.faults += 1;
            return;
        };
        let Some(coord) = &mut self.coord else { return };
        let mut merged = 0usize;
        for (topic, endpoint, expires) in &sync.subscriptions {
            if coord.subscriptions.merge_subscription(topic, endpoint.clone(), *expires) {
                merged += 1;
            }
        }
        for (context_id, participant) in &sync.registrations {
            if coord.registration.register(context_id, participant.clone()) {
                merged += 1;
            }
        }
        for (context, topic) in &sync.contexts {
            coord.activation.adopt(context.clone(), now);
            coord.topics.entry(context.identifier().to_string()).or_insert_with(|| topic.clone());
        }
        if merged > 0 {
            self.log(now, format!("coordinator sync merged {merged} entries"));
        }
    }

    fn transmit(&mut self, envelope: Envelope, ctx: &mut dyn Context<String>) {
        let Some(to) = envelope.addressing().to().and_then(node_of) else {
            self.stats.unroutable += 1;
            return;
        };
        // Serialise into the node's scratch buffer; only the final
        // wire-sized copy for the network allocates.
        envelope.write_xml(&mut self.scratch);
        ctx.send(to, self.scratch.clone());
    }

    /// Hand what the handler chain asked to send to the network.
    fn transmit_all(&mut self, sends: Vec<Outgoing>, ctx: &mut dyn Context<String>) {
        for send in sends {
            match send {
                Outgoing::Envelope(envelope) => self.transmit(envelope, ctx),
                Outgoing::Copies { template, heads } => {
                    // One serialisation for all the copies: each is the
                    // frame with its own `To` and `MessageID` spliced in.
                    let frame = template.write_copy_frame(&mut self.scratch);
                    for (to, message_id) in &heads {
                        match node_of(to) {
                            Some(node) => ctx.send(node, frame.copy(to, message_id)),
                            None => self.stats.unroutable += 1,
                        }
                    }
                }
            }
        }
    }

    fn reply_headers(&mut self, request: &Envelope, action: &str) -> Option<MessageHeaders> {
        let to = request
            .addressing()
            .reply_to()
            .map(|epr| epr.address().to_string())
            .or_else(|| request.addressing().from().map(|epr| epr.address().to_string()))?;
        let mut headers = MessageHeaders::request(to, action)
            .with_message_id(self.fresh_id())
            .with_from(EndpointReference::new(self.endpoint.clone()));
        if let Some(id) = request.addressing().message_id() {
            headers = headers.with_relates_to(id.to_string());
        }
        Some(headers)
    }

    /// Hand a delivered message to the handler of its action, with the
    /// gossip header the chain decoded, if it decoded one.
    fn dispatch(&mut self, envelope: Envelope, gossip: Option<GossipHeader<'static>>, ctx: &mut dyn Context<String>) {
        if let Some(fault) = envelope.as_fault() {
            self.stats.faults += 1;
            let code = fault.code();
            self.log(ctx.now(), format!("fault received: {code}"));
            return;
        }
        if envelope.addressing().action() == Some(actions::NOTIFY) {
            return self.handle_notify(envelope, gossip, ctx);
        }
        // The action borrows the envelope; pick the handler, then hand
        // the envelope over.
        let handle: fn(&mut Self, Envelope, &mut dyn Context<String>) =
            match envelope.addressing().action().unwrap_or("") {
                actions::CREATE_CONTEXT => Self::handle_create_context,
                actions::REGISTER => Self::handle_register,
                actions::SUBSCRIBE => Self::handle_subscribe,
                actions::UNSUBSCRIBE => Self::handle_unsubscribe,
                actions::CREATE_CONTEXT_RESPONSE => Self::handle_context_response,
                actions::SUBSCRIBE_RESPONSE => {
                    self.log(ctx.now(), "subscription acknowledged".to_string());
                    return;
                }
                actions::COORDINATOR_SYNC => Self::handle_coordinator_sync,
                _ => {
                    // Unknown action: a fault back to the sender would be the
                    // full WS behaviour; counting suffices for the experiments.
                    self.stats.unroutable += 1;
                    return;
                }
            };
        handle(self, envelope, ctx);
    }

    fn handle_create_context(&mut self, envelope: Envelope, ctx: &mut dyn Context<String>) {
        let now = ctx.now();
        let Some(body) = envelope.body() else { return };
        let Ok((protocol, topic)) = ActivationService::decode_request(body) else {
            self.stats.faults += 1;
            return;
        };
        let requester = envelope
            .addressing()
            .from()
            .map(|epr| epr.address().to_string())
            .unwrap_or_default();

        let Some(coord) = &mut self.coord else { return };
        let subscriber_count = coord.subscriptions.subscriber_count(&topic, now.as_millis());
        let policy = coord
            .policy
            .clone()
            .unwrap_or_else(|| GossipPolicy::atomic_for(subscriber_count.max(2)));
        let context = coord.activation.create_context(protocol, policy, now);
        coord.topics.insert(context.identifier().to_string(), topic.clone());
        coord.registration.register(context.identifier(), requester.clone());
        // The requester is the context's one participant: its grant names
        // the current subscribers.
        let grant = coord.grant(&context, &topic, &requester, &*self.liveness, now);
        let body = ActivationService::encode_response(&context, &grant, &topic);
        self.log(now, format!(
            "created context {} (topic={topic}, subscribers={subscriber_count})",
            context.identifier()
        ));
        if let Some(headers) = self.reply_headers(&envelope, actions::CREATE_CONTEXT_RESPONSE) {
            self.transmit(Envelope::request(headers, body), ctx);
        }
    }

    fn handle_register(&mut self, envelope: Envelope, ctx: &mut dyn Context<String>) {
        let now = ctx.now();
        let Some(body) = envelope.body() else { return };
        let Ok((context_id, participant)) = RegistrationService::decode_register(body) else {
            self.stats.faults += 1;
            return;
        };
        let Some(coord) = &mut self.coord else { return };
        coord.registration.register(&context_id, participant.clone());
        let Ok(context) = coord.activation.lookup(&context_id, now) else {
            self.stats.faults += 1;
            return;
        };
        let topic = coord.topics.get(&context_id).map_or("", String::as_str);
        let grant = coord.grant(context, topic, &participant, &*self.liveness, now);
        let body = grant.to_register_response(&context_id);
        self.log(now, format!("registered {participant} in {context_id}"));
        if let Some(headers) = self.reply_headers(&envelope, actions::REGISTER_RESPONSE) {
            self.transmit(Envelope::request(headers, body), ctx);
        }
    }

    fn handle_subscribe(&mut self, envelope: Envelope, ctx: &mut dyn Context<String>) {
        let now = ctx.now();
        let Some(body) = envelope.body() else { return };
        let Ok((topic, endpoint, expires)) = SubscriptionList::decode_subscribe(body) else {
            self.stats.faults += 1;
            return;
        };
        let Some(coord) = &mut self.coord else { return };
        coord.subscriptions.subscribe(&topic, endpoint.clone(), expires);
        self.log(now, format!("subscription {endpoint} -> {topic}"));
        // The coordinator "knows the entire list of subscribers" and
        // provides "peers for each gossip round" (§3): push refreshed
        // grants so new subscribers become gossip targets immediately.
        self.push_grant_updates(&topic, ctx);
        let ack = SubscriptionList::encode_subscribe_response();
        if let Some(headers) = self.reply_headers(&envelope, actions::SUBSCRIBE_RESPONSE) {
            self.transmit(Envelope::request(headers, ack), ctx);
        }
    }

    fn handle_unsubscribe(&mut self, envelope: Envelope, ctx: &mut dyn Context<String>) {
        let now = ctx.now();
        let Some(body) = envelope.body() else { return };
        let Ok((topic, endpoint)) = SubscriptionList::decode_unsubscribe(body) else {
            self.stats.faults += 1;
            return;
        };
        let Some(coord) = &mut self.coord else { return };
        coord.subscriptions.unsubscribe(&topic, &endpoint);
        // The endpoint may also be a registered gossip participant; remove
        // it from every context the key covers so grants stop naming it.
        let contexts: Vec<String> =
            coord.covered_contexts(&topic).into_iter().map(|(_, id)| id.clone()).collect();
        for context_id in &contexts {
            coord.registration.deregister(context_id, &endpoint);
        }
        self.log(now, format!("unsubscribed {endpoint} from {topic}"));
        self.push_grant_updates(&topic, ctx);
    }

    /// Push refreshed grants to the current participants of every context
    /// the subscription key `filter` covers (subscription list changed) —
    /// a wildcard filter may cover several interactions' concrete topics.
    fn push_grant_updates(&mut self, filter: &str, ctx: &mut dyn Context<String>) {
        let now = ctx.now();
        let Some(coord) = &self.coord else { return };
        let mut updates = Vec::new();
        for (topic, context_id) in coord.covered_contexts(filter) {
            let Ok(context) = coord.activation.lookup(context_id, now) else { continue };
            for participant in coord.registration.participants(context_id) {
                let grant = coord.grant(context, topic, participant, &*self.liveness, now);
                updates.push((participant.clone(), grant.to_register_response(context_id)));
            }
        }
        for (participant, body) in updates {
            let headers = MessageHeaders::request(participant, actions::REGISTER_RESPONSE)
                .with_message_id(self.fresh_id())
                .with_from(EndpointReference::new(self.endpoint.clone()));
            self.transmit(Envelope::request(headers, body), ctx);
        }
    }

    fn handle_context_response(&mut self, envelope: Envelope, ctx: &mut dyn Context<String>) {
        let now = ctx.now();
        let Some(body) = envelope.body() else { return };
        let Ok((context, grant, topic)) = ActivationService::decode_response(body) else {
            self.stats.faults += 1;
            return;
        };
        if let (Some(grant), Some(layer)) = (grant, &self.layer) {
            layer.set_grant(context.identifier(), grant);
        }
        self.log(now, format!("context ready {} (topic={topic})", context.identifier()));
        self.init.contexts.insert(topic.clone(), context);
        self.init.activating.retain(|t| t != &topic);
        // Flush notifications that were waiting for this topic.
        let ready: Vec<(String, Element)> = {
            let (flush, keep): (Vec<_>, Vec<_>) = self
                .init
                .pending
                .drain(..)
                .partition(|(t, _)| *t == topic);
            self.init.pending = keep;
            flush
        };
        for (topic, payload) in ready {
            self.do_notify(topic, payload, ctx);
        }
    }

    /// Deliver a notification. `gossip` is its header as the gossip layer
    /// decoded it; a node without one decodes it here.
    fn handle_notify(&mut self, envelope: Envelope, gossip: Option<GossipHeader<'static>>, ctx: &mut dyn Context<String>) {
        let now = ctx.now();
        let header = gossip.or_else(|| GossipHeader::from_envelope(&envelope));
        let sequenced = header.is_some();
        let (topic, origin, seq, round) = match header {
            Some(h) => (h.topic.into_owned(), h.origin.into_owned(), h.seq, h.round),
            None => {
                let from = envelope.addressing().from().map(|epr| epr.address().to_string());
                ("?".into(), from.unwrap_or_else(|| "?".into()), 0, 0)
            }
        };
        let payload = envelope.into_body().unwrap_or_else(|| Element::new("empty"));
        let op = DeliveredOp { topic, origin, seq, round, at: now, payload };
        match &mut self.fifo {
            // Only a gossip header gives a notification a sequence to
            // order by; FIFO streams are per origin endpoint.
            Some(fifo) if sequenced => {
                let origin = op.origin.clone();
                for op in fifo.accept(origin.as_str(), seq, op) {
                    self.deliver(op);
                }
            }
            _ => self.deliver(op),
        }
    }

    /// Hand one notification to the application: count it, keep it.
    fn deliver(&mut self, op: DeliveredOp) {
        self.stats.ops_delivered += 1;
        // `ops` keeps every delivery for the node's lifetime: grow it by a
        // quarter at a time — `Vec`'s doubling would leave up to half of
        // the largest thing a busy node owns unused.
        if self.ops.len() == self.ops.capacity() {
            self.ops.reserve_exact(self.ops.len() / 4 + 16);
        }
        self.ops.push(op);
    }
}

impl Protocol for WsGossipNode {
    type Message = String;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Message>) {
        if self.coord.as_ref().is_some_and(|c| !c.peers.is_empty()) {
            ctx.set_timer(COORD_SYNC_INTERVAL, COORD_SYNC_TICK);
        }
        for topic in self.drive.subscribe.clone() {
            self.subscribe(&topic, ctx);
        }
        if let Some((topic, _, interval)) = self.drive.publish.clone() {
            self.activate(GossipProtocol::Push, &topic, ctx);
            ctx.set_timer(interval, PUBLISH_TICK);
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<Self::Message>) {
        if tag == RENEW_TICK {
            if let Some(ttl) = self.drive.subscription_ttl {
                for topic in self.drive.subscribed_topics.clone() {
                    let expiry = (ctx.now() + ttl).as_millis();
                    let body =
                        SubscriptionList::encode_subscribe(&topic, &self.endpoint, expiry);
                    let headers = MessageHeaders::request(
                        endpoint_of(self.coordinator),
                        actions::SUBSCRIBE,
                    )
                    .with_message_id(self.fresh_id())
                    .with_from(EndpointReference::new(self.endpoint.clone()));
                    self.transmit(Envelope::request(headers, body), ctx);
                }
                ctx.set_timer(ttl.div(2), RENEW_TICK);
            }
            return;
        }
        if tag == PUBLISH_TICK {
            if let Some((topic, payloads, interval)) = self.drive.publish.clone() {
                if let Some(payload) = payloads.get(self.drive.published).cloned() {
                    self.drive.published += 1;
                    self.notify(&topic, payload, ctx);
                    if self.drive.published < payloads.len() {
                        ctx.set_timer(interval, PUBLISH_TICK);
                    }
                }
            }
            return;
        }
        if tag != COORD_SYNC_TICK {
            return;
        }
        // Housekeeping: drop expired subscriptions and contexts, then
        // gossip the fresh snapshot to one random peer coordinator.
        let now = ctx.now();
        if let Some(coord) = &mut self.coord {
            coord.subscriptions.expire(now.as_millis());
            coord.activation.expire(now);
        }
        self.send_coordinator_sync(ctx);
        ctx.set_timer(COORD_SYNC_INTERVAL, COORD_SYNC_TICK);
    }

    fn on_message(&mut self, _from: NodeId, xml: String, ctx: &mut dyn Context<String>) {
        self.stats.messages_received += 1;
        let envelope = match Envelope::parse_owned(xml) {
            Ok(env) => env,
            Err(_) => {
                self.stats.parse_errors += 1;
                return;
            }
        };
        let result = self.chain.process(Direction::Inbound, envelope);
        self.transmit_all(result.sends, ctx);
        match result.disposition {
            Disposition::Deliver(envelope) => self.dispatch(envelope, result.gossip, ctx),
            Disposition::Consumed => {}
            Disposition::Faulted(_) => self.stats.faults += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_have_expected_stacks() {
        let coordinator = WsGossipNode::coordinator(NodeId(0));
        let initiator = WsGossipNode::initiator(NodeId(1), NodeId(0));
        let disseminator = WsGossipNode::disseminator(NodeId(2), NodeId(0));
        let consumer = WsGossipNode::consumer(NodeId(3), NodeId(0));
        assert!(coordinator.layer_stats().is_none());
        assert!(initiator.layer_stats().is_some());
        assert!(disseminator.layer_stats().is_some());
        assert!(consumer.layer_stats().is_none(), "consumers are unchanged");
        assert_eq!(consumer.role(), Role::Consumer);
        // The gossip layer is the one handler a role adds to its stack.
        assert_eq!((initiator.chain.len(), disseminator.chain.len()), (1, 1));
        assert!(coordinator.chain.is_empty() && consumer.chain.is_empty());
    }

    #[test]
    fn the_coordinator_grants_everyone_but_the_registering_node() {
        use crate::scenario::{activate, build_figure1_network, notify, subscribe_all, Figure1Shape};
        let shape = Figure1Shape { disseminators: 3, consumers: 1 };
        let mut net = build_figure1_network(wsg_net::sim::SimConfig::default().seed(5), shape);
        subscribe_all(&mut net, "quotes");
        net.run_to_quiescence();
        activate(&mut net, "quotes");
        net.run_to_quiescence();
        notify(&mut net, "quotes", Element::text_node("tick", "ACME 101.25"));
        net.run_to_quiescence();
        let context = net.node(NodeId(1)).context_for("quotes").expect("activated");
        let context = context.identifier().to_string();
        // Every node with a gossip layer registered; its grant names the
        // other participants and subscribers, never itself.
        for id in (1..5).map(NodeId) {
            let node = net.node(id);
            let grant = node.layer.as_ref().and_then(|layer| layer.grant(&context)).expect("granted");
            let others: Vec<String> =
                (1..6).filter(|&n| n != id.index()).map(|n| endpoint_of(NodeId(n))).collect();
            let mut peers = grant.peers.clone();
            peers.sort();
            assert_eq!(peers, others, "{id}");
        }
    }

    #[test]
    fn a_wildcard_unsubscribe_leaves_every_context_its_filter_covers() {
        use crate::scenario::{activate, build_figure1_network, notify, subscribe_all, Figure1Shape};
        let shape = Figure1Shape { disseminators: 3, consumers: 0 };
        let mut net = build_figure1_network(wsg_net::sim::SimConfig::default().seed(5), shape);
        subscribe_all(&mut net, "market/*");
        net.run_to_quiescence();
        activate(&mut net, "market/ibm");
        net.run_to_quiescence();
        notify(&mut net, "market/ibm", Element::text_node("tick", "IBM 131.20"));
        net.run_to_quiescence();
        let context = net.node(NodeId(1)).context_for("market/ibm").expect("activated");
        let context = context.identifier().to_string();
        let leaver = NodeId(4);
        let gone = endpoint_of(leaver);
        let participants = |net: &wsg_net::sim::SimNet<WsGossipNode>| {
            let coord = net.node(NodeId(0)).coord.as_ref().expect("coordinator");
            coord.registration.participants(&context).to_vec()
        };
        let named_by = |net: &wsg_net::sim::SimNet<WsGossipNode>, id: NodeId| {
            let layer = net.node(id).layer.as_ref().expect("gossip layer");
            layer.grant(&context).expect("granted").peers.contains(&gone)
        };
        // Its first copy made the leaver a participant, in everyone's grant.
        assert!(participants(&net).contains(&gone));
        assert!((1..4).all(|id| named_by(&net, NodeId(id))));

        net.invoke(leaver, |node, ctx| node.unsubscribe("market/*", ctx));
        net.run_to_quiescence();
        assert!(!participants(&net).contains(&gone));
        for id in (1..4).map(NodeId) {
            assert!(!named_by(&net, id), "{id} still gossips to {gone}");
        }
    }

    #[test]
    fn fifo_delivery_keys_on_the_origin_endpoint_and_passes_headerless_notifications() {
        use wsg_net::sim::{SimConfig, SimNet};
        let notification = |sender: &str, gossip: Option<(&str, u64)>, text: &str| {
            let headers = MessageHeaders::request(endpoint_of(NodeId(1)), actions::NOTIFY)
                .with_message_id(format!("urn:uuid:{text}"))
                .with_from(EndpointReference::new(sender));
            let envelope = Envelope::request(headers, Element::text_node("op", text));
            match gossip {
                Some((origin, seq)) => envelope.with_header(
                    GossipHeader {
                        context_id: "ctx".into(),
                        topic: "t".into(),
                        origin: origin.into(),
                        seq,
                        round: 1,
                    }
                    .to_element(),
                ),
                None => envelope,
            }
            .to_xml()
        };
        let mut net = SimNet::new(SimConfig::default());
        let id = net.add_node(WsGossipNode::consumer(NodeId(1), NodeId(0)).with_fifo_delivery());
        let inbound = [
            // No header, so no sequence: each one is delivered as it comes.
            notification("http://node2/gossip", None, "bare-1"),
            notification("http://node2/gossip", None, "bare-2"),
            // Two origins outside `http://nodeN/…` are two streams...
            notification("http://node2/gossip", Some(("urn:external:a", 0)), "a0"),
            notification("http://node2/gossip", Some(("urn:external:b", 0)), "b0"),
            // ...each reordered on its own.
            notification("http://node2/gossip", Some(("urn:external:a", 2)), "a2"),
            notification("http://node2/gossip", Some(("urn:external:b", 1)), "b1"),
            notification("http://node2/gossip", Some(("urn:external:a", 1)), "a1"),
            notification("http://node2/gossip", Some(("urn:external:a", 1)), "a1-again"),
        ];
        for xml in inbound {
            net.invoke(id, move |node, ctx| node.on_message(NodeId(2), xml, ctx));
        }
        let delivered: Vec<String> = net.node(id).ops().iter().map(|op| op.payload.text()).collect();
        assert_eq!(delivered, ["bare-1", "bare-2", "a0", "b0", "b1", "a1", "a2"]);
    }

    #[test]
    fn with_seed_keeps_earlier_builder_calls() {
        #[derive(Debug)]
        struct NobodyLive;
        impl PeerLiveness for NobodyLive {
            fn is_live(&self, _: NodeId) -> bool {
                false
            }
        }
        let ttl = SimDuration::from_secs(3);
        let configured = || {
            WsGossipNode::disseminator(NodeId(2), NodeId(0))
                .with_subscription_ttl(ttl)
                .with_fifo_delivery()
                .with_auto_subscribe("quotes")
                .with_liveness(Arc::new(NobodyLive))
        };
        let mut node = configured().with_seed(9);
        assert_eq!(node.drive.subscription_ttl, Some(ttl));
        assert_eq!(node.drive.subscribe, ["quotes"]);
        assert!(node.fifo.is_some());
        assert!(!node.liveness.is_live(NodeId(1)));

        let peers = vec![NodeId(1), NodeId(2)];
        let coordinator = WsGossipNode::coordinator(NodeId(0))
            .with_policy(GossipPolicy::default())
            .with_coordinator_peers(peers.clone())
            .with_seed(9);
        let coord = coordinator.coord.as_ref().unwrap();
        assert!(coord.policy.is_some());
        assert_eq!(coord.peers, peers);

        // ...and the seed took, exactly as if it had been set first.
        let mut seeded_first = WsGossipNode::disseminator(NodeId(2), NodeId(0)).with_seed(9);
        assert_eq!(node.fresh_id(), seeded_first.fresh_id());
        assert_ne!(node.fresh_id(), configured().fresh_id());
    }

    #[test]
    #[should_panic(expected = "only initiators")]
    fn consumers_cannot_notify() {
        use wsg_net::sim::{SimConfig, SimNet};
        let mut net = SimNet::new(SimConfig::default());
        let id = net.add_node(WsGossipNode::consumer(NodeId(0), NodeId(0)));
        net.invoke(id, |node, ctx| {
            node.notify("t", Element::new("x"), ctx);
        });
    }

    #[test]
    fn distinct_ops_deduplicates() {
        let mut node = WsGossipNode::consumer(NodeId(1), NodeId(0));
        for round in [1u32, 2, 3] {
            node.ops.push(DeliveredOp {
                topic: "t".into(),
                origin: "http://node2/gossip".into(),
                seq: 0,
                round,
                at: SimTime::ZERO,
                payload: Element::new("x"),
            });
        }
        assert_eq!(node.ops().len(), 3);
        assert_eq!(node.distinct_ops().len(), 1);
    }

    #[test]
    fn export_metrics_matches_the_node_role() {
        let coordinator = WsGossipNode::coordinator(NodeId(0));
        let registry = wsg_obs::Registry::new();
        coordinator.export_metrics(&registry, SimTime::ZERO);
        let text = registry.render();
        assert!(text.contains("wsg_node_messages_received_total 0"), "{text}");
        assert!(text.contains("wsg_coord_contexts_created_total 0"), "{text}");
        assert!(!text.contains("wsg_layer_"), "coordinator has no gossip layer");

        let mut disseminator = WsGossipNode::disseminator(NodeId(2), NodeId(0));
        disseminator.stats.ops_delivered = 4;
        let registry = wsg_obs::Registry::new();
        disseminator.export_metrics(&registry, SimTime::ZERO);
        let text = registry.render();
        assert!(text.contains("wsg_node_ops_delivered_total 4"), "{text}");
        assert!(text.contains("wsg_layer_intercepted_total 0"), "{text}");
        assert!(!text.contains("wsg_coord_"), "disseminator hosts no coordinator");
    }

    #[test]
    fn reexporting_metrics_is_idempotent() {
        let mut node = WsGossipNode::consumer(NodeId(1), NodeId(0));
        let registry = wsg_obs::Registry::new();
        node.export_metrics(&registry, SimTime::ZERO);
        let before = registry.render();
        node.export_metrics(&registry, SimTime::ZERO);
        assert_eq!(before, registry.render(), "same state renders identically");
        node.stats.messages_received = 7;
        node.export_metrics(&registry, SimTime::ZERO);
        assert!(registry.render().contains("wsg_node_messages_received_total 7"));
    }
}
