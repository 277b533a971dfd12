//! The gossip protocol state machine.

use std::collections::BTreeMap;

use wsg_net::{Context, Histogram, NodeId, Protocol, RngExt, SimDuration, SimTime, TimerTag};

use crate::buffer::{Digest, MessageBuffer, MsgId};
use crate::params::{ForwardDiscipline, GossipParams, GossipStyle, DEFAULT_GOSSIP_INTERVAL};

/// Timer tag used for the periodic gossip tick.
pub const TICK: TimerTag = TimerTag(0xA11CE);

/// Timer tag used to retry outstanding lazy-push payload requests.
pub(crate) const RETRY: TimerTag = TimerTag(0x3E782);

/// Timer tag driving the infect-forever per-round re-forwarding.
pub(crate) const FOREVER: TimerTag = TimerTag(0xF03E);

/// Configuration of one [`GossipEngine`].
#[derive(Debug, Clone)]
pub struct GossipConfig {
    style: GossipStyle,
    params: GossipParams,
    interval: SimDuration,
    buffer_capacity: usize,
    retry_enabled: bool,
    jitter_enabled: bool,
    discipline: ForwardDiscipline,
}

impl GossipConfig {
    /// A configuration with default interval (100 ms) and buffer (1024
    /// payloads).
    pub fn new(style: GossipStyle, params: GossipParams) -> Self {
        GossipConfig {
            style,
            params,
            interval: DEFAULT_GOSSIP_INTERVAL,
            buffer_capacity: 1024,
            retry_enabled: true,
            jitter_enabled: true,
            discipline: ForwardDiscipline::InfectAndDie,
        }
    }

    /// Builder: set the periodic gossip interval (pull-flavoured styles).
    pub fn interval(mut self, interval: SimDuration) -> Self {
        self.interval = interval;
        self
    }

    /// Builder: set the payload buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn buffer_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        self.buffer_capacity = capacity;
        self
    }

    /// Builder: disable the lazy-push retry fallback (ablation A1: without
    /// it, a lost `IWANT`/payload stalls the message at that node forever).
    pub fn without_retry(mut self) -> Self {
        self.retry_enabled = false;
        self
    }

    /// Builder: disable periodic-tick jitter (ablation A2: synchronized
    /// ticks create load bursts; jitter spreads them).
    pub fn without_jitter(mut self) -> Self {
        self.jitter_enabled = false;
        self
    }

    /// Builder: set the forwarding discipline (default: infect-and-die).
    pub fn discipline(mut self, discipline: ForwardDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// The gossip style.
    pub fn style(&self) -> GossipStyle {
        self.style
    }

    /// The `f`/`r` parameters.
    pub fn params(&self) -> &GossipParams {
        &self.params
    }
}

/// Wire messages exchanged by gossip engines.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMessage<T> {
    /// A full payload, pushed eagerly or in answer to an `IWant`.
    Push {
        /// Message identity.
        id: MsgId,
        /// Hop count: 0 at the initiator, incremented per forward.
        round: u32,
        /// Application payload.
        payload: T,
    },
    /// Lazy-push advertisement of message ids (with their hop counts).
    IHave {
        /// Advertised (id, round) pairs.
        ids: Vec<(MsgId, u32)>,
    },
    /// Request for the payloads of advertised ids.
    IWant {
        /// Requested ids.
        ids: Vec<MsgId>,
    },
    /// Periodic pull: "here is everything I have seen — send me the rest".
    PullRequest {
        /// The requester's digest.
        digest: Digest,
    },
    /// Messages the requester was missing.
    PullResponse {
        /// `(id, round, payload)` triples.
        messages: Vec<(MsgId, u32, T)>,
    },
}

/// A message delivered to the application layer, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveredMessage<T> {
    /// Message identity.
    pub id: MsgId,
    /// Hop count at delivery (0 = delivered at the initiator).
    pub round: u32,
    /// Virtual time of delivery.
    pub at: SimTime,
    /// The payload.
    pub payload: T,
}

/// Counters for protocol-overhead analysis (experiment E7).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Messages published locally.
    pub published: u64,
    /// Full payloads sent (eager pushes + IWant answers + pull responses).
    pub payloads_sent: u64,
    /// IHave advertisements sent.
    pub ihave_sent: u64,
    /// IWant requests sent.
    pub iwant_sent: u64,
    /// Pull requests sent.
    pub pull_requests_sent: u64,
    /// Pull responses sent (possibly empty ones are not sent/counted).
    pub pull_responses_sent: u64,
    /// Payload receipts that were duplicates of something already seen.
    pub duplicates_received: u64,
    /// Hop counts at delivery (round stamped on each first receipt) —
    /// the per-style latency distribution in rounds. Purely a function
    /// of the deterministic run, so recording it cannot perturb replay.
    pub delivery_rounds: Histogram,
}

impl EngineStats {
    /// Merge another engine's counters into this one (for aggregating a
    /// whole network's overhead before exporting it).
    pub fn merge(&mut self, other: &EngineStats) {
        self.published += other.published;
        self.payloads_sent += other.payloads_sent;
        self.ihave_sent += other.ihave_sent;
        self.iwant_sent += other.iwant_sent;
        self.pull_requests_sent += other.pull_requests_sent;
        self.pull_responses_sent += other.pull_responses_sent;
        self.duplicates_received += other.duplicates_received;
        self.delivery_rounds.merge(&other.delivery_rounds);
    }

    /// Export a snapshot into `registry` under the `wsg_gossip_*`
    /// families, labeled with the gossip `style` (use
    /// [`GossipStyle::label`]). Counters are `set`, not added: calling
    /// again with a newer snapshot of the same monotone source keeps
    /// the exposition monotone.
    pub fn export(&self, registry: &wsg_obs::Registry, style: &str) {
        let counters: [(&str, &str, u64); 7] = [
            ("wsg_gossip_published_total", "Messages published locally.", self.published),
            (
                "wsg_gossip_payloads_sent_total",
                "Full payloads sent (eager pushes, IWant answers, pull responses).",
                self.payloads_sent,
            ),
            ("wsg_gossip_ihave_sent_total", "IHave advertisements sent.", self.ihave_sent),
            ("wsg_gossip_iwant_sent_total", "IWant requests sent.", self.iwant_sent),
            ("wsg_gossip_pull_requests_sent_total", "Pull requests sent.", self.pull_requests_sent),
            (
                "wsg_gossip_pull_responses_sent_total",
                "Non-empty pull responses sent.",
                self.pull_responses_sent,
            ),
            (
                "wsg_gossip_duplicates_received_total",
                "Payload receipts already seen.",
                self.duplicates_received,
            ),
        ];
        for (name, help, value) in counters {
            registry.register_counter_family(name, help, &["style"]).with(&[style]).set(value);
        }
        registry
            .register_histogram_family(
                "wsg_gossip_delivery_rounds",
                "Hop count at first delivery, per gossip style.",
                &["style"],
            )
            .with(&[style])
            .set_snapshot(&self.delivery_rounds);
    }
}

/// The engine: implements every [`GossipStyle`] behind one
/// [`wsg_net::Protocol`] implementation.
///
/// Applications publish via [`GossipEngine::publish`] (requires a live
/// [`Context`], e.g. through `SimNet::invoke`) and read what epidemics
/// delivered via [`GossipEngine::delivered`].
#[derive(Debug, Clone)]
pub struct GossipEngine<T> {
    config: GossipConfig,
    peers: Vec<NodeId>,
    buffer: MessageBuffer<T>,
    delivered: Vec<DeliveredMessage<T>>,
    next_seq: u64,
    // Lazy push: ids requested but not yet received — known advertisers
    // plus how many retry attempts have been spent.
    pending: BTreeMap<MsgId, (Vec<NodeId>, u32)>,
    // Infect-forever: per-message re-forwarding schedule —
    // (remaining forwards, hop count to stamp on the next copies).
    forever_schedule: BTreeMap<MsgId, (u32, u32)>,
    forever_armed: bool,
    retry_armed: bool,
    stats: EngineStats,
}

impl<T: Clone> GossipEngine<T> {
    /// An engine gossiping with the given static peer view (the node's own
    /// id must not be in `peers`). Dynamic membership layers on top via
    /// [`GossipEngine::set_peers`].
    pub fn new(config: GossipConfig, peers: Vec<NodeId>) -> Self {
        let buffer = MessageBuffer::new(config.buffer_capacity);
        GossipEngine {
            config,
            peers,
            buffer,
            delivered: Vec::new(),
            next_seq: 0,
            pending: BTreeMap::new(),
            forever_schedule: BTreeMap::new(),
            forever_armed: false,
            retry_armed: false,
            stats: EngineStats::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Messages delivered to the application so far, in delivery order.
    pub fn delivered(&self) -> &[DeliveredMessage<T>] {
        &self.delivered
    }

    /// Protocol counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Replace the peer view (driven by a membership service).
    pub fn set_peers(&mut self, peers: Vec<NodeId>) {
        self.peers = peers;
    }

    /// Current peer view.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Publish a new message from this node; returns its identity. The
    /// message is delivered locally and disseminated per the configured
    /// style.
    pub fn publish(
        &mut self,
        payload: T,
        ctx: &mut dyn Context<GossipMessage<T>>,
    ) -> MsgId {
        let id = MsgId::new(ctx.self_id(), self.next_seq);
        self.next_seq += 1;
        self.stats.published += 1;
        self.accept(id, 0, payload, ctx);
        id
    }

    /// Pick up to `fanout` distinct random peers.
    fn select_peers(&self, ctx: &mut dyn Context<GossipMessage<T>>) -> Vec<NodeId> {
        let fanout = self.config.params.fanout().min(self.peers.len());
        let mut pool = self.peers.clone();
        ctx.rng().shuffle(&mut pool);
        pool.truncate(fanout);
        pool
    }

    /// First-sighting handling: record, deliver, propagate.
    fn accept(
        &mut self,
        id: MsgId,
        round: u32,
        payload: T,
        ctx: &mut dyn Context<GossipMessage<T>>,
    ) -> bool {
        if !self.buffer.insert(id, round, payload.clone()) {
            self.stats.duplicates_received += 1;
            return false;
        }
        self.pending.remove(&id);
        self.delivered.push(DeliveredMessage { id, round, at: ctx.now(), payload: payload.clone() });
        self.stats.delivery_rounds.record(round as u64);

        if round >= self.config.params.rounds() {
            return true; // round budget exhausted: deliver but do not forward
        }
        match self.config.style {
            GossipStyle::EagerPush | GossipStyle::PushPull => {
                // Infect-forever: keep re-forwarding every interval while
                // the budget lasts (classic round-based epidemics; total
                // traffic bounded by n·f·r).
                if self.config.discipline == ForwardDiscipline::InfectForever {
                    let remaining = self.config.params.rounds() - round;
                    if remaining > 1 {
                        self.forever_schedule.insert(id, (remaining - 1, round + 2));
                        if !self.forever_armed {
                            self.forever_armed = true;
                            ctx.set_timer(self.config.interval, FOREVER);
                        }
                    }
                }
                for peer in self.select_peers(ctx) {
                    self.stats.payloads_sent += 1;
                    ctx.send(peer, GossipMessage::Push { id, round: round + 1, payload: payload.clone() });
                }
            }
            GossipStyle::LazyPush => {
                for peer in self.select_peers(ctx) {
                    self.stats.ihave_sent += 1;
                    ctx.send(peer, GossipMessage::IHave { ids: vec![(id, round)] });
                }
            }
            GossipStyle::Pull | GossipStyle::AntiEntropy => {
                // Propagation happens on the periodic tick.
            }
        }
        true
    }

    fn arm_tick(&self, ctx: &mut dyn Context<GossipMessage<T>>) {
        // ±25% deterministic jitter desynchronises the ticks across nodes.
        let base = self.config.interval.as_micros();
        let jitter = if self.config.jitter_enabled { base / 4 } else { 0 };
        let delay = if jitter > 0 {
            SimDuration::from_micros(ctx.rng().gen_range(base - jitter..=base + jitter))
        } else {
            self.config.interval
        };
        ctx.set_timer(delay, TICK);
    }
}

impl<T: Clone> Protocol for GossipEngine<T> {
    type Message = GossipMessage<T>;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Message>) {
        if self.config.style.is_periodic() {
            self.arm_tick(ctx);
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut dyn Context<Self::Message>,
    ) {
        match msg {
            GossipMessage::Push { id, round, payload } => {
                self.accept(id, round, payload, ctx);
            }
            GossipMessage::IHave { ids } => {
                // Request each unseen id from the *first* advertiser only;
                // every advertiser is remembered so the retry timer can
                // re-request if the payload never arrives.
                let mut wanted = Vec::new();
                for (id, _) in &ids {
                    if self.buffer.seen(id) {
                        continue;
                    }
                    match self.pending.get_mut(id) {
                        Some((advertisers, _)) => {
                            if !advertisers.contains(&from) {
                                advertisers.push(from);
                            }
                        }
                        None => {
                            self.pending.insert(*id, (vec![from], 0));
                            wanted.push(*id);
                        }
                    }
                }
                if !wanted.is_empty() {
                    self.stats.iwant_sent += 1;
                    ctx.send(from, GossipMessage::IWant { ids: wanted });
                    if self.config.retry_enabled && !self.retry_armed {
                        self.retry_armed = true;
                        ctx.set_timer(self.config.interval, RETRY);
                    }
                }
            }
            GossipMessage::IWant { ids } => {
                for id in ids {
                    if let Some((round, payload)) = self.buffer.get(&id) {
                        let payload = payload.clone();
                        self.stats.payloads_sent += 1;
                        ctx.send(from, GossipMessage::Push { id, round: round + 1, payload });
                    }
                }
            }
            GossipMessage::PullRequest { digest } => {
                // Send what they lack (and still retained).
                let missing = self.buffer.digest().missing_from(&digest);
                let messages: Vec<(MsgId, u32, T)> = missing
                    .into_iter()
                    .filter_map(|id| {
                        self.buffer
                            .get(&id)
                            .map(|(round, payload)| (id, round + 1, payload.clone()))
                    })
                    .collect();
                if !messages.is_empty() {
                    self.stats.pull_responses_sent += 1;
                    self.stats.payloads_sent += messages.len() as u64;
                    ctx.send(from, GossipMessage::PullResponse { messages });
                }
                // Anti-entropy reconciles both directions in one exchange:
                // also ask for what *we* lack.
                if self.config.style == GossipStyle::AntiEntropy {
                    let we_lack = digest.missing_from(self.buffer.digest());
                    if !we_lack.is_empty() {
                        self.stats.iwant_sent += 1;
                        ctx.send(from, GossipMessage::IWant { ids: we_lack });
                    }
                }
            }
            GossipMessage::PullResponse { messages } => {
                for (id, round, payload) in messages {
                    self.accept(id, round, payload, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<Self::Message>) {
        if tag == FOREVER {
            // Re-forward every scheduled message once, decrementing budgets.
            let mut batch: Vec<(MsgId, u32)> = Vec::new();
            self.forever_schedule.retain(|id, (remaining, next_round)| {
                if *remaining == 0 {
                    return false;
                }
                *remaining -= 1;
                let round = *next_round;
                *next_round += 1;
                batch.push((*id, round));
                *remaining > 0
            });
            for (id, round) in batch {
                if let Some((_, payload)) = self.buffer.get(&id) {
                    let payload = payload.clone();
                    for peer in self.select_peers(ctx) {
                        self.stats.payloads_sent += 1;
                        ctx.send(
                            peer,
                            GossipMessage::Push { id, round, payload: payload.clone() },
                        );
                    }
                }
            }
            if self.forever_schedule.is_empty() {
                self.forever_armed = false;
            } else {
                ctx.set_timer(self.config.interval, FOREVER);
            }
            return;
        }
        if tag == RETRY {
            // Re-request every still-missing payload, cycling through the
            // known advertisers, with a bounded attempt budget per id.
            const MAX_RETRIES: u32 = 8;
            let mut requests: BTreeMap<NodeId, Vec<MsgId>> = BTreeMap::new();
            self.pending.retain(|id, (advertisers, attempts)| {
                *attempts += 1;
                if *attempts > MAX_RETRIES || advertisers.is_empty() {
                    return false; // give up; a periodic style would repair later
                }
                let peer = advertisers[(*attempts as usize - 1) % advertisers.len()];
                requests.entry(peer).or_default().push(*id);
                true
            });
            for (peer, ids) in requests {
                self.stats.iwant_sent += 1;
                ctx.send(peer, GossipMessage::IWant { ids });
            }
            if !self.pending.is_empty() {
                ctx.set_timer(self.config.interval, RETRY);
            } else {
                self.retry_armed = false;
            }
            return;
        }
        if tag != TICK {
            return;
        }
        if self.config.style.is_periodic() {
            let digest = self.buffer.digest().clone();
            for peer in self.select_peers(ctx) {
                self.stats.pull_requests_sent += 1;
                ctx.send(peer, GossipMessage::PullRequest { digest: clone_digest(&digest) });
            }
            self.arm_tick(ctx);
        }
    }
}

fn clone_digest(d: &Digest) -> Digest {
    d.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::sim::{SimConfig, SimNet};
    use wsg_net::LatencyModel;

    type Net = SimNet<GossipEngine<u64>>;

    fn build(n: usize, style: GossipStyle, params: GossipParams, sim: SimConfig) -> Net {
        let mut net = SimNet::new(sim);
        net.add_nodes(n, |id| {
            let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
            GossipEngine::new(GossipConfig::new(style, params.clone()), peers)
        });
        net.start();
        net
    }

    fn coverage(net: &Net, n: usize) -> f64 {
        (0..n)
            .filter(|i| !net.node(NodeId(*i)).delivered().is_empty())
            .count() as f64
            / n as f64
    }

    fn publish(net: &mut Net, node: NodeId, value: u64) -> MsgId {
        let mut out = None;
        net.invoke(node, |engine, ctx| {
            out = Some(engine.publish(value, ctx));
        });
        out.expect("publish ran")
    }

    #[test]
    fn eager_push_reaches_everyone_with_atomic_params() {
        let n = 64;
        let mut net = build(n, GossipStyle::EagerPush, GossipParams::atomic_for(n), SimConfig::default().seed(1));
        publish(&mut net, NodeId(0), 7);
        net.run_to_quiescence();
        assert_eq!(coverage(&net, n), 1.0);
    }

    #[test]
    fn eager_push_respects_round_budget() {
        let n = 64;
        // One round: only the initiator's direct fanout can be reached.
        let mut net = build(n, GossipStyle::EagerPush, GossipParams::new(3, 1), SimConfig::default().seed(2));
        publish(&mut net, NodeId(0), 1);
        net.run_to_quiescence();
        let reached = (0..n).filter(|i| !net.node(NodeId(*i)).delivered().is_empty()).count();
        assert!(reached <= 1 + 3, "reached {reached}, expected <= 4");
        // All delivered rounds are within the budget.
        for i in 0..n {
            for d in net.node(NodeId(i)).delivered() {
                assert!(d.round <= 1);
            }
        }
    }

    #[test]
    fn lazy_push_disseminates_with_fewer_payloads() {
        let n = 48;
        let params = GossipParams::atomic_for(n);
        let seed = 1;

        let mut eager = build(n, GossipStyle::EagerPush, params.clone(), SimConfig::default().seed(seed));
        publish(&mut eager, NodeId(0), 1);
        eager.run_to_quiescence();

        let mut lazy = build(n, GossipStyle::LazyPush, params, SimConfig::default().seed(seed));
        publish(&mut lazy, NodeId(0), 1);
        lazy.run_to_quiescence();

        assert_eq!(coverage(&lazy, n), 1.0, "lazy push must still cover");
        let eager_payloads: u64 = (0..n).map(|i| eager.node(NodeId(i)).stats().payloads_sent).sum();
        let lazy_payloads: u64 = (0..n).map(|i| lazy.node(NodeId(i)).stats().payloads_sent).sum();
        assert!(
            lazy_payloads < eager_payloads,
            "lazy {lazy_payloads} >= eager {eager_payloads}"
        );
        // Lazy push sends each node at most ~one payload (on request).
        assert!(lazy_payloads <= (n as u64) * 2);
    }

    #[test]
    fn pull_converges_via_periodic_ticks() {
        let n = 24;
        let config = SimConfig::default().seed(3).latency(LatencyModel::constant_millis(2));
        let mut net = SimNet::new(config);
        net.add_nodes(n, |id| {
            let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
            GossipEngine::new(
                GossipConfig::new(GossipStyle::Pull, GossipParams::new(2, 4))
                    .interval(SimDuration::from_millis(50)),
                peers,
            )
        });
        net.start();
        publish(&mut net, NodeId(0), 9);
        net.run_until(SimTime::from_secs(3));
        assert_eq!(coverage(&net, n), 1.0);
    }

    #[test]
    fn anti_entropy_recovers_after_partition() {
        let n = 16;
        let config = SimConfig::default().seed(4).latency(LatencyModel::constant_millis(1));
        let mut net = SimNet::new(config);
        net.add_nodes(n, |id| {
            let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
            GossipEngine::new(
                GossipConfig::new(GossipStyle::AntiEntropy, GossipParams::new(2, 4))
                    .interval(SimDuration::from_millis(40)),
                peers,
            )
        });
        net.start();
        // Partition half away, publish on the majority side.
        let isolated: Vec<NodeId> = (n / 2..n).map(NodeId).collect();
        net.isolate(&isolated);
        publish(&mut net, NodeId(0), 1);
        net.run_until(SimTime::from_secs(1));
        assert!(coverage(&net, n) < 1.0, "partition should block full coverage");
        net.heal();
        net.run_until(SimTime::from_secs(4));
        assert_eq!(coverage(&net, n), 1.0, "anti-entropy must converge after heal");
    }

    #[test]
    fn push_pull_closes_gaps_left_by_loss() {
        let n = 32;
        // Heavy loss: plain eager push with slim params will miss nodes;
        // push-pull must still converge thanks to the periodic pull.
        let seed = 1;
        let slim = GossipParams::new(2, 6);
        let lossy = |seed| {
            SimConfig::default()
                .seed(seed)
                .drop_probability(0.35)
                .latency(LatencyModel::constant_millis(1))
        };
        let mut eager = build(n, GossipStyle::EagerPush, slim.clone(), lossy(seed));
        publish(&mut eager, NodeId(0), 1);
        eager.run_until(SimTime::from_secs(5));
        let eager_cov = coverage(&eager, n);

        let mut net = SimNet::new(lossy(seed));
        net.add_nodes(n, |id| {
            let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
            GossipEngine::new(
                GossipConfig::new(GossipStyle::PushPull, slim.clone())
                    .interval(SimDuration::from_millis(60)),
                peers,
            )
        });
        net.start();
        publish(&mut net, NodeId(0), 1);
        net.run_until(SimTime::from_secs(5));
        let pp_cov = coverage(&net, n);
        assert_eq!(pp_cov, 1.0, "push-pull should converge despite loss");
        assert!(pp_cov >= eager_cov);
    }

    #[test]
    fn multiple_publishers_all_messages_everywhere() {
        let n = 32;
        let mut net = build(n, GossipStyle::EagerPush, GossipParams::atomic_for(n), SimConfig::default().seed(6));
        publish(&mut net, NodeId(0), 100);
        publish(&mut net, NodeId(5), 200);
        publish(&mut net, NodeId(9), 300);
        net.run_to_quiescence();
        for i in 0..n {
            let values: std::collections::BTreeSet<u64> =
                net.node(NodeId(i)).delivered().iter().map(|d| d.payload).collect();
            assert_eq!(values.len(), 3, "node {i} got {values:?}");
        }
    }

    #[test]
    fn no_duplicate_deliveries_to_application() {
        let n = 32;
        let mut net = build(
            n,
            GossipStyle::EagerPush,
            GossipParams::new(8, 10),
            SimConfig::default().seed(7).duplicate_probability(0.3),
        );
        publish(&mut net, NodeId(0), 1);
        net.run_to_quiescence();
        for i in 0..n {
            assert!(net.node(NodeId(i)).delivered().len() <= 1, "node {i} double-delivered");
        }
    }

    #[test]
    fn delivery_round_never_exceeds_budget() {
        let n = 64;
        let params = GossipParams::new(4, 5);
        let mut net = build(n, GossipStyle::EagerPush, params.clone(), SimConfig::default().seed(8));
        publish(&mut net, NodeId(0), 1);
        net.run_to_quiescence();
        for i in 0..n {
            for d in net.node(NodeId(i)).delivered() {
                assert!(d.round <= params.rounds(), "round {} > budget", d.round);
            }
        }
    }

    #[test]
    fn publish_returns_sequential_ids() {
        let n = 4;
        let mut net = build(n, GossipStyle::EagerPush, GossipParams::default(), SimConfig::default().seed(9));
        let a = publish(&mut net, NodeId(2), 1);
        let b = publish(&mut net, NodeId(2), 2);
        assert_eq!(a, MsgId::new(NodeId(2), 0));
        assert_eq!(b, MsgId::new(NodeId(2), 1));
    }

    #[test]
    fn infect_forever_out_covers_infect_and_die_at_slim_fanout() {
        use crate::params::ForwardDiscipline;
        let n = 96;
        let slim = GossipParams::new(1, 24); // f=1: infect-and-die stalls
        let run = |discipline: ForwardDiscipline| {
            let mut net = SimNet::new(SimConfig::default().seed(21));
            net.add_nodes(n, |id| {
                let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
                GossipEngine::<u64>::new(
                    GossipConfig::new(GossipStyle::EagerPush, slim.clone())
                        .discipline(discipline)
                        .interval(wsg_net::SimDuration::from_millis(50)),
                    peers,
                )
            });
            net.start();
            net.invoke(NodeId(0), |e, ctx| {
                e.publish(1, ctx);
            });
            net.run_until(SimTime::from_secs(5));
            let reached = (0..n)
                .filter(|i| !net.node(NodeId(*i)).delivered().is_empty())
                .count();
            let payloads: u64 =
                (0..n).map(|i| net.node(NodeId(i)).stats().payloads_sent).sum();
            (reached, payloads)
        };
        let (die_reached, die_payloads) = run(ForwardDiscipline::InfectAndDie);
        let (forever_reached, forever_payloads) = run(ForwardDiscipline::InfectForever);
        assert!(forever_reached > die_reached * 2, "{forever_reached} vs {die_reached}");
        assert!(forever_reached as f64 > n as f64 * 0.9);
        assert!(forever_payloads > die_payloads, "the price of convergence");
    }

    #[test]
    fn stats_track_publish_and_forwards() {
        let n = 16;
        let mut net = build(n, GossipStyle::EagerPush, GossipParams::new(3, 6), SimConfig::default().seed(12));
        publish(&mut net, NodeId(0), 1);
        net.run_to_quiescence();
        assert_eq!(net.node(NodeId(0)).stats().published, 1);
        let total_payloads: u64 = (0..n).map(|i| net.node(NodeId(i)).stats().payloads_sent).sum();
        assert!(total_payloads >= 3, "initiator alone sends fanout payloads");
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use wsg_net::sim::{SimConfig, SimNet};
    use wsg_net::LatencyModel;

    fn publish(net: &mut SimNet<GossipEngine<u64>>, node: NodeId, value: u64) {
        net.invoke(node, move |engine, ctx| {
            engine.publish(value, ctx);
        });
    }

    #[test]
    fn peers_can_change_mid_run() {
        // Start with a broken view (everyone only knows node 0), then fix
        // it: dissemination completes only after set_peers.
        let n = 12;
        let mut net = SimNet::new(SimConfig::default().seed(30));
        net.add_nodes(n, |id| {
            let peers = if id.0 == 0 { vec![] } else { vec![NodeId(0)] };
            GossipEngine::<u64>::new(
                GossipConfig::new(GossipStyle::EagerPush, GossipParams::new(4, 8)),
                peers,
            )
        });
        net.start();
        publish(&mut net, NodeId(0), 1);
        net.run_to_quiescence();
        let reached = (0..n)
            .filter(|i| !net.node(NodeId(*i)).delivered().is_empty())
            .count();
        assert_eq!(reached, 1, "node 0 has no peers: nothing spreads");

        // Repair views and publish again.
        for i in 0..n {
            let peers = (0..n).map(NodeId).filter(|p| p.0 != i).collect();
            net.node_mut(NodeId(i)).set_peers(peers);
        }
        publish(&mut net, NodeId(0), 2);
        net.run_to_quiescence();
        let reached = (0..n)
            .filter(|i| net.node(NodeId(*i)).delivered().iter().any(|d| d.payload == 2))
            .count();
        assert_eq!(reached, n);
    }

    #[test]
    fn lazy_push_tolerates_network_duplication() {
        let n = 24;
        let mut net = SimNet::new(
            SimConfig::default()
                .seed(32)
                .duplicate_probability(0.4)
                .latency(LatencyModel::constant_millis(2)),
        );
        net.add_nodes(n, |id| {
            let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
            GossipEngine::<u64>::new(
                GossipConfig::new(GossipStyle::LazyPush, GossipParams::atomic_for(n)),
                peers,
            )
        });
        net.start();
        publish(&mut net, NodeId(0), 7);
        net.run_to_quiescence();
        for i in 0..n {
            let delivered = net.node(NodeId(i)).delivered();
            assert_eq!(delivered.len(), 1, "node {i}: {}", delivered.len());
        }
    }

    #[test]
    fn pull_responses_respect_buffer_eviction() {
        // A tiny buffer on the publisher: pulls can only repair what
        // is retained; no panics, no phantom deliveries.
        let n = 4;
        let mut net = SimNet::new(SimConfig::default().seed(33));
        net.add_nodes(n, |id| {
            let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
            GossipEngine::<u64>::new(
                GossipConfig::new(GossipStyle::Pull, GossipParams::new(2, 4))
                    .interval(SimDuration::from_millis(50))
                    .buffer_capacity(2),
                peers,
            )
        });
        net.start();
        for k in 0..6 {
            publish(&mut net, NodeId(0), k);
        }
        net.run_until(wsg_net::SimTime::from_secs(3));
        for i in 1..n {
            let got = net.node(NodeId(i)).delivered().len();
            assert!(got <= 6, "no phantom messages at {i}");
        }
        // Everyone got *something* via pull (the retained tail).
        for i in 1..n {
            assert!(!net.node(NodeId(i)).delivered().is_empty(), "node {i} got nothing");
        }
    }

    #[test]
    fn engine_with_empty_peer_view_is_inert_but_sound() {
        let mut net = SimNet::new(SimConfig::default().seed(34));
        let id = net.add_node(GossipEngine::<u64>::new(
            GossipConfig::new(GossipStyle::PushPull, GossipParams::default())
                .interval(SimDuration::from_millis(50)),
            Vec::new(),
        ));
        net.start();
        publish(&mut net, id, 5);
        net.run_until(wsg_net::SimTime::from_millis(500));
        assert_eq!(net.node(id).delivered().len(), 1, "self-delivery still happens");
        assert_eq!(net.stats().sent, 0, "nothing to send to");
    }
}
