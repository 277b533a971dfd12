//! Centralized reliable broker with ack + retransmit.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use wsg_net::{Context, NodeId, Protocol, SimDuration, TimerTag};

use crate::Delivery;

/// Timer tag for the broker's retransmission sweep.
pub(crate) const RETRANSMIT_TICK: TimerTag = TimerTag(0xB20C);

/// Wire messages of the broker protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerMsg<T> {
    /// Client → broker: publish a payload.
    Publish(T),
    /// Broker → subscriber: deliver (at-least-once until acked).
    Deliver {
        /// Broker-assigned sequence number.
        seq: u64,
        /// The payload.
        payload: T,
    },
    /// Subscriber → broker: acknowledge a sequence number.
    Ack(u64),
}

/// One node of the centralized-broker system. Node 0 conventionally plays
/// the broker; everyone else is a subscriber.
///
/// The broker keeps every message until all subscribers acknowledged it
/// and retransmits outstanding copies every `retransmit_every` — the
/// classic sender-reliable scheme whose goodput is gated by its slowest
/// receiver (the behaviour experiment E5 reproduces).
#[derive(Debug, Clone)]
pub struct BrokerNode<T> {
    is_broker: bool,
    broker: NodeId,
    subscribers: Vec<NodeId>,
    retransmit_every: SimDuration,
    max_retries: u32,
    // broker state
    window: usize,
    backlog: VecDeque<T>,
    next_seq: u64,
    store: BTreeMap<u64, T>,
    unacked: BTreeMap<u64, BTreeSet<NodeId>>,
    retries: BTreeMap<u64, u32>,
    // subscriber state
    seen: BTreeSet<u64>,
    delivered: Vec<Delivery<T>>,
    // counters
    retransmissions: u64,
    gave_up: u64,
}

impl<T: Clone> BrokerNode<T> {
    /// The broker node, serving the given subscribers.
    pub fn broker(subscribers: Vec<NodeId>, retransmit_every: SimDuration) -> Self {
        BrokerNode {
            is_broker: true,
            broker: NodeId(0),
            subscribers,
            retransmit_every,
            max_retries: 20,
            window: usize::MAX,
            backlog: VecDeque::new(),
            next_seq: 0,
            store: BTreeMap::new(),
            unacked: BTreeMap::new(),
            retries: BTreeMap::new(),
            seen: BTreeSet::new(),
            delivered: Vec::new(),
            retransmissions: 0,
            gave_up: 0,
        }
    }

    /// A subscriber of `broker`.
    pub fn subscriber(broker: NodeId) -> Self {
        BrokerNode {
            is_broker: false,
            broker,
            subscribers: Vec::new(),
            retransmit_every: SimDuration::from_millis(100),
            max_retries: 0,
            window: usize::MAX,
            backlog: VecDeque::new(),
            next_seq: 0,
            store: BTreeMap::new(),
            unacked: BTreeMap::new(),
            retries: BTreeMap::new(),
            seen: BTreeSet::new(),
            delivered: Vec::new(),
            retransmissions: 0,
            gave_up: 0,
        }
    }

    /// Builder: cap on retransmission attempts per (message, subscriber).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Builder: bound the broker's send window — at most `window` messages
    /// may be outstanding (not yet acknowledged by everyone); publishes
    /// beyond the window queue at the broker. This is the classic
    /// sender-side flow control whose goodput is gated by the slowest
    /// receiver (the bimodal-multicast comparison, experiment E5).
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.window = window;
        self
    }

    /// Deliveries at this node (subscribers only).
    pub fn delivered(&self) -> &[Delivery<T>] {
        &self.delivered
    }

    /// Broker: messages still not fully acknowledged.
    pub fn outstanding(&self) -> usize {
        self.unacked.len()
    }

    /// Broker: total retransmitted copies.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Broker: publish directly at the broker (for harness convenience).
    pub fn publish(&mut self, payload: T, ctx: &mut dyn Context<BrokerMsg<T>>) {
        assert!(self.is_broker, "publish on the broker node");
        self.broadcast(payload, ctx);
    }

    fn broadcast(&mut self, payload: T, ctx: &mut dyn Context<BrokerMsg<T>>) {
        if self.unacked.len() >= self.window {
            self.backlog.push_back(payload);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.store.insert(seq, payload.clone());
        self.unacked.insert(seq, self.subscribers.iter().copied().collect());
        self.retries.insert(seq, 0);
        for subscriber in self.subscribers.clone() {
            ctx.send(subscriber, BrokerMsg::Deliver { seq, payload: payload.clone() });
        }
    }
}

impl<T: Clone> Protocol for BrokerNode<T> {
    type Message = BrokerMsg<T>;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Message>) {
        if self.is_broker {
            ctx.set_timer(self.retransmit_every, RETRANSMIT_TICK);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut dyn Context<Self::Message>) {
        match msg {
            BrokerMsg::Publish(payload) => {
                if self.is_broker {
                    self.broadcast(payload, ctx);
                }
            }
            BrokerMsg::Deliver { seq, payload } => {
                // Always (re-)ack; deliver only once.
                ctx.send(self.broker, BrokerMsg::Ack(seq));
                if self.seen.insert(seq) {
                    self.delivered.push(Delivery { seq, at: ctx.now(), payload });
                }
            }
            BrokerMsg::Ack(seq) => {
                if let Some(waiting) = self.unacked.get_mut(&seq) {
                    waiting.remove(&from);
                    if waiting.is_empty() {
                        self.unacked.remove(&seq);
                        self.store.remove(&seq);
                        self.retries.remove(&seq);
                        self.drain_backlog(ctx);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<Self::Message>) {
        if tag != RETRANSMIT_TICK || !self.is_broker {
            return;
        }
        let mut abandoned = Vec::new();
        for (&seq, waiting) in &self.unacked {
            let attempts = self.retries.entry(seq).or_insert(0);
            if *attempts >= self.max_retries {
                abandoned.push(seq);
                continue;
            }
            *attempts += 1;
            let Some(payload) = self.store.get(&seq).cloned() else {
                // Payload evicted without an ack record cleanup: treat
                // as abandoned rather than panicking the broker node.
                abandoned.push(seq);
                continue;
            };
            for &subscriber in waiting {
                self.retransmissions += 1;
                ctx.send(subscriber, BrokerMsg::Deliver { seq, payload: payload.clone() });
            }
        }
        for seq in abandoned {
            self.unacked.remove(&seq);
            self.store.remove(&seq);
            self.retries.remove(&seq);
            self.gave_up += 1;
        }
        self.drain_backlog(ctx);
        ctx.set_timer(self.retransmit_every, RETRANSMIT_TICK);
    }
}

impl<T: Clone> BrokerNode<T> {
    fn drain_backlog(&mut self, ctx: &mut dyn Context<BrokerMsg<T>>) {
        while self.unacked.len() < self.window {
            match self.backlog.pop_front() {
                Some(payload) => self.broadcast(payload, ctx),
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::sim::{SimConfig, SimNet};
    use wsg_net::{LatencyModel, SimTime};

    fn build(n: usize, config: SimConfig) -> SimNet<BrokerNode<u32>> {
        let mut net = SimNet::new(config);
        let subscribers: Vec<NodeId> = (1..n).map(NodeId).collect();
        net.add_nodes(n, |id| {
            if id.index() == 0 {
                BrokerNode::broker(subscribers.clone(), SimDuration::from_millis(50))
            } else {
                BrokerNode::subscriber(NodeId(0))
            }
        });
        net.start();
        net
    }

    fn publish(net: &mut SimNet<BrokerNode<u32>>, value: u32) {
        net.invoke(NodeId(0), move |broker, ctx| broker.publish(value, ctx));
    }

    #[test]
    fn delivers_to_all_without_faults() {
        let mut net = build(8, SimConfig::default().seed(1));
        publish(&mut net, 7);
        net.run_until(SimTime::from_secs(1));
        for i in 1..8 {
            assert_eq!(net.node(NodeId(i)).delivered().len(), 1);
        }
        assert_eq!(net.node(NodeId(0)).outstanding(), 0);
    }

    #[test]
    fn retransmits_through_loss() {
        let mut net = build(6, SimConfig::default().seed(2).drop_probability(0.3));
        publish(&mut net, 1);
        net.run_until(SimTime::from_secs(10));
        for i in 1..6 {
            assert_eq!(net.node(NodeId(i)).delivered().len(), 1, "subscriber {i}");
        }
        assert!(net.node(NodeId(0)).retransmissions() > 0);
    }

    #[test]
    fn duplicates_not_delivered_twice() {
        let mut net = build(4, SimConfig::default().seed(3).duplicate_probability(0.5));
        publish(&mut net, 1);
        publish(&mut net, 2);
        net.run_until(SimTime::from_secs(2));
        for i in 1..4 {
            assert_eq!(net.node(NodeId(i)).delivered().len(), 2);
        }
    }

    #[test]
    fn broker_crash_halts_dissemination() {
        let mut net = build(6, SimConfig::default().seed(4));
        net.crash(NodeId(0));
        // A client publish goes to the dead broker: nobody hears anything.
        net.send_external(NodeId(1), NodeId(0), BrokerMsg::Publish(9));
        net.run_until(SimTime::from_secs(2));
        for i in 1..6 {
            assert!(net.node(NodeId(i)).delivered().is_empty());
        }
    }

    #[test]
    fn gives_up_on_crashed_subscriber() {
        let mut net = build(4, SimConfig::default().seed(5));
        net.crash(NodeId(3));
        publish(&mut net, 1);
        net.run_until(SimTime::from_secs(30));
        assert_eq!(net.node(NodeId(0)).outstanding(), 0, "abandoned after max retries");
        assert_eq!(net.node(NodeId(0)).gave_up, 1);
        assert!(net.node(NodeId(3)).delivered().is_empty());
    }

    #[test]
    fn slow_subscriber_drives_retransmissions() {
        let config = SimConfig::default().seed(6).latency(LatencyModel::constant_millis(1));
        let mut net = build(5, config);
        // One perturbed subscriber acks very late.
        net.perturb(NodeId(4), SimDuration::from_millis(400));
        publish(&mut net, 1);
        net.run_until(SimTime::from_secs(3));
        assert!(net.node(NodeId(0)).retransmissions() > 0, "slow node forces retries");
        assert_eq!(net.node(NodeId(4)).delivered().len(), 1);
    }
}
