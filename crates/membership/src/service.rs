//! The membership gossip protocol (the WS-Membership analogue).

use wsg_net::{Context, NodeId, Protocol, RngExt, SimDuration, TimerTag};

use crate::detector::FailureDetectorConfig;
use crate::view::MembershipView;

/// Timer tag for the periodic membership gossip tick.
pub const MEMBERSHIP_TICK: TimerTag = TimerTag(0x3E3B);

/// Configuration of the membership service.
#[derive(Debug, Clone)]
pub struct MembershipConfig {
    interval: SimDuration,
    fanout: usize,
    detector: FailureDetectorConfig,
}

impl Default for MembershipConfig {
    /// 200 ms gossip interval, fanout 2, detector scaled to the interval.
    fn default() -> Self {
        let interval = SimDuration::from_millis(200);
        MembershipConfig {
            interval,
            fanout: 2,
            detector: FailureDetectorConfig::for_interval(interval),
        }
    }
}

impl MembershipConfig {
    /// Builder: gossip interval.
    pub fn interval(mut self, interval: SimDuration) -> Self {
        self.interval = interval;
        self.detector = FailureDetectorConfig::for_interval(interval);
        self
    }

    /// Builder: how many peers each tick gossips to.
    ///
    /// # Panics
    ///
    /// Panics when `fanout` is zero.
    pub fn fanout(mut self, fanout: usize) -> Self {
        assert!(fanout > 0, "membership fanout must be at least 1");
        self.fanout = fanout;
        self
    }

    /// Builder: explicit failure-detector timeouts.
    pub fn detector(mut self, detector: FailureDetectorConfig) -> Self {
        self.detector = detector;
        self
    }
}

/// Wire message: a heartbeat snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipMessage {
    /// "Here is everything I know" — (member, heartbeat) pairs.
    ViewGossip(Vec<(NodeId, u64)>),
}

/// The protocol: bump own heartbeat, gossip the view, time out silence.
///
/// Bootstrap is by static initial contact list (all nodes here, since the
/// simulator assigns dense ids); real deployments seed with a few contact
/// endpoints and learn the rest transitively — which this protocol also
/// exercises, because entries spread by gossip, not by the seed list.
#[derive(Debug, Clone)]
pub struct MembershipGossip {
    config: MembershipConfig,
    me: NodeId,
    heartbeat: u64,
    view: MembershipView,
    contacts: Vec<NodeId>,
}

impl MembershipGossip {
    /// A member that initially knows only the contact nodes
    /// `0..contact_count` (and itself).
    pub fn new(config: MembershipConfig, me: NodeId, contact_count: usize) -> Self {
        let contacts = (0..contact_count).map(NodeId).filter(|c| *c != me).collect();
        MembershipGossip { config, me, heartbeat: 0, view: MembershipView::new(), contacts }
    }

    /// A member with an explicit contact list.
    #[cfg(test)]
    pub(crate) fn with_contacts(config: MembershipConfig, me: NodeId, contacts: Vec<NodeId>) -> Self {
        MembershipGossip { config, me, heartbeat: 0, view: MembershipView::new(), contacts }
    }

    /// The current membership view.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// Peers this node currently believes are alive (excluding itself) —
    /// what a gossip engine consumer feeds into its `set_peers`.
    pub fn alive_peers(&self) -> Vec<NodeId> {
        self.view.alive().into_iter().filter(|p| *p != self.me).collect()
    }

    /// This node's own heartbeat counter.
    pub fn heartbeat(&self) -> u64 {
        self.heartbeat
    }

    fn tick(&mut self, ctx: &mut dyn Context<MembershipMessage>) {
        let now = ctx.now();
        let mut round = self.view.gossip_round(
            self.me,
            &mut self.heartbeat,
            now,
            &self.config.detector,
            self.config.fanout,
            ctx.rng(),
            |_| {}, // the simulator has no evidence beyond heartbeat age
        );
        if round.targets.is_empty() {
            // The view is still cold: fall back to the static contacts.
            // (Shuffling the empty pool drew nothing, so this is the
            // round's only RNG use.)
            round.targets = self.contacts.clone();
            ctx.rng().shuffle(&mut round.targets);
            round.targets.truncate(self.config.fanout);
        }
        for peer in round.targets {
            ctx.send(peer, MembershipMessage::ViewGossip(round.snapshot.clone()));
        }
        ctx.set_timer(self.config.interval, MEMBERSHIP_TICK);
    }
}

impl Protocol for MembershipGossip {
    type Message = MembershipMessage;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Message>) {
        self.view.record(self.me, self.heartbeat, ctx.now());
        self.tick(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: Self::Message, ctx: &mut dyn Context<Self::Message>) {
        match msg {
            MembershipMessage::ViewGossip(entries) => {
                self.view.merge(&entries, ctx.now());
            }
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<Self::Message>) {
        if tag == MEMBERSHIP_TICK {
            self.tick(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::sim::{SimConfig, SimNet};
    use wsg_net::{LatencyModel, SimTime};

    fn build(n: usize, seed: u64) -> SimNet<MembershipGossip> {
        let mut net = SimNet::new(
            SimConfig::default().seed(seed).latency(LatencyModel::uniform_millis(1, 5)),
        );
        net.add_nodes(n, |id| MembershipGossip::new(MembershipConfig::default(), id, n));
        net.start();
        net
    }

    #[test]
    fn views_converge_without_churn() {
        let n = 24;
        let mut net = build(n, 1);
        net.run_until(SimTime::from_secs(5));
        for id in net.node_ids() {
            assert_eq!(net.node(id).view().alive_count(), n, "node {id} incomplete view");
        }
    }

    #[test]
    fn crashed_node_eventually_declared_dead_everywhere() {
        let n = 12;
        let mut net = build(n, 2);
        net.run_until(SimTime::from_secs(3));
        net.crash(NodeId(5));
        net.run_until(SimTime::from_secs(12));
        for id in net.node_ids() {
            if id == NodeId(5) {
                continue;
            }
            let alive = net.node(id).alive_peers();
            assert!(
                !alive.contains(&NodeId(5)),
                "node {id} still believes n5 alive: {alive:?}"
            );
        }
    }

    #[test]
    fn no_false_positives_in_healthy_network() {
        let n = 16;
        let mut net = build(n, 3);
        net.run_until(SimTime::from_secs(10));
        for id in net.node_ids() {
            assert_eq!(net.node(id).view().alive_count(), n, "false positive at {id}");
        }
    }

    #[test]
    fn recovered_node_rejoins() {
        let n = 10;
        let mut net = build(n, 4);
        net.run_until(SimTime::from_secs(3));
        net.crash(NodeId(2));
        net.run_until(SimTime::from_secs(12));
        assert!(!net.node(NodeId(0)).alive_peers().contains(&NodeId(2)));
        net.recover(NodeId(2));
        net.run_until(SimTime::from_secs(24));
        assert!(
            net.node(NodeId(0)).alive_peers().contains(&NodeId(2)),
            "recovered node should be re-admitted"
        );
    }

    #[test]
    fn transitive_discovery_from_sparse_contacts() {
        // Every node only knows node 0 initially; full membership must
        // still emerge transitively.
        let n = 20;
        let mut net = SimNet::new(SimConfig::default().seed(5));
        net.add_nodes(n, |id| {
            let contacts = if id == NodeId(0) { vec![] } else { vec![NodeId(0)] };
            MembershipGossip::with_contacts(MembershipConfig::default(), id, contacts)
        });
        net.start();
        net.run_until(SimTime::from_secs(10));
        for id in net.node_ids() {
            assert_eq!(net.node(id).view().alive_count(), n, "node {id} incomplete");
        }
    }

    #[test]
    fn heartbeat_progresses() {
        let mut net = build(4, 6);
        net.run_until(SimTime::from_secs(2));
        assert!(net.node(NodeId(0)).heartbeat() >= 5);
    }
}
