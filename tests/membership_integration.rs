//! Membership ↔ gossip integration: the distributed-coordinator story.
//! The paper (§3) notes the subscriber list "can be maintained in a
//! distributed fashion as proposed by WS-Membership". Here the membership
//! service drives the gossip engine's peer view under churn.

use wsg_gossip::{GossipConfig, GossipEngine, GossipParams, GossipStyle};
use wsg_membership::{MembershipConfig, MembershipGossip, MembershipMessage};
use wsg_net::sim::{SimConfig, SimNet};
use wsg_net::{Context, NodeId, Protocol, SimDuration, SimTime, TimerTag};

/// A composite node: membership service + gossip engine, with the
/// membership view wired into the engine's peer list on every tick.
struct Composite {
    membership: MembershipGossip,
    engine: GossipEngine<u32>,
}

#[derive(Debug, Clone)]
enum CompositeMsg {
    Membership(MembershipMessage),
    Gossip(wsg_gossip::GossipMessage<u32>),
}

/// Adapters so each sub-protocol can speak through the composite message.
struct MembershipCtx<'a, 'b> {
    inner: &'a mut dyn Context<CompositeMsg>,
    _pd: std::marker::PhantomData<&'b ()>,
}

impl Context<MembershipMessage> for MembershipCtx<'_, '_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn self_id(&self) -> NodeId {
        self.inner.self_id()
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn send(&mut self, to: NodeId, msg: MembershipMessage) {
        self.inner.send(to, CompositeMsg::Membership(msg));
    }
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) {
        self.inner.set_timer(delay, tag);
    }
    fn rng(&mut self) -> &mut dyn wsg_net::Rng64 {
        self.inner.rng()
    }
}

struct GossipCtx<'a> {
    inner: &'a mut dyn Context<CompositeMsg>,
}

impl Context<wsg_gossip::GossipMessage<u32>> for GossipCtx<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn self_id(&self) -> NodeId {
        self.inner.self_id()
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn send(&mut self, to: NodeId, msg: wsg_gossip::GossipMessage<u32>) {
        self.inner.send(to, CompositeMsg::Gossip(msg));
    }
    fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) {
        self.inner.set_timer(delay, tag);
    }
    fn rng(&mut self) -> &mut dyn wsg_net::Rng64 {
        self.inner.rng()
    }
}

impl Protocol for Composite {
    type Message = CompositeMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Message>) {
        self.membership
            .on_start(&mut MembershipCtx { inner: ctx, _pd: std::marker::PhantomData });
        self.engine.on_start(&mut GossipCtx { inner: ctx });
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut dyn Context<Self::Message>) {
        match msg {
            CompositeMsg::Membership(m) => {
                self.membership.on_message(
                    from,
                    m,
                    &mut MembershipCtx { inner: ctx, _pd: std::marker::PhantomData },
                );
            }
            CompositeMsg::Gossip(g) => {
                self.engine.on_message(from, g, &mut GossipCtx { inner: ctx });
            }
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<Self::Message>) {
        // Both sub-protocols get a chance; tags are disjoint.
        self.membership
            .on_timer(tag, &mut MembershipCtx { inner: ctx, _pd: std::marker::PhantomData });
        // Refresh the engine's peer view from the current membership.
        self.engine.set_peers(self.membership.alive_peers());
        self.engine.on_timer(tag, &mut GossipCtx { inner: ctx });
    }
}

fn build(n: usize, seed: u64) -> SimNet<Composite> {
    let mut net = SimNet::new(SimConfig::default().seed(seed));
    net.add_nodes(n, |id| Composite {
        membership: MembershipGossip::new(MembershipConfig::default(), id, n),
        engine: GossipEngine::new(
            GossipConfig::new(GossipStyle::PushPull, GossipParams::atomic_for(n))
                .interval(SimDuration::from_millis(100)),
            Vec::new(), // peers come from membership
        ),
    });
    net.start();
    net
}

#[test]
fn membership_driven_peers_disseminate() {
    let n = 24;
    let mut net = build(n, 1);
    // Let membership converge first.
    net.run_until(SimTime::from_secs(3));
    net.invoke(NodeId(0), |node, ctx| {
        node.engine.publish(42, &mut GossipCtx { inner: ctx });
    });
    net.run_until(SimTime::from_secs(8));
    for i in 0..n {
        assert!(
            !net.node(NodeId(i)).engine.delivered().is_empty(),
            "node {i} missed the message"
        );
    }
}

#[test]
fn dissemination_avoids_nodes_membership_declared_dead() {
    let n = 16;
    let mut net = build(n, 2);
    net.run_until(SimTime::from_secs(3));
    net.crash(NodeId(7));
    // Give the failure detector time to declare it dead everywhere.
    net.run_until(SimTime::from_secs(15));
    let before_dropped = net.stats().dropped_crashed;
    net.invoke(NodeId(0), |node, ctx| {
        node.engine.publish(1, &mut GossipCtx { inner: ctx });
    });
    net.run_until(SimTime::from_secs(20));
    // Survivors all got it...
    for i in 0..n {
        if i == 7 {
            continue;
        }
        assert!(!net.node(NodeId(i)).engine.delivered().is_empty(), "node {i}");
    }
    // ...and (almost) nothing was wasted on the dead node: only membership
    // probes may still hit it, not payload floods.
    let wasted = net.stats().dropped_crashed - before_dropped;
    assert!(
        wasted <= (n as u64) * 2,
        "too many messages ({wasted}) sent to a known-dead node"
    );
}

#[test]
fn rejoining_node_catches_up_via_pull() {
    let n = 12;
    let mut net = build(n, 3);
    net.run_until(SimTime::from_secs(3));
    net.crash(NodeId(5));
    net.run_until(SimTime::from_secs(10));
    // Published while node 5 is down.
    net.invoke(NodeId(0), |node, ctx| {
        node.engine.publish(99, &mut GossipCtx { inner: ctx });
    });
    net.run_until(SimTime::from_secs(12));
    assert!(net.node(NodeId(5)).engine.delivered().is_empty());
    net.recover(NodeId(5));
    // Push-pull periodic reconciliation must deliver the missed message.
    net.run_until(SimTime::from_secs(40));
    assert!(
        !net.node(NodeId(5)).engine.delivered().is_empty(),
        "rejoined node must catch up via pull"
    );
}
