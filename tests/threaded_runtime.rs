//! The same protocols on real OS threads: the gossip engine and the
//! membership service running over `wsg_net::threads::ThreadNet` with
//! wall-clock timers and `std::sync::mpsc` channels — proving the protocol
//! implementations are not simulation artifacts.

use std::time::Duration;

use wsg_gossip::{GossipConfig, GossipEngine, GossipParams, GossipStyle};
use wsg_membership::{MembershipConfig, MembershipGossip};
use wsg_net::threads::ThreadNet;
use wsg_net::{NodeId, SimDuration};

#[test]
fn eager_push_disseminates_over_real_threads() {
    let n = 8;
    let params = GossipParams::new(n, 4); // saturating fanout: deterministic
    let engines: Vec<GossipEngine<String>> = (0..n)
        .map(|i| {
            let peers = (0..n).map(NodeId).filter(|p| p.index() != i).collect();
            GossipEngine::new(GossipConfig::new(GossipStyle::EagerPush, params.clone()), peers)
        })
        .collect();
    let net = ThreadNet::spawn(engines, 42);
    // Inject the publication as a Push from a synthetic origin.
    net.send_external(
        NodeId(0),
        NodeId(0),
        wsg_gossip::GossipMessage::Push {
            id: wsg_gossip::MsgId::new(NodeId(0), 0),
            round: 0,
            payload: "live!".to_string(),
        },
    );
    let nodes = net.shutdown_after(Duration::from_millis(500));
    let reached = nodes.iter().filter(|e| !e.delivered().is_empty()).count();
    assert_eq!(reached, n, "all live nodes must deliver");
}

#[test]
fn pull_style_ticks_on_wall_clock() {
    let n = 6;
    let engines: Vec<GossipEngine<u32>> = (0..n)
        .map(|i| {
            let peers = (0..n).map(NodeId).filter(|p| p.index() != i).collect();
            GossipEngine::new(
                GossipConfig::new(GossipStyle::Pull, GossipParams::new(2, 4))
                    .interval(SimDuration::from_millis(30)),
                peers,
            )
        })
        .collect();
    let net = ThreadNet::spawn(engines, 7);
    net.send_external(
        NodeId(0),
        NodeId(0),
        wsg_gossip::GossipMessage::Push {
            id: wsg_gossip::MsgId::new(NodeId(0), 0),
            round: 0,
            payload: 9,
        },
    );
    // Several pull intervals of wall time.
    let nodes = net.shutdown_after(Duration::from_millis(800));
    let reached = nodes.iter().filter(|e| !e.delivered().is_empty()).count();
    assert!(reached >= n - 1, "pull should spread over threads: {reached}/{n}");
}

#[test]
fn membership_converges_on_threads() {
    let n = 6;
    let members: Vec<MembershipGossip> = (0..n)
        .map(|i| {
            MembershipGossip::new(
                MembershipConfig::default().interval(SimDuration::from_millis(40)),
                NodeId(i),
                n,
            )
        })
        .collect();
    let net = ThreadNet::spawn(members, 3);
    let nodes = net.shutdown_after(Duration::from_millis(1200));
    for (i, node) in nodes.iter().enumerate() {
        assert!(
            node.view().alive_count() >= n - 1,
            "node {i} only sees {} alive",
            node.view().alive_count()
        );
    }
}
