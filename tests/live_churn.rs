//! The live-churn acceptance scenario: a 20-node WS-Gossip fleet on
//! loopback sockets with the `wsg_cluster` membership plane underneath,
//! where nodes crash-stop and join **while a publication stream is in
//! flight**. Survivors must agree on the live member set (heartbeat
//! gossip + φ accrual detection, no announcements for crashes) and
//! dissemination must keep reaching every live member — including the
//! late joiners, for ticks published after they subscribed.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ws_gossip::endpoint::endpoint_of;
use ws_gossip::WsGossipNode;
use wsg_cluster::{ClusterConfig, ClusterRuntime, MembershipPlane};
use wsg_coord::GossipPolicy;
use wsg_gossip::GossipParams;
use wsg_http::client::HttpClientConfig;
use wsg_http::runtime::NetRuntimeConfig;
use wsg_http::server::HttpServerConfig;
use wsg_net::{NodeId, PeerLiveness, SimDuration};
use wsg_xml::Element;

// 50ms heartbeats put the fixed-timeout backstop at 1.5s (30 intervals):
// roomy enough that gossip traffic bursts never transiently kill a live
// member, tight enough that the five crashes are detected mid-stream.
const MEMBERSHIP_INTERVAL_MS: u64 = 50;
const PUBLISH_INTERVAL_MS: u64 = 250;
const TOTAL_TICKS: usize = 36;
const TOPIC: &str = "quotes";

/// Fast-failing transport: a crashed peer costs one refused connect, not
/// a retry ladder, so detection and dissemination stay snappy. The server
/// side is tuned for this fleet's connection count: every node holds
/// ~35 keep-alive connections (gossip senders plus heartbeat pumps), and
/// a saturating notify is ~16 sequential posts that must clear well
/// inside the 250ms publish interval — so more workers and a short read
/// slice keep per-post multiplexing latency in the single milliseconds.
fn loopback_config() -> NetRuntimeConfig {
    NetRuntimeConfig {
        client: HttpClientConfig {
            connect_timeout: Duration::from_millis(300),
            retries: 1,
            ..HttpClientConfig::default()
        },
        server: HttpServerConfig {
            workers: 6,
            read_slice: Duration::from_millis(2),
            ..HttpServerConfig::default()
        },
        ..NetRuntimeConfig::default()
    }
}

/// Poll `cond` every 25ms for up to ~20s; panic with `what` on timeout.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..800 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

fn live_set(plane: &Arc<MembershipPlane>) -> BTreeSet<NodeId> {
    plane.live_members().into_iter().collect()
}

#[test]
fn churn_under_a_live_publication_stream() {
    // A saturating gossip policy (fanout >= fleet size) makes subscriber
    // completeness deterministic; the churn is the variable under test.
    let policy = || GossipPolicy::new(GossipParams::new(32, 8));
    let ticks: Vec<Element> = (0..TOTAL_TICKS)
        .map(|i| Element::text_node("tick", format!("ACME {}", 100 + i)))
        .collect();

    let epoch = Instant::now();
    let mut fleet: ClusterRuntime<WsGossipNode> = ClusterRuntime::new(
        4207,
        loopback_config(),
        ClusterConfig::for_interval(SimDuration::from_millis(MEMBERSHIP_INTERVAL_MS)),
    );

    // n0 coordinator (the seed everyone joins through), n1 initiator
    // publishing the tick stream, n2-n11 disseminators, n12-n19
    // consumers: 20 nodes. Every node adopts its membership plane as the
    // gossip liveness oracle.
    let coordinator = fleet.add_seed(|plane| {
        WsGossipNode::coordinator(NodeId(0)).with_policy(policy()).with_liveness(plane)
    });
    fleet
        .add_node(coordinator, |plane| {
            WsGossipNode::initiator(NodeId(1), coordinator)
                .with_publish_schedule(
                    TOPIC,
                    ticks,
                    SimDuration::from_millis(PUBLISH_INTERVAL_MS),
                )
                .with_liveness(plane)
        })
        .expect("initiator joins");
    for i in 2..12 {
        fleet
            .add_node(coordinator, move |plane| {
                WsGossipNode::disseminator(NodeId(i), coordinator)
                    .with_auto_subscribe(TOPIC)
                    .with_liveness(plane)
            })
            .expect("disseminator joins");
    }
    for i in 12..20 {
        fleet
            .add_node(coordinator, move |plane| {
                WsGossipNode::consumer(NodeId(i), coordinator)
                    .with_auto_subscribe(TOPIC)
                    .with_liveness(plane)
            })
            .expect("consumer joins");
    }
    assert_eq!(fleet.net().node_count(), 20);

    // Membership converges to all 20 via heartbeat gossip (only the seed
    // was told about each joiner directly).
    let everyone: BTreeSet<NodeId> = (0..20).map(NodeId).collect();
    wait_for("initial 20-member convergence", || {
        everyone.iter().all(|id| live_set(&fleet.plane(*id)) == everyone)
    });

    // Crash-stop five consumers mid-stream: listeners down first, no
    // goodbye. Survivors must detect them via silence/refusals alone.
    let crashed: Vec<NodeId> = (15..20).map(NodeId).collect();
    for id in &crashed {
        fleet.crash(*id).expect("crash a live consumer");
    }
    let survivors: BTreeSet<NodeId> = (0..15).map(NodeId).collect();
    wait_for("survivors agree the crashed five are dead", || {
        survivors.iter().all(|id| {
            let plane = fleet.plane(*id);
            crashed.iter().all(|dead| !plane.is_live(*dead))
        })
    });

    // Three late consumers join through the seed while ticks still flow.
    let mut joined = Vec::new();
    for i in 20..23 {
        let id = fleet
            .add_node(coordinator, move |plane| {
                WsGossipNode::consumer(NodeId(i), coordinator)
                    .with_auto_subscribe(TOPIC)
                    .with_liveness(plane)
            })
            .expect("late consumer joins");
        joined.push(id);
    }

    // Every live member converges on the same post-churn view.
    let live: BTreeSet<NodeId> = survivors.iter().copied().chain(joined.clone()).collect();
    wait_for("post-churn agreement on the live member set", || {
        live.iter().all(|id| live_set(&fleet.plane(*id)) == live)
    });

    // The whole churn must finish with stream time to spare, or the
    // late-joiner assertions below would be vacuous.
    let stream = Duration::from_millis(PUBLISH_INTERVAL_MS * TOTAL_TICKS as u64);
    let churn_done = epoch.elapsed();
    assert!(
        churn_done < stream / 2,
        "churn took {churn_done:?}, leaving too little of the {stream:?} stream"
    );

    // Let the stream run out, plus a grace period for the last rounds.
    std::thread::sleep(stream - churn_done + Duration::from_millis(1500));
    let finished = fleet.shutdown();

    let by_id = |id: NodeId| {
        finished
            .iter()
            .find(|n| n.protocol.endpoint() == endpoint_of(id))
            .unwrap_or_else(|| panic!("no final state for {id}"))
    };

    // Original subscribers (disseminators and surviving consumers) end
    // with the complete stream despite five peers dying under them.
    for id in (2..15).map(NodeId) {
        let node = by_id(id);
        assert_eq!(
            node.protocol.distinct_ops().len(),
            TOTAL_TICKS,
            "node {id} missed ticks; transport: {:?}",
            node.transport
        );
    }

    // Late joiners — subscribed mid-stream — received the closing ticks
    // published after they arrived, proving dissemination reaches every
    // live member of the post-churn fleet.
    for id in &joined {
        let ops = by_id(*id).protocol.distinct_ops();
        assert!(!ops.is_empty(), "late joiner {id} never received a tick");
        let max_seq = ops.iter().map(|op| op.seq).max().unwrap();
        assert_eq!(
            max_seq,
            TOTAL_TICKS as u64 - 1,
            "late joiner {id} missed the closing tick"
        );
    }

    // And the crashed five are genuinely gone: their final states were
    // returned by crash() at crash time, not by shutdown().
    for id in &crashed {
        assert!(
            !finished.iter().any(|n| n.protocol.endpoint() == endpoint_of(*id)),
            "crashed node {id} reappeared at shutdown"
        );
    }
}
