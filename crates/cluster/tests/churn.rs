//! Socket-level churn: a small fleet with a no-op application protocol,
//! exercising join bootstrap, crash detection, graceful leave and the
//! membership metrics — everything but the gossip dissemination layer
//! (which `tests/live_churn.rs` at the workspace root covers).

use std::collections::BTreeSet;
use std::sync::Arc;

use wsg_cluster::{ClusterConfig, ClusterRuntime, MembershipPlane};
use wsg_http::NetRuntimeConfig;
use wsg_net::{Context, NodeId, PeerLiveness, Protocol, SimDuration};

/// An application protocol that does nothing: these tests are about the
/// membership plane underneath it.
#[derive(Debug, Default)]
struct Idle;

impl Protocol for Idle {
    type Message = String;
    fn on_message(&mut self, _from: NodeId, _msg: String, _ctx: &mut dyn Context<String>) {}
}

const INTERVAL_MS: u64 = 20;

fn fleet(seed: u64) -> ClusterRuntime<Idle> {
    ClusterRuntime::new(
        seed,
        NetRuntimeConfig::default(),
        ClusterConfig::for_interval(SimDuration::from_millis(INTERVAL_MS)),
    )
}

/// Poll `cond` every gossip interval until it holds, for up to ~15s of
/// wall-clock; panics with `what` on timeout.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..(15_000 / INTERVAL_MS) {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(INTERVAL_MS));
    }
    panic!("timed out waiting for {what}");
}

fn live_set(plane: &Arc<MembershipPlane>) -> BTreeSet<NodeId> {
    plane.live_members().into_iter().collect()
}

#[test]
fn fleet_converges_through_joins_crashes_and_leaves() {
    let mut fleet = fleet(42);
    let seed = fleet.add_seed(|_| Idle);
    for _ in 0..4 {
        fleet.add_node(seed, |_| Idle).expect("join via seed");
    }
    let ids: Vec<NodeId> = (0..5).map(NodeId).collect();

    // Everyone discovers everyone through heartbeat gossip alone (only
    // the seed was told about the joiners directly).
    let full: BTreeSet<NodeId> = ids.iter().copied().collect();
    wait_for("full membership at every node", || {
        ids.iter().all(|id| live_set(&fleet.plane(*id)) == full)
    });

    // Crash one node: survivors must *detect* it (φ accrual silence or a
    // refused heartbeat) with no announcement.
    let crashed = NodeId(4);
    fleet.crash(crashed).expect("crash a live node");
    let survivors: Vec<NodeId> = (0..4).map(NodeId).collect();
    wait_for("crash detected by all survivors", || {
        survivors.iter().all(|id| !fleet.plane(*id).is_live(crashed))
    });

    // Graceful leave: the announcement tombstones the leaver quickly and
    // for good — no resurrection from stale heartbeats in flight.
    let leaver = NodeId(3);
    fleet.leave(leaver).expect("leave with a live node");
    let survivors: Vec<NodeId> = (0..3).map(NodeId).collect();
    wait_for("leave observed by all survivors", || {
        survivors.iter().all(|id| !fleet.plane(*id).is_live(leaver))
    });

    // A late joiner bootstraps off the seed and the whole surviving
    // fleet agrees on the final live set.
    let joined = fleet.add_node(seed, |_| Idle).expect("late join");
    let expected: BTreeSet<NodeId> =
        survivors.iter().copied().chain([joined]).collect();
    wait_for("post-churn agreement", || {
        expected.iter().all(|id| live_set(&fleet.plane(*id)) == expected)
    });

    // The membership gauges mirror the converged view.
    let text = fleet.registry_of(seed).render();
    assert!(text.contains("wsg_membership_alive 4\n"), "{text}");
    assert!(text.contains("wsg_membership_heartbeats_total"), "{text}");

    fleet.shutdown();
}

#[test]
fn plane_is_a_liveness_oracle_for_the_protocol_builder() {
    let mut fleet = fleet(7);
    // The builder closure receives the plane; a real protocol would stash
    // it as its PeerLiveness. Prove the handoff works and the oracle is
    // honest about a member it has never heard of (optimistic default).
    let mut handed: Option<Arc<MembershipPlane>> = None;
    let id = fleet.add_seed(|plane| {
        handed = Some(plane);
        Idle
    });
    let plane = handed.expect("builder ran");
    assert_eq!(plane.id(), id);
    assert!(plane.is_live(NodeId(99)), "strangers are presumed live");
    let oracle: Arc<dyn PeerLiveness> = plane;
    assert!(oracle.is_live(id));
    fleet.shutdown();
}

#[test]
fn shutdown_overlaps_the_pumps_last_sleeps() {
    // Eight pumps at a 200 ms interval, deployed 175 ms apart so each
    // node's next wake-up falls 25 ms *before* its predecessor's: a
    // shutdown that flags and joins pumps one at a time then just misses
    // every flag and waits out nearly a full interval per node
    // (~7 x 175 ms on top of the first). Flagging all of them first
    // bounds the whole teardown by a single interval.
    const NODES: u64 = 8;
    const PUMP_MS: u64 = 200;
    let mut fleet = ClusterRuntime::new(
        11,
        NetRuntimeConfig::default(),
        ClusterConfig::for_interval(SimDuration::from_millis(PUMP_MS)),
    );
    let seed = fleet.add_seed(|_| Idle);
    for _ in 1..NODES {
        std::thread::sleep(std::time::Duration::from_millis(PUMP_MS - 25));
        fleet.add_node(seed, |_| Idle).expect("join via seed");
    }
    let started = std::time::Instant::now();
    let nodes = fleet.shutdown();
    let took = started.elapsed();
    assert_eq!(nodes.len() as u64, NODES);
    assert!(
        took < std::time::Duration::from_millis(NODES * PUMP_MS / 2),
        "shutting down {NODES} pumps took {took:?}, want well under {NODES} x {PUMP_MS} ms"
    );
}

#[test]
fn node_loop_and_plane_read_one_epoch() {
    use wsg_net::SimTime;

    /// Reads the plane's clock between two `ctx.now()` readings.
    struct Sandwich {
        plane: Arc<MembershipPlane>,
        readings: Option<(SimTime, SimTime, SimTime)>,
    }
    impl Protocol for Sandwich {
        type Message = String;
        fn on_start(&mut self, ctx: &mut dyn Context<String>) {
            self.readings = Some((ctx.now(), self.plane.now(), ctx.now()));
        }
        fn on_message(&mut self, _: NodeId, _: String, _: &mut dyn Context<String>) {}
    }

    let mut fleet = ClusterRuntime::new(
        3,
        NetRuntimeConfig::default(),
        ClusterConfig::for_interval(SimDuration::from_millis(INTERVAL_MS)),
    );
    // Let the epoch age first, so two clocks created at different moments
    // could not agree by accident.
    std::thread::sleep(std::time::Duration::from_millis(50));
    fleet.add_seed(|plane| Sandwich { plane, readings: None });
    let nodes = fleet.shutdown();
    let (before, plane_now, after) = nodes[0].protocol.readings.expect("on_start ran");
    assert!(before >= SimTime::from_millis(50), "ctx.now() counts from the fleet's creation");
    assert!(
        before <= plane_now && plane_now <= after,
        "plane clock {plane_now:?} outside the node loop's [{before:?}, {after:?}]"
    );
}
