//! The per-node membership plane: a [`MembershipView`] plus φ accrual
//! detectors, driven by a [`Clock`] so the same logic runs on virtual
//! and wall-clock time.
//!
//! The plane is a passive state machine: [`MembershipPlane::handle`]
//! folds in received envelopes, [`MembershipPlane::tick`] advances one
//! gossip round — the same [`MembershipView::gossip_round`] the simulated
//! `MembershipGossip` runs, with φ accrual and tombstones layered on top.
//! *Sending* is the caller's job — `ClusterRuntime` pumps
//! ticks from a thread, tests crank the clock by hand.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;

use wsg_membership::{FailureDetectorConfig, MemberStatus, MembershipView, PhiAccrual};
use wsg_net::sync::Mutex;
use wsg_net::time::Clock;
use wsg_net::{NodeId, Pcg32, PeerLiveness, SimDuration, SimTime};
use wsg_obs::{Counter, Gauge, Registry};

use crate::proto::{ClusterMessage, MemberEntry};

/// Tuning knobs for the membership plane.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Gossip round length: how often each node bumps its heartbeat and
    /// pushes its view to `fanout` peers.
    pub interval: SimDuration,
    /// Peers targeted per round.
    pub fanout: usize,
    /// The fixed-timeout backstop (suspect/fail/forget ages).
    pub detector: FailureDetectorConfig,
}

/// φ level at which the accrual detector downgrades a member to suspect
/// ahead of the fixed suspect timeout (8 ≈ a one-in-10⁸ false positive
/// under the learned inter-arrival distribution).
const PHI_THRESHOLD: f64 = 8.0;

/// Inter-arrival samples each member's accrual detector remembers.
const ACCRUAL_WINDOW: usize = 32;

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::for_interval(SimDuration::from_millis(100))
    }
}

impl ClusterConfig {
    /// A config whose detector timeouts scale with the gossip interval
    /// (see [`FailureDetectorConfig::for_interval`]).
    pub fn for_interval(interval: SimDuration) -> Self {
        ClusterConfig { interval, fanout: 3, detector: FailureDetectorConfig::for_interval(interval) }
    }
}

/// Everything guarded by the plane's state lock.
#[derive(Debug)]
struct PlaneState {
    view: MembershipView,
    /// Member → socket address, learned from gossip and joins. Entries
    /// outlive view entries (addresses are stable per id in a run).
    addrs: BTreeMap<NodeId, SocketAddr>,
    /// Per-member φ accrual detectors (never one for ourselves).
    accrual: BTreeMap<NodeId, PhiAccrual>,
    /// Members that announced a graceful `Leave`: their gossiped
    /// heartbeats are ignored until an explicit re-`Join`.
    left: BTreeSet<NodeId>,
    /// Members whose socket refused a connection: re-marked dead every
    /// tick until their heartbeat counter progresses again.
    condemned: BTreeSet<NodeId>,
    /// Our own heartbeat counter.
    heartbeat: u64,
    /// Drives the per-round target shuffle.
    rng: Pcg32,
}

/// Gauge/counter handles registered lazily once the node's registry
/// exists (the runtime creates registries at deploy time).
#[derive(Debug)]
struct PlaneMetrics {
    alive: Arc<Gauge>,
    suspect: Arc<Gauge>,
    dead: Arc<Gauge>,
    heartbeats: Arc<Counter>,
}

impl PlaneMetrics {
    fn new(registry: &Registry) -> Self {
        PlaneMetrics {
            alive: registry
                .register_gauge("wsg_membership_alive", "Members currently considered alive."),
            suspect: registry
                .register_gauge("wsg_membership_suspect", "Members currently under suspicion."),
            dead: registry.register_gauge(
                "wsg_membership_dead",
                "Members declared dead but not yet forgotten.",
            ),
            heartbeats: registry.register_counter(
                "wsg_membership_heartbeats_total",
                "Membership heartbeat envelopes received and folded into the view.",
            ),
        }
    }
}

/// One node's live membership plane.
///
/// Shared (`Arc`) between the node's `/membership` SOAP route, its pump
/// thread, and — through [`PeerLiveness`] — the gossip protocol's peer
/// selection.
pub struct MembershipPlane {
    me: NodeId,
    clock: Arc<dyn Clock>,
    config: ClusterConfig,
    state: Mutex<PlaneState>,
    metrics: Mutex<Option<PlaneMetrics>>,
}

impl std::fmt::Debug for MembershipPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (alive, suspect, dead) = self.status_counts();
        f.debug_struct("MembershipPlane")
            .field("me", &self.me)
            .field("alive", &alive)
            .field("suspect", &suspect)
            .field("dead", &dead)
            .finish()
    }
}

impl MembershipPlane {
    /// A plane for node `me` reading time from `clock`; `seed` drives
    /// the per-round target shuffle.
    pub fn new(me: NodeId, clock: Arc<dyn Clock>, config: ClusterConfig, seed: u64) -> Self {
        MembershipPlane {
            me,
            clock,
            config,
            state: Mutex::new(PlaneState {
                view: MembershipView::new(),
                addrs: BTreeMap::new(),
                accrual: BTreeMap::new(),
                left: BTreeSet::new(),
                condemned: BTreeSet::new(),
                heartbeat: 0,
                rng: Pcg32::new(seed, me.index() as u64),
            }),
            metrics: Mutex::new(None),
        }
    }

    /// This plane's node id.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The plane's tuning knobs.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The plane's clock reading — the time base of every timestamp in
    /// its view. On a `ClusterRuntime` this is the node loops' clock, so
    /// it is directly comparable with the protocol's `ctx.now()`.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Record our own listening address and seed the view with ourselves.
    /// Must be called before any message handling.
    pub fn register_self(&self, addr: SocketAddr) {
        let now = self.now();
        let mut state = self.state.lock();
        state.addrs.insert(self.me, addr);
        state.left.remove(&self.me);
        let heartbeat = state.heartbeat;
        state.view.readmit(self.me, heartbeat, now);
        self.publish(&state);
    }

    /// Register the `wsg_membership_*` metrics in `registry` and start
    /// mirroring the view's status counts into them.
    pub(crate) fn attach_registry(&self, registry: &Registry) {
        let state = self.state.lock();
        let mut metrics = self.metrics.lock();
        *metrics = Some(PlaneMetrics::new(registry));
        drop(metrics);
        self.publish(&state);
    }

    /// Our own `(id, addr, heartbeat)` evidence — the body of the `Join` a
    /// joiner posts to a seed and of the `Leave` a departing node announces.
    ///
    /// # Panics
    ///
    /// Panics if [`MembershipPlane::register_self`] has not run.
    pub(crate) fn self_entry(&self) -> MemberEntry {
        let state = self.state.lock();
        MemberEntry {
            id: self.me,
            addr: *state.addrs.get(&self.me).expect("register_self before self_entry"),
            heartbeat: state.heartbeat,
        }
    }

    /// Adopt a seed's `JoinResponse`: every listed member is (re-)admitted
    /// outright — the seed vouches for the snapshot, and a joiner has no
    /// history of its own to merge monotonically against.
    pub fn bootstrap(&self, members: &[MemberEntry]) {
        self.handle(&ClusterMessage::JoinResponse(members.to_vec()));
    }

    /// Fold one received membership envelope into the plane. Returns the
    /// synchronous reply to send back, if the operation has one (`Join`).
    pub fn handle(&self, message: &ClusterMessage) -> Option<ClusterMessage> {
        let now = self.now();
        let mut state = self.state.lock();
        let reply = match message {
            ClusterMessage::Join(entry) => {
                self.admit(&mut state, *entry, now);
                Some(ClusterMessage::JoinResponse(Self::entries(state.view.snapshot(), &state.addrs)))
            }
            ClusterMessage::JoinResponse(entries) => {
                for entry in entries {
                    if entry.id != self.me {
                        self.admit(&mut state, *entry, now);
                    }
                }
                None
            }
            ClusterMessage::Heartbeat(entries) => {
                if let Some(metrics) = self.metrics.lock().as_ref() {
                    metrics.heartbeats.inc();
                }
                for entry in entries {
                    if entry.id == self.me || state.left.contains(&entry.id) {
                        continue;
                    }
                    state.addrs.entry(entry.id).or_insert(entry.addr);
                    if state.view.record(entry.id, entry.heartbeat, now) {
                        // The counter progressed: genuinely fresh evidence,
                        // feed the accrual detector and lift any refusal
                        // verdict — the member is demonstrably back.
                        state.condemned.remove(&entry.id);
                        state
                            .accrual
                            .entry(entry.id)
                            .or_insert_with(|| PhiAccrual::new(ACCRUAL_WINDOW))
                            .heartbeat(now);
                    }
                }
                None
            }
            ClusterMessage::Leave(entry) => {
                state.left.insert(entry.id);
                state.view.mark_dead(entry.id);
                None
            }
        };
        self.publish(&state);
        reply
    }

    /// An explicit (re-)introduction: replaces any stale entry even if the
    /// member's heartbeat counter regressed (process restart), and clears
    /// standing tombstones.
    fn admit(&self, state: &mut PlaneState, entry: MemberEntry, now: SimTime) {
        state.left.remove(&entry.id);
        state.condemned.remove(&entry.id);
        state.addrs.insert(entry.id, entry.addr);
        state.view.readmit(entry.id, entry.heartbeat, now);
        let mut accrual = PhiAccrual::new(ACCRUAL_WINDOW);
        accrual.heartbeat(now);
        state.accrual.insert(entry.id, accrual);
    }

    /// Advance one gossip round ([`MembershipView::gossip_round`]) with
    /// the plane's own evidence layered on the fixed timeouts: φ accrual
    /// suspicion, then standing refusal and leave tombstones. Returns the
    /// heartbeat message to push and the chosen `(peer, addr)` targets.
    pub fn tick(&self) -> (ClusterMessage, Vec<(NodeId, SocketAddr)>) {
        let now = self.now();
        let mut state = self.state.lock();
        let PlaneState { view, addrs, accrual, left, condemned, heartbeat, rng, .. } = &mut *state;
        let round = view.gossip_round(
            self.me,
            heartbeat,
            now,
            &self.config.detector,
            self.config.fanout,
            rng,
            |view| {
                // φ accrual is adaptive and usually fires before the
                // fixed suspect timeout does.
                for (id, phi) in accrual.iter() {
                    if *id != self.me && phi.is_suspect(now, PHI_THRESHOLD) {
                        view.mark_suspect(*id);
                    }
                }
                for id in condemned.iter().chain(left.iter()) {
                    view.mark_dead(*id);
                }
            },
        );
        // Forgotten members need no detector or tombstone state any more.
        accrual.retain(|id, _| view.status(*id).is_some());
        condemned.retain(|id| view.status(*id).is_some());
        left.retain(|id| view.status(*id).is_some());

        let targets =
            round.targets.iter().filter_map(|id| addrs.get(id).map(|addr| (*id, *addr))).collect();
        let message = ClusterMessage::Heartbeat(Self::entries(round.snapshot, addrs));
        self.publish(&state);
        (message, targets)
    }

    /// `snapshot`'s members with known addresses (a view's
    /// [`MembershipView::snapshot`]: the non-dead members, ourselves
    /// included).
    fn entries(
        snapshot: Vec<(NodeId, u64)>,
        addrs: &BTreeMap<NodeId, SocketAddr>,
    ) -> Vec<MemberEntry> {
        snapshot
            .into_iter()
            .filter_map(|(id, heartbeat)| {
                addrs.get(&id).map(|addr| MemberEntry { id, addr: *addr, heartbeat })
            })
            .collect()
    }

    /// Record that `addr` refused a connection: its member is declared
    /// dead now and re-condemned every tick until its heartbeat counter
    /// progresses again. Returns the member, if the address is known.
    pub fn note_unreachable(&self, addr: SocketAddr) -> Option<NodeId> {
        let mut state = self.state.lock();
        let id = state
            .addrs
            .iter()
            .find(|(id, known)| **known == addr && **id != self.me)
            .map(|(id, _)| *id)?;
        state.condemned.insert(id);
        state.view.mark_dead(id);
        self.publish(&state);
        Some(id)
    }

    /// Addresses of members currently declared dead or departed — what
    /// the transport should evict pooled connections for.
    pub fn dead_addrs(&self) -> Vec<SocketAddr> {
        let state = self.state.lock();
        state
            .addrs
            .iter()
            .filter(|(id, _)| {
                state.left.contains(id) || state.view.status(**id) == Some(MemberStatus::Dead)
            })
            .map(|(_, addr)| *addr)
            .collect()
    }

    /// Members currently alive or suspect (ourselves included).
    pub fn live_members(&self) -> Vec<NodeId> {
        self.state.lock().view.not_dead()
    }

    /// `(alive, suspect, dead)` — what the gauges export.
    pub fn status_counts(&self) -> (usize, usize, usize) {
        self.state.lock().view.status_counts()
    }

    /// The liveness verdict for one member, if known at all.
    pub fn status_of(&self, member: NodeId) -> Option<MemberStatus> {
        self.state.lock().view.status(member)
    }

    /// The known address of a member.
    pub fn addr_of(&self, member: NodeId) -> Option<SocketAddr> {
        self.state.lock().addrs.get(&member).copied()
    }

    /// Mirror the view's status counts into the gauges (when attached).
    fn publish(&self, state: &PlaneState) {
        let metrics = self.metrics.lock();
        if let Some(metrics) = metrics.as_ref() {
            let (alive, suspect, dead) = state.view.status_counts();
            metrics.alive.set(alive as i64);
            metrics.suspect.set(suspect as i64);
            metrics.dead.set(dead as i64);
        }
    }
}

/// Dead or departed members are not gossip targets; everyone else —
/// including merely-suspect members and strangers the plane has never
/// heard of — is, erring towards availability.
impl PeerLiveness for MembershipPlane {
    fn is_live(&self, peer: NodeId) -> bool {
        let state = self.state.lock();
        if state.left.contains(&peer) {
            return false;
        }
        state.view.status(peer) != Some(MemberStatus::Dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::time::ManualClock;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn plane_at(me: usize, clock: Arc<ManualClock>) -> MembershipPlane {
        let plane = MembershipPlane::new(
            NodeId(me),
            clock,
            ClusterConfig::for_interval(SimDuration::from_millis(100)),
            7,
        );
        plane.register_self(addr(9000 + me as u16));
        plane
    }

    #[test]
    fn join_is_answered_with_the_membership() {
        let clock = Arc::new(ManualClock::new());
        let seed = plane_at(0, Arc::clone(&clock));
        let joiner = MemberEntry { id: NodeId(1), addr: addr(9001), heartbeat: 0 };
        let reply = seed.handle(&ClusterMessage::Join(joiner)).expect("join replies");
        let ClusterMessage::JoinResponse(entries) = reply else {
            panic!("expected JoinResponse, got {reply:?}");
        };
        let ids: Vec<NodeId> = entries.iter().map(|e| e.id).collect();
        assert!(ids.contains(&NodeId(0)) && ids.contains(&NodeId(1)), "{ids:?}");
        assert!(seed.is_live(NodeId(1)));
    }

    #[test]
    fn silence_progresses_suspect_then_dead_then_forgotten() {
        let clock = Arc::new(ManualClock::new());
        let plane = plane_at(0, Arc::clone(&clock));
        plane.handle(&ClusterMessage::Heartbeat(vec![MemberEntry {
            id: NodeId(1),
            addr: addr(9001),
            heartbeat: 1,
        }]));
        assert_eq!(plane.status_of(NodeId(1)), Some(MemberStatus::Alive));

        // Fixed timeouts for a 100ms interval: suspect 1s, fail 3s, forget 30s.
        clock.advance(SimDuration::from_millis(1500));
        plane.tick();
        assert_eq!(plane.status_of(NodeId(1)), Some(MemberStatus::Suspect));
        assert!(plane.is_live(NodeId(1)), "suspects stay usable");

        clock.advance(SimDuration::from_millis(2000));
        plane.tick();
        assert_eq!(plane.status_of(NodeId(1)), Some(MemberStatus::Dead));
        assert!(!plane.is_live(NodeId(1)));
        assert_eq!(plane.dead_addrs(), vec![addr(9001)]);

        clock.set(SimTime::from_secs(40));
        plane.tick();
        assert_eq!(plane.status_of(NodeId(1)), None, "forgotten");
    }

    #[test]
    fn sim_service_and_live_plane_share_the_fixed_timeout_transitions() {
        use wsg_membership::service::MEMBERSHIP_TICK;
        use wsg_membership::{MembershipConfig, MembershipGossip, MembershipMessage};
        use wsg_net::{Context, Protocol, Rng64, TimerTag};

        /// Just enough runtime for `MembershipGossip`: a settable clock
        /// and an RNG; sends and timers are the sim's business, not ours.
        struct ScriptCtx {
            now: SimTime,
            rng: Pcg32,
        }
        impl Context<MembershipMessage> for ScriptCtx {
            fn now(&self) -> SimTime {
                self.now
            }
            fn self_id(&self) -> NodeId {
                NodeId(0)
            }
            fn node_count(&self) -> usize {
                2
            }
            fn send(&mut self, _to: NodeId, _msg: MembershipMessage) {}
            fn set_timer(&mut self, _delay: SimDuration, _tag: TimerTag) {}
            fn rng(&mut self) -> &mut dyn Rng64 {
                &mut self.rng
            }
        }

        // Member 0, twice: the simulated service on a scripted context,
        // the live plane on a ManualClock. Both tick every 100 ms, so both
        // run suspect 1 s / dead 3 s / forget 30 s.
        let interval = SimDuration::from_millis(100);
        let mut ctx = ScriptCtx { now: SimTime::ZERO, rng: Pcg32::new(7, 0) };
        let mut service =
            MembershipGossip::new(MembershipConfig::default().interval(interval), NodeId(0), 2);
        service.on_start(&mut ctx);
        let clock = Arc::new(ManualClock::new());
        let plane = plane_at(0, Arc::clone(&clock));

        // The script: member 1's heartbeat progresses twice, last at
        // 500 ms, then it falls silent. Two arrivals teach the plane's φ
        // detector a single interval — under its two-sample minimum — so
        // only the shared round's fixed timeouts are in play.
        let mut transitions = Vec::new();
        let mut last = Some(MemberStatus::Alive);
        for at_ms in (100..=31_000).step_by(100) {
            let now = SimTime::from_millis(at_ms);
            ctx.now = now;
            clock.set(now);
            if let Some(beat) = [(100, 1), (500, 2)].iter().find(|(at, _)| *at == at_ms) {
                let gossip = MembershipMessage::ViewGossip(vec![(NodeId(1), beat.1)]);
                service.on_message(NodeId(1), gossip, &mut ctx);
                plane.handle(&ClusterMessage::Heartbeat(vec![MemberEntry {
                    id: NodeId(1),
                    addr: addr(9001),
                    heartbeat: beat.1,
                }]));
            }
            service.on_timer(MEMBERSHIP_TICK, &mut ctx);
            plane.tick();
            let status = service.view().status(NodeId(1));
            assert_eq!(status, plane.status_of(NodeId(1)), "sim and live disagree at {at_ms} ms");
            if status != last {
                transitions.push((at_ms, status));
                last = status;
            }
        }
        // Exactly at the boundaries, counted from the last progress (500 ms).
        assert_eq!(
            transitions,
            vec![
                (1_500, Some(MemberStatus::Suspect)),
                (3_500, Some(MemberStatus::Dead)),
                (30_500, None),
            ]
        );
    }

    #[test]
    fn phi_accrual_suspects_before_the_fixed_timeout() {
        let clock = Arc::new(ManualClock::new());
        let plane = plane_at(0, Arc::clone(&clock));
        // A steady 100ms heartbeat rhythm teaches the accrual detector.
        for beat in 1..=30u64 {
            clock.advance(SimDuration::from_millis(100));
            plane.handle(&ClusterMessage::Heartbeat(vec![MemberEntry {
                id: NodeId(1),
                addr: addr(9001),
                heartbeat: beat,
            }]));
        }
        // 600ms of silence: far under the fixed 1s suspect timeout, but
        // six learned intervals — φ is overwhelming.
        clock.advance(SimDuration::from_millis(600));
        plane.tick();
        assert_eq!(plane.status_of(NodeId(1)), Some(MemberStatus::Suspect));
        assert!(plane.is_live(NodeId(1)));
    }

    #[test]
    fn refused_connections_condemn_until_fresh_progress() {
        let clock = Arc::new(ManualClock::new());
        let plane = plane_at(0, Arc::clone(&clock));
        plane.handle(&ClusterMessage::Heartbeat(vec![MemberEntry {
            id: NodeId(1),
            addr: addr(9001),
            heartbeat: 5,
        }]));
        assert_eq!(plane.note_unreachable(addr(9001)), Some(NodeId(1)));
        assert!(!plane.is_live(NodeId(1)));
        // The next tick's reassess would resurrect it from heartbeat age
        // alone; the condemnation must stick.
        clock.advance(SimDuration::from_millis(100));
        plane.tick();
        assert_eq!(plane.status_of(NodeId(1)), Some(MemberStatus::Dead));
        // Stale gossip (counter not progressing) does not resurrect...
        plane.handle(&ClusterMessage::Heartbeat(vec![MemberEntry {
            id: NodeId(1),
            addr: addr(9001),
            heartbeat: 5,
        }]));
        plane.tick();
        assert!(!plane.is_live(NodeId(1)));
        // ...fresh progress does.
        plane.handle(&ClusterMessage::Heartbeat(vec![MemberEntry {
            id: NodeId(1),
            addr: addr(9001),
            heartbeat: 6,
        }]));
        assert!(plane.is_live(NodeId(1)));
        clock.advance(SimDuration::from_millis(100));
        plane.tick();
        assert_eq!(plane.status_of(NodeId(1)), Some(MemberStatus::Alive));
    }

    #[test]
    fn leavers_are_tombstoned_until_rejoin() {
        let clock = Arc::new(ManualClock::new());
        let plane = plane_at(0, Arc::clone(&clock));
        let one = MemberEntry { id: NodeId(1), addr: addr(9001), heartbeat: 3 };
        plane.handle(&ClusterMessage::Heartbeat(vec![one]));
        plane.handle(&ClusterMessage::Leave(one));
        assert!(!plane.is_live(NodeId(1)));
        // Even *fresh* gossip about a leaver is ignored: the departure was
        // deliberate, only a new Join re-admits.
        plane.handle(&ClusterMessage::Heartbeat(vec![MemberEntry {
            id: NodeId(1),
            addr: addr(9001),
            heartbeat: 9,
        }]));
        plane.tick();
        assert!(!plane.is_live(NodeId(1)));
        plane.handle(&ClusterMessage::Join(MemberEntry {
            id: NodeId(1),
            addr: addr(9001),
            heartbeat: 0,
        }));
        assert!(plane.is_live(NodeId(1)));
    }

    #[test]
    fn tick_targets_skip_self_and_dead_members() {
        let clock = Arc::new(ManualClock::new());
        let plane = plane_at(0, Arc::clone(&clock));
        for id in 1..=5usize {
            plane.handle(&ClusterMessage::Heartbeat(vec![MemberEntry {
                id: NodeId(id),
                addr: addr(9000 + id as u16),
                heartbeat: 1,
            }]));
        }
        plane.note_unreachable(addr(9003));
        let (message, targets) = plane.tick();
        assert!(matches!(message, ClusterMessage::Heartbeat(_)));
        assert_eq!(targets.len(), plane.config().fanout);
        for (id, _) in &targets {
            assert_ne!(*id, NodeId(0), "never gossips to itself");
            assert_ne!(*id, NodeId(3), "never gossips to the dead");
        }
        // The pushed snapshot excludes the dead member too.
        let ClusterMessage::Heartbeat(entries) = message else { unreachable!() };
        assert!(entries.iter().all(|e| e.id != NodeId(3)));
        assert!(entries.iter().any(|e| e.id == NodeId(0)), "advertises itself");
    }

    #[test]
    fn gauges_track_the_view_and_heartbeats_count() {
        let clock = Arc::new(ManualClock::new());
        let plane = plane_at(0, Arc::clone(&clock));
        let registry = Registry::new();
        plane.attach_registry(&registry);
        plane.handle(&ClusterMessage::Heartbeat(vec![MemberEntry {
            id: NodeId(1),
            addr: addr(9001),
            heartbeat: 1,
        }]));
        plane.note_unreachable(addr(9001));
        let text = registry.render();
        assert!(text.contains("wsg_membership_alive 1\n"), "{text}");
        assert!(text.contains("wsg_membership_dead 1\n"), "{text}");
        assert!(text.contains("wsg_membership_suspect 0\n"), "{text}");
        assert!(text.contains("wsg_membership_heartbeats_total 1\n"), "{text}");
    }
}
