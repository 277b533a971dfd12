//! The membership table.

use std::collections::BTreeMap;

use wsg_net::{NodeId, Rng64, RngExt, SimTime};

use crate::detector::FailureDetectorConfig;

/// Liveness status assigned by the failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemberStatus {
    /// Fresh heartbeats are arriving.
    Alive,
    /// No fresh heartbeat for longer than the suspect timeout.
    Suspect,
    /// No fresh heartbeat for longer than the fail timeout; excluded from
    /// peer selection and will eventually be forgotten.
    Dead,
}

/// What one node believes about one member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MemberInfo {
    /// The member's heartbeat counter (monotonic at the member itself).
    pub heartbeat: u64,
    /// Local time at which `heartbeat` last increased.
    pub last_progress: SimTime,
    /// Current liveness verdict.
    pub status: MemberStatus,
}

/// What one [`MembershipView::gossip_round`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Up to `fanout` non-dead members other than ourselves, in push order.
    pub targets: Vec<NodeId>,
    /// The heartbeat snapshot to push to them (dead members excluded).
    pub snapshot: Vec<(NodeId, u64)>,
}

/// A node's view of the membership: member → freshest known evidence.
///
/// Views merge by keeping, per member, the entry with the highest
/// heartbeat; the merge is commutative, associative and idempotent, which
/// is what lets heartbeats spread by gossip.
///
/// The view is **clock-generic**: every mutation takes the caller's
/// `now: SimTime`, so the same code runs on the simulator's virtual
/// clock and, via a [`wsg_net::time::Clock`], on wall-clock time in the
/// live membership plane (`wsg_cluster`) — bit-identically for the same
/// sequence of readings.
///
/// ```
/// use wsg_membership::MembershipView;
/// use wsg_net::{NodeId, SimTime};
///
/// let mut view = MembershipView::new();
/// view.record(NodeId(1), 10, SimTime::from_millis(5));
/// view.record(NodeId(1), 8, SimTime::from_millis(9)); // stale, ignored
/// assert_eq!(view.heartbeat(NodeId(1)), Some(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipView {
    members: BTreeMap<NodeId, MemberInfo>,
}

impl MembershipView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record evidence that `member`'s heartbeat has reached `heartbeat`.
    /// Stale evidence (≤ current) is ignored except that it may resurrect
    /// an unknown member entry. Returns `true` when the entry progressed.
    pub fn record(&mut self, member: NodeId, heartbeat: u64, now: SimTime) -> bool {
        match self.members.get_mut(&member) {
            Some(info) => {
                if heartbeat > info.heartbeat {
                    info.heartbeat = heartbeat;
                    info.last_progress = now;
                    info.status = MemberStatus::Alive;
                    true
                } else {
                    false
                }
            }
            None => {
                self.members.insert(
                    member,
                    MemberInfo { heartbeat, last_progress: now, status: MemberStatus::Alive },
                );
                true
            }
        }
    }

    /// Re-admit a member whose heartbeat counter may have **regressed** —
    /// a process restart resets the counter to zero, which
    /// [`MembershipView::record`] would treat as stale evidence forever.
    /// The entry is replaced unconditionally (fresh heartbeat, `Alive`).
    /// Only an explicit re-introduction (a cluster `Join`) may do this;
    /// gossiped evidence must keep going through `record`/`merge` so the
    /// merge stays monotone.
    pub fn readmit(&mut self, member: NodeId, heartbeat: u64, now: SimTime) {
        self.members.insert(
            member,
            MemberInfo { heartbeat, last_progress: now, status: MemberStatus::Alive },
        );
    }

    /// Downgrade an `Alive` member to `Suspect` on out-of-band evidence
    /// (e.g. a φ accrual detector exceeding its threshold before the
    /// fixed suspect timeout does). Returns whether the status changed;
    /// `Suspect`/`Dead` entries are left as the timeouts decided.
    pub fn mark_suspect(&mut self, member: NodeId) -> bool {
        match self.members.get_mut(&member) {
            Some(info) if info.status == MemberStatus::Alive => {
                info.status = MemberStatus::Suspect;
                true
            }
            _ => false,
        }
    }

    /// Declare a member `Dead` immediately (a graceful `Leave`, or a
    /// connection refused by the member's socket). The entry remains as a
    /// tombstone until `forget_after` elapses in
    /// [`MembershipView::reassess`]; a fresh heartbeat resurrects it.
    pub fn mark_dead(&mut self, member: NodeId) -> bool {
        match self.members.get_mut(&member) {
            Some(info) if info.status != MemberStatus::Dead => {
                info.status = MemberStatus::Dead;
                true
            }
            _ => false,
        }
    }

    /// Merge another view's evidence into this one (gossip receipt).
    /// Returns how many entries progressed.
    pub fn merge(&mut self, entries: &[(NodeId, u64)], now: SimTime) -> usize {
        entries
            .iter()
            .filter(|(member, heartbeat)| self.record(*member, *heartbeat, now))
            .count()
    }

    /// The heartbeat snapshot to gossip to peers.
    pub fn snapshot(&self) -> Vec<(NodeId, u64)> {
        self.members
            .iter()
            .filter(|(_, info)| info.status != MemberStatus::Dead)
            .map(|(member, info)| (*member, info.heartbeat))
            .collect()
    }

    /// Reassess statuses given timeouts; `suspect_after`/`fail_after` are
    /// maximum ages of the last heartbeat progress, `forget_after` removes
    /// dead entries so the table cannot grow without bound.
    pub fn reassess(
        &mut self,
        now: SimTime,
        suspect_after: wsg_net::SimDuration,
        fail_after: wsg_net::SimDuration,
        forget_after: wsg_net::SimDuration,
    ) {
        self.members.retain(|_, info| now.since(info.last_progress) < forget_after);
        for info in self.members.values_mut() {
            let age = now.since(info.last_progress);
            info.status = if age >= fail_after {
                MemberStatus::Dead
            } else if age >= suspect_after {
                MemberStatus::Suspect
            } else {
                MemberStatus::Alive
            };
        }
    }

    /// One gossip round of member `me` at `now` — the loop body the
    /// simulated `MembershipGossip` and the live `wsg_cluster` plane share:
    ///
    /// 1. bump `heartbeat` and refresh our own entry;
    /// 2. [`reassess`](Self::reassess) everyone against `detector`'s fixed
    ///    timeouts — which recomputes every status from heartbeat age,
    ///    so...
    /// 3. ...`verdicts` re-applies whatever sharper out-of-band evidence
    ///    the caller holds (`mark_suspect`/`mark_dead`; the simulator has
    ///    none);
    /// 4. pick up to `fanout` non-dead members other than `me` by `rng`
    ///    shuffle (one shuffle of the ascending-id pool, then truncate);
    /// 5. snapshot what is left standing.
    #[allow(clippy::too_many_arguments)] // the inputs of a round are what they are; both callers pass fields they already hold
    pub fn gossip_round(
        &mut self,
        me: NodeId,
        heartbeat: &mut u64,
        now: SimTime,
        detector: &FailureDetectorConfig,
        fanout: usize,
        rng: &mut dyn Rng64,
        verdicts: impl FnOnce(&mut MembershipView),
    ) -> Round {
        *heartbeat += 1;
        self.record(me, *heartbeat, now);
        self.reassess(
            now,
            detector.suspect_after(),
            detector.fail_after(),
            detector.forget_after(),
        );
        verdicts(self);
        let mut targets: Vec<NodeId> = self.not_dead().into_iter().filter(|p| *p != me).collect();
        rng.shuffle(&mut targets);
        targets.truncate(fanout);
        Round { targets, snapshot: self.snapshot() }
    }

    /// Known heartbeat of a member.
    pub fn heartbeat(&self, member: NodeId) -> Option<u64> {
        self.members.get(&member).map(|info| info.heartbeat)
    }

    /// Status of a member, if known.
    pub fn status(&self, member: NodeId) -> Option<MemberStatus> {
        self.members.get(&member).map(|info| info.status)
    }

    /// Members currently considered alive.
    pub fn alive(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .filter(|(_, info)| info.status == MemberStatus::Alive)
            .map(|(member, _)| *member)
            .collect()
    }

    /// Members considered alive *or* merely suspect (useful peer pool when
    /// erring towards availability).
    pub fn not_dead(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .filter(|(_, info)| info.status != MemberStatus::Dead)
            .map(|(member, _)| *member)
            .collect()
    }

    /// Number of alive members.
    pub fn alive_count(&self) -> usize {
        self.members.values().filter(|i| i.status == MemberStatus::Alive).count()
    }

    /// `(alive, suspect, dead)` entry counts — the triple the
    /// `wsg_membership_{alive,suspect,dead}` gauges export.
    pub fn status_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for info in self.members.values() {
            match info.status {
                MemberStatus::Alive => counts.0 += 1,
                MemberStatus::Suspect => counts.1 += 1,
                MemberStatus::Dead => counts.2 += 1,
            }
        }
        counts
    }

    /// Total entries (any status).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::SimDuration;

    #[test]
    fn record_keeps_freshest() {
        let mut v = MembershipView::new();
        assert!(v.record(NodeId(1), 5, SimTime::from_millis(1)));
        assert!(!v.record(NodeId(1), 5, SimTime::from_millis(2)));
        assert!(!v.record(NodeId(1), 3, SimTime::from_millis(3)));
        assert!(v.record(NodeId(1), 6, SimTime::from_millis(4)));
        assert_eq!(v.heartbeat(NodeId(1)), Some(6));
    }

    #[test]
    fn merge_counts_progress() {
        let mut v = MembershipView::new();
        v.record(NodeId(0), 3, SimTime::ZERO);
        let progressed = v.merge(&[(NodeId(0), 2), (NodeId(1), 1), (NodeId(0), 9)], SimTime::from_millis(1));
        assert_eq!(progressed, 2); // NodeId(1) new + NodeId(0) -> 9
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = MembershipView::new();
        let entries = vec![(NodeId(0), 4), (NodeId(1), 2)];
        a.merge(&entries, SimTime::ZERO);
        let again = a.merge(&entries, SimTime::from_millis(5));
        assert_eq!(again, 0);
    }

    #[test]
    fn reassess_progression_alive_suspect_dead_forgotten() {
        let mut v = MembershipView::new();
        v.record(NodeId(7), 1, SimTime::ZERO);
        let suspect = SimDuration::from_millis(100);
        let fail = SimDuration::from_millis(300);
        let forget = SimDuration::from_millis(1000);

        v.reassess(SimTime::from_millis(50), suspect, fail, forget);
        assert_eq!(v.status(NodeId(7)), Some(MemberStatus::Alive));

        v.reassess(SimTime::from_millis(150), suspect, fail, forget);
        assert_eq!(v.status(NodeId(7)), Some(MemberStatus::Suspect));

        v.reassess(SimTime::from_millis(400), suspect, fail, forget);
        assert_eq!(v.status(NodeId(7)), Some(MemberStatus::Dead));
        assert!(v.alive().is_empty());
        assert!(v.not_dead().is_empty());

        v.reassess(SimTime::from_millis(1100), suspect, fail, forget);
        assert_eq!(v.status(NodeId(7)), None, "dead entries eventually forgotten");
    }

    #[test]
    fn fresh_heartbeat_resurrects_suspect() {
        let mut v = MembershipView::new();
        v.record(NodeId(2), 1, SimTime::ZERO);
        v.reassess(
            SimTime::from_millis(200),
            SimDuration::from_millis(100),
            SimDuration::from_millis(500),
            SimDuration::from_millis(2000),
        );
        assert_eq!(v.status(NodeId(2)), Some(MemberStatus::Suspect));
        v.record(NodeId(2), 2, SimTime::from_millis(210));
        assert_eq!(v.status(NodeId(2)), Some(MemberStatus::Alive));
    }

    #[test]
    fn readmit_accepts_a_regressed_heartbeat() {
        let mut v = MembershipView::new();
        v.record(NodeId(3), 500, SimTime::ZERO);
        // A restarted process starts its counter over; record() must keep
        // rejecting that as stale...
        assert!(!v.record(NodeId(3), 1, SimTime::from_millis(10)));
        assert_eq!(v.heartbeat(NodeId(3)), Some(500));
        // ...while an explicit re-introduction replaces the entry.
        v.readmit(NodeId(3), 1, SimTime::from_millis(20));
        assert_eq!(v.heartbeat(NodeId(3)), Some(1));
        assert_eq!(v.status(NodeId(3)), Some(MemberStatus::Alive));
        // Progress resumes from the fresh counter.
        assert!(v.record(NodeId(3), 2, SimTime::from_millis(30)));
    }

    #[test]
    fn mark_suspect_only_downgrades_alive() {
        let mut v = MembershipView::new();
        v.record(NodeId(1), 1, SimTime::ZERO);
        assert!(v.mark_suspect(NodeId(1)));
        assert_eq!(v.status(NodeId(1)), Some(MemberStatus::Suspect));
        assert!(!v.mark_suspect(NodeId(1)), "already suspect");
        assert!(!v.mark_suspect(NodeId(9)), "unknown member");
        v.mark_dead(NodeId(1));
        assert!(!v.mark_suspect(NodeId(1)), "dead is worse than suspect");
    }

    #[test]
    fn mark_dead_tombstones_until_fresh_evidence() {
        let mut v = MembershipView::new();
        v.record(NodeId(4), 7, SimTime::ZERO);
        assert!(v.mark_dead(NodeId(4)));
        assert!(!v.mark_dead(NodeId(4)), "already dead");
        assert!(v.alive().is_empty());
        assert!(v.snapshot().is_empty(), "dead entries are not gossiped");
        // Fresh heartbeat progress resurrects.
        assert!(v.record(NodeId(4), 8, SimTime::from_millis(5)));
        assert_eq!(v.status(NodeId(4)), Some(MemberStatus::Alive));
    }

    #[test]
    fn status_counts_cover_all_states() {
        let mut v = MembershipView::new();
        v.record(NodeId(0), 1, SimTime::ZERO);
        v.record(NodeId(1), 1, SimTime::ZERO);
        v.record(NodeId(2), 1, SimTime::ZERO);
        v.mark_suspect(NodeId(1));
        v.mark_dead(NodeId(2));
        assert_eq!(v.status_counts(), (1, 1, 1));
    }

    #[test]
    fn snapshot_excludes_dead() {
        let mut v = MembershipView::new();
        v.record(NodeId(0), 1, SimTime::ZERO);
        v.record(NodeId(1), 1, SimTime::from_millis(560));
        v.reassess(
            SimTime::from_millis(600),
            SimDuration::from_millis(20),
            SimDuration::from_millis(100),
            SimDuration::from_millis(10_000),
        );
        // NodeId(0) dead (age 600ms), NodeId(1) suspect (age 40ms >= 20, < 100)
        let snap = v.snapshot();
        assert_eq!(snap, vec![(NodeId(1), 1)]);
    }
}
