//! Peer sampling by partial-view shuffling (Cyclon-lite).
//!
//! Full membership views cost O(n) state and bandwidth per node. The peer
//! sampling service keeps only a small partial view of `view_size` entries
//! and periodically *shuffles* a random subset with a random neighbour.
//! The emergent communication graph is well connected and close to random,
//! which is exactly what gossip dissemination needs — this is the scalable
//! peer source for very large WS-Gossip deployments.

use wsg_net::{Context, NodeId, Protocol, Rng64, RngExt, SimDuration, TimerTag};

/// Timer tag for the periodic shuffle.
pub(crate) const SHUFFLE_TICK: TimerTag = TimerTag(0x5A3F);

/// Configuration of the sampler.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    view_size: usize,
    shuffle_len: usize,
    interval: SimDuration,
}

impl Default for SamplerConfig {
    /// View of 8, shuffles of 4, every 250 ms.
    fn default() -> Self {
        SamplerConfig { view_size: 8, shuffle_len: 4, interval: SimDuration::from_millis(250) }
    }
}

impl SamplerConfig {
    /// Builder with explicit sizes.
    ///
    /// # Panics
    ///
    /// Panics when `view_size == 0` or `shuffle_len == 0` or
    /// `shuffle_len > view_size`.
    pub fn new(view_size: usize, shuffle_len: usize, interval: SimDuration) -> Self {
        assert!(view_size > 0, "view size must be positive");
        assert!(shuffle_len > 0, "shuffle length must be positive");
        assert!(shuffle_len <= view_size, "shuffle length cannot exceed view size");
        SamplerConfig { view_size, shuffle_len, interval }
    }
}

/// One partial-view entry: a peer and the age of the information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ViewEntry {
    peer: NodeId,
    age: u32,
}

/// Shuffle protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplerMessage {
    /// A shuffle proposal carrying a subset of the sender's view.
    ShuffleRequest(Vec<NodeId>),
    /// The symmetric reply with a subset of the receiver's view.
    ShuffleReply(Vec<NodeId>),
}

/// The peer sampling service.
///
/// ```
/// use wsg_membership::{PeerSampler, SamplerConfig};
/// use wsg_net::{sim::{SimNet, SimConfig}, NodeId, SimTime};
///
/// let n = 64;
/// let mut net = SimNet::new(SimConfig::default().seed(9));
/// net.add_nodes(n, |id| {
///     // bootstrap: everyone knows a couple of ring neighbours
///     let seeds = vec![NodeId((id.0 + 1) % n), NodeId((id.0 + 2) % n)];
///     PeerSampler::new(SamplerConfig::default(), id, seeds)
/// });
/// net.start();
/// net.run_until(SimTime::from_secs(10));
/// // Views fill up to capacity and contain no self-references.
/// for id in net.node_ids() {
///     let view = net.node(id).view();
///     assert!(view.len() >= 4);
///     assert!(!view.contains(&id));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PeerSampler {
    config: SamplerConfig,
    me: NodeId,
    view: Vec<ViewEntry>,
}

impl PeerSampler {
    /// A sampler bootstrapped from `seeds`.
    pub fn new(config: SamplerConfig, me: NodeId, seeds: Vec<NodeId>) -> Self {
        let view = seeds
            .into_iter()
            .filter(|peer| *peer != me)
            .take(config.view_size)
            .map(|peer| ViewEntry { peer, age: 0 })
            .collect();
        PeerSampler { config, me, view }
    }

    /// The current partial view (peer ids).
    pub fn view(&self) -> Vec<NodeId> {
        self.view.iter().map(|entry| entry.peer).collect()
    }

    /// Draw up to `count` random peers from the view.
    pub fn sample(&self, rng: &mut dyn Rng64, count: usize) -> Vec<NodeId> {
        let mut peers = self.view();
        rng.shuffle(&mut peers);
        peers.truncate(count);
        peers
    }

    fn insert_all(&mut self, incoming: &[NodeId], sent: &[NodeId]) {
        for &peer in incoming {
            if peer == self.me || self.view.iter().any(|entry| entry.peer == peer) {
                continue;
            }
            if self.view.len() < self.config.view_size {
                self.view.push(ViewEntry { peer, age: 0 });
                continue;
            }
            // Replace entries we just shipped out, then the oldest.
            if let Some(slot) = self.view.iter_mut().find(|entry| sent.contains(&entry.peer)) {
                *slot = ViewEntry { peer, age: 0 };
            } else if let Some(slot) = self.view.iter_mut().max_by_key(|entry| entry.age) {
                *slot = ViewEntry { peer, age: 0 };
            }
        }
    }

    fn shuffle_subset(&mut self, ctx: &mut dyn Context<SamplerMessage>) -> Option<(NodeId, Vec<NodeId>)> {
        if self.view.is_empty() {
            return None;
        }
        // Age everyone; pick the oldest entry as the shuffle partner
        // (Cyclon's way of recycling stale links).
        for entry in &mut self.view {
            entry.age += 1;
        }
        let oldest = self
            .view
            .iter()
            .enumerate()
            .max_by_key(|(_, entry)| entry.age)
            .map(|(index, _)| index)?;
        let partner = self.view.remove(oldest).peer;

        let mut subset: Vec<NodeId> = self.view.iter().map(|entry| entry.peer).collect();
        ctx.rng().shuffle(&mut subset);
        subset.truncate(self.config.shuffle_len.saturating_sub(1));
        subset.push(self.me); // always advertise ourselves
        Some((partner, subset))
    }

    fn arm(&self, ctx: &mut dyn Context<SamplerMessage>) {
        let base = self.config.interval.as_micros();
        let jitter = base / 4;
        let delay = SimDuration::from_micros(ctx.rng().gen_range(base - jitter..=base + jitter));
        ctx.set_timer(delay, SHUFFLE_TICK);
    }
}

impl Protocol for PeerSampler {
    type Message = SamplerMessage;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Message>) {
        self.arm(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut dyn Context<Self::Message>) {
        match msg {
            SamplerMessage::ShuffleRequest(theirs) => {
                let mut mine: Vec<NodeId> = self.view.iter().map(|entry| entry.peer).collect();
                ctx.rng().shuffle(&mut mine);
                mine.truncate(self.config.shuffle_len);
                self.insert_all(&theirs, &mine);
                ctx.send(from, SamplerMessage::ShuffleReply(mine));
                // The requester is alive: make sure it is (back) in view.
                self.insert_all(&[from], &[]);
            }
            SamplerMessage::ShuffleReply(theirs) => {
                self.insert_all(&theirs, &[]);
                self.insert_all(&[from], &[]);
            }
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut dyn Context<Self::Message>) {
        if tag != SHUFFLE_TICK {
            return;
        }
        if let Some((partner, subset)) = self.shuffle_subset(ctx) {
            ctx.send(partner, SamplerMessage::ShuffleRequest(subset));
        }
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use wsg_net::sim::{SimConfig, SimNet};
    use wsg_net::SimTime;

    fn ring_net(n: usize, seed: u64) -> SimNet<PeerSampler> {
        let mut net = SimNet::new(SimConfig::default().seed(seed));
        net.add_nodes(n, |id| {
            let seeds = vec![NodeId((id.0 + 1) % n), NodeId((id.0 + 2) % n)];
            PeerSampler::new(SamplerConfig::default(), id, seeds)
        });
        net.start();
        net
    }

    #[test]
    fn views_fill_and_exclude_self() {
        let n = 64;
        let mut net = ring_net(n, 1);
        net.run_until(SimTime::from_secs(20));
        for id in net.node_ids() {
            let view = net.node(id).view();
            assert!(view.len() >= SamplerConfig::default().view_size / 2, "thin view at {id}");
            assert!(!view.contains(&id), "self-reference at {id}");
            let unique: HashSet<_> = view.iter().collect();
            assert_eq!(unique.len(), view.len(), "duplicates at {id}");
        }
    }

    #[test]
    fn shuffling_diversifies_beyond_ring_seeds() {
        let n = 64;
        let mut net = ring_net(n, 2);
        net.run_until(SimTime::from_secs(20));
        // Count how many view entries are NOT the original ring neighbours.
        let mut fresh = 0usize;
        let mut total = 0usize;
        for id in net.node_ids() {
            for peer in net.node(id).view() {
                total += 1;
                let delta = (peer.0 + n - id.0) % n;
                if delta != 1 && delta != 2 {
                    fresh += 1;
                }
            }
        }
        assert!(
            fresh * 2 > total,
            "shuffling should replace most seed links: {fresh}/{total}"
        );
    }

    #[test]
    fn overlay_remains_connected() {
        let n = 48;
        let mut net = ring_net(n, 3);
        net.run_until(SimTime::from_secs(15));
        // BFS over the union of directed view edges.
        let mut adjacency = vec![Vec::new(); n];
        for id in net.node_ids() {
            adjacency[id.0] = net.node(id).view();
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        while let Some(u) = queue.pop_front() {
            for peer in &adjacency[u] {
                if !seen[peer.0] {
                    seen[peer.0] = true;
                    queue.push_back(peer.0);
                }
            }
        }
        let reached = seen.iter().filter(|s| **s).count();
        assert_eq!(reached, n, "overlay disconnected: {reached}/{n}");
    }

    #[test]
    fn sample_draws_from_view() {
        let sampler = PeerSampler::new(
            SamplerConfig::default(),
            NodeId(0),
            vec![NodeId(1), NodeId(2), NodeId(3)],
        );
        let mut rng = wsg_net::Pcg32::new(1, 0);
        let drawn = sampler.sample(&mut rng, 2);
        assert_eq!(drawn.len(), 2);
        for peer in drawn {
            assert!(sampler.view().contains(&peer));
        }
    }

    #[test]
    #[should_panic(expected = "shuffle length cannot exceed")]
    fn invalid_config_rejected() {
        let _ = SamplerConfig::new(4, 8, SimDuration::from_millis(100));
    }

    #[test]
    fn seeds_never_include_self() {
        let sampler = PeerSampler::new(
            SamplerConfig::default(),
            NodeId(5),
            vec![NodeId(5), NodeId(6)],
        );
        assert_eq!(sampler.view(), vec![NodeId(6)]);
    }
}
