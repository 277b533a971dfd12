//! Protocol parameters: the paper's `f` (fanout) and `r` (rounds).

use std::fmt;

use wsg_net::SimDuration;

/// The two key parameters of an epidemic protocol (paper §2):
///
/// * **Fanout (f)** — "number of targets that are locally selected by each
///   process for gossiping";
/// * **Rounds (r)** — "maximum number of times a message is forwarded
///   before being ignored".
///
/// ```
/// use wsg_gossip::GossipParams;
///
/// let params = GossipParams::new(4, 8);
/// assert_eq!(params.fanout(), 4);
/// assert_eq!(params.rounds(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GossipParams {
    fanout: usize,
    rounds: u32,
}

impl GossipParams {
    /// Parameters with the given fanout and round budget.
    ///
    /// # Panics
    ///
    /// Panics when `fanout` is zero (a zero-fanout protocol never
    /// disseminates; reject early rather than silently doing nothing).
    pub fn new(fanout: usize, rounds: u32) -> Self {
        assert!(fanout > 0, "fanout must be at least 1");
        GossipParams { fanout, rounds }
    }

    /// Parameters sized for atomic (all-nodes) delivery w.h.p. in a system
    /// of `n` nodes, following the Eugster et al. configuration result the
    /// paper cites: `f = ln(n) + c` with a comfortable safety constant, and
    /// enough rounds for the epidemic to saturate (`~ log2(n) + c`).
    pub fn atomic_for(n: usize) -> Self {
        let n = n.max(2);
        let fanout = (n as f64).ln().ceil() as usize + 2;
        let rounds = (n as f64).log2().ceil() as u32 + 4;
        GossipParams { fanout: fanout.max(1), rounds: rounds.max(1) }
    }

    /// The fanout `f`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// The round budget `r`.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

impl Default for GossipParams {
    /// `f = 3`, `r = 8` — a sensible small-system default.
    fn default() -> Self {
        GossipParams { fanout: 3, rounds: 8 }
    }
}

impl fmt::Display for GossipParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f={}, r={}", self.fanout, self.rounds)
    }
}

/// The gossip styles the framework supports (paper §4 promises a framework
/// "encompassing different gossip styles").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GossipStyle {
    /// Forward full payloads on first receipt (WS-PushGossip).
    EagerPush,
    /// Advertise ids, ship payloads on demand.
    LazyPush,
    /// Periodically pull unseen messages from random peers.
    Pull,
    /// Eager push combined with periodic pull.
    PushPull,
    /// Periodic digest reconciliation.
    AntiEntropy,
}

impl GossipStyle {
    /// Whether the style needs a periodic timer (pull-flavoured styles).
    pub(crate) fn is_periodic(&self) -> bool {
        matches!(self, GossipStyle::Pull | GossipStyle::PushPull | GossipStyle::AntiEntropy)
    }

    /// Stable underscore name, used as the `style` label value in
    /// exported metrics (`wsg_obs` exposition).
    pub fn label(&self) -> &'static str {
        match self {
            GossipStyle::EagerPush => "eager_push",
            GossipStyle::LazyPush => "lazy_push",
            GossipStyle::Pull => "pull",
            GossipStyle::PushPull => "push_pull",
            GossipStyle::AntiEntropy => "anti_entropy",
        }
    }

    /// All styles, for sweeps in the benchmark harness.
    pub fn all() -> [GossipStyle; 5] {
        [
            GossipStyle::EagerPush,
            GossipStyle::LazyPush,
            GossipStyle::Pull,
            GossipStyle::PushPull,
            GossipStyle::AntiEntropy,
        ]
    }
}

impl fmt::Display for GossipStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GossipStyle::EagerPush => "eager-push",
            GossipStyle::LazyPush => "lazy-push",
            GossipStyle::Pull => "pull",
            GossipStyle::PushPull => "push-pull",
            GossipStyle::AntiEntropy => "anti-entropy",
        };
        f.write_str(name)
    }
}

/// What re-triggers forwarding (Eugster et al.'s taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ForwardDiscipline {
    /// Forward only on first receipt (the default): `f` copies per node
    /// total, coverage bounded by the E2 sigmoid.
    #[default]
    InfectAndDie,
    /// Forward on *every* receipt while the round budget lasts: more
    /// traffic, but converges to full coverage for any `f ≥ 1`.
    InfectForever,
}

/// Default interval between periodic gossip exchanges.
pub(crate) const DEFAULT_GOSSIP_INTERVAL: SimDuration = SimDuration::from_millis(100);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = GossipParams::new(5, 3);
        assert_eq!(p.fanout(), 5);
        assert_eq!(p.rounds(), 3);
        assert_eq!(p.to_string(), "f=5, r=3");
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn zero_fanout_rejected() {
        let _ = GossipParams::new(0, 3);
    }

    #[test]
    fn atomic_sizing_grows_logarithmically() {
        let small = GossipParams::atomic_for(16);
        let large = GossipParams::atomic_for(4096);
        assert!(large.fanout() > small.fanout());
        assert!(large.rounds() > small.rounds());
        // ln(4096) ~ 8.3 -> fanout 11
        assert_eq!(large.fanout(), 11);
    }

    #[test]
    fn style_classification() {
        assert!(!GossipStyle::EagerPush.is_periodic());
        assert!(GossipStyle::Pull.is_periodic());
        assert!(GossipStyle::PushPull.is_periodic());
        assert!(GossipStyle::AntiEntropy.is_periodic());
        assert!(!GossipStyle::LazyPush.is_periodic());
    }

    #[test]
    fn display_names_unique() {
        let names: std::collections::HashSet<String> =
            GossipStyle::all().iter().map(|s| s.to_string()).collect();
        assert_eq!(names.len(), 5);
    }
}
