//! Analytic models for configuring `f` and `r`.
//!
//! The paper (§2) states that "parameters f and r can be configured
//! \[Eugster et al. 2004\] such that any desired average number of receivers
//! successfully get the message. Better yet, parameters can be set such
//! that the message is atomically delivered to receivers with high
//! probability." This module implements that configuration maths:
//!
//! * a **mean-field epidemic recurrence** predicting the expected fraction
//!   of nodes infected after each round (used by the coordinator to pick
//!   parameters and by experiment E2 as the analytic reference curve);
//! * the **atomicity estimate** from random-graph connectivity: with each
//!   node forwarding to `f = ln n + c` uniform targets, delivery is atomic
//!   with probability ≈ `exp(-exp(-c))`.

/// Expected fraction of nodes that have received the message after `rounds`
/// rounds of infect-and-die gossip with the given `fanout`, in a system of
/// `n` nodes, assuming a loss-free network.
///
/// Mean-field model: in each round, only nodes newly infected in the
/// previous round forward, each picking `fanout` targets uniformly at
/// random from the other `n - 1` nodes. A susceptible node escapes one
/// forwarder with probability `1 - fanout/(n-1)`.
///
/// ```
/// let coverage = wsg_gossip::analysis::expected_coverage(1000, 4, 10);
/// assert!(coverage > 0.95);
/// ```
pub fn expected_coverage(n: usize, fanout: usize, rounds: u32) -> f64 {
    expected_coverage_lossy(n, fanout, rounds, 0.0)
}

/// Like [`expected_coverage`], with each individual forward independently
/// lost with probability `loss`.
pub fn expected_coverage_lossy(n: usize, fanout: usize, rounds: u32, loss: f64) -> f64 {
    assert!(n > 0, "n must be positive");
    assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
    if n == 1 {
        return 1.0;
    }
    let n_f = n as f64;
    // Effective per-target infection attempts: a forward reaches its target
    // with probability (1 - loss).
    let effective_fanout = fanout as f64 * (1.0 - loss);
    let mut infected = 1.0_f64; // the initiator
    let mut fresh = 1.0_f64; // infected last round (the active forwarders)
    for _ in 0..rounds {
        if fresh < 1e-12 || infected >= n_f - 1e-9 {
            break;
        }
        let susceptible = n_f - infected;
        // Probability that one susceptible node is missed by every forward
        // of every fresh forwarder this round.
        let p_escape_one = 1.0 - effective_fanout / (n_f - 1.0);
        let p_escape = if p_escape_one <= 0.0 {
            0.0
        } else {
            p_escape_one.powf(fresh)
        };
        let newly = susceptible * (1.0 - p_escape);
        infected += newly;
        fresh = newly;
    }
    (infected / n_f).min(1.0)
}

/// Probability that push gossip with per-node `fanout` infects the whole
/// system, from the Erdős–Rényi-style connectivity threshold used by
/// Eugster et al.: with `f = ln n + c`, `P(atomic) → exp(-exp(-c))`.
///
/// ```
/// let p = wsg_gossip::analysis::atomicity_probability(1000, 10);
/// assert!(p > 0.9);
/// ```
pub fn atomicity_probability(n: usize, fanout: usize) -> f64 {
    assert!(n > 1, "need at least two nodes");
    let c = fanout as f64 - (n as f64).ln();
    (-(-c).exp()).exp()
}

/// The smallest fanout achieving atomic delivery with probability at least
/// `target` in a system of `n` nodes.
///
/// # Panics
///
/// Panics unless `0 < target < 1`.
///
/// ```
/// let f = wsg_gossip::analysis::fanout_for_atomicity(1000, 0.99);
/// assert!((10..=14).contains(&f));
/// ```
pub fn fanout_for_atomicity(n: usize, target: f64) -> usize {
    assert!(n > 1, "need at least two nodes");
    assert!(target > 0.0 && target < 1.0, "target must be in (0,1)");
    // Invert exp(-exp(-c)) >= target  =>  c >= -ln(-ln target).
    let c = -(-target.ln()).ln();
    ((n as f64).ln() + c).ceil().max(1.0) as usize
}

/// Expected number of rounds for the epidemic to cover (almost) the whole
/// system — the classic `O(log n)` dissemination-latency result. Computed
/// by iterating the mean-field recurrence until coverage reaches
/// `threshold` (e.g. 0.999) **or stops improving** (infect-and-die
/// epidemics saturate below 1.0 for small fanouts; the saturation round is
/// the meaningful latency then), with a hard cap to guarantee termination.
pub fn rounds_to_coverage(n: usize, fanout: usize, threshold: f64) -> u32 {
    assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0,1]");
    let cap = 10 * (n as f64).log2().ceil().max(1.0) as u32 + 20;
    let mut previous = 0.0;
    for r in 1..=cap {
        let coverage = expected_coverage(n, fanout, r);
        if coverage >= threshold || coverage - previous < 1e-9 {
            return r;
        }
        previous = coverage;
    }
    cap
}

/// Expected total number of payload transmissions for infect-and-die push
/// gossip: every node that becomes infected forwards `fanout` copies
/// (except forwards suppressed by the round cap — ignored here, upper
/// bound), so ≈ `coverage · n · fanout`.
pub(crate) fn expected_messages(n: usize, fanout: usize, rounds: u32) -> f64 {
    expected_coverage(n, fanout, rounds) * n as f64 * fanout as f64
}

/// Redundancy ratio: payload transmissions per *useful* delivery. A
/// message to an already-infected node is redundant; ratio 1.0 would be a
/// perfect spanning tree.
pub fn expected_redundancy(n: usize, fanout: usize, rounds: u32) -> f64 {
    let coverage = expected_coverage(n, fanout, rounds);
    let deliveries = (coverage * n as f64 - 1.0).max(1.0);
    expected_messages(n, fanout, rounds) / deliveries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_monotone_in_fanout_and_rounds() {
        let n = 500;
        assert!(expected_coverage(n, 2, 6) < expected_coverage(n, 4, 6));
        assert!(expected_coverage(n, 3, 3) < expected_coverage(n, 3, 9));
    }

    #[test]
    fn coverage_bounds() {
        for &(n, f, r) in &[(10, 1, 1), (100, 3, 5), (1000, 8, 20)] {
            let c = expected_coverage(n, f, r);
            assert!((0.0..=1.0).contains(&c), "coverage {c} out of bounds");
            assert!(c >= 1.0 / n as f64, "initiator always counts");
        }
    }

    #[test]
    fn zero_rounds_means_only_initiator() {
        let c = expected_coverage(100, 3, 0);
        assert!((c - 0.01).abs() < 1e-9);
    }

    #[test]
    fn single_node_trivially_covered() {
        assert_eq!(expected_coverage(1, 3, 5), 1.0);
    }

    #[test]
    fn saturating_fanout_covers_in_one_round() {
        // fanout >= n-1 infects everyone immediately.
        let c = expected_coverage(10, 9, 1);
        assert!(c > 0.999, "coverage {c}");
    }

    #[test]
    fn loss_reduces_coverage() {
        let clean = expected_coverage_lossy(1000, 4, 8, 0.0);
        let lossy = expected_coverage_lossy(1000, 4, 8, 0.4);
        assert!(lossy < clean);
    }

    #[test]
    fn atomicity_increases_with_fanout() {
        let n = 1000;
        let p_low = atomicity_probability(n, 5);
        let p_high = atomicity_probability(n, 12);
        assert!(p_high > p_low);
        assert!(p_high > 0.95);
    }

    #[test]
    fn fanout_for_atomicity_inverts_probability() {
        for &n in &[50, 500, 5000] {
            for &target in &[0.9, 0.99, 0.999] {
                let f = fanout_for_atomicity(n, target);
                assert!(
                    atomicity_probability(n, f) >= target,
                    "n={n} target={target} f={f}"
                );
                // And f-1 should not be enough (tightness), allowing the
                // ceil slack of one.
                if f > 2 {
                    assert!(atomicity_probability(n, f - 2) < target);
                }
            }
        }
    }

    #[test]
    fn rounds_grow_logarithmically() {
        let r_small = rounds_to_coverage(100, 4, 0.999);
        let r_big = rounds_to_coverage(100_000, 4, 0.999);
        assert!(r_big > r_small);
        // log-ish growth: 1000x nodes should cost far fewer than 1000x rounds.
        assert!(r_big < r_small * 6, "r_small={r_small} r_big={r_big}");
    }

    #[test]
    fn redundancy_grows_with_fanout() {
        let lean = expected_redundancy(1000, 3, 20);
        let fat = expected_redundancy(1000, 10, 20);
        assert!(fat > lean);
        assert!(lean >= 1.0);
    }
}
