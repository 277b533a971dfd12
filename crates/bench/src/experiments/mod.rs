//! Experiment implementations (see DESIGN.md §2 for the paper mapping).

pub mod ablations;
pub mod e2_reliability;
pub mod e3_scalability;
pub mod e4_resilience;
pub mod e5_throughput;
pub mod e6_coordinator;
pub mod e7_overhead;

use wsg_gossip::{GossipConfig, GossipEngine, GossipParams, GossipStyle};
use wsg_net::sim::{SimConfig, SimNet};
use wsg_net::NodeId;

/// Outcome of one dissemination run of the pure gossip engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Fraction of nodes that delivered the message.
    pub coverage: f64,
    /// Whether every node delivered it.
    pub atomic: bool,
    /// Highest hop count among deliveries.
    pub max_round: u32,
    /// Virtual completion time (last delivery) in milliseconds.
    pub completion_ms: u64,
    /// Total payload copies sent.
    pub payloads: u64,
    /// Total wire messages of any kind.
    pub messages: u64,
}

/// Build a fully connected eager-push network.
pub fn eager_net(
    n: usize,
    params: &GossipParams,
    config: SimConfig,
) -> SimNet<GossipEngine<u64>> {
    gossip_net(n, GossipStyle::EagerPush, params, config)
}

/// Build a fully connected network of the given style.
pub fn gossip_net(
    n: usize,
    style: GossipStyle,
    params: &GossipParams,
    config: SimConfig,
) -> SimNet<GossipEngine<u64>> {
    let mut net = SimNet::new(config);
    net.add_nodes(n, |id| {
        let peers = (0..n).map(NodeId).filter(|p| *p != id).collect();
        GossipEngine::new(GossipConfig::new(style, params.clone()), peers)
    });
    net.start();
    net
}

/// Publish once from node 0 and run to quiescence, collecting the outcome.
pub fn run_once(mut net: SimNet<GossipEngine<u64>>, n: usize) -> RunOutcome {
    net.invoke(NodeId(0), |engine, ctx| {
        engine.publish(1, ctx);
    });
    net.run_to_quiescence();
    summarize(&net, n)
}

/// Collect the outcome of a finished run.
pub fn summarize(net: &SimNet<GossipEngine<u64>>, n: usize) -> RunOutcome {
    let mut reached = 0usize;
    let mut max_round = 0u32;
    let mut completion_ms = 0u64;
    let mut payloads = 0u64;
    for i in 0..n {
        let node = net.node(NodeId(i));
        payloads += node.stats().payloads_sent;
        if let Some(delivery) = node.delivered().first() {
            reached += 1;
            max_round = max_round.max(delivery.round);
            completion_ms = completion_ms.max(delivery.at.as_millis());
        }
    }
    RunOutcome {
        coverage: reached as f64 / n as f64,
        atomic: reached == n,
        max_round,
        completion_ms,
        payloads,
        messages: net.stats().sent,
    }
}

/// Mean over per-seed outcomes of a closure.
pub fn mean_over_seeds(seeds: u64, mut run: impl FnMut(u64) -> f64) -> f64 {
    (0..seeds).map(&mut run).sum::<f64>() / seeds as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_once_reports_consistent_outcome() {
        let n = 32;
        let params = GossipParams::atomic_for(n);
        let outcome = run_once(eager_net(n, &params, SimConfig::default().seed(1)), n);
        assert!(outcome.coverage > 0.9);
        assert!(outcome.max_round >= 1);
        assert!(outcome.payloads > 0);
        assert!(outcome.messages >= outcome.payloads);
        assert_eq!(outcome.atomic, outcome.coverage == 1.0);
    }

    #[test]
    fn mean_over_seeds_averages() {
        let mean = mean_over_seeds(4, |s| s as f64);
        assert!((mean - 1.5).abs() < 1e-12);
    }
}
