//! Aggregate counters collected by a network run.

use crate::protocol::NodeId;

/// Counters for one run; read with [`crate::sim::SimNet::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the network by protocols.
    pub sent: u64,
    /// Messages delivered to destination protocols.
    pub delivered: u64,
    /// Messages dropped by the random-loss model.
    pub dropped_loss: u64,
    /// Messages discarded because the destination was crashed.
    pub dropped_crashed: u64,
    /// Messages discarded by a network partition.
    pub dropped_partitioned: u64,
    /// Extra copies injected by the duplication model.
    pub duplicated: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Total bytes handed to the network (only counted when a size
    /// function is installed).
    pub bytes_sent: u64,
    /// Per-node count of messages received.
    pub received_per_node: Vec<u64>,
    /// Per-node count of messages sent.
    pub sent_per_node: Vec<u64>,
}

impl SimStats {
    pub(crate) fn ensure_node(&mut self, id: NodeId) {
        let need = id.index() + 1;
        // Resize each vector independently: if stats are seeded or
        // merged the two can start at different lengths, and gating
        // `sent_per_node` on `received_per_node`'s length leaves it
        // short — indexing out of bounds on the next send.
        if self.received_per_node.len() < need {
            self.received_per_node.resize(need, 0);
        }
        if self.sent_per_node.len() < need {
            self.sent_per_node.resize(need, 0);
        }
    }

    /// Merge another run's counters into this one (scalars sum; the
    /// per-node vectors extend to the longer length and sum
    /// element-wise).
    pub fn merge(&mut self, other: &SimStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped_loss += other.dropped_loss;
        self.dropped_crashed += other.dropped_crashed;
        self.dropped_partitioned += other.dropped_partitioned;
        self.duplicated += other.duplicated;
        self.timers_fired += other.timers_fired;
        self.bytes_sent += other.bytes_sent;
        merge_per_node(&mut self.received_per_node, &other.received_per_node);
        merge_per_node(&mut self.sent_per_node, &other.sent_per_node);
    }

    /// The maximum number of messages any single node sent.
    pub fn max_sent(&self) -> u64 {
        self.sent_per_node.iter().copied().max().unwrap_or(0)
    }
}

fn merge_per_node(mine: &mut Vec<u64>, theirs: &[u64]) {
    if mine.len() < theirs.len() {
        mine.resize(theirs.len(), 0);
    }
    for (m, t) in mine.iter_mut().zip(theirs) {
        *m += t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_maxima() {
        let mut s = SimStats::default();
        s.ensure_node(NodeId(2));
        s.sent_per_node = vec![3, 0, 0];
        assert_eq!(s.max_sent(), 3);
    }

    #[test]
    fn empty_stats_safe() {
        let s = SimStats::default();
        assert_eq!(s.max_sent(), 0);
    }

    #[test]
    fn ensure_node_resizes_each_vector_independently() {
        // Seeded stats where the vectors diverge (the old code only
        // resized `sent_per_node` when `received_per_node` was short).
        let mut s = SimStats { received_per_node: vec![1, 2, 3], ..SimStats::default() };
        s.ensure_node(NodeId(1));
        assert_eq!(s.received_per_node.len(), 3);
        assert_eq!(s.sent_per_node.len(), 2, "sent_per_node must grow on its own");
        s.ensure_node(NodeId(4));
        assert_eq!(s.received_per_node.len(), 5);
        assert_eq!(s.sent_per_node.len(), 5);
    }

    #[test]
    fn merge_sums_scalars_and_extends_per_node_vectors() {
        let mut a = SimStats {
            sent: 10,
            delivered: 8,
            dropped_loss: 1,
            bytes_sent: 100,
            received_per_node: vec![1, 2],
            sent_per_node: vec![3],
            ..SimStats::default()
        };
        let b = SimStats {
            sent: 5,
            delivered: 4,
            dropped_crashed: 2,
            timers_fired: 7,
            received_per_node: vec![10, 20, 30],
            sent_per_node: vec![1, 1, 1, 1],
            ..SimStats::default()
        };
        a.merge(&b);
        assert_eq!(a.sent, 15);
        assert_eq!(a.delivered, 12);
        assert_eq!((a.dropped_loss, a.dropped_crashed), (1, 2));
        assert_eq!(a.timers_fired, 7);
        assert_eq!(a.bytes_sent, 100);
        assert_eq!(a.received_per_node, vec![11, 22, 30]);
        assert_eq!(a.sent_per_node, vec![4, 1, 1, 1]);
        // Merging must leave the per-node vectors usable by ensure_node.
        a.ensure_node(NodeId(5));
        assert_eq!(a.received_per_node.len(), 6);
        assert_eq!(a.sent_per_node.len(), 6);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = SimStats { sent: 3, received_per_node: vec![1], ..SimStats::default() };
        let before = a.clone();
        a.merge(&SimStats::default());
        assert_eq!(a, before);
    }
}
