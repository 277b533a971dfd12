//! Per-origin FIFO delivery ordering.
//!
//! Gossip delivers in arrival order, which across concurrent paths is not
//! publication order. Middleware consumers of a market feed (the paper's
//! motivating scenario) usually need *per-origin FIFO*: tick 7 from an
//! origin must not be observed before tick 6. [`FifoBuffer`] provides the
//! standard solution — hold out-of-order messages until the gap fills.

use std::collections::BTreeMap;

use wsg_net::NodeId;

use crate::buffer::MsgId;

/// Reorders deliveries into per-origin sequence order.
///
/// ```
/// use wsg_gossip::order::FifoBuffer;
/// use wsg_gossip::MsgId;
/// use wsg_net::NodeId;
///
/// let mut fifo = FifoBuffer::new();
/// let origin = NodeId(1);
/// assert!(fifo.accept(MsgId::new(origin, 1), "b").is_empty()); // held: gap at 0
/// let released = fifo.accept(MsgId::new(origin, 0), "a");
/// assert_eq!(released, vec![(MsgId::new(origin, 0), "a"), (MsgId::new(origin, 1), "b")]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoBuffer<T> {
    // origin -> next expected seq
    next: BTreeMap<NodeId, u64>,
    // origin -> held out-of-order messages
    held: BTreeMap<NodeId, BTreeMap<u64, T>>,
}

impl<T> FifoBuffer<T> {
    /// An empty buffer (every origin starts at seq 0).
    pub fn new() -> Self {
        FifoBuffer { next: BTreeMap::new(), held: BTreeMap::new() }
    }

    /// Offer a message; returns everything now releasable in order.
    /// Duplicates and already-released seqs return nothing.
    pub fn accept(&mut self, id: MsgId, payload: T) -> Vec<(MsgId, T)> {
        let origin = id.origin();
        let next = self.next.entry(origin).or_insert(0);
        if id.seq() < *next {
            return Vec::new(); // stale duplicate
        }
        let held = self.held.entry(origin).or_default();
        if held.contains_key(&id.seq()) {
            return Vec::new(); // duplicate of a held message
        }
        held.insert(id.seq(), payload);
        // Release the contiguous prefix.
        let mut released = Vec::new();
        while let Some(payload) = held.remove(next) {
            released.push((MsgId::new(origin, *next), payload));
            *next += 1;
        }
        released
    }

    /// Number of messages currently held back (all origins).
    #[cfg(test)]
    pub(crate) fn held_count(&self) -> usize {
        self.held.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(origin: usize, seq: u64) -> MsgId {
        MsgId::new(NodeId(origin), seq)
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut fifo = FifoBuffer::new();
        for seq in 0..5 {
            let out = fifo.accept(id(0, seq), seq);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0.seq(), seq);
        }
        assert_eq!(fifo.held_count(), 0);
    }

    #[test]
    fn reordering_is_corrected() {
        let mut fifo = FifoBuffer::new();
        assert!(fifo.accept(id(0, 2), "c").is_empty());
        assert!(fifo.accept(id(0, 1), "b").is_empty());
        assert_eq!(fifo.held_count(), 2);
        let out = fifo.accept(id(0, 0), "a");
        let seqs: Vec<u64> = out.iter().map(|(i, _)| i.seq()).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(fifo.held_count(), 0);
    }

    #[test]
    fn origins_are_independent() {
        let mut fifo = FifoBuffer::new();
        assert_eq!(fifo.accept(id(0, 0), "a0").len(), 1);
        assert!(fifo.accept(id(1, 1), "b1").is_empty(), "origin 1 still at 0");
        assert_eq!(fifo.accept(id(1, 0), "b0").len(), 2);
    }

    #[test]
    fn duplicates_ignored() {
        let mut fifo = FifoBuffer::new();
        assert_eq!(fifo.accept(id(0, 0), "a").len(), 1);
        assert!(fifo.accept(id(0, 0), "a").is_empty(), "released duplicate");
        assert!(fifo.accept(id(0, 2), "c").is_empty());
        assert!(fifo.accept(id(0, 2), "c").is_empty(), "held duplicate");
    }
}
