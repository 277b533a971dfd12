//! Per-origin FIFO delivery ordering.
//!
//! Gossip delivers in arrival order, which across concurrent paths is not
//! publication order. Middleware consumers of a market feed (the paper's
//! motivating scenario) usually need *per-origin FIFO*: tick 7 from an
//! origin must not be observed before tick 6. [`FifoBuffer`] provides the
//! standard solution — hold out-of-order messages until the gap fills.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use crate::seen::SeenSeqs;

/// Reorders deliveries into per-origin sequence order: a [`SeenSeqs`]
/// plus the payloads that wait above an origin's floor. Whatever the floor
/// moves over is released, in order — also when it moves past a gap that
/// held [`SEEN_WINDOW`](crate::SEEN_WINDOW) later numbers back; what it
/// skipped counts as seen and is never delivered.
///
/// ```
/// use wsg_gossip::FifoBuffer;
///
/// let mut fifo = FifoBuffer::<String, &str>::new();
/// let origin = "http://node1/gossip";
/// assert!(fifo.accept(origin, 1, "b").is_empty()); // held: gap at 0
/// assert_eq!(fifo.accept(origin, 0, "a"), ["a", "b"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoBuffer<K, T> {
    seen: SeenSeqs<K>,
    // origin -> payloads waiting above its floor
    held: BTreeMap<K, BTreeMap<u64, T>>,
}

impl<K: Ord, T> FifoBuffer<K, T> {
    /// An empty buffer (every origin starts at seq 0).
    pub fn new() -> Self {
        FifoBuffer { seen: SeenSeqs::new(), held: BTreeMap::new() }
    }

    /// Offer a message; returns the payloads now releasable, in order.
    /// Duplicates and already-released seqs return nothing.
    pub fn accept<Q>(&mut self, origin: &Q, seq: u64, payload: T) -> Vec<T>
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        let Some(released) = self.seen.insert(origin, seq) else {
            return Vec::new();
        };
        let held = match self.held.get_mut(origin) {
            Some(held) => held,
            None => self.held.entry(origin.to_owned()).or_default(),
        };
        held.insert(seq, payload);
        let still_held = held.split_off(&released.end);
        std::mem::replace(held, still_held).into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEEN_WINDOW;

    fn fifo() -> FifoBuffer<usize, u64> {
        FifoBuffer::new()
    }

    /// Number of messages currently held back (all origins).
    fn held_count(fifo: &FifoBuffer<usize, u64>) -> usize {
        fifo.held.values().map(BTreeMap::len).sum()
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut fifo = fifo();
        for seq in 0..5 {
            assert_eq!(fifo.accept(&0, seq, seq), [seq]);
        }
        assert_eq!(held_count(&fifo), 0);
    }

    #[test]
    fn reordering_is_corrected() {
        let mut fifo = fifo();
        assert!(fifo.accept(&0, 2, 2).is_empty());
        assert!(fifo.accept(&0, 1, 1).is_empty());
        assert_eq!(held_count(&fifo), 2);
        assert_eq!(fifo.accept(&0, 0, 0), [0, 1, 2]);
        assert_eq!(held_count(&fifo), 0);
    }

    #[test]
    fn origins_are_independent() {
        let mut fifo = fifo();
        assert_eq!(fifo.accept(&0, 0, 0).len(), 1);
        assert!(fifo.accept(&1, 1, 1).is_empty(), "origin 1 still at 0");
        assert_eq!(fifo.accept(&1, 0, 0).len(), 2);
    }

    #[test]
    fn duplicates_ignored() {
        let mut fifo = fifo();
        assert_eq!(fifo.accept(&0, 0, 0).len(), 1);
        assert!(fifo.accept(&0, 0, 0).is_empty(), "released duplicate");
        assert!(fifo.accept(&0, 2, 2).is_empty());
        assert!(fifo.accept(&0, 2, 2).is_empty(), "held duplicate");
    }

    #[test]
    fn a_gap_the_window_outlives_releases_what_waited_behind_it() {
        let mut fifo = fifo();
        let window = SEEN_WINDOW as u64;
        // 0 never arrives: everything after it waits...
        for seq in 1..=window {
            assert!(fifo.accept(&0, seq, seq).is_empty());
        }
        assert_eq!(held_count(&fifo), SEEN_WINDOW);
        // ...until one more than the window holds: the floor moves past the
        // gap and all of it goes out in order, this one included.
        let released = fifo.accept(&0, window + 1, window + 1);
        assert_eq!(released, (1..=window + 1).collect::<Vec<_>>());
        assert_eq!(held_count(&fifo), 0);
        assert!(fifo.accept(&0, 0, 0).is_empty(), "the gap counts as seen");
    }
}
