//! Message identity, buffering and digests for pull/anti-entropy styles.

use std::collections::{BTreeMap, VecDeque};

use wsg_net::NodeId;

use crate::seen::SeenSeqs;

/// Globally unique message identity: the originating node plus a
/// per-origin sequence number.
///
/// ```
/// use wsg_gossip::MsgId;
/// use wsg_net::NodeId;
///
/// let id = MsgId::new(NodeId(3), 7);
/// assert_eq!(id.origin(), NodeId(3));
/// assert_eq!(id.seq(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    origin: NodeId,
    seq: u64,
}

impl MsgId {
    /// Identity for the `seq`-th message published by `origin`.
    pub fn new(origin: NodeId, seq: u64) -> Self {
        MsgId { origin, seq }
    }

    /// The publishing node.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// The per-origin sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl std::fmt::Display for MsgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// A compact summary of which messages a node has seen: per origin, a
/// floor below which every seq was seen and the seqs seen above it (a
/// [`SeenSeqs`] keyed by node).
///
/// Digests are exchanged by pull and anti-entropy styles; a peer computes
/// what the other side is missing with [`Digest::missing_from`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    seen: SeenSeqs<NodeId>,
}

impl Digest {
    /// An empty digest (nothing seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `id` has been seen. Returns `true` when it was new.
    pub fn insert(&mut self, id: MsgId) -> bool {
        self.seen.insert(&id.origin(), id.seq()).is_some()
    }

    /// Whether `id` is covered by this digest.
    pub fn contains(&self, id: &MsgId) -> bool {
        self.seen.contains(&id.origin(), id.seq())
    }

    /// All ids known to `self` that are *not* covered by `other` — what a
    /// peer holding `self` should send to a peer advertising `other`.
    pub fn missing_from(&self, other: &Digest) -> Vec<MsgId> {
        self.seen
            .iter()
            .map(|(&origin, seq)| MsgId::new(origin, seq))
            .filter(|id| !other.contains(id))
            .collect()
    }
}

/// Bounded store of message payloads, kept for answering pulls and
/// retransmissions, with FIFO eviction once `capacity` is exceeded.
///
/// The digest outlives the payloads (ids are remembered after payload
/// eviction), so the engine never re-delivers an evicted message.
#[derive(Debug, Clone)]
pub(crate) struct MessageBuffer<T> {
    capacity: usize,
    payloads: BTreeMap<MsgId, (u32, T)>,
    order: VecDeque<MsgId>,
    digest: Digest,
}

impl<T: Clone> MessageBuffer<T> {
    /// A buffer retaining at most `capacity` payloads.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        MessageBuffer {
            capacity,
            payloads: BTreeMap::new(),
            order: VecDeque::new(),
            digest: Digest::new(),
        }
    }

    /// Record a message. Returns `true` when it was new (first sighting).
    pub fn insert(&mut self, id: MsgId, round: u32, payload: T) -> bool {
        if !self.digest.insert(id) {
            return false;
        }
        self.payloads.insert(id, (round, payload));
        self.order.push_back(id);
        while self.order.len() > self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.payloads.remove(&evicted);
            }
        }
        true
    }

    /// The stored payload and its hop count, if still retained.
    pub fn get(&self, id: &MsgId) -> Option<(u32, &T)> {
        self.payloads.get(id).map(|(round, payload)| (*round, payload))
    }

    /// The digest of everything seen (payloads may be evicted).
    pub fn digest(&self) -> &Digest {
        &self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(origin: usize, seq: u64) -> MsgId {
        MsgId::new(NodeId(origin), seq)
    }

    /// Total number of message ids a digest covers.
    fn id_count(digest: &Digest) -> usize {
        digest.seen.iter().count()
    }

    #[test]
    fn digest_contiguous_and_extras() {
        let mut d = Digest::new();
        d.insert(id(0, 0));
        d.insert(id(0, 1));
        d.insert(id(0, 3)); // gap at 2
        assert!(d.contains(&id(0, 0)));
        assert!(d.contains(&id(0, 3)));
        assert!(!d.contains(&id(0, 2)));
        // filling the gap absorbs the extra
        d.insert(id(0, 2));
        assert!(d.contains(&id(0, 2)));
        assert_eq!(id_count(&d), 4);
    }

    #[test]
    fn digest_duplicate_insert_is_idempotent() {
        let mut d = Digest::new();
        d.insert(id(1, 0));
        d.insert(id(1, 0));
        assert_eq!(id_count(&d), 1);
    }

    #[test]
    fn missing_from_computes_difference() {
        let mut mine = Digest::new();
        for seq in 0..5 {
            mine.insert(id(0, seq));
        }
        mine.insert(id(1, 0));
        let mut theirs = Digest::new();
        theirs.insert(id(0, 0));
        theirs.insert(id(0, 1));
        let mut missing = mine.missing_from(&theirs);
        missing.sort();
        assert_eq!(missing, vec![id(0, 2), id(0, 3), id(0, 4), id(1, 0)]);
        // Symmetric check: theirs has nothing mine lacks.
        assert!(theirs.missing_from(&mine).is_empty());
    }

    #[test]
    fn buffer_dedups() {
        let mut buf = MessageBuffer::new(8);
        assert!(buf.insert(id(0, 0), 0, "a"));
        assert!(!buf.insert(id(0, 0), 1, "a"));
        assert_eq!(id_count(buf.digest()), 1);
    }

    #[test]
    fn buffer_evicts_fifo_but_remembers_seen() {
        let mut buf = MessageBuffer::new(2);
        buf.insert(id(0, 0), 0, "a");
        buf.insert(id(0, 1), 0, "b");
        buf.insert(id(0, 2), 0, "c");
        assert_eq!(buf.payloads.len(), 2);
        assert!(buf.get(&id(0, 0)).is_none(), "evicted payload gone");
        assert!(buf.digest().contains(&id(0, 0)), "seen survives eviction");
        assert!(!buf.insert(id(0, 0), 0, "a"), "evicted message not re-admitted");
    }

    #[test]
    fn buffer_get_returns_round() {
        let mut buf = MessageBuffer::new(4);
        buf.insert(id(2, 0), 3, "x");
        let (round, payload) = buf.get(&id(2, 0)).unwrap();
        assert_eq!(round, 3);
        assert_eq!(*payload, "x");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = MessageBuffer::<()>::new(0);
    }

    #[test]
    fn digest_of_buffer_tracks_inserts() {
        let mut buf = MessageBuffer::new(4);
        buf.insert(id(0, 0), 0, 1u32);
        buf.insert(id(1, 0), 0, 2u32);
        assert_eq!(id_count(buf.digest()), 2);
    }
}
