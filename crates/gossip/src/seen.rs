//! Which `(origin, seq)` pairs have been seen: the one memory behind the
//! gossip layer's dedup, the engine's digest and FIFO delivery.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Sequence numbers one origin's memory holds above its floor at most
/// (≈ 1 MB). One more moves the floor past the smallest of them, and the
/// gaps below count as seen: a copy that late is suppressed, never
/// delivered twice. Sized from the transport: the slowest copies of
/// `saturate_small` arrive ~9 000 publications late, and a 4 096 window
/// lost 0.2 % of first deliveries there.
pub const SEEN_WINDOW: usize = 65_536;

/// What has been seen from one origin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Seqs {
    floor: u64,
    above: BTreeSet<u64>,
}

/// Per-origin memory of seen sequence numbers: a floor below which every
/// number counts as seen, and the numbers seen above it, so in-order
/// traffic keeps no per-number state. Looked up by a borrowed origin key
/// (`&str` for a `String` key).
///
/// ```
/// use wsg_gossip::SeenSeqs;
///
/// let mut seen = SeenSeqs::<String>::new();
/// assert_eq!(seen.insert("http://node1/gossip", 1), Some(0..0)); // held: gap at 0
/// assert_eq!(seen.insert("http://node1/gossip", 0), Some(0..2)); // the floor moves over both
/// assert_eq!(seen.insert("http://node1/gossip", 1), None);
/// assert!(seen.contains("http://node1/gossip", 0));
/// assert!(!seen.contains("http://node2/gossip", 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeenSeqs<K> {
    origins: BTreeMap<K, Seqs>,
}

impl<K> Default for SeenSeqs<K> {
    fn default() -> Self {
        SeenSeqs { origins: BTreeMap::new() }
    }
}

impl<K: Ord> SeenSeqs<K> {
    /// An empty memory: nothing seen from anyone.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `seq` from `origin`. `None` when it counted as seen already;
    /// otherwise the numbers the origin's floor moved over — in order,
    /// every number from the old floor that is now below it, `seq`
    /// included when it was the floor, empty when `seq` waits above a gap.
    pub fn insert<Q>(&mut self, origin: &Q, seq: u64) -> Option<Range<u64>>
    where
        K: Borrow<Q>,
        Q: Ord + ToOwned<Owned = K> + ?Sized,
    {
        let seqs = match self.origins.get_mut(origin) {
            Some(seqs) => seqs,
            None => self.origins.entry(origin.to_owned()).or_default(),
        };
        let start = seqs.floor;
        if seq == start {
            seqs.floor += 1;
        } else if seq < start || !seqs.above.insert(seq) {
            return None;
        } else if seqs.above.len() > SEEN_WINDOW {
            if let Some(oldest) = seqs.above.pop_first() {
                seqs.floor = oldest + 1;
            }
        }
        while seqs.above.first() == Some(&seqs.floor) {
            seqs.above.pop_first();
            seqs.floor += 1;
        }
        Some(start..seqs.floor)
    }

    /// Whether `seq` from `origin` counts as seen.
    pub fn contains<Q>(&self, origin: &Q, seq: u64) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.origins
            .get(origin)
            .is_some_and(|seqs| seq < seqs.floor || seqs.above.contains(&seq))
    }

    /// Every `(origin, seq)` that counts as seen, by origin and then seq.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.origins.iter().flat_map(|(origin, seqs)| {
            (0..seqs.floor).chain(seqs.above.iter().copied()).map(move |seq| (origin, seq))
        })
    }

    /// Number of sequence numbers held above the floors (all origins): the
    /// memory's only per-number state.
    pub fn held(&self) -> usize {
        self.origins.values().map(|seqs| seqs.above.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::check::{run, Gen};
    use wsg_net::{prop_assert, prop_assert_eq};

    /// `0..n` in random order, each number sent once more now and then.
    fn disordered(g: &mut Gen, n: u64) -> Vec<u64> {
        let mut seqs: Vec<u64> = (0..n).collect();
        for i in (1..seqs.len()).rev() {
            seqs.swap(i, g.usize(0..=i));
        }
        for _ in 0..g.len_in(seqs.len() / 2) {
            let copy = seqs[g.usize(0..=seqs.len() - 1)];
            seqs.insert(g.usize(0..=seqs.len()), copy);
        }
        seqs
    }

    #[test]
    fn seen_seqs_agree_with_a_set_of_pairs() {
        run("seen_seqs_agree_with_a_set_of_pairs", 256, |g: &mut Gen| {
            let origins: Vec<String> =
                (0..g.usize(1..=5)).map(|i| format!("http://node{i}/gossip")).collect();
            let mut streams: Vec<(usize, Vec<u64>)> = (0..origins.len())
                .map(|o| {
                    let n = g.len_in(64) as u64;
                    (o, disordered(g, n))
                })
                .filter(|(_, stream)| !stream.is_empty())
                .collect();
            let mut seen = SeenSeqs::<String>::new();
            let mut oracle = BTreeSet::<(usize, u64)>::new();
            // What each origin's floor moved over, end to end.
            let mut floors = vec![0u64; origins.len()];
            while !streams.is_empty() {
                // Interleave the origins at random.
                let at = g.usize(0..=streams.len() - 1);
                let (o, stream) = &mut streams[at];
                let o = *o;
                let seq = stream.remove(0);
                if stream.is_empty() {
                    streams.swap_remove(at);
                }
                let new = oracle.insert((o, seq));
                let moved = seen.insert(origins[o].as_str(), seq);
                prop_assert!(moved.is_some() == new, "{} seq {seq}: new {new}", origins[o]);
                if let Some(moved) = moved {
                    prop_assert_eq!(moved.start, floors[o]);
                    floors[o] = moved.end;
                }
                // The floor is the contiguous prefix the oracle holds.
                let prefix = (0..).take_while(|s| oracle.contains(&(o, *s))).count() as u64;
                prop_assert_eq!(floors[o], prefix);
                let (probe, probe_seq) = (g.usize(0..=origins.len() - 1), g.u64(0..=64));
                prop_assert_eq!(
                    seen.contains(origins[probe].as_str(), probe_seq),
                    oracle.contains(&(probe, probe_seq))
                );
            }
            for (o, origin) in origins.iter().enumerate() {
                for seq in 0..=64 {
                    prop_assert_eq!(seen.contains(origin.as_str(), seq), oracle.contains(&(o, seq)));
                }
            }
            let listed: BTreeSet<(usize, u64)> = seen
                .iter()
                .map(|(origin, seq)| (origins.iter().position(|o| o == origin).unwrap(), seq))
                .collect();
            prop_assert_eq!(&listed, &oracle);
            // Every stream ran complete, so nothing waits above a floor.
            prop_assert_eq!(seen.held(), 0);
            Ok(())
        });
    }

    #[test]
    fn past_the_window_nothing_is_new_twice() {
        run("past_the_window_nothing_is_new_twice", 8, |g: &mut Gen| {
            let window = SEEN_WINDOW as u64;
            let n = window + g.u64(1..=4096);
            // Some numbers arrive only at the end, far behind the rest,
            // which come in locally shuffled runs, with copies.
            let late: BTreeSet<u64> = (0..g.usize(1..=32)).map(|_| g.u64(0..=n - 1)).collect();
            let mut stream: Vec<u64> = Vec::new();
            let mut next = 0;
            while next < n {
                let run_end = (next + g.u64(1..=16)).min(n);
                let start = stream.len();
                stream.extend((next..run_end).filter(|s| !late.contains(s)));
                for i in (start + 1..stream.len()).rev() {
                    stream.swap(i, g.usize(start..=i));
                }
                if g.bool(0.2) && !stream.is_empty() {
                    stream.push(stream[g.usize(0..=stream.len() - 1)]);
                }
                next = run_end;
            }
            stream.extend(late.iter().copied());
            stream.extend((0..g.len_in(64)).map(|_| g.u64(0..=n - 1)));

            let mut seen = SeenSeqs::<u32>::new();
            let mut reported = BTreeSet::new();
            for seq in stream {
                if seen.insert(&7, seq).is_some() {
                    prop_assert!(reported.insert(seq), "seq {seq} reported new twice");
                }
                prop_assert!(seen.held() <= SEEN_WINDOW);
                prop_assert!(seen.contains(&7, seq));
            }
            prop_assert!(reported.iter().all(|&seq| seen.contains(&7, seq)));
            Ok(())
        });
    }
}
