//! Inputs and load generators: seeded payloads, the open-loop schedule
//! and the closed-loop window. Pure state machines over nanosecond
//! timestamps, so the probe drives them and tests replay them.

use std::collections::BTreeMap;

use wsg_net::{Pcg32, RngExt};
use wsg_xml::Element;

/// Mostly alphanumeric text with a few characters the XML writer must
/// escape, so the escaping path runs on every payload as it would on
/// real text.
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789      &<";

/// Width of the `seq` prefix (digits plus the `:` separator).
const PREFIX: usize = 13;

/// The published payloads: `seq` followed by seeded filler, `bytes` long.
#[derive(Debug, Clone)]
pub struct Payloads {
    filler: Vec<u8>,
}

impl Payloads {
    /// Filler for payloads of `bytes` bytes (at least the prefix), drawn
    /// from `seed` alone.
    pub fn new(seed: u64, bytes: usize) -> Self {
        let mut rng = Pcg32::new(seed, 0x7061_796c);
        let len = bytes.saturating_sub(PREFIX).max(1);
        let filler = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        Payloads { filler }
    }

    /// The text published as `seq`: the filler rotated by `seq`, so every
    /// publication differs and the oracle can recompute each one.
    pub fn text(&self, seq: u64) -> String {
        let split = (seq % self.filler.len() as u64) as usize;
        let mut text = format!("{seq:012}:");
        for part in [&self.filler[split..], &self.filler[..split]] {
            text.extend(part.iter().map(|&b| b as char));
        }
        text
    }

    /// The body element published as `seq`.
    pub fn element(&self, seq: u64) -> Element {
        Element::text_node("tick", self.text(seq))
    }
}

/// Open loop: publication `k` is due at `start + k * interval`, whatever
/// happened to the ticks before it.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start_ns: u64,
    interval_ns: u64,
    issued: u64,
}

impl OpenLoop {
    /// A schedule of `rate_per_s` publications per second from `start_ns`.
    pub fn new(start_ns: u64, rate_per_s: u64) -> Self {
        OpenLoop {
            start_ns,
            interval_ns: 1_000_000_000 / rate_per_s.max(1),
            issued: 0,
        }
    }

    /// When the next publication is due.
    pub fn next_due_ns(&self) -> u64 {
        self.start_ns + self.issued * self.interval_ns
    }

    /// The due times that have passed at `now_ns` and were not yet taken.
    /// A late tick takes several; none is moved.
    pub fn take_due(&mut self, now_ns: u64) -> Vec<u64> {
        let mut due = Vec::new();
        while self.next_due_ns() <= now_ns {
            due.push(self.next_due_ns());
            self.issued += 1;
        }
        due
    }
}

/// Closed loop: at most `cap` publications outstanding. A slot frees when
/// its publication completes, or is reclaimed after `timeout_ns`.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    cap: usize,
    timeout_ns: u64,
    open: BTreeMap<u64, u64>,
}

impl ClosedLoop {
    /// A window of `cap` slots whose stuck publications expire after
    /// `timeout_ns`.
    pub fn new(cap: usize, timeout_ns: u64) -> Self {
        ClosedLoop {
            cap,
            timeout_ns,
            open: BTreeMap::new(),
        }
    }

    /// Slots free right now.
    pub fn free(&self) -> usize {
        self.cap - self.open.len()
    }

    /// Occupy a slot with `seq`, sent at `now_ns`. Refused when full.
    pub fn issue(&mut self, seq: u64, now_ns: u64) -> bool {
        if self.open.len() >= self.cap {
            return false;
        }
        self.open.insert(seq, now_ns);
        true
    }

    /// `seq` completed: free its slot (a no-op once expired).
    pub fn complete(&mut self, seq: u64) {
        self.open.remove(&seq);
    }

    /// Expire the slots sent `timeout_ns` or longer before `now_ns`.
    pub fn expire(&mut self, now_ns: u64) -> usize {
        let timeout = self.timeout_ns;
        let before = self.open.len();
        self.open
            .retain(|_, sent| now_ns.saturating_sub(*sent) < timeout);
        before - self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_have_the_asked_size_and_repeat_per_seed() {
        for bytes in [256usize, 16 * 1024] {
            let a = Payloads::new(17, bytes);
            let b = Payloads::new(17, bytes);
            assert_eq!(a.text(0).len(), bytes);
            assert_eq!(a.text(12_345), b.text(12_345));
            assert_ne!(a.text(1), a.text(2));
            assert!(a.text(7).starts_with("000000000007:"));
        }
        assert_ne!(
            Payloads::new(17, 256).text(3),
            Payloads::new(18, 256).text(3)
        );
    }

    #[test]
    fn open_loop_due_times_do_not_drift_when_a_tick_fires_late() {
        let mut schedule = OpenLoop::new(1_000, 20);
        assert_eq!(schedule.take_due(999), Vec::<u64>::new());
        assert_eq!(schedule.take_due(1_000), vec![1_000]);
        // The next tick fires 130 ms late: it owes three publications,
        // each timed from its own slot, and the one after is not moved.
        let late = 1_000 + 50_000_000 + 130_000_000;
        assert_eq!(
            schedule.take_due(late),
            vec![1_000 + 50_000_000, 1_000 + 100_000_000, 1_000 + 150_000_000]
        );
        assert_eq!(schedule.next_due_ns(), 1_000 + 200_000_000);
    }

    #[test]
    fn closed_loop_never_exceeds_its_cap_and_expires_stuck_slots() {
        let mut window = ClosedLoop::new(4, 5_000);
        let mut seq = 0;
        for now in 0..100u64 {
            while window.free() > 0 {
                assert!(window.issue(seq, now));
                seq += 1;
            }
            assert!(!window.issue(seq, now), "a full window refuses");
            assert_eq!(window.free(), 0);
            // The newest publication completes; the rest stay stuck.
            window.complete(seq - 1);
        }
        let stuck = 4 - window.free();
        assert_eq!(stuck, 3);
        assert_eq!(window.expire(4_999), 0, "nothing is old enough yet");
        assert_eq!(window.expire(5_000 + 99), stuck);
        assert_eq!(window.free(), 4);
        window.complete(0); // completing an expired slot is harmless
        assert_eq!(window.free(), 4);
    }
}
