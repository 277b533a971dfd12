//! Link latency models: a constant delay, or one drawn uniformly from a
//! range. These are the two the experiments configure; the simulator's
//! default is uniform 1–5 ms.

use crate::rng::{Rng64, RngExt};
use crate::time::SimDuration;

/// How long a message spends on the wire.
///
/// All models return strictly positive durations so event causality is
/// never violated (a message can never arrive at or before its send time).
///
/// ```
/// use wsg_net::{LatencyModel, Pcg32};
///
/// let model = LatencyModel::uniform_millis(1, 10);
/// let mut rng = Pcg32::new(3, 0);
/// let sample = model.sample(&mut rng);
/// assert!(sample.as_millis() >= 1 && sample.as_millis() <= 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniform between `min` and `max` (inclusive of `min`).
    Uniform {
        /// Lower bound.
        min: SimDuration,
        /// Upper bound.
        max: SimDuration,
    },
}

impl LatencyModel {
    /// Constant latency of `ms` milliseconds.
    pub fn constant_millis(ms: u64) -> Self {
        LatencyModel::Constant(SimDuration::from_millis(ms))
    }

    /// Uniform latency between `min_ms` and `max_ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `min_ms > max_ms`.
    pub fn uniform_millis(min_ms: u64, max_ms: u64) -> Self {
        assert!(min_ms <= max_ms, "uniform latency requires min <= max");
        LatencyModel::Uniform {
            min: SimDuration::from_millis(min_ms),
            max: SimDuration::from_millis(max_ms),
        }
    }

    /// Draw one latency sample.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let raw = match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { min, max } => {
                let lo = min.as_micros();
                let hi = max.as_micros();
                if lo >= hi {
                    *min
                } else {
                    SimDuration::from_micros(rng.gen_range(lo..=hi))
                }
            }
        };
        // Enforce causality: at least one microsecond on the wire.
        if raw.as_micros() == 0 {
            SimDuration::from_micros(1)
        } else {
            raw
        }
    }
}

impl Default for LatencyModel {
    /// A LAN-ish default: 1–5 ms uniform.
    fn default() -> Self {
        LatencyModel::uniform_millis(1, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    #[test]
    fn constant_is_constant() {
        let model = LatencyModel::constant_millis(7);
        let mut rng = Pcg32::new(1, 0);
        for _ in 0..10 {
            assert_eq!(model.sample(&mut rng), SimDuration::from_millis(7));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let model = LatencyModel::uniform_millis(2, 9);
        let mut rng = Pcg32::new(1, 0);
        for _ in 0..1000 {
            let s = model.sample(&mut rng).as_millis();
            assert!((2..=9).contains(&s));
        }
    }

    #[test]
    fn zero_latency_clamped_to_one_microsecond() {
        let model = LatencyModel::Constant(SimDuration::ZERO);
        let mut rng = Pcg32::new(1, 0);
        assert_eq!(model.sample(&mut rng), SimDuration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_rejects_inverted_bounds() {
        let _ = LatencyModel::uniform_millis(5, 2);
    }
}
