//! Arrival processes in virtual time.

use wsg_net::{Rng64, RngExt};

use wsg_net::{SimDuration, SimTime};

/// The stochastic model of inter-arrival times.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArrivalProcess {
    /// Fixed spacing: one event every `period`.
    Constant {
        /// Inter-arrival period.
        period: SimDuration,
    },
    /// Poisson process with the given mean rate (events/second).
    Poisson {
        /// Mean event rate per second.
        rate_per_sec: f64,
    },
    /// Quiet baseline with periodic bursts: `burst_size` events spaced
    /// `in_burst` apart, bursts separated by `between_bursts`.
    Bursty {
        /// Events per burst.
        burst_size: u32,
        /// Spacing inside a burst.
        in_burst: SimDuration,
        /// Gap between bursts.
        between_bursts: SimDuration,
    },
}

/// Iterator-style generator of event times.
///
/// ```
/// use wsg_workloads::{ArrivalProcess, Arrivals};
/// use wsg_net::{Pcg32, SimDuration, SimTime};
///
/// let mut arrivals = Arrivals::new(ArrivalProcess::Constant {
///     period: SimDuration::from_millis(10),
/// });
/// let mut rng = Pcg32::new(1, 0);
/// let times = arrivals.schedule_until(SimTime::from_millis(25), &mut rng);
/// assert_eq!(times.len(), 2);
/// assert_eq!((times[1] - times[0]).as_millis(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Arrivals {
    process: ArrivalProcess,
    now: SimTime,
    burst_position: u32,
}

impl Arrivals {
    /// A generator starting at time zero.
    pub fn new(process: ArrivalProcess) -> Self {
        Arrivals { process, now: SimTime::ZERO, burst_position: 0 }
    }

    /// The time of the next event (strictly increasing).
    fn next_arrival<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> SimTime {
        let gap = match &self.process {
            ArrivalProcess::Constant { period } => *period,
            ArrivalProcess::Poisson { rate_per_sec } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                SimDuration::from_secs_f64(-u.ln() / rate_per_sec.max(1e-9))
            }
            ArrivalProcess::Bursty { burst_size, in_burst, between_bursts } => {
                
                if self.burst_position + 1 < *burst_size {
                    self.burst_position += 1;
                    *in_burst
                } else {
                    self.burst_position = 0;
                    *between_bursts
                }
            }
        };
        // Events never coincide exactly: at least one microsecond apart.
        let gap = if gap.as_micros() == 0 { SimDuration::from_micros(1) } else { gap };
        self.now += gap;
        self.now
    }

    /// All event times up to `horizon` (inclusive).
    pub fn schedule_until<R: Rng64 + ?Sized>(
        &mut self,
        horizon: SimTime,
        rng: &mut R,
    ) -> Vec<SimTime> {
        let mut times = Vec::new();
        loop {
            let t = self.next_arrival(rng);
            if t > horizon {
                return times;
            }
            times.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsg_net::Pcg32;

    #[test]
    fn constant_is_evenly_spaced() {
        let mut arrivals = Arrivals::new(ArrivalProcess::Constant {
            period: SimDuration::from_millis(5),
        });
        let mut rng = Pcg32::new(1, 0);
        let times = arrivals.schedule_until(SimTime::from_millis(50), &mut rng);
        assert_eq!(times.len(), 10);
        assert_eq!(times[0], SimTime::from_millis(5));
        assert_eq!(times[9], SimTime::from_millis(50));
    }

    #[test]
    fn poisson_rate_roughly_matches() {
        let mut arrivals = Arrivals::new(ArrivalProcess::Poisson { rate_per_sec: 100.0 });
        let mut rng = Pcg32::new(2, 0);
        let times = arrivals.schedule_until(SimTime::from_secs(50), &mut rng);
        let rate = times.len() as f64 / 50.0;
        assert!((85.0..115.0).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        for process in [
            ArrivalProcess::Poisson { rate_per_sec: 10_000.0 },
            ArrivalProcess::Bursty {
                burst_size: 5,
                in_burst: SimDuration::ZERO,
                between_bursts: SimDuration::from_millis(10),
            },
        ] {
            let mut arrivals = Arrivals::new(process);
            let mut rng = Pcg32::new(3, 0);
            let mut last = SimTime::ZERO;
            for _ in 0..1000 {
                let t = arrivals.next_arrival(&mut rng);
                assert!(t > last);
                last = t;
            }
        }
    }

    #[test]
    fn bursty_shape() {
        let mut arrivals = Arrivals::new(ArrivalProcess::Bursty {
            burst_size: 3,
            in_burst: SimDuration::from_millis(1),
            between_bursts: SimDuration::from_millis(100),
        });
        let mut rng = Pcg32::new(4, 0);
        let times: Vec<u64> = (0..6).map(|_| arrivals.next_arrival(&mut rng).as_millis()).collect();
        // burst of 3 spaced 1ms, then a 100ms gap, then the next burst
        assert_eq!(times, vec![1, 2, 102, 103, 104, 204]);
    }
}
