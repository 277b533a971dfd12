//! Virtual time, and the [`Clock`] abstraction that lets time-keeping
//! components run on either virtual or wall-clock time.
//!
//! ## Who may observe the wall clock
//!
//! `SimTime`/`SimDuration` are the *only* time types protocols and
//! membership components touch; where the microseconds come from is the
//! runtime's business. Lint rule **D2** pins the raw wall-clock reads
//! (`Instant::now`/`SystemTime`) to `wsg_bench::timing` (the sanctioned
//! measurement stopwatch), `wsg_http` (socket timeouts and request
//! timing) and one allowed read here: [`WallClock::new`], the epoch every
//! live runtime maps process uptime onto `SimTime` from.
//!
//! Everything else — the live node loop in [`crate::threads`] and the
//! membership plane in `wsg_cluster` included — receives time through a
//! [`Clock`], so the same `MembershipView`/`FailureDetectorConfig`/
//! `PhiAccrual` code runs bit-identically in the simulator (driven by
//! `SimNet`'s virtual clock) and on real sockets (driven by a
//! [`WallClock`]).
//!
//! ## Sim-vs-wall conversions
//!
//! [`SimDuration::to_std`] is the one sanctioned conversion from a virtual
//! duration to a `std::time::Duration`; the way back is [`WallClock`]'s
//! alone. Both are exact at microsecond granularity (a wall-clock reading
//! truncates sub-microsecond precision and saturates at `u64::MAX`
//! microseconds), so converting back and forth never drifts by more than
//! a microsecond.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since simulation start.
///
/// ```
/// use wsg_net::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time `micros` microseconds after start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// A time `millis` milliseconds after start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// A time `secs` seconds after start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since start.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// Milliseconds since start (truncating).
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since start, as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration since an earlier time (saturating at zero).
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// From a float number of seconds (rounding to microseconds, saturating
    /// at zero for negative inputs).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// Microseconds.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds, as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Scale by an integer factor.
    pub const fn saturating_mul(&self, factor: u64) -> Self {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Divide by an integer factor (truncating); zero divisor yields zero
    /// rather than panicking, keeping timer arithmetic total.
    pub const fn div(&self, divisor: u64) -> Self {
        match self.0.checked_div(divisor) {
            Some(scaled) => SimDuration(scaled),
            None => SimDuration(0),
        }
    }

    /// The equivalent `std::time::Duration` — exact, since both count
    /// microseconds. The sanctioned bridge for wall-clock runtimes
    /// (`wsg_http`, `wsg_cluster`) that must sleep or set socket
    /// timeouts for a virtual duration.
    pub const fn to_std(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.0)
    }

    /// The virtual equivalent of a `std::time::Duration`, truncating to
    /// microsecond granularity and saturating at `u64::MAX` microseconds.
    const fn from_std(duration: std::time::Duration) -> Self {
        let micros = duration.as_micros();
        if micros > u64::MAX as u128 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(micros as u64)
        }
    }
}

/// A source of [`SimTime`] readings.
///
/// The simulator's event loop *is* a clock (virtual time advances from
/// event to event); wall-clock runtimes implement this by measuring
/// process uptime ([`WallClock`]). Components that take a
/// `&dyn Clock` (or `Arc<dyn Clock>`) are thereby generic over both —
/// the membership view and failure detectors run bit-identically in
/// simulation and on real sockets.
pub trait Clock: Send + Sync {
    /// The current reading. Monotone non-decreasing per clock instance.
    fn now(&self) -> SimTime;
}

/// A hand-cranked [`Clock`] for tests of wall-clock-generic components:
/// time only moves when the test advances it.
///
/// ```
/// use wsg_net::time::{Clock, ManualClock, SimDuration, SimTime};
///
/// let clock = ManualClock::new();
/// assert_eq!(clock.now(), SimTime::ZERO);
/// clock.advance(SimDuration::from_millis(250));
/// assert_eq!(clock.now(), SimTime::from_millis(250));
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: std::sync::atomic::AtomicU64,
}

impl ManualClock {
    /// A clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `at`.
    pub fn at(at: SimTime) -> Self {
        let clock = Self::new();
        clock.set(at);
        clock
    }

    /// Move the clock forward by `delta`.
    pub fn advance(&self, delta: SimDuration) {
        self.micros.fetch_add(delta.as_micros(), std::sync::atomic::Ordering::SeqCst);
    }

    /// Jump to an absolute reading (monotonicity is the caller's duty).
    pub fn set(&self, at: SimTime) {
        self.micros.store(at.as_micros(), std::sync::atomic::Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.micros.load(std::sync::atomic::Ordering::SeqCst))
    }
}

/// A [`Clock`] that reports wall-clock time elapsed since its creation
/// as [`SimTime`].
///
/// Anchoring to a construction-time epoch rather than an absolute clock
/// keeps the reported values small, monotone and comparable across every
/// component sharing one `WallClock` (clones share the epoch) — the same
/// shape `MembershipView` timestamps have in simulation.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: std::time::Instant,
}

impl WallClock {
    /// A clock whose `now()` starts at [`SimTime::ZERO`].
    pub fn new() -> Self {
        // wsg_lint: allow(wall-clock) — the one epoch read every live runtime (node loops, membership planes) derives its time from
        WallClock { epoch: std::time::Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_std(self.epoch.elapsed())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        // saturating subtraction
        assert_eq!(SimTime::ZERO - SimTime::from_millis(1), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::ZERO <= SimTime::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn std_conversions_are_exact_at_microsecond_granularity() {
        let d = SimDuration::from_millis(1234);
        assert_eq!(d.to_std(), std::time::Duration::from_millis(1234));
        assert_eq!(SimDuration::from_std(d.to_std()), d);
        // Sub-microsecond precision truncates rather than rounding up, so
        // a sleep never overshoots its virtual duration by conversion.
        let fine = std::time::Duration::from_nanos(1_500);
        assert_eq!(SimDuration::from_std(fine), SimDuration::from_micros(1));
        // Saturation instead of overflow for absurd durations.
        let huge = std::time::Duration::from_secs(u64::MAX);
        assert_eq!(SimDuration::from_std(huge), SimDuration::from_micros(u64::MAX));
    }

    #[test]
    fn div_is_total() {
        assert_eq!(SimDuration::from_millis(10).div(2), SimDuration::from_millis(5));
        assert_eq!(SimDuration::from_millis(10).div(0), SimDuration::ZERO);
    }

    #[test]
    fn wall_clock_is_monotone_and_clones_share_the_epoch() {
        let clock = WallClock::new();
        let copy = clock;
        let first = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let second = copy.now();
        assert!(second > first, "{second:?} must advance past {first:?}");
        assert!(first < SimTime::from_secs(5), "epoch anchors near zero");
        assert!(clock.now() >= second, "a clone reads the same timeline");
    }

    #[test]
    fn manual_clock_advances() {
        let clock = ManualClock::at(SimTime::from_secs(1));
        assert_eq!(clock.now(), SimTime::from_secs(1));
        clock.advance(SimDuration::from_millis(500));
        assert_eq!(clock.now(), SimTime::from_millis(1500));
        clock.set(SimTime::from_secs(9));
        assert_eq!(clock.now(), SimTime::from_secs(9));
    }
}
