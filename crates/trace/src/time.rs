//! Simulation time.
//!
//! Time is measured in integer seconds from the start of a trace epoch.
//! Spot prices are sampled every [`PRICE_STEP`] (5 minutes, the paper's
//! sampling resolution), while simulation events (checkpoint completions,
//! boot completions, billing-hour boundaries) occur at exact seconds.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One billing hour, in seconds.
pub const HOUR: u64 = 3_600;

/// The spot-price sampling interval: 5 minutes (Section 5).
pub const PRICE_STEP: u64 = 300;

/// The latest instant any loaded trace or served market may reach: 2⁴⁰ s,
/// about 34,800 years after the epoch, so Unix timestamps fit with room to
/// spare. The trace loaders refuse a series whose end (`start + step ×
/// len`) lies past it, and `serve` refuses a market or a row that would
/// carry its next sample past it. Everything later added to such a time
/// (deadlines, horizons, billing hours) is far below the 2⁶⁴ − 2⁴⁰ s left
/// before `u64` overflows.
pub const HORIZON: SimTime = SimTime(1 << 40);

/// An absolute instant on the simulation clock (seconds since trace epoch).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulation time, in seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The trace epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from seconds since epoch.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs)
    }

    /// Construct from whole hours since epoch.
    pub const fn from_hours(hours: u64) -> SimTime {
        SimTime(hours * HOUR)
    }

    /// Seconds since epoch.
    pub const fn secs(self) -> u64 {
        self.0
    }

    /// Hours since epoch as a float (reporting only).
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Time elapsed since `earlier`; zero if `earlier` is in the future.
    pub const fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The index of the 5-minute price-sampling step containing this time.
    pub const fn price_step_index(self) -> u64 {
        self.0 / PRICE_STEP
    }

    /// The next strictly-later 5-minute sampling boundary.
    pub const fn next_price_step(self) -> SimTime {
        SimTime((self.0 / PRICE_STEP + 1) * PRICE_STEP)
    }

    /// The next strictly-later boundary of a billing hour that *started* at
    /// `hour_origin` (billing hours are anchored at instance launch, not at
    /// the trace epoch).
    pub const fn next_hour_boundary(self, hour_origin: SimTime) -> SimTime {
        let elapsed = self.0.saturating_sub(hour_origin.0);
        SimTime(hour_origin.0 + (elapsed / HOUR + 1) * HOUR)
    }

    /// Saturating subtraction of a duration.
    pub const fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(mins: u64) -> SimDuration {
        SimDuration(mins * 60)
    }

    /// Construct from whole hours.
    pub const fn from_hours(hours: u64) -> SimDuration {
        SimDuration(hours * HOUR)
    }

    /// Length in seconds.
    pub const fn secs(self) -> u64 {
        self.0
    }

    /// Length in hours as a float (reporting only).
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// Number of *started* billing hours this span covers (ceiling), e.g.
    /// 1 second → 1 hour. Zero-length spans cover zero hours.
    pub const fn billed_hours(self) -> u64 {
        self.0.div_ceil(HOUR)
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }

    /// Scale by an integer factor.
    pub const fn scaled(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }

    /// The shorter of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The longer of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}h{:02}m{:02}s",
            self.0 / HOUR,
            (self.0 % HOUR) / 60,
            self.0 % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}h{:02}m{:02}s",
            self.0 / HOUR,
            (self.0 % HOUR) / 60,
            self.0 % 60
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_indexing() {
        assert_eq!(SimTime::from_secs(0).price_step_index(), 0);
        assert_eq!(SimTime::from_secs(299).price_step_index(), 0);
        assert_eq!(SimTime::from_secs(300).price_step_index(), 1);
        assert_eq!(
            SimTime::from_secs(0).next_price_step(),
            SimTime::from_secs(300)
        );
        assert_eq!(
            SimTime::from_secs(300).next_price_step(),
            SimTime::from_secs(600)
        );
        assert_eq!(
            SimTime::from_secs(301).next_price_step(),
            SimTime::from_secs(600)
        );
    }

    #[test]
    fn hour_boundaries_are_anchored_at_launch() {
        let launch = SimTime::from_secs(1_000);
        assert_eq!(launch.next_hour_boundary(launch), SimTime::from_secs(4_600));
        assert_eq!(
            SimTime::from_secs(4_599).next_hour_boundary(launch),
            SimTime::from_secs(4_600)
        );
        assert_eq!(
            SimTime::from_secs(4_600).next_hour_boundary(launch),
            SimTime::from_secs(8_200)
        );
    }

    #[test]
    fn billed_hours_is_ceiling() {
        assert_eq!(SimDuration::ZERO.billed_hours(), 0);
        assert_eq!(SimDuration::from_secs(1).billed_hours(), 1);
        assert_eq!(SimDuration::from_hours(1).billed_hours(), 1);
        assert_eq!(SimDuration::from_secs(HOUR + 1).billed_hours(), 2);
        assert_eq!(SimDuration::from_hours(20).billed_hours(), 20);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_hours(2);
        let d = SimDuration::from_mins(30);
        assert_eq!((t + d).secs(), 2 * HOUR + 1800);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), SimDuration::ZERO);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.saturating_sub(SimDuration::from_hours(3)), SimTime::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(3_725).to_string(), "1h02m05s");
        assert_eq!(SimDuration::from_secs(65).to_string(), "0h01m05s");
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_secs(5);
        let b = SimDuration::from_secs(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let t = SimTime::from_secs(5);
        let u = SimTime::from_secs(9);
        assert_eq!(t.min(u), t);
        assert_eq!(t.max(u), u);
    }
}
