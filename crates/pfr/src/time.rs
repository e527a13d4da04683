//! Simulated wall-clock time.
//!
//! Everything in the workspace — replication, routing policies, traces, the
//! emulation engine — shares this one notion of time so experiment runs are
//! deterministic and independent of the host clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, with one-second resolution.
///
/// `SimTime` counts seconds since the start of an experiment. The trace
/// generators use the convention that second `0` is midnight of day 0, so
/// `SimTime::from_hms(d, h, m, s)` addresses "day *d*, *h*:*m*:*s*".
///
/// # Examples
///
/// ```
/// use pfr::SimTime;
///
/// let morning = SimTime::from_hms(0, 8, 0, 0);
/// let evening = SimTime::from_hms(0, 23, 0, 0);
/// assert_eq!((evening - morning).as_hours_f64(), 15.0);
/// assert_eq!(morning.day(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The instant at which every experiment starts.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw seconds since the experiment start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates a time from a day number plus hours, minutes, and seconds
    /// within that day.
    pub const fn from_hms(day: u64, hour: u64, min: u64, sec: u64) -> Self {
        SimTime(day * 86_400 + hour * 3_600 + min * 60 + sec)
    }

    /// Seconds since the experiment start.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The day this instant falls in (day 0 is the first day).
    pub const fn day(self) -> u64 {
        self.0 / 86_400
    }

    /// Seconds elapsed since midnight of the current day.
    pub const fn seconds_into_day(self) -> u64 {
        self.0 % 86_400
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The elapsed duration since `earlier`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.seconds_into_day();
        write!(
            f,
            "day {} {:02}:{:02}:{:02}",
            self.day(),
            s / 3_600,
            (s % 3_600) / 60,
            s % 60
        )
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// A span of simulated time, with one-second resolution.
///
/// # Examples
///
/// ```
/// use pfr::SimDuration;
///
/// let d = SimDuration::from_hours(12);
/// assert_eq!(d.as_secs(), 43_200);
/// assert_eq!(d.as_days_f64(), 0.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    /// The duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The duration in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600.0
    }

    /// The duration in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(86_400) && self.0 > 0 {
            write!(f, "{}d", self.0 / 86_400)
        } else if self.0.is_multiple_of(3_600) && self.0 > 0 {
            write!(f, "{}h", self.0 / 3_600)
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_hms_addressing() {
        let t = SimTime::from_hms(2, 8, 30, 15);
        assert_eq!(t.day(), 2);
        assert_eq!(t.seconds_into_day(), 8 * 3_600 + 30 * 60 + 15);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(100);
        let t2 = t + SimDuration::from_secs(50);
        assert_eq!((t2 - t).as_secs(), 50);
        let mut t3 = t;
        t3 += SimDuration::from_mins(1);
        assert_eq!(t3.as_secs(), 160);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(30);
        assert_eq!(late.saturating_since(early).as_secs(), 20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_days(1).as_secs(), 86_400);
        assert_eq!(SimDuration::from_hours(2).as_hours_f64(), 2.0);
        assert!((SimDuration::from_hours(36).as_days_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            format!("{}", SimTime::from_hms(1, 9, 5, 0)),
            "day 1 09:05:00"
        );
        assert_eq!(format!("{}", SimDuration::from_days(3)), "3d");
        assert_eq!(format!("{}", SimDuration::from_hours(5)), "5h");
        assert_eq!(format!("{}", SimDuration::from_secs(61)), "61s");
    }

    #[test]
    fn max_picks_later() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
