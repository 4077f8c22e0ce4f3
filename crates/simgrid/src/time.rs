//! Virtual time primitives.
//!
//! The whole reproduction runs on *virtual* time: the discrete-event engine
//! ([`crate::engine::TypedEngine`]) advances a [`SimTime`] clock, and the MPI
//! runtime keeps one logical [`SimTime`] clock per process.  Both are integer
//! nanosecond counters, which keeps arithmetic exact and ordering total —
//! floating point is only used at the edges (cost models, report output).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Builds an instant from fractional seconds (clamped at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_f64_to_nanos(s))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This instant expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds (clamped at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_f64_to_nanos(s))
    }

    /// Builds a duration from fractional milliseconds (clamped at zero).
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration(secs_f64_to_nanos(ms / 1e3))
    }

    /// Builds a duration from fractional microseconds (clamped at zero).
    pub fn from_micros_f64(us: f64) -> Self {
        SimDuration(secs_f64_to_nanos(us / 1e6))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This duration expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration expressed in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative factor, saturating.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration(secs_f64_to_nanos(self.as_secs_f64() * factor))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

/// Converts fractional seconds to nanoseconds, clamping negatives to zero and
/// saturating at `u64::MAX`.
fn secs_f64_to_nanos(s: f64) -> u64 {
    if !s.is_finite() || s <= 0.0 {
        if s.is_infinite() && s > 0.0 {
            return u64::MAX;
        }
        return 0;
    }
    let ns = s * 1e9;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        round_to_u64(ns)
    }
}

/// `ns.round() as u64` for `0 <= ns < 2^64`, without the call: `f64::round`
/// is a library routine on baseline x86-64 (no SSE4.1), and this sits under
/// every modeled transfer and compute time.  Truncation is exact, and so is
/// the subtraction: below 2^52 the fraction is a multiple of `ns`'s own
/// ulp, from 2^52 on `ns` is already an integer.
fn round_to_u64(ns: f64) -> u64 {
    let t = ns as u64;
    t + u64::from(ns - t as f64 >= 0.5)
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that can happen.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_millis(10).as_millis_f64(), 10.0);
    }

    #[test]
    fn float_constructors_clamp() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    /// The conversion as it was written before `round_to_u64`.
    fn secs_f64_to_nanos_by_round(s: f64) -> u64 {
        if s.is_nan() || s <= 0.0 {
            0
        } else if s * 1e9 >= u64::MAX as f64 {
            u64::MAX
        } else {
            (s * 1e9).round() as u64
        }
    }

    #[test]
    fn integer_rounding_is_f64_round_on_the_named_cases() {
        let (p52, p53) = ((1u64 << 52) as f64, (1u64 << 53) as f64);
        let below_max = f64::from_bits((u64::MAX as f64).to_bits() - 1);
        let nanos = [
            (0.0, 0),
            // Ties go away from zero; the largest double below one half
            // does not (`(x + 0.5).floor()` would round it up).
            (0.5, 1),
            (1.5, 2),
            (2.5, 3),
            (1e15 + 0.5, 1_000_000_000_000_001),
            (0.49999999999999994, 0),
            (0.5000000000000001, 1),
            // The last half-integers, then integers only.
            (p52 - 1.5, (1 << 52) - 1),
            (p52 - 0.5, 1 << 52),
            (p52, 1 << 52),
            (p52 + 1.0, (1 << 52) + 1),
            (p53 - 1.0, (1 << 53) - 1),
            (p53, 1 << 53),
            (p53 + 2.0, (1 << 53) + 2),
            (below_max, u64::MAX - 2047),
        ];
        for (ns, expected) in nanos {
            assert_eq!(round_to_u64(ns), expected, "{ns:e}");
            assert_eq!(ns.round() as u64, expected, "{ns:e}");
        }
        let secs = [
            (-1.0, 0),
            (-0.0, 0),
            (-f64::MIN_POSITIVE, 0),
            (f64::NAN, 0),
            (f64::NEG_INFINITY, 0),
            (f64::INFINITY, u64::MAX),
            (f64::MAX, u64::MAX),
            (u64::MAX as f64 / 1e9, u64::MAX),
            (5e-10, 1),
            (4.9e-10, 0),
            (1.5, 1_500_000_000),
        ];
        for (s, expected) in secs {
            assert_eq!(secs_f64_to_nanos(s), expected, "{s:e}");
            assert_eq!(secs_f64_to_nanos_by_round(s), expected, "{s:e}");
        }
    }

    proptest! {
        /// Bit for bit what `.round()` gave: over every class of double
        /// (any bit pattern), and over nanosecond counts of every
        /// magnitude with a fraction on, next to and away from the tie.
        #[test]
        fn integer_rounding_is_f64_round(
            bits in any::<u64>(),
            whole in any::<u64>(),
            shift in 0u32..64,
            fraction in 0.0f64..1.0,
        ) {
            let s = f64::from_bits(bits);
            prop_assert_eq!(secs_f64_to_nanos(s), secs_f64_to_nanos_by_round(s), "{:e}", s);
            let whole = (whole >> shift) as f64;
            for ns in [whole + fraction, whole + 0.5, whole - 0.5, whole] {
                if (0.0..u64::MAX as f64).contains(&ns) {
                    prop_assert_eq!(round_to_u64(ns), ns.round() as u64, "{:e}", ns);
                }
                let s = ns / 1e9;
                prop_assert_eq!(secs_f64_to_nanos(s), secs_f64_to_nanos_by_round(s), "{:e}", s);
            }
        }
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(1);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_nanos(), 1_250_000_000);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        assert_eq!((t + d).saturating_since(t), d);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_sub_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(2);
        let b = SimDuration::from_millis(3);
        assert_eq!((a + b).as_millis_f64(), 5.0);
        assert_eq!((b - a).as_millis_f64(), 1.0);
        assert_eq!((a * 4).as_millis_f64(), 8.0);
        assert_eq!((b / 3).as_millis_f64(), 1.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.saturating_sub(a), SimDuration::from_millis(1));
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_secs(3));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_micros(1) < SimDuration::from_millis(1));
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000000s");
        assert_eq!(format!("{}", SimTime::from_secs(1)), "1.000000s");
    }

    #[test]
    fn max_time_is_horizon() {
        let t = SimTime::MAX;
        assert_eq!(t + SimDuration::from_secs(1), SimTime::MAX);
    }
}
