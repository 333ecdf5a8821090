//! Virtual time.
//!
//! All simulated latencies are kept in integer nanoseconds. The paper reports
//! barrier latencies in microseconds, so [`SimTime`] carries µs conversion
//! helpers; nanosecond integer arithmetic keeps event ordering exact (no FP
//! accumulation error across the 10⁴-iteration benchmark loops).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic never distinguishes the two, mirroring plain `u64` ns counters
/// in production event-driven simulators.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero / the empty duration.
    pub const ZERO: SimTime = SimTime(0);
    /// One nanosecond.
    pub const NANOSECOND: SimTime = SimTime(1);
    /// One microsecond.
    pub const MICROSECOND: SimTime = SimTime(1_000);
    /// One millisecond.
    pub const MILLISECOND: SimTime = SimTime(1_000_000);
    /// One second.
    pub const SECOND: SimTime = SimTime(1_000_000_000);
    /// The far future; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from integer nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from fractional nanoseconds, rounding half away from
    /// zero: exactly `ns.round() as u64`, so negative or NaN input gives
    /// zero and input past `u64::MAX` saturates. It calls no libm `round`,
    /// a function call on the baseline x86-64 target, because per-packet
    /// times (wire latency, port occupancy, DMA) go through it.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        // `as` truncates toward zero and saturates (NaN and negatives to
        // 0). Below 2^53 the remainder `ns - trunc` is exact, so comparing
        // it with 0.5 rounds exactly; from 2^53 every float is an integer
        // and the remainder is 0, or at least 4096 past `u64::MAX`.
        let trunc = ns as u64;
        if ns - trunc as f64 >= 0.5 {
            SimTime(trunc.saturating_add(1))
        } else {
            SimTime(trunc)
        }
    }

    /// Construct from (possibly fractional) microseconds, rounding to the
    /// nearest nanosecond. Negative values clamp to zero.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        SimTime::from_ns_f64(us * 1_000.0)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_us_int(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Nanoseconds as a raw integer.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (the unit the paper reports in).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub const fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scale a duration by a float factor (used when deriving per-cluster
    /// parameter sets, e.g. NIC cycle costs scaled by clock ratio).
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime::from_ns_f64(self.0 as f64 * factor)
    }

    /// True if this is the zero time/duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What `SimTime::from_ns_f64` must equal: libm's round, saturated.
    fn libm_round(ns: f64) -> u64 {
        ns.round() as u64
    }

    proptest! {
        /// Every bit pattern: NaNs, infinities, subnormals, negatives and
        /// values of 2^63 and above included.
        #[test]
        fn from_ns_f64_matches_libm_round_on_any_bits(bits in any::<u64>()) {
            let ns = f64::from_bits(bits);
            prop_assert_eq!(SimTime::from_ns_f64(ns).as_ns(), libm_round(ns));
        }

        /// The range per-packet times fall in, landing on every tie.
        #[test]
        fn from_ns_f64_matches_libm_round_on_eighths(whole in 0u64..1 << 40, eighth in 0u64..8) {
            for ns in [whole as f64 + eighth as f64 / 8.0, -(whole as f64) - eighth as f64 / 8.0] {
                prop_assert_eq!(SimTime::from_ns_f64(ns).as_ns(), libm_round(ns));
            }
        }

        /// Products as the wire and DMA models form them.
        #[test]
        fn from_ns_f64_matches_libm_round_on_byte_costs(bytes in 0u32..1 << 20, per_byte in 0.0f64..8.0) {
            let ns = f64::from(bytes) * per_byte;
            prop_assert_eq!(SimTime::from_ns_f64(ns).as_ns(), libm_round(ns));
        }
    }

    #[test]
    fn from_ns_f64_matches_libm_round_at_the_edges() {
        let p = |e: i32| 2f64.powi(e);
        for ns in [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            -0.5,
            -1.5,
            0.499_999_999_999_999_94,
            p(52) - 0.5,
            p(52),
            p(53) - 1.0,
            p(53),
            p(53) + 2.0,
            p(63),
            p(63) + 2048.0,
            p(64) - 2048.0,
            p(64),
            p(65),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
        ] {
            assert_eq!(
                SimTime::from_ns_f64(ns).as_ns(),
                libm_round(ns),
                "{ns:e} ({:#x})",
                ns.to_bits()
            );
        }
        assert_eq!(SimTime::from_ns_f64(2.5), SimTime(3), "ties away from zero");
        assert_eq!(SimTime::from_ns_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_ns_f64(p(70)), SimTime::MAX);
    }

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimTime::from_ns(1_500).as_ns(), 1_500);
        assert_eq!(SimTime::from_us(1.5).as_ns(), 1_500);
        assert_eq!(SimTime::from_us_int(3).as_ns(), 3_000);
        assert!((SimTime::from_ns(2_750).as_us() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn from_us_rounds_to_nearest_ns() {
        assert_eq!(SimTime::from_us(0.0004).as_ns(), 0);
        assert_eq!(SimTime::from_us(0.0006).as_ns(), 1);
        assert_eq!(SimTime::from_us(-3.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(2.0);
        let b = SimTime::from_us(0.5);
        assert_eq!(a + b, SimTime::from_us(2.5));
        assert_eq!(a - b, SimTime::from_us(1.5));
        assert_eq!(a * 3, SimTime::from_us(6.0));
        assert_eq!(a / 4, SimTime::from_us(0.5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.checked_sub(b), Some(SimTime::from_us(1.5)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    fn min_max_scale() {
        let a = SimTime::from_us(2.0);
        let b = SimTime::from_us(3.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.scale(1.5), SimTime::from_us(3.0));
        assert_eq!(a.scale(0.0), SimTime::ZERO);
    }

    #[test]
    fn sum_and_ordering() {
        let total: SimTime = [1.0, 2.0, 3.5].iter().map(|&us| SimTime::from_us(us)).sum();
        assert_eq!(total, SimTime::from_us(6.5));
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimTime::from_us(5.6)), "5.600us");
        assert_eq!(format!("{:?}", SimTime::from_ns(123)), "0.123us");
    }
}
