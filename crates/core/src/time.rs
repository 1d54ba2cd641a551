//! Simulation time: CPU cycles, wall-clock nanoseconds and clock conversion.
//!
//! All latencies inside the simulator are accounted in CPU [`Cycles`] of the
//! host core (2.6 GHz in the paper's Table 2). DRAM timing parameters are
//! specified in [`Nanos`] and converted through a [`Clock`].

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::hash::fnv1a_u64;

/// A duration or point in time measured in CPU clock cycles.
///
/// `Cycles` is an ordered, additive quantity. Subtraction saturates at zero
/// so that latency arithmetic never underflows.
///
/// # Example
///
/// ```
/// use impact_core::time::Cycles;
///
/// let a = Cycles(100);
/// let b = Cycles(36);
/// assert_eq!(a + b, Cycles(136));
/// assert_eq!(b - a, Cycles(0)); // saturating
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Returns the larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// Returns the smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(other.0))
    }

    /// Converts to a floating-point cycle count.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// Saturating subtraction: latency arithmetic never underflows.
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Cycles {
        Cycles(v)
    }
}

/// A duration in nanoseconds (used for DRAM timing parameters).
///
/// # Example
///
/// ```
/// use impact_core::time::{Clock, Nanos};
///
/// let clk = Clock::from_ghz(2.6);
/// assert_eq!(clk.cycles_ceil(Nanos(13.5)).0, 36);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Nanos(pub f64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0.0);
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ns", self.0)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl Mul<f64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: f64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

/// A CPU clock used to convert between wall-clock time and cycles.
///
/// The paper's simulated CPU (Table 2) runs at 2.6 GHz; use
/// [`Clock::paper_default`] for that configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    freq_ghz: f64,
}

impl Clock {
    /// Creates a clock with the given frequency in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `freq_ghz` is not strictly positive and finite.
    #[must_use]
    pub fn from_ghz(freq_ghz: f64) -> Clock {
        assert!(
            freq_ghz.is_finite() && freq_ghz > 0.0,
            "clock frequency must be positive and finite, got {freq_ghz}"
        );
        Clock { freq_ghz }
    }

    /// The paper's 2.6 GHz CPU clock (Table 2).
    #[must_use]
    pub fn paper_default() -> Clock {
        Clock::from_ghz(2.6)
    }

    /// The clock frequency in GHz.
    #[must_use]
    pub fn freq_ghz(&self) -> f64 {
        self.freq_ghz
    }

    /// Folds the clock into a configuration fingerprint
    /// ([`crate::config::SystemConfig::fingerprint`]). The destructure is
    /// exhaustive and every binding must be folded, so a new field fails
    /// to compile here until it is (or is named `field: _`).
    #[must_use]
    #[deny(unused_variables)]
    pub(crate) fn fold_fingerprint(&self, hash: u64) -> u64 {
        let Clock { freq_ghz } = *self;
        fnv1a_u64(hash, freq_ghz.to_bits())
    }

    /// Converts a nanosecond duration to cycles, rounding up.
    ///
    /// Rounding up models the fact that a command occupying a fractional
    /// cycle still blocks the whole cycle. Products within a few ULPs of
    /// an integer are snapped to it first, so a duration computed as
    /// `cycles / freq_ghz` converts back to exactly the original cycle
    /// count instead of picking up a spurious extra cycle from
    /// floating-point round-off. The snap tolerance is relative (4 ULPs),
    /// so above ~10¹⁵ cycles — days of simulated time, far beyond any
    /// single command latency — it can absorb a genuine sub-cycle
    /// remainder.
    #[must_use]
    pub fn cycles_ceil(&self, ns: Nanos) -> Cycles {
        let raw = ns.0 * self.freq_ghz;
        if raw <= 0.0 {
            return Cycles::ZERO;
        }
        let nearest = raw.round();
        let snapped = if nearest >= 1.0 && (raw - nearest).abs() <= nearest * (4.0 * f64::EPSILON) {
            nearest
        } else {
            raw.ceil()
        };
        Cycles(snapped as u64)
    }

    /// Converts a cycle count to seconds.
    #[must_use]
    pub fn seconds(&self, cycles: Cycles) -> f64 {
        cycles.0 as f64 / (self.freq_ghz * 1e9)
    }

    /// Throughput in megabits per second for `bits` transmitted in `elapsed`.
    ///
    /// Returns 0.0 if `elapsed` is zero.
    #[must_use]
    pub fn throughput_mbps(&self, bits: u64, elapsed: Cycles) -> f64 {
        let secs = self.seconds(elapsed);
        if secs <= 0.0 {
            0.0
        } else {
            bits as f64 / secs / 1e6
        }
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_add_sub() {
        assert_eq!(Cycles(5) + Cycles(7), Cycles(12));
        assert_eq!(Cycles(5) - Cycles(7), Cycles(0));
        assert_eq!(Cycles(7) - Cycles(5), Cycles(2));
    }

    #[test]
    fn cycles_mul_div() {
        assert_eq!(Cycles(5) * 3, Cycles(15));
        assert_eq!(Cycles(15) / 3, Cycles(5));
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn cycles_minmax() {
        assert_eq!(Cycles(3).max(Cycles(9)), Cycles(9));
        assert_eq!(Cycles(3).min(Cycles(9)), Cycles(3));
    }

    #[test]
    fn clock_conversion_trcd() {
        // 13.5 ns at 2.6 GHz = 35.1 cycles, rounded up to 36.
        let clk = Clock::paper_default();
        assert_eq!(clk.cycles_ceil(Nanos(13.5)), Cycles(36));
    }

    #[test]
    fn clock_roundtrip() {
        let clk = Clock::from_ghz(2.0);
        assert_eq!(clk.cycles_ceil(Nanos(50.0)), Cycles(100));
    }

    #[test]
    fn cycles_ceil_roundtrips_nanos() {
        // Without round-off snapping, ~8% of cycle counts at 2.6 GHz came
        // back one cycle high through cycles -> ns -> cycles_ceil().
        let clk = Clock::paper_default();
        for n in (1..100_000).chain([1_000_000, 123_456_789]) {
            let ns = Nanos(n as f64 / clk.freq_ghz());
            assert_eq!(clk.cycles_ceil(ns), Cycles(n), "roundtrip of {n}");
        }
    }

    #[test]
    fn cycles_ceil_clamps_nonpositive() {
        let clk = Clock::paper_default();
        assert_eq!(clk.cycles_ceil(Nanos(0.0)), Cycles::ZERO);
        assert_eq!(clk.cycles_ceil(Nanos(-3.0)), Cycles::ZERO);
    }

    #[test]
    fn clock_throughput() {
        let clk = Clock::from_ghz(1.0); // 1 cycle == 1 ns
                                        // 1000 bits in 1000 cycles = 1000 bits / 1 us = 1 Gb/s = 1000 Mb/s.
        let mbps = clk.throughput_mbps(1000, Cycles(1000));
        assert!((mbps - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn clock_throughput_zero_elapsed() {
        let clk = Clock::paper_default();
        assert_eq!(clk.throughput_mbps(100, Cycles::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "clock frequency must be positive")]
    fn clock_rejects_zero_freq() {
        let _ = Clock::from_ghz(0.0);
    }

    #[test]
    fn nanos_display() {
        assert_eq!(format!("{}", Nanos(13.5)), "13.5 ns");
        assert_eq!(format!("{}", Cycles(74)), "74 cyc");
    }
}
