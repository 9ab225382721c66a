//! Physical quantities used throughout the FUBAR workspace.
//!
//! [`Bandwidth`] and [`Delay`] are thin `f64` newtypes (bits per second
//! and seconds respectively). They exist to make APIs self-describing and
//! to stop the classic unit bugs (kb/s vs Mb/s, ms vs s) at compile time,
//! while staying `Copy` and arithmetic-friendly so the flow model's inner
//! loops pay nothing for them.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative data rate, stored in bits per second.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero rate.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// From bits per second.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_bps(bps: f64) -> Self {
        assert!(
            bps >= 0.0 && bps.is_finite(),
            "bandwidth must be finite and non-negative, got {bps}"
        );
        Bandwidth(bps)
    }

    /// From kilobits per second.
    pub fn from_kbps(kbps: f64) -> Self {
        Self::from_bps(kbps * 1e3)
    }

    /// From megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_bps(mbps * 1e6)
    }

    /// From gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bps(gbps * 1e9)
    }

    /// In bits per second.
    #[inline]
    pub fn bps(self) -> f64 {
        self.0
    }

    /// In kilobits per second.
    #[inline]
    pub fn kbps(self) -> f64 {
        self.0 / 1e3
    }

    /// In megabits per second.
    #[inline]
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// In gigabits per second.
    #[inline]
    pub fn gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// `self - other`, clamped at zero (capacity headroom can't go
    /// negative through rounding).
    pub fn saturating_sub(self, other: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - other.0).max(0.0))
    }

    /// The smaller of the two rates.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// The larger of the two rates.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }

    /// Dimensionless ratio `self / other`; `other` must be non-zero.
    pub fn ratio(self, other: Bandwidth) -> f64 {
        assert!(other.0 > 0.0, "division by zero bandwidth");
        self.0 / other.0
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    /// # Panics
    /// Panics (in debug builds) if the result would be negative; use
    /// [`Bandwidth::saturating_sub`] when headroom may round below zero.
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        debug_assert!(
            self.0 >= rhs.0 - 1e-6,
            "bandwidth subtraction went negative: {} - {}",
            self.0,
            rhs.0
        );
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for Bandwidth {
    fn sub_assign(&mut self, rhs: Bandwidth) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        Bandwidth(iter.fold(0.0, |acc, b| acc + b.0))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0;
        if bps >= 1e9 {
            write!(f, "{:.3}Gbps", bps / 1e9)
        } else if bps >= 1e6 {
            write!(f, "{:.3}Mbps", bps / 1e6)
        } else if bps >= 1e3 {
            write!(f, "{:.3}kbps", bps / 1e3)
        } else {
            write!(f, "{bps:.3}bps")
        }
    }
}

/// A non-negative time interval, stored in seconds.
///
/// Used for propagation delays, RTTs, and the delay axis of utility
/// functions.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Delay(f64);

impl Delay {
    /// Zero delay.
    pub const ZERO: Delay = Delay(0.0);

    /// From seconds.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "delay must be finite and non-negative, got {secs}"
        );
        Delay(secs)
    }

    /// From milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// From microseconds.
    pub fn from_us(us: f64) -> Self {
        Self::from_secs(us / 1e6)
    }

    /// In seconds.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    /// In milliseconds.
    #[inline]
    pub fn ms(self) -> f64 {
        self.0 * 1e3
    }

    /// In microseconds.
    #[inline]
    pub fn us(self) -> f64 {
        self.0 * 1e6
    }

    /// The smaller of the two delays.
    pub fn min(self, other: Delay) -> Delay {
        Delay(self.0.min(other.0))
    }

    /// The larger of the two delays.
    pub fn max(self, other: Delay) -> Delay {
        Delay(self.0.max(other.0))
    }
}

impl Add for Delay {
    type Output = Delay;
    fn add(self, rhs: Delay) -> Delay {
        Delay(self.0 + rhs.0)
    }
}

impl AddAssign for Delay {
    fn add_assign(&mut self, rhs: Delay) {
        self.0 += rhs.0;
    }
}

impl Sub for Delay {
    type Output = Delay;
    fn sub(self, rhs: Delay) -> Delay {
        debug_assert!(self.0 >= rhs.0 - 1e-12);
        Delay((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Delay {
    type Output = Delay;
    fn mul(self, rhs: f64) -> Delay {
        Delay(self.0 * rhs)
    }
}

impl Div<f64> for Delay {
    type Output = Delay;
    fn div(self, rhs: f64) -> Delay {
        Delay(self.0 / rhs)
    }
}

impl Sum for Delay {
    fn sum<I: Iterator<Item = Delay>>(iter: I) -> Delay {
        Delay(iter.fold(0.0, |acc, d| acc + d.0))
    }
}

impl fmt::Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.3}us", s * 1e6)
        }
    }
}

/// Parses strings like `100Mbps`, `50kbps`, `1.5Gbps`, `250bps`.
impl std::str::FromStr for Bandwidth {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (num, mult) = if let Some(p) = s.strip_suffix("Gbps") {
            (p, 1e9)
        } else if let Some(p) = s.strip_suffix("Mbps") {
            (p, 1e6)
        } else if let Some(p) = s.strip_suffix("kbps") {
            (p, 1e3)
        } else if let Some(p) = s.strip_suffix("bps") {
            (p, 1.0)
        } else {
            return Err(format!("unknown bandwidth unit in {s:?}"));
        };
        let v: f64 = num
            .trim()
            .parse()
            .map_err(|e| format!("bad bandwidth number in {s:?}: {e}"))?;
        // Check the *scaled* value: a finite mantissa times 1e9 can
        // still overflow to infinity, which `from_bps` rejects by panic.
        let bps = v * mult;
        if bps < 0.0 || !bps.is_finite() {
            return Err(format!("bandwidth must be non-negative and finite: {s:?}"));
        }
        Ok(Bandwidth::from_bps(bps))
    }
}

/// Parses strings like `10ms`, `1.5s`, `250us`.
impl std::str::FromStr for Delay {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (num, mult) = if let Some(p) = s.strip_suffix("ms") {
            (p, 1e-3)
        } else if let Some(p) = s.strip_suffix("us") {
            (p, 1e-6)
        } else if let Some(p) = s.strip_suffix('s') {
            (p, 1.0)
        } else {
            return Err(format!("unknown delay unit in {s:?}"));
        };
        let v: f64 = num
            .trim()
            .parse()
            .map_err(|e| format!("bad delay number in {s:?}: {e}"))?;
        if v < 0.0 || !v.is_finite() {
            return Err(format!("delay must be non-negative: {s:?}"));
        }
        Ok(Delay::from_secs(v * mult))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions_round_trip() {
        let b = Bandwidth::from_mbps(100.0);
        assert_eq!(b.bps(), 100e6);
        assert_eq!(b.kbps(), 100e3);
        assert_eq!(b.mbps(), 100.0);
        assert_eq!(b.gbps(), 0.1);
    }

    #[test]
    fn delay_conversions_round_trip() {
        let d = Delay::from_ms(250.0);
        assert_eq!(d.secs(), 0.25);
        assert_eq!(d.ms(), 250.0);
        assert_eq!(d.us(), 250_000.0);
    }

    #[test]
    fn arithmetic() {
        let a = Bandwidth::from_kbps(30.0);
        let b = Bandwidth::from_kbps(20.0);
        assert_eq!(a + b, Bandwidth::from_kbps(50.0));
        assert_eq!(a - b, Bandwidth::from_kbps(10.0));
        assert_eq!(a * 2.0, Bandwidth::from_kbps(60.0));
        assert_eq!(a / 3.0, Bandwidth::from_kbps(10.0));
        assert_eq!(b.saturating_sub(a), Bandwidth::ZERO);
        assert_eq!(a.ratio(b), 1.5);
        let d = Delay::from_ms(10.0) + Delay::from_ms(5.0);
        assert_eq!(d, Delay::from_ms(15.0));
    }

    #[test]
    fn sums() {
        let total: Bandwidth = [1.0, 2.0, 3.0]
            .iter()
            .map(|&m| Bandwidth::from_mbps(m))
            .sum();
        assert_eq!(total, Bandwidth::from_mbps(6.0));
        let total: Delay = [1.0, 2.0].iter().map(|&m| Delay::from_ms(m)).sum();
        assert_eq!(total, Delay::from_ms(3.0));
    }

    #[test]
    fn empty_sums_are_positive_zero() {
        // `f64`'s own `Sum` starts from -0.0, which prints as `-0.000`.
        let (bw, d): (Bandwidth, Delay) = (std::iter::empty().sum(), std::iter::empty().sum());
        assert_eq!((bw.bps().to_bits(), bw.to_string()), (0, "0.000bps".into()));
        assert_eq!((d.secs().to_bits(), d.to_string()), (0, "0.000us".into()));
    }

    #[test]
    fn ordering() {
        assert!(Bandwidth::from_kbps(50.0) < Bandwidth::from_mbps(1.0));
        assert!(Delay::from_us(900.0) < Delay::from_ms(1.0));
        assert_eq!(
            Bandwidth::from_mbps(2.0).min(Bandwidth::from_mbps(1.0)),
            Bandwidth::from_mbps(1.0)
        );
        assert_eq!(
            Delay::from_ms(2.0).max(Delay::from_ms(5.0)),
            Delay::from_ms(5.0)
        );
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", Bandwidth::from_mbps(100.0)), "100.000Mbps");
        assert_eq!(format!("{}", Bandwidth::from_kbps(50.0)), "50.000kbps");
        assert_eq!(format!("{}", Bandwidth::from_gbps(1.5)), "1.500Gbps");
        assert_eq!(format!("{}", Delay::from_ms(12.5)), "12.500ms");
        assert_eq!(format!("{}", Delay::from_secs(2.0)), "2.000s");
        assert_eq!(format!("{}", Delay::from_us(42.0)), "42.000us");
    }

    #[test]
    fn parsing() {
        assert_eq!(
            "100Mbps".parse::<Bandwidth>().unwrap(),
            Bandwidth::from_mbps(100.0)
        );
        assert_eq!(
            "1.5Gbps".parse::<Bandwidth>().unwrap(),
            Bandwidth::from_gbps(1.5)
        );
        assert_eq!(
            "50 kbps".parse::<Bandwidth>().unwrap(),
            Bandwidth::from_kbps(50.0)
        );
        assert_eq!("10ms".parse::<Delay>().unwrap(), Delay::from_ms(10.0));
        assert_eq!("2s".parse::<Delay>().unwrap(), Delay::from_secs(2.0));
        assert_eq!("7us".parse::<Delay>().unwrap(), Delay::from_us(7.0));
        assert!("10".parse::<Delay>().is_err());
        assert!("-5ms".parse::<Delay>().is_err());
        assert!("fastbps".parse::<Bandwidth>().is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bandwidth_rejected() {
        Bandwidth::from_bps(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_delay_rejected() {
        Delay::from_secs(f64::NAN);
    }
}
