//! Power and energy units.
//!
//! Thin newtypes keep watts and joules from being mixed up in the power
//! model and make intent explicit at API boundaries.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use apc_sim::SimDuration;

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// The raw value in watts.
    #[must_use]
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// The value in milliwatts.
    #[must_use]
    pub fn as_milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// Energy dissipated when this power is held for `d`.
    #[must_use]
    pub fn over(self, d: SimDuration) -> Joules {
        Joules(self.0 * d.as_secs_f64())
    }

    /// `true` when the value is finite and non-negative.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// The raw value in joules.
    #[must_use]
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// The average power if this energy was dissipated over `d`.
    /// Returns zero power for a zero-length window.
    #[must_use]
    pub fn average_power(self, d: SimDuration) -> Watts {
        let secs = d.as_secs_f64();
        if secs <= 0.0 {
            Watts::ZERO
        } else {
            Watts(self.0 / secs)
        }
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}
impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}
impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}
impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}
impl Div<f64> for Watts {
    type Output = Watts;
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}
impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, |a, b| a + b)
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}
impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}
impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}
impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() < 1.0 {
            write!(f, "{:.1}mW", self.0 * 1e3)
        } else {
            write!(f, "{:.2}W", self.0)
        }
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}J", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_arithmetic() {
        let a = Watts(2.0) + Watts(3.0);
        assert_eq!(a, Watts(5.0));
        assert_eq!(a - Watts(1.0), Watts(4.0));
        assert_eq!(a * 2.0, Watts(10.0));
        assert_eq!(a / 5.0, Watts(1.0));
        let sum: Watts = [Watts(1.0), Watts(2.5)].into_iter().sum();
        assert_eq!(sum, Watts(3.5));
        assert!(Watts(1.0).is_valid());
        assert!(!Watts(f64::NAN).is_valid());
        assert!(!Watts(-1.0).is_valid());
    }

    #[test]
    fn energy_integration_and_average() {
        let e = Watts(10.0).over(SimDuration::from_millis(100));
        assert!((e.as_f64() - 1.0).abs() < 1e-12);
        let p = e.average_power(SimDuration::from_millis(100));
        assert!((p.as_f64() - 10.0).abs() < 1e-9);
        assert_eq!(Joules(5.0).average_power(SimDuration::ZERO), Watts::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Watts(0.056).to_string(), "56.0mW");
        assert_eq!(Watts(27.5).to_string(), "27.50W");
        assert_eq!(Joules(1.2345).to_string(), "1.234J");
        assert!((Watts(0.5).as_milliwatts() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn joules_arithmetic() {
        let e = Joules(1.0) + Joules(2.0);
        assert_eq!(e, Joules(3.0));
        assert_eq!(e - Joules(0.5), Joules(2.5));
        let sum: Joules = [Joules(1.0), Joules(2.0)].into_iter().sum();
        assert_eq!(sum, Joules(3.0));
    }
}
