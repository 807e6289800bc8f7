//! Power units.
//!
//! A thin newtype keeps watts from being mixed up with other floats in the
//! power model and makes intent explicit at API boundaries. Energy is
//! accounted in exact integer units by [`crate::energy`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Electrical power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

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

    /// `true` when the value is finite and non-negative.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
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

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() < 1.0 {
            write!(f, "{:.1}mW", self.0 * 1e3)
        } else {
            write!(f, "{:.2}W", self.0)
        }
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
    fn display_formats() {
        assert_eq!(Watts(0.056).to_string(), "56.0mW");
        assert_eq!(Watts(27.5).to_string(), "27.50W");
        assert!((Watts(0.5).as_milliwatts() - 500.0).abs() < 1e-12);
    }
}
