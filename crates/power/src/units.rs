//! Power units.
//!
//! A thin newtype keeps watts from being mixed up with other floats in the
//! power model and makes intent explicit at API boundaries. Energy is
//! accounted in exact integer units by [`crate::energy`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

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
        let sum: Watts = [Watts(1.0), Watts(2.5)].into_iter().sum();
        assert_eq!(sum, Watts(3.5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Watts(0.056).to_string(), "56.0mW");
        assert_eq!(Watts(27.5).to_string(), "27.50W");
    }
}
