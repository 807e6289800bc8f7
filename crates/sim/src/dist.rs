//! Probability distributions for workload modelling.
//!
//! The workload models (crate `apc-workloads`) draw their service times
//! from a [`LogNormal`] behind the [`Distribution`] trait. Samples come from
//! the deterministic [`SimRng`] so experiments are reproducible.

use crate::rng::SimRng;

/// A one-dimensional continuous distribution over non-negative values.
///
/// Implementors return samples in whatever unit the caller established
/// (the workload layer uses nanoseconds).
pub trait Distribution: std::fmt::Debug + Send + Sync {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The analytic (or configured) mean of the distribution, used by load
    /// calculators to translate a target utilization into a request rate.
    fn mean(&self) -> f64;
}

/// A log-normal distribution parameterised by the underlying normal's
/// `mu`/`sigma`.
///
/// Log-normal service times are the standard model for key-value store
/// request processing (most requests are fast, a long tail is slow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the parameters of the underlying normal.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            mu,
            sigma: sigma.abs(),
        }
    }

    /// Creates a log-normal with the given arithmetic mean and coefficient of
    /// variation (`cv = stddev / mean`).
    ///
    /// This is the most convenient constructor for workload calibration:
    /// "mean service time 20 µs with cv 0.7".
    ///
    /// ```
    /// use apc_sim::dist::{Distribution, LogNormal};
    /// use apc_sim::rng::SimRng;
    ///
    /// let service_ns = LogNormal::from_mean_cv(20_000.0, 0.7);
    /// assert!((service_ns.mean() - 20_000.0).abs() < 1e-6);
    /// assert!(service_ns.sample(&mut SimRng::from_seed(1)) > 0.0);
    /// ```
    #[must_use]
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        let mean = mean.max(f64::MIN_POSITIVE);
        let cv = cv.abs();
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

impl Distribution for Box<dyn Distribution> {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.as_ref().sample(rng)
    }
    fn mean(&self) -> f64 {
        self.as_ref().mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn lognormal_from_mean_cv_matches_mean() {
        let d = LogNormal::from_mean_cv(50.0, 0.8);
        assert!((d.mean() - 50.0).abs() < 1e-9);
        let m = empirical_mean(&d, 120_000, 4);
        assert!((m - 50.0).abs() / 50.0 < 0.05, "observed {m}");
    }

    #[test]
    fn lognormal_from_mean_cv_matches_cv() {
        let d = LogNormal::from_mean_cv(50.0, 0.8);
        let mut rng = SimRng::from_seed(9);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|x| x.is_finite() && *x > 0.0));
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n).sqrt();
        assert!((sd / mean - 0.8).abs() < 0.03, "observed cv {}", sd / mean);
    }

    #[test]
    fn lognormal_with_zero_cv_always_draws_its_mean() {
        let d = LogNormal::from_mean_cv(20_000.0, 0.0);
        let mut rng = SimRng::from_seed(3);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!((x - 20_000.0).abs() < 1e-9 * 20_000.0, "drew {x}");
        }
    }

    #[test]
    fn lognormal_new_takes_sigma_by_magnitude() {
        let d = LogNormal::new(1.0, -0.5);
        assert_eq!(d, LogNormal::new(1.0, 0.5));
        assert!((d.mean() - 1.125_f64.exp()).abs() < 1e-12);
    }

    #[test]
    fn boxed_distribution_is_usable() {
        let inner = LogNormal::from_mean_cv(20.0, 0.5);
        let d: Box<dyn Distribution> = Box::new(inner);
        assert_eq!(d.mean(), inner.mean());
        assert_eq!(empirical_mean(&d, 5, 10), empirical_mean(&inner, 5, 10));
    }
}
