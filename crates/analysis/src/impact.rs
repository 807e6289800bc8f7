//! The paper's performance-impact model (Sec. 6 / Sec. 7.3).
//!
//! The paper estimates PC1A's latency impact analytically: every PC1A
//! transition adds at most the worst-case transition latency (< 200 ns) to
//! the requests that triggered it, which — spread over all requests and
//! compared against the ≈ 117 µs end-to-end latency — amounts to less than
//! 0.1 % average-latency degradation.

use apc_server::result::RunResult;
use apc_sim::SimDuration;

/// Inputs of the analytical impact model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpactInputs {
    /// Number of PC1A transitions during the measurement window.
    pub pc1a_transitions: u64,
    /// Number of client requests served during the window.
    pub requests: u64,
    /// Average number of requests delayed by each transition (the paper uses
    /// the distribution of active cores after a full-idle period; ≥ 1).
    pub requests_per_wakeup: f64,
    /// Worst-case PC1A transition latency.
    pub transition_cost: SimDuration,
    /// Baseline average end-to-end latency.
    pub baseline_latency: SimDuration,
}

impl ImpactInputs {
    /// Builds the model inputs from a simulated `CPC1A` run and its baseline.
    #[must_use]
    pub fn from_runs(apc: &RunResult, baseline: &RunResult) -> Self {
        ImpactInputs {
            pc1a_transitions: apc.pc1a_transitions,
            requests: apc.completed_requests.max(1),
            requests_per_wakeup: 1.0,
            transition_cost: SimDuration::from_nanos(200),
            baseline_latency: baseline.latency.mean,
        }
    }

    /// The absolute added latency, averaged over all requests.
    #[must_use]
    pub fn added_latency_per_request(&self) -> SimDuration {
        if self.requests == 0 {
            return SimDuration::ZERO;
        }
        let total_ns = self.pc1a_transitions as f64
            * self.requests_per_wakeup
            * self.transition_cost.as_nanos() as f64;
        SimDuration::from_nanos((total_ns / self.requests as f64).round() as u64)
    }

    /// The relative average-latency degradation (the paper's < 0.1 % claim).
    #[must_use]
    pub fn relative_impact(&self) -> f64 {
        let base = self.baseline_latency.as_nanos();
        if base == 0 {
            return 0.0;
        }
        self.added_latency_per_request().as_nanos() as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impact_is_below_0_1_percent_at_typical_operating_points() {
        // 10 000 PC1A transitions while serving 50 000 requests with a
        // 117 µs baseline: impact = 10e3 * 200ns / 50e3 / 117us ≈ 0.034 %.
        let inputs = ImpactInputs {
            pc1a_transitions: 10_000,
            requests: 50_000,
            requests_per_wakeup: 1.0,
            transition_cost: SimDuration::from_nanos(200),
            baseline_latency: SimDuration::from_micros(117),
        };
        let impact = inputs.relative_impact();
        assert!(impact < 0.001, "impact {impact}");
        assert!(inputs.added_latency_per_request() <= SimDuration::from_nanos(40));
    }

    #[test]
    fn impact_scales_with_transitions_and_cost() {
        let base = ImpactInputs {
            pc1a_transitions: 1_000,
            requests: 10_000,
            requests_per_wakeup: 1.0,
            transition_cost: SimDuration::from_nanos(200),
            baseline_latency: SimDuration::from_micros(100),
        };
        let doubled = ImpactInputs {
            pc1a_transitions: 2_000,
            ..base
        };
        assert!(doubled.relative_impact() > base.relative_impact());
        let pc6_cost = ImpactInputs {
            transition_cost: SimDuration::from_micros(50),
            ..base
        };
        // With PC6-scale transition costs the impact becomes substantial
        // (≈ 5 %), which is exactly why PC6 is unusable.
        assert!(pc6_cost.relative_impact() >= 0.049);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let inputs = ImpactInputs {
            pc1a_transitions: 0,
            requests: 0,
            requests_per_wakeup: 1.0,
            transition_cost: SimDuration::from_nanos(200),
            baseline_latency: SimDuration::ZERO,
        };
        assert_eq!(inputs.relative_impact(), 0.0);
        assert_eq!(inputs.added_latency_per_request(), SimDuration::ZERO);
    }
}
