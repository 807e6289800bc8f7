//! Core and package C-state definitions.
//!
//! Nomenclature follows the paper (Sec. 3.1): core C-states are written
//! `CCx` and package C-states `PCx`; larger `x` means deeper (lower power,
//! longer transition latency).

use std::fmt;

use apc_sim::SimDuration;

/// Core C-states supported by the modelled Skylake-SP core (Sec. 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CoreCState {
    /// Active: the core is executing instructions.
    CC0,
    /// Shallow halt: clocks gated, caches retained, ~1 µs exit.
    CC1,
    /// Like CC1 but the core also drops to its minimum voltage/frequency
    /// operating point; slightly higher exit latency.
    CC1E,
    /// Deep sleep: core caches flushed, core power-gated; ~133 µs transition
    /// (the paper's motivation for why datacenters disable it).
    CC6,
}

impl CoreCState {
    /// All core C-states, shallow to deep.
    pub const ALL: [CoreCState; 4] = [
        CoreCState::CC0,
        CoreCState::CC1,
        CoreCState::CC1E,
        CoreCState::CC6,
    ];

    /// `true` when the core is executing (CC0).
    #[must_use]
    pub fn is_active(self) -> bool {
        self == CoreCState::CC0
    }

    /// `true` for any non-active (idle) state.
    #[must_use]
    pub fn is_idle(self) -> bool {
        !self.is_active()
    }

    /// `true` when this state is at least as deep as `other`.
    ///
    /// The derived `Ord` orders states shallow → deep, so depth comparisons
    /// are plain comparisons.
    #[must_use]
    pub fn at_least_as_deep_as(self, other: CoreCState) -> bool {
        self >= other
    }

    /// Typical worst-case exit latency for this core C-state on the modelled
    /// server (CC6 value from the paper's Sec. 3.1: ≈133 µs transition).
    #[must_use]
    pub fn exit_latency(self) -> SimDuration {
        match self {
            CoreCState::CC0 => SimDuration::ZERO,
            CoreCState::CC1 => SimDuration::from_nanos(1_000),
            CoreCState::CC1E => SimDuration::from_nanos(4_000),
            CoreCState::CC6 => SimDuration::from_micros(133),
        }
    }

    /// Typical entry latency (time from the decision to enter until the state
    /// is established and its power level applies).
    #[must_use]
    pub fn entry_latency(self) -> SimDuration {
        match self {
            CoreCState::CC0 => SimDuration::ZERO,
            CoreCState::CC1 => SimDuration::from_nanos(500),
            CoreCState::CC1E => SimDuration::from_nanos(2_000),
            CoreCState::CC6 => SimDuration::from_micros(50),
        }
    }

    /// The OS "target residency": the minimum idle-period length for which
    /// entering this state is worthwhile. Mirrors the Linux `intel_idle`
    /// table shape for Skylake servers.
    #[must_use]
    pub fn target_residency(self) -> SimDuration {
        match self {
            CoreCState::CC0 => SimDuration::ZERO,
            CoreCState::CC1 => SimDuration::from_micros(2),
            CoreCState::CC1E => SimDuration::from_micros(20),
            CoreCState::CC6 => SimDuration::from_micros(600),
        }
    }
}

impl fmt::Display for CoreCState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CoreCState::CC0 => "CC0",
            CoreCState::CC1 => "CC1",
            CoreCState::CC1E => "CC1E",
            CoreCState::CC6 => "CC6",
        };
        f.write_str(s)
    }
}

/// Package C-states, including the paper's new PC1A (Table 2).
///
/// The derived ordering follows declaration order and is provided only so
/// the type can key ordered collections; it is *not* a statement about
/// power-saving depth (the package flows and the power model say that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PackageCState {
    /// Active package state: at least one core in CC0, all shared resources
    /// available.
    PC0,
    /// Not an architectural state: all cores idle in CC1 but no package-level
    /// power action has been taken. The paper calls this operating point
    /// `PC0idle` in Table 1 and `ACC1` when it is the staging state of the
    /// PC1A flow.
    PC0Idle,
    /// Transient state between PC0 and deeper package C-states.
    PC2,
    /// Existing deep package C-state: IOs in L1, DRAM in self-refresh, CLM at
    /// retention, PLLs off. >50 µs transition.
    PC6,
    /// The paper's new agile deep package C-state: cores in CC1, IOs in
    /// L0s/L0p, DRAM CKE-off, CLM at retention, PLLs on. <200 ns transition.
    PC1A,
}

impl PackageCState {
    /// All modelled package C-states.
    pub const ALL: [PackageCState; 5] = [
        PackageCState::PC0,
        PackageCState::PC0Idle,
        PackageCState::PC2,
        PackageCState::PC6,
        PackageCState::PC1A,
    ];
}

impl fmt::Display for PackageCState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PackageCState::PC0 => "PC0",
            PackageCState::PC0Idle => "PC0idle",
            PackageCState::PC2 => "PC2",
            PackageCState::PC6 => "PC6",
            PackageCState::PC1A => "PC1A",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_cstate_ordering_reflects_depth() {
        assert!(CoreCState::CC6 > CoreCState::CC1);
        assert!(CoreCState::CC1E > CoreCState::CC1);
        assert!(CoreCState::CC1 > CoreCState::CC0);
        assert!(CoreCState::CC6.at_least_as_deep_as(CoreCState::CC1));
        assert!(!CoreCState::CC1.at_least_as_deep_as(CoreCState::CC6));
    }

    #[test]
    fn deeper_core_states_have_longer_latencies() {
        let lats: Vec<_> = CoreCState::ALL.iter().map(|c| c.exit_latency()).collect();
        assert!(lats.windows(2).all(|w| w[0] <= w[1]));
        let entries: Vec<_> = CoreCState::ALL.iter().map(|c| c.entry_latency()).collect();
        assert!(entries.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cc6_latency_matches_paper_scale() {
        assert_eq!(
            CoreCState::CC6.exit_latency(),
            SimDuration::from_micros(133)
        );
        assert!(CoreCState::CC1.exit_latency() <= SimDuration::from_micros(2));
    }

    #[test]
    fn active_and_idle_classification() {
        assert!(CoreCState::CC0.is_active());
        assert!(!CoreCState::CC0.is_idle());
        assert!(CoreCState::CC1.is_idle());
        assert!(CoreCState::CC6.is_idle());
    }

    #[test]
    fn display_names() {
        assert_eq!(CoreCState::CC1E.to_string(), "CC1E");
        assert_eq!(PackageCState::PC1A.to_string(), "PC1A");
        assert_eq!(PackageCState::PC0Idle.to_string(), "PC0idle");
    }
}
