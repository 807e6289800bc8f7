//! PC1A transition-latency model (paper Sec. 5.5).
//!
//! The paper budgets the PC1A flow as follows, assuming a 500 MHz power
//! management controller (2 ns per cycle):
//!
//! * **Entry** (measured from ACC1, i.e. once all links are already in
//!   L0s/L0p): clock-gating the CLM (1–2 cycles), asserting
//!   `Allow_CKE_OFF` (1–2 cycles) and the ≤ 10 ns CKE-off entry; the CLM
//!   voltage ramp is non-blocking. Total ≈ 18 ns.
//! * **Exit**: the CLM voltage ramp from retention back to nominal dominates
//!   (300 mV at ≥ 2 mV/ns ⇒ ≤ 150 ns); clock-ungate, `Allow_CKE_OFF`
//!   de-assertion and the 24 ns CKE-off exit proceed concurrently.
//!   Total ≤ 150 ns.
//! * Worst-case entry + exit ≤ 168 ns, conservatively quoted as < 200 ns —
//!   more than 250× faster than PC6.

use std::fmt;

use apc_sim::SimDuration;
use apc_soc::clock::PMU_CLOCK;
use apc_soc::memory::MemoryController;
use apc_soc::vr::Fivr;

/// The component latencies composing a PC1A transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pc1aLatencyModel {
    /// Clock-gating the CLM clock tree (2 controller cycles).
    clm_clock_gate: SimDuration,
    /// Asserting `Allow_CKE_OFF` (2 controller cycles).
    cke_off_assert: SimDuration,
    /// DRAM CKE-off entry once allowed (≤ 10 ns).
    cke_off_entry: SimDuration,
    /// CLM FIVR ramp to retention (non-blocking on entry).
    clm_voltage_ramp: SimDuration,
    /// IO link exit from L0s (worst of L0s 64 ns / L0p 10 ns), concurrent
    /// with the CLM ramp on exit.
    io_standby_exit: SimDuration,
    /// DRAM CKE-off exit (≤ 24 ns), concurrent with the CLM ramp on exit.
    cke_off_exit: SimDuration,
}

impl Pc1aLatencyModel {
    /// Builds the latency model from the component models' constants, so the
    /// budget stays consistent with the substrate crates.
    #[must_use]
    pub fn from_components() -> Self {
        Pc1aLatencyModel {
            clm_clock_gate: PMU_CLOCK.cycles(2),
            cke_off_assert: PMU_CLOCK.cycles(2),
            cke_off_entry: MemoryController::CKE_OFF_ENTRY,
            clm_voltage_ramp: SimDuration::from_nanos(
                (f64::from(Fivr::CLM_NOMINAL.0 - Fivr::CLM_RETENTION.0) / Fivr::SLEW_MV_PER_NS)
                    .ceil() as u64,
            ),
            io_standby_exit: SimDuration::from_nanos(64),
            cke_off_exit: MemoryController::CKE_OFF_EXIT,
        }
    }

    /// PC1A entry latency measured from ACC1 (paper: ≈ 18 ns). The blocking
    /// steps are the CLM clock gate, the `Allow_CKE_OFF` assertion and the
    /// CKE-off entry; the voltage ramp is non-blocking.
    #[must_use]
    pub fn entry(&self) -> SimDuration {
        self.clm_clock_gate + self.cke_off_assert + self.cke_off_entry
    }

    /// PC1A exit latency (paper: ≤ 150 ns). The CLM voltage ramp dominates;
    /// the IO link exit, CKE-off exit and clock ungate overlap with it, so
    /// the exit is the maximum of the three concurrent branches plus the
    /// final ungate only if it extends past the ramp (it does not, but the
    /// `max` keeps the model honest if constants change).
    #[must_use]
    pub fn exit(&self) -> SimDuration {
        let clm_branch = self.clm_voltage_ramp;
        let dram_branch = self.cke_off_exit;
        let io_branch = self.io_standby_exit;
        clm_branch.max(dram_branch).max(io_branch)
    }

    /// Worst-case entry followed immediately by exit (paper: ≤ 168 ns,
    /// quoted conservatively as < 200 ns).
    #[must_use]
    pub fn round_trip(&self) -> SimDuration {
        self.entry() + self.exit()
    }

    /// The speedup factor vs. the PC6 round trip.
    #[must_use]
    pub fn speedup_vs(&self, pc6_round_trip: SimDuration) -> f64 {
        let own = self.round_trip().as_nanos().max(1) as f64;
        pc6_round_trip.as_nanos() as f64 / own
    }
}

impl Default for Pc1aLatencyModel {
    fn default() -> Self {
        Pc1aLatencyModel::from_components()
    }
}

impl fmt::Display for Pc1aLatencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PC1A latency budget (500 MHz controller):")?;
        writeln!(f, "  entry: CLM clock gate     {}", self.clm_clock_gate)?;
        writeln!(f, "         Allow_CKE_OFF      {}", self.cke_off_assert)?;
        writeln!(f, "         CKE-off entry      {}", self.cke_off_entry)?;
        writeln!(f, "         (CLM ramp, async)  {}", self.clm_voltage_ramp)?;
        writeln!(f, "         total              {}", self.entry())?;
        writeln!(f, "  exit:  CLM ramp to nominal {}", self.clm_voltage_ramp)?;
        writeln!(f, "         IO standby exit    {}", self.io_standby_exit)?;
        writeln!(f, "         CKE-off exit       {}", self.cke_off_exit)?;
        writeln!(f, "         total              {}", self.exit())?;
        write!(f, "  round trip               {}", self.round_trip())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_pmu::gpmu::Pc6LatencyModel;

    #[test]
    fn entry_is_about_18ns() {
        let m = Pc1aLatencyModel::from_components();
        assert_eq!(m.entry(), SimDuration::from_nanos(18));
    }

    #[test]
    fn exit_is_at_most_150ns() {
        let m = Pc1aLatencyModel::from_components();
        assert_eq!(m.exit(), SimDuration::from_nanos(150));
    }

    #[test]
    fn round_trip_is_under_200ns() {
        let m = Pc1aLatencyModel::from_components();
        assert!(m.round_trip() <= SimDuration::from_nanos(168));
    }

    #[test]
    fn speedup_vs_pc6_exceeds_250x() {
        let m = Pc1aLatencyModel::from_components();
        let pc6 = Pc6LatencyModel::skx();
        assert!(m.speedup_vs(pc6.round_trip()) >= 250.0);
    }

    #[test]
    fn voltage_ramp_matches_fivr_slew() {
        let m = Pc1aLatencyModel::from_components();
        assert_eq!(m.clm_voltage_ramp, SimDuration::from_nanos(150));
    }

    #[test]
    fn display_contains_budget_lines() {
        let s = Pc1aLatencyModel::default().to_string();
        assert!(s.contains("entry"));
        assert!(s.contains("round trip"));
    }
}
