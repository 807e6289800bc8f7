//! CLM Retention (CLMR) controller.
//!
//! CLMR (paper Sec. 4.3 / 5.2) drops the CLM (CHA + LLC + mesh) domain to a
//! retention voltage while all cores are idle, using three mechanisms:
//!
//! 1. a `ClkGate` signal that gates the CLM clock tree while **keeping the
//!    CLM PLL locked** (1–2 controller cycles);
//! 2. a `Ret` signal to the two CLM FIVRs that makes them slew to the
//!    pre-programmed retention VID (≈ 0.5 V) at ≥ 2 mV/ns — a *non-blocking*
//!    ramp of ≤ 150 ns;
//! 3. a `PwrOk` status from the FIVRs that gates clock-ungating on exit.

use apc_sim::{SimDuration, SimTime};
use apc_soc::topology::SkxSoc;

/// The CLMR signal driver. The struct is stateless: the CLM state lives in
/// the socket's CLM domain model.
#[derive(Debug)]
pub struct ClmRetention;

impl ClmRetention {
    /// PC1A entry steps 1–2 (Fig. 4): gate the CLM clock tree and assert
    /// `Ret` on both FIVRs. Returns `(gate_latency, ramp_latency)`; the ramp
    /// is non-blocking so only the gate latency sits on the entry critical
    /// path.
    pub fn enter_retention(&self, soc: &mut SkxSoc, now: SimTime) -> (SimDuration, SimDuration) {
        let gate = soc.clm_mut().clock_gate();
        let ramp = soc.clm_mut().assert_retention(now);
        (gate, ramp)
    }

    /// PC1A exit steps 4–5 (Fig. 4): de-assert `Ret` (ramp back to nominal)
    /// and, once `PwrOk`, ungate the clock tree. Returns
    /// `(ramp_latency, ungate_latency)`; the exit critical path is their sum,
    /// dominated by the 150 ns ramp.
    pub fn exit_retention(&self, soc: &mut SkxSoc, now: SimTime) -> (SimDuration, SimDuration) {
        let ramp = soc.clm_mut().deassert_retention(now);
        // The clock may only be ungated once PwrOk asserts; the caller waits
        // `ramp`, calls `exit_complete`, and the ungate latency is the tail.
        let ungate = apc_soc::clock::PMU_CLOCK.cycles(2);
        (ramp, ungate)
    }

    /// Completes the exit: marks the FIVR transition done (PwrOk) and ungates
    /// the clock tree.
    pub fn exit_complete(&self, soc: &mut SkxSoc, now: SimTime) {
        soc.clm_mut().complete_voltage_transition(now);
        soc.clm_mut().clock_ungate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_soc::clm::ClmState;
    use apc_soc::pll::PllState;

    #[test]
    fn retention_entry_is_fast_and_nonblocking() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let (gate, ramp) = ClmRetention.enter_retention(&mut soc, SimTime::ZERO);
        assert_eq!(gate, SimDuration::from_nanos(4), "2 cycles at 500 MHz");
        assert_eq!(ramp, SimDuration::from_nanos(150), "300 mV at 2 mV/ns");
        assert_eq!(soc.clm().state(), ClmState::Retention);
        assert!(!soc.clm().pwr_ok(), "ramp still in flight");
        soc.clm_mut()
            .complete_voltage_transition(SimTime::from_nanos(150));
        assert!(soc.clm().pwr_ok());
    }

    #[test]
    fn plls_stay_locked_throughout() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let clmr = ClmRetention;
        clmr.enter_retention(&mut soc, SimTime::ZERO);
        assert!(
            soc.plls().iter().all(|p| p.state() == PllState::Locked),
            "APC never unlocks a PLL"
        );
        let (ramp, ungate) = clmr.exit_retention(&mut soc, SimTime::from_micros(1));
        assert_eq!(ramp, SimDuration::from_nanos(150));
        assert_eq!(ungate, SimDuration::from_nanos(4));
        clmr.exit_complete(&mut soc, SimTime::from_micros(1) + ramp + ungate);
        assert_eq!(soc.clm().state(), ClmState::Operational);
        assert!(soc.plls().iter().all(|p| p.state() == PllState::Locked));
    }

    #[test]
    fn exit_critical_path_is_dominated_by_the_ramp() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let clmr = ClmRetention;
        clmr.enter_retention(&mut soc, SimTime::ZERO);
        soc.clm_mut()
            .complete_voltage_transition(SimTime::from_nanos(150));
        let (ramp, ungate) = clmr.exit_retention(&mut soc, SimTime::from_micros(1));
        assert!(ramp + ungate <= SimDuration::from_nanos(160));
    }

    #[test]
    fn interrupted_entry_exits_cheaply() {
        // Preemptive voltage command: a wakeup 40 ns into the downward ramp
        // only has to recover the voltage already lost.
        let mut soc = SkxSoc::xeon_silver_4114();
        let clmr = ClmRetention;
        clmr.enter_retention(&mut soc, SimTime::ZERO);
        let (ramp_back, _) = clmr.exit_retention(&mut soc, SimTime::from_nanos(40));
        assert!(ramp_back <= SimDuration::from_nanos(81), "got {ramp_back}");
    }
}
