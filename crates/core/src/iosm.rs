//! IO Standby Mode (IOSM) controller.
//!
//! IOSM (paper Sec. 4.2) is the part of APC that harvests power from the IO
//! domain without paying microsecond wakeups: when the APMU signals that all
//! cores are idle it asserts `AllowL0s` towards every high-speed IO
//! controller (which then autonomously enter L0s/L0p once idle for 16 ns) and
//! `Allow_CKE_OFF` towards every memory controller (which then put DRAM into
//! precharge power-down).
//!
//! This module wraps those two signal groups and the aggregated `&InL0s`
//! status the APMU FSM consumes.

use apc_sim::{SimDuration, SimTime};
use apc_soc::topology::SkxSoc;

/// The IOSM signal driver.
///
/// The struct is stateless: the authoritative signal state lives in the IO
/// and memory controller models, exactly as the real signals live in the
/// controllers' configuration registers.
#[derive(Debug)]
pub struct IoStandbyMode;

impl IoStandbyMode {
    /// Asserts `AllowL0s` on every high-speed IO controller (ACC1 entry,
    /// Fig. 4 step "Set AllowL0s"). Also programs the fast L0s entry latency
    /// (`L0S_ENTRY_LAT = 1`, i.e. 16 ns of link idleness).
    pub fn assert_allow_l0s(&self, soc: &mut SkxSoc) {
        soc.ios_mut().set_allow_shallow_all(true);
    }

    /// De-asserts `AllowL0s` everywhere (return to PC0). Returns the worst
    /// link exit latency triggered by the de-assertion.
    pub fn deassert_allow_l0s(&self, soc: &mut SkxSoc) -> SimDuration {
        soc.ios_mut().set_allow_shallow_all(false)
    }

    /// Asserts `Allow_CKE_OFF` on every memory controller (Fig. 4 step 3).
    pub fn assert_allow_cke_off(&self, soc: &mut SkxSoc) {
        soc.memory_mut().set_allow_cke_off_all(true);
    }

    /// De-asserts `Allow_CKE_OFF` everywhere (Fig. 4 step 6). Returns the
    /// CKE-off exit latency the memory controllers pay.
    pub fn deassert_allow_cke_off(&self, soc: &mut SkxSoc) -> SimDuration {
        soc.memory_mut().set_allow_cke_off_all(false)
    }

    /// The earliest time by which every currently-idle link can have entered
    /// its shallow state, or `None` when some link is busy (the flow then
    /// stays in ACC1 until traffic drains — or a wakeup sends it back to
    /// PC0).
    #[must_use]
    pub fn standby_deadline(&self, soc: &SkxSoc) -> Option<SimTime> {
        let mut worst: Option<SimTime> = None;
        for io in soc.ios().iter() {
            if io.in_l0s() {
                continue;
            }
            match io.shallow_entry_deadline() {
                Some(d) => worst = Some(worst.map_or(d, |w: SimTime| w.max(d))),
                None => return None,
            }
        }
        worst.or(Some(SimTime::ZERO))
    }

    /// Attempts the autonomous L0s/L0p entry on every link whose idle timer
    /// has expired; returns the aggregated `&InL0s` signal.
    pub fn try_enter_standby(&self, soc: &mut SkxSoc, now: SimTime) -> bool {
        for io in soc.ios_mut().iter_mut() {
            if !io.in_l0s() {
                let _ = io.try_enter_shallow(now);
            }
        }
        soc.ios().all_in_l0s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_soc::io::LinkPowerState;
    use apc_soc::memory::DramPowerMode;

    fn idle_soc(now: SimTime) -> SkxSoc {
        let mut soc = SkxSoc::xeon_silver_4114();
        for io in soc.ios_mut().iter_mut() {
            io.end_traffic(now);
        }
        soc
    }

    #[test]
    fn allow_l0s_gates_standby_entry() {
        let mut soc = idle_soc(SimTime::ZERO);
        let iosm = IoStandbyMode;
        // Without AllowL0s nothing happens.
        assert!(!iosm.try_enter_standby(&mut soc, SimTime::from_micros(1)));
        assert_eq!(iosm.standby_deadline(&soc), None);

        iosm.assert_allow_l0s(&mut soc);
        // The links have been idle since t=0, so the 16 ns idleness
        // requirement is measured from then.
        let deadline = iosm.standby_deadline(&soc).unwrap();
        assert_eq!(deadline, SimTime::from_nanos(16));
        assert!(!iosm.try_enter_standby(&mut soc, SimTime::from_nanos(10)));
        assert!(iosm.try_enter_standby(&mut soc, deadline));
        assert!(soc.ios().all_in_l0s());
    }

    #[test]
    fn busy_link_blocks_the_deadline() {
        let mut soc = idle_soc(SimTime::ZERO);
        let iosm = IoStandbyMode;
        iosm.assert_allow_l0s(&mut soc);
        soc.ios_mut()
            .controller_mut(apc_soc::io::IoId(0))
            .begin_traffic();
        assert_eq!(iosm.standby_deadline(&soc), None);
        assert!(!iosm.try_enter_standby(&mut soc, SimTime::from_micros(1)));
    }

    #[test]
    fn cke_off_assert_and_release() {
        let mut soc = idle_soc(SimTime::ZERO);
        let iosm = IoStandbyMode;
        iosm.assert_allow_cke_off(&mut soc);
        assert!(soc
            .memory()
            .iter()
            .all(|m| m.mode() == DramPowerMode::PrechargePowerDown));
        let exit = iosm.deassert_allow_cke_off(&mut soc);
        assert_eq!(exit, SimDuration::from_nanos(24));
        assert!(soc
            .memory()
            .iter()
            .all(|m| m.mode() == DramPowerMode::Active));
    }

    #[test]
    fn deasserting_allow_l0s_wakes_every_link() {
        let mut soc = idle_soc(SimTime::ZERO);
        let iosm = IoStandbyMode;
        iosm.assert_allow_l0s(&mut soc);
        assert!(iosm.try_enter_standby(&mut soc, SimTime::from_nanos(16)));
        let lat = iosm.deassert_allow_l0s(&mut soc);
        assert_eq!(lat, SimDuration::from_nanos(64));
        assert!(soc.ios().iter().all(|c| c.state() == LinkPowerState::L0));
    }
}
