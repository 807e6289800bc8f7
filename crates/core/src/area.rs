//! APC area-overhead model (paper Sec. 5.1–5.3).
//!
//! The paper argues that the three APC components are cheap in silicon by
//! expressing each addition as a fraction of the SKX die:
//!
//! * **IOSM** (Sec. 5.1): five long-distance signals (`AllowL0s`, `InL0s`
//!   aggregates, `Allow_CKE_OFF`) routed through the IO interconnect
//!   (< 0.24 % of the die at 128-bit interconnect width), plus < 0.5 % of
//!   each IO controller's area for the new control/status logic (< 0.08 % of
//!   the die since the controllers occupy < 15 %).
//! * **CLMR** (Sec. 5.2): three long-distance signals (`ClkGate`, `Ret`,
//!   `PwrOk`) (< 0.14 % of the die) plus an 8-bit RVID register and mux in
//!   each of the two FIVR control modules (negligible, < 0.005 %).
//! * **APMU** (Sec. 5.3): an FSM worth < 5 % of the GPMU (< 0.1 % of the die
//!   since the GPMU is < 2 %) plus three long-distance `InCC1` aggregation
//!   signals (< 0.14 %).
//!
//! Total: **< 0.75 %** of the SKX die.

use std::fmt;

use apc_soc::area::DieFloorplan;

/// Area overhead of one APC component, as a fraction of the SKX die area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentArea {
    /// Area of the new long-distance signal routing.
    pub routing: f64,
    /// Area of the new logic added inside existing blocks.
    pub logic: f64,
}

impl ComponentArea {
    /// Total component overhead.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.routing + self.logic
    }
}

/// The complete APC area-overhead breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApcAreaReport {
    /// IO Standby Mode additions.
    pub iosm: ComponentArea,
    /// CLM Retention additions.
    pub clmr: ComponentArea,
    /// Agile PMU additions.
    pub apmu: ComponentArea,
}

impl ApcAreaReport {
    /// Total APC area overhead as a fraction of the die.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.iosm.total() + self.clmr.total() + self.apmu.total()
    }

    /// Total overhead as a percentage of the die.
    #[must_use]
    pub fn total_percent(&self) -> f64 {
        self.total() * 100.0
    }
}

impl fmt::Display for ApcAreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "APC area overhead (fraction of SKX die):")?;
        writeln!(
            f,
            "  IOSM: routing {:.4}% + logic {:.4}% = {:.4}%",
            self.iosm.routing * 100.0,
            self.iosm.logic * 100.0,
            self.iosm.total() * 100.0
        )?;
        writeln!(
            f,
            "  CLMR: routing {:.4}% + logic {:.4}% = {:.4}%",
            self.clmr.routing * 100.0,
            self.clmr.logic * 100.0,
            self.clmr.total() * 100.0
        )?;
        writeln!(
            f,
            "  APMU: routing {:.4}% + logic {:.4}% = {:.4}%",
            self.apmu.routing * 100.0,
            self.apmu.logic * 100.0,
            self.apmu.total() * 100.0
        )?;
        write!(f, "  total: {:.3}%", self.total_percent())
    }
}

/// Computes the APC area overhead for a given floorplan.
#[derive(Debug, Clone)]
pub struct ApcAreaModel {
    floorplan: DieFloorplan,
    /// Long-distance signals added by IOSM (AllowL0s, aggregated InL0s,
    /// Allow_CKE_OFF groups): 5 per the paper.
    iosm_signals: u32,
    /// Long-distance signals added by CLMR (ClkGate, Ret, PwrOk): 3.
    clmr_signals: u32,
    /// Long-distance signals added for InCC1 aggregation: 3.
    apmu_signals: u32,
    /// Fraction of each IO controller devoted to the new IOSM logic.
    io_controller_logic: f64,
    /// Fraction of a FIVR occupied by its control module (the FCM is the
    /// digital controller, a small part of the regulator).
    fcm_of_fivr: f64,
    /// Fraction of each FIVR control module devoted to the RVID register/mux.
    fcm_logic: f64,
    /// Number of FIVR control modules touched (the two CLM FIVRs).
    fcm_count: u32,
    /// APMU FSM size as a fraction of the GPMU.
    apmu_of_gpmu: f64,
}

impl ApcAreaModel {
    /// The paper's assumptions on the SKX floorplan.
    #[must_use]
    pub fn skx() -> Self {
        ApcAreaModel {
            floorplan: DieFloorplan::skx(),
            iosm_signals: 5,
            clmr_signals: 3,
            apmu_signals: 3,
            io_controller_logic: 0.005,
            fcm_of_fivr: 0.05,
            fcm_logic: 0.005,
            fcm_count: 2,
            apmu_of_gpmu: 0.05,
        }
    }

    /// Computes the full overhead report.
    #[must_use]
    pub fn report(&self) -> ApcAreaReport {
        let fp = &self.floorplan;
        let iosm = ComponentArea {
            routing: fp.long_distance_signal_area(self.iosm_signals),
            logic: fp.region_logic_area(fp.io_controllers, self.io_controller_logic),
        };
        let clmr = ComponentArea {
            routing: fp.long_distance_signal_area(self.clmr_signals),
            logic: fp.fivr_fcm_area()
                * self.fcm_of_fivr
                * self.fcm_logic
                * f64::from(self.fcm_count),
        };
        let apmu = ComponentArea {
            routing: fp.long_distance_signal_area(self.apmu_signals),
            logic: fp.region_logic_area(fp.gpmu, self.apmu_of_gpmu),
        };
        ApcAreaReport { iosm, clmr, apmu }
    }
}

impl Default for ApcAreaModel {
    fn default() -> Self {
        ApcAreaModel::skx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iosm_routing_is_under_a_quarter_percent() {
        let r = ApcAreaModel::skx().report();
        assert!(r.iosm.routing < 0.0024, "IOSM routing {}", r.iosm.routing);
        assert!(r.iosm.logic < 0.0008, "IOSM logic {}", r.iosm.logic);
    }

    #[test]
    fn clmr_overhead_matches_paper_bounds() {
        let r = ApcAreaModel::skx().report();
        assert!(r.clmr.routing < 0.0015, "CLMR routing {}", r.clmr.routing);
        assert!(r.clmr.logic < 0.00005, "CLMR FCM logic {}", r.clmr.logic);
    }

    #[test]
    fn apmu_overhead_matches_paper_bounds() {
        let r = ApcAreaModel::skx().report();
        assert!(r.apmu.logic <= 0.001, "APMU logic {}", r.apmu.logic);
        assert!(r.apmu.routing < 0.0015, "APMU routing {}", r.apmu.routing);
    }

    #[test]
    fn total_overhead_is_under_0_75_percent() {
        let r = ApcAreaModel::skx().report();
        assert!(
            r.total_percent() < 0.75,
            "total {}% must stay under the paper's 0.75% bound",
            r.total_percent()
        );
        assert!(r.total_percent() > 0.0);
    }

    #[test]
    fn report_display_mentions_each_component() {
        let s = ApcAreaModel::default().report().to_string();
        assert!(s.contains("IOSM"));
        assert!(s.contains("CLMR"));
        assert!(s.contains("APMU"));
        assert!(s.contains("total"));
    }
}
