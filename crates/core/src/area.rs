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
//! Total: **< 0.75 %** of the SKX die. The floorplan fractions behind these
//! bounds (the IO interconnect < 6 % of the die and 128–512 bit wide, the
//! IO controllers < 15 %, the GPMU < 2 %, a core tile < 10 % with its FIVR
//! < 10 % of the tile) are fields of [`ApcAreaModel`].

use std::fmt;

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

/// Computes the APC area overhead on the SKX floorplan. Every area is a
/// fraction of the die; the floorplan fractions follow the paper's
/// Sec. 5.1–5.3 discussion and the SKX die photographs it references.
#[derive(Debug, Clone)]
pub struct ApcAreaModel {
    /// Fraction of the die occupied by the IO interconnect (mesh/ring wiring
    /// in the north cap).
    io_interconnect: f64,
    /// Width of the IO interconnect data path in bits (128–512).
    io_interconnect_width_bits: u32,
    /// Fraction of the die occupied by the high-speed IO controllers.
    io_controllers: f64,
    /// Fraction of the die occupied by the firmware GPMU.
    gpmu: f64,
    /// Fraction of the die occupied by one core tile (core + private caches
    /// + its LLC/CHA slice).
    core_tile: f64,
    /// Fraction of a core tile occupied by its FIVR.
    fivr_of_core: f64,
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
    /// The paper's assumptions on the SKX floorplan, with the conservative
    /// (pessimistic) choices the paper makes.
    #[must_use]
    pub fn skx() -> Self {
        ApcAreaModel {
            io_interconnect: 0.06,
            io_interconnect_width_bits: 128,
            io_controllers: 0.15,
            gpmu: 0.02,
            core_tile: 0.10,
            fivr_of_core: 0.10,
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

    /// The area of routing `signals` extra long-distance wires through the
    /// IO interconnect (paper Sec. 5.1: extra wires / interconnect width ×
    /// interconnect area).
    fn long_distance_signal_area(&self, signals: u32) -> f64 {
        f64::from(signals) / f64::from(self.io_interconnect_width_bits) * self.io_interconnect
    }

    /// Computes the full overhead report. Logic inside an existing block
    /// costs the block's fraction of the die × the logic's fraction of the
    /// block; a FIVR control module is a core tile × its FIVR × the FCM's
    /// share of the FIVR.
    #[must_use]
    pub fn report(&self) -> ApcAreaReport {
        let iosm = ComponentArea {
            routing: self.long_distance_signal_area(self.iosm_signals),
            logic: self.io_controllers * self.io_controller_logic,
        };
        let clmr = ComponentArea {
            routing: self.long_distance_signal_area(self.clmr_signals),
            logic: self.core_tile
                * self.fivr_of_core
                * self.fcm_of_fivr
                * self.fcm_logic
                * f64::from(self.fcm_count),
        };
        let apmu = ComponentArea {
            routing: self.long_distance_signal_area(self.apmu_signals),
            logic: self.gpmu * self.apmu_of_gpmu,
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
    fn skx_fractions_are_sane() {
        let m = ApcAreaModel::skx();
        assert!(m.io_interconnect <= 0.06);
        assert!(m.io_controllers <= 0.15);
        assert!(m.gpmu <= 0.02);
        assert_eq!(ApcAreaModel::default().report(), m.report());
    }

    #[test]
    fn five_signals_cost_less_than_quarter_percent() {
        // Paper Sec. 5.1: five new long-distance signals over a 128-bit
        // interconnect cost < 0.24 % of the die.
        let m = ApcAreaModel::skx();
        let area = m.long_distance_signal_area(5);
        assert!(area < 0.0024, "area {area}");
        // And < 0.06 % with a 512-bit interconnect.
        let wide = ApcAreaModel {
            io_interconnect_width_bits: 512,
            ..m
        };
        assert!(wide.long_distance_signal_area(5) < 0.0006);
    }

    #[test]
    fn region_logic_area_composes_fractions() {
        let m = ApcAreaModel::skx();
        let r = m.report();
        // IO controller logic: 0.5 % of 15 % of the die < 0.08 %.
        assert_eq!(r.iosm.logic, m.io_controllers * 0.005);
        assert!(r.iosm.logic < 0.0008);
        // APMU: 5 % of the 2 % GPMU < 0.1 %.
        assert_eq!(r.apmu.logic, m.gpmu * 0.05);
        assert!(r.apmu.logic <= 0.001);
    }

    #[test]
    fn fcm_area_is_one_percent_of_die() {
        let m = ApcAreaModel::skx();
        assert!((m.core_tile * m.fivr_of_core - 0.01).abs() < 1e-12);
    }

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
