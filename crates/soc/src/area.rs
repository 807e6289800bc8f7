//! Die floorplan and area model.
//!
//! Section 5 of the paper argues APC's hardware additions are cheap by
//! expressing them as fractions of the SKX die area:
//!
//! * the IO interconnect occupies < 6 % of the die and is 128–512 bit wide,
//!   so a handful of extra long-distance wires cost < 0.24 % / < 0.06 %;
//! * the IO controllers occupy < 15 % of the die and need < 0.5 % of their
//!   area for the new control/status logic;
//! * the GPMU occupies < 2 % of the die and the APMU adds < 5 % of that;
//! * each FIVR control module gains an 8-bit RVID register (< 0.5 % of the
//!   FCM, itself < 10 % of a core, itself < 10 % of the die).
//!
//! This module encodes those floorplan fractions; the `apc-core::area`
//! module layers the APC-specific overhead computation (reproducing the
//! < 0.75 % total claim) on top.

/// Relative area of the major SKX die regions, as fractions of the total die
/// area. Derived from the floorplan discussion in the paper (Sec. 5.1–5.3)
/// and the SKX die photographs it references.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieFloorplan {
    /// Fraction of the die occupied by the IO interconnect (mesh/ring wiring
    /// in the north cap).
    io_interconnect: f64,
    /// Fraction of the die occupied by the high-speed IO controllers.
    pub io_controllers: f64,
    /// Fraction of the die occupied by the firmware GPMU.
    pub gpmu: f64,
    /// Fraction of the die occupied by one core tile (core + private caches
    /// + its LLC/CHA slice).
    core_tile: f64,
    /// Fraction of a core tile occupied by its FIVR.
    fivr_of_core: f64,
    /// Width of the IO interconnect data path in bits (128–512).
    io_interconnect_width_bits: u32,
}

impl DieFloorplan {
    /// The SKX floorplan assumed by the paper's overhead analysis, with the
    /// conservative (pessimistic) choices the paper makes.
    #[must_use]
    pub fn skx() -> Self {
        DieFloorplan {
            io_interconnect: 0.06,
            io_controllers: 0.15,
            gpmu: 0.02,
            core_tile: 0.10,
            fivr_of_core: 0.10,
            io_interconnect_width_bits: 128,
        }
    }

    /// The area cost, as a fraction of the die, of routing `signals` extra
    /// long-distance wires through the IO interconnect (paper Sec. 5.1:
    /// extra wires / interconnect width × interconnect area).
    ///
    /// # Panics
    ///
    /// Panics if the floorplan's interconnect width is zero.
    #[must_use]
    pub fn long_distance_signal_area(&self, signals: u32) -> f64 {
        assert!(self.io_interconnect_width_bits > 0);
        f64::from(signals) / f64::from(self.io_interconnect_width_bits) * self.io_interconnect
    }

    /// The area cost, as a fraction of the die, of adding logic worth
    /// `fraction_of_region` of a region that itself occupies
    /// `region_fraction` of the die.
    #[must_use]
    pub fn region_logic_area(&self, region_fraction: f64, fraction_of_region: f64) -> f64 {
        region_fraction * fraction_of_region
    }

    /// Area of one FIVR control module as a fraction of the die.
    #[must_use]
    pub fn fivr_fcm_area(&self) -> f64 {
        self.core_tile * self.fivr_of_core
    }
}

impl Default for DieFloorplan {
    fn default() -> Self {
        DieFloorplan::skx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skx_fractions_are_sane() {
        let f = DieFloorplan::skx();
        assert!(f.io_interconnect <= 0.06);
        assert!(f.io_controllers <= 0.15);
        assert!(f.gpmu <= 0.02);
        assert_eq!(DieFloorplan::default(), f);
    }

    #[test]
    fn five_signals_cost_less_than_quarter_percent() {
        // Paper Sec. 5.1: five new long-distance signals over a 128-bit
        // interconnect cost < 0.24 % of the die.
        let f = DieFloorplan::skx();
        let area = f.long_distance_signal_area(5);
        assert!(area < 0.0024, "area {area}");
        // And < 0.06 % with a 512-bit interconnect.
        let wide = DieFloorplan {
            io_interconnect_width_bits: 512,
            ..f
        };
        assert!(wide.long_distance_signal_area(5) < 0.0006);
    }

    #[test]
    fn region_logic_area_composes_fractions() {
        let f = DieFloorplan::skx();
        // IO controller logic: 0.5 % of 15 % of the die < 0.08 %.
        let io_logic = f.region_logic_area(f.io_controllers, 0.005);
        assert!(io_logic < 0.0008);
        // APMU: 5 % of the 2 % GPMU < 0.1 %.
        let apmu = f.region_logic_area(f.gpmu, 0.05);
        assert!(apmu <= 0.001);
    }

    #[test]
    fn fcm_area_is_one_percent_of_die() {
        let f = DieFloorplan::skx();
        assert!((f.fivr_fcm_area() - 0.01).abs() < 1e-12);
    }
}
