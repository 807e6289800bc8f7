//! SoC topology: configuration and the aggregate socket model.
//!
//! [`SocConfig`] captures the structural parameters of the modelled server
//! (the defaults reproduce the paper's reference Xeon Silver 4114 system) and
//! [`SkxSoc`] aggregates all component models into one socket that the
//! package C-state flows and the full-system simulation operate on.

use std::fmt;

use apc_sim::SimTime;

use crate::changes::PowerChanges;
use crate::clm::ClmDomain;
use crate::core::{CoreId, CoreSet};
use crate::cstate::CoreCState;
use crate::io::{IoKind, IoSet};
use crate::memory::MemorySet;
use crate::pll::PllSet;
use crate::vr::{Fivr, Millivolts};

/// Structural configuration of a socket.
///
/// # Examples
///
/// ```
/// use apc_soc::topology::SocConfig;
///
/// let cfg = SocConfig::xeon_silver_4114();
/// assert_eq!(cfg.cores, 10);
/// assert_eq!(cfg.memory_controllers, 2);
/// let soc = cfg.build();
/// assert_eq!(soc.cores().len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Number of physical cores.
    pub cores: usize,
    /// Number of hardware threads per core (informational; the scheduler in
    /// `apc-server` pins one request per core, matching the paper's setup).
    pub threads_per_core: usize,
    /// Nominal core frequency in MHz.
    pub nominal_freq_mhz: u32,
    /// Minimum core frequency in MHz.
    pub min_freq_mhz: u32,
    /// Maximum (turbo) frequency in MHz.
    pub turbo_freq_mhz: u32,
    /// High-speed IO controllers present in the north cap.
    pub io_kinds: Vec<IoKind>,
    /// Number of memory controllers.
    pub memory_controllers: usize,
    /// Installed DRAM capacity in GiB (informational).
    pub dram_gib: u32,
    /// Mesh dimensions (columns, rows) of the NoC.
    pub mesh: (usize, usize),
}

impl SocConfig {
    /// The paper's reference system: Intel Xeon Silver 4114
    /// (10 cores / 20 threads, 2.2 GHz nominal, 0.8 GHz min, 3.0 GHz turbo,
    /// 3×PCIe + 1×DMI + 2×UPI, 2 memory controllers, 192 GiB DDR4-2666).
    #[must_use]
    pub fn xeon_silver_4114() -> Self {
        SocConfig {
            cores: 10,
            threads_per_core: 2,
            nominal_freq_mhz: 2_200,
            min_freq_mhz: 800,
            turbo_freq_mhz: 3_000,
            io_kinds: vec![
                IoKind::Pcie,
                IoKind::Pcie,
                IoKind::Pcie,
                IoKind::Dmi,
                IoKind::Upi,
                IoKind::Upi,
            ],
            memory_controllers: 2,
            dram_gib: 192,
            mesh: (5, 4),
        }
    }

    /// A reduced configuration handy for fast unit tests.
    #[must_use]
    pub fn small_test(cores: usize) -> Self {
        SocConfig {
            cores,
            threads_per_core: 1,
            nominal_freq_mhz: 2_000,
            min_freq_mhz: 800,
            turbo_freq_mhz: 2_500,
            io_kinds: vec![IoKind::Pcie, IoKind::Dmi],
            memory_controllers: 1,
            dram_gib: 16,
            mesh: (2, 2),
        }
    }

    /// Builds the aggregate socket model from this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero cores, no IO
    /// controllers or no memory controllers).
    #[must_use]
    pub fn build(&self) -> SkxSoc {
        assert!(self.cores > 0, "a socket needs at least one core");
        assert!(
            !self.io_kinds.is_empty(),
            "a socket needs at least one IO controller"
        );
        assert!(
            self.memory_controllers > 0,
            "a socket needs at least one memory controller"
        );
        let mut soc = SkxSoc {
            cores: CoreSet::new(self.cores),
            clm: ClmDomain::new(self.cores, self.mesh.0, self.mesh.1),
            ios: IoSet::new(&self.io_kinds),
            memory: MemorySet::new(self.memory_controllers),
            plls: PllSet::new(self.cores, self.io_kinds.len()),
            motherboard_rails: vec![
                Fivr::new_mbvr("vccsa", Millivolts(850)),
                Fivr::new_mbvr("vccio", Millivolts(950)),
            ],
            config: self.clone(),
            uncore_changes: PowerChanges::default(),
        };
        soc.share_uncore_changes();
        soc
    }
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig::xeon_silver_4114()
    }
}

impl fmt::Display for SocConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores @ {} MHz, {} IO controllers, {} MCs, {} GiB DRAM",
            self.cores,
            self.nominal_freq_mhz,
            self.io_kinds.len(),
            self.memory_controllers,
            self.dram_gib
        )
    }
}

/// The aggregate socket: every component model the package C-state flows and
/// the power model need to observe or drive.
#[derive(Debug)]
pub struct SkxSoc {
    cores: CoreSet,
    clm: ClmDomain,
    ios: IoSet,
    memory: MemorySet,
    plls: PllSet,
    motherboard_rails: Vec<Fivr>,
    config: SocConfig,
    /// Power-state changes of the CLM, IO links, memory controllers and
    /// PLLs, counted by the components themselves (see
    /// [`SkxSoc::uncore_change_epoch`]).
    uncore_changes: PowerChanges,
}

/// A clone counts its uncore changes apart from the original's.
impl Clone for SkxSoc {
    fn clone(&self) -> Self {
        let mut soc = SkxSoc {
            cores: self.cores.clone(),
            clm: self.clm.clone(),
            ios: self.ios.clone(),
            memory: self.memory.clone(),
            plls: self.plls.clone(),
            motherboard_rails: self.motherboard_rails.clone(),
            config: self.config.clone(),
            uncore_changes: self.uncore_changes.clone(),
        };
        soc.share_uncore_changes();
        soc
    }
}

impl SkxSoc {
    /// Builds the paper's reference socket.
    #[must_use]
    pub fn xeon_silver_4114() -> Self {
        SocConfig::xeon_silver_4114().build()
    }

    /// The structural configuration this socket was built from.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The core set.
    #[must_use]
    pub fn cores(&self) -> &CoreSet {
        &self.cores
    }

    /// Mutable access to the core set (which maintains its own counts; see
    /// [`CoreSet::cstate_census`]).
    pub fn cores_mut(&mut self) -> &mut CoreSet {
        &mut self.cores
    }

    /// The CLM domain.
    #[must_use]
    pub fn clm(&self) -> &ClmDomain {
        &self.clm
    }

    /// Mutable access to the CLM domain.
    pub fn clm_mut(&mut self) -> &mut ClmDomain {
        &mut self.clm
    }

    /// The high-speed IO controllers.
    #[must_use]
    pub fn ios(&self) -> &IoSet {
        &self.ios
    }

    /// Mutable access to the IO controllers.
    pub fn ios_mut(&mut self) -> &mut IoSet {
        &mut self.ios
    }

    /// The memory subsystem.
    #[must_use]
    pub fn memory(&self) -> &MemorySet {
        &self.memory
    }

    /// Mutable access to the memory subsystem.
    pub fn memory_mut(&mut self) -> &mut MemorySet {
        &mut self.memory
    }

    /// The PLL inventory.
    #[must_use]
    pub fn plls(&self) -> &PllSet {
        &self.plls
    }

    /// Mutable access to the PLL inventory.
    pub fn plls_mut(&mut self) -> &mut PllSet {
        &mut self.plls
    }

    /// The fixed motherboard voltage rails (Vccsa, Vccio).
    #[must_use]
    pub fn motherboard_rails(&self) -> &[Fivr] {
        &self.motherboard_rails
    }

    /// Forces every core into `state` at time `now`, bypassing transition
    /// latencies. Convenience for setting up analytical experiments
    /// ("all cores in CC1", "all cores in CC6").
    pub fn force_all_cores(&mut self, now: SimTime, state: CoreCState) {
        for i in 0..self.cores.len() {
            self.cores.force_state(CoreId(i), now, state);
        }
    }

    /// The number of power-state changes of the uncore component models:
    /// the CLM state, every IO link state, every memory controller's DRAM
    /// mode and every PLL state. The components count their own changes, so
    /// a mutable access that changes no power state (traffic on a link
    /// already in L0, say) leaves the epoch alone. Two equal epochs
    /// guarantee those power states — and therefore any pure function of
    /// them, such as the uncore's power — are unchanged. Core state is
    /// tracked by the core set itself (see [`CoreSet::cstate_census`]), so
    /// the frequent core transitions leave this epoch alone.
    #[must_use]
    pub fn uncore_change_epoch(&self) -> u64 {
        self.uncore_changes.get()
    }

    /// Makes every uncore component count its changes in `uncore_changes`.
    fn share_uncore_changes(&mut self) {
        let changes = &self.uncore_changes;
        self.clm.share_power_changes(changes);
        self.ios.share_power_changes(changes);
        self.memory.share_power_changes(changes);
        self.plls.share_power_changes(changes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cstate::CoreCState;
    use apc_sim::SimDuration;

    #[test]
    fn reference_config_matches_xeon_4114() {
        let cfg = SocConfig::xeon_silver_4114();
        assert_eq!(cfg.cores, 10);
        assert_eq!(cfg.threads_per_core, 2);
        assert_eq!(cfg.nominal_freq_mhz, 2_200);
        assert_eq!(cfg.io_kinds.len(), 6);
        assert_eq!(cfg.memory_controllers, 2);
        assert_eq!(cfg.dram_gib, 192);
        assert_eq!(SocConfig::default(), cfg);
        assert!(cfg.to_string().contains("10 cores"));
    }

    #[test]
    fn build_wires_all_components() {
        let soc = SkxSoc::xeon_silver_4114();
        assert_eq!(soc.cores().len(), 10);
        assert_eq!(soc.clm().slice_count(), 10);
        assert_eq!(soc.ios().len(), 6);
        assert_eq!(soc.memory().len(), 2);
        assert_eq!(soc.plls().len(), 18);
        assert_eq!(soc.motherboard_rails().len(), 2);
        assert_eq!(soc.config().cores, 10);
    }

    #[test]
    fn force_all_cores_sets_every_core() {
        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(SimTime::ZERO, CoreCState::CC1);
        assert!(soc.cores().all_in_cc1_or_deeper());
        soc.force_all_cores(SimTime::ZERO, CoreCState::CC0);
        assert_eq!(soc.cores().active_count(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_config_is_rejected() {
        let mut cfg = SocConfig::small_test(1);
        cfg.cores = 0;
        let _ = cfg.build();
    }

    #[test]
    fn traffic_on_a_link_in_l0_leaves_the_uncore_epoch_alone() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let nic = crate::io::IoId(0);
        let t = SimTime::from_micros(1);
        let epoch = soc.uncore_change_epoch();
        soc.ios_mut().controller_mut(nic).begin_traffic(t);
        soc.ios_mut().controller_mut(nic).end_traffic(t);
        let _ = soc.clm_mut();
        let _ = soc.memory_mut();
        let _ = soc.plls_mut();
        assert_eq!(soc.uncore_change_epoch(), epoch);
        // A link leaving L0s, and every later change, moves it.
        soc.ios_mut().set_allow_shallow_all(t, true);
        let idle = t + SimDuration::from_micros(1);
        assert!(soc.ios_mut().controller_mut(nic).try_enter_shallow(idle));
        assert_eq!(soc.uncore_change_epoch(), epoch + 1);
        soc.ios_mut().controller_mut(nic).begin_traffic(idle);
        soc.clm_mut().clock_gate(idle);
        soc.memory_mut().set_allow_cke_off_all(idle, true);
        soc.plls_mut().power_off_uncore(idle);
        let plls = soc.plls().uncore_plls().count() as u64;
        let mcs = soc.memory().len() as u64;
        assert_eq!(soc.uncore_change_epoch(), epoch + 3 + mcs + plls);
        // A clone counts apart from its original.
        let mut clone = soc.clone();
        let before = soc.uncore_change_epoch();
        clone.clm_mut().clock_ungate(idle);
        assert_eq!(clone.uncore_change_epoch(), before + 1);
        assert_eq!(soc.uncore_change_epoch(), before);
    }

    #[test]
    fn small_test_config_builds() {
        let soc = SocConfig::small_test(4).build();
        assert_eq!(soc.cores().len(), 4);
        assert_eq!(soc.ios().len(), 2);
        assert_eq!(soc.memory().len(), 1);
    }
}
