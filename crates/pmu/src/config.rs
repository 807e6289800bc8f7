//! Platform power-management configuration (BIOS / OS level).
//!
//! The paper evaluates two baseline configurations (Sec. 6):
//!
//! * **`Cshallow`** — the realistic datacenter configuration: CC6 and CC1E
//!   disabled, all package C-states disabled. Cores only ever use CC1; the
//!   package never leaves PC0.
//! * **`Cdeep`** — all core and package C-states enabled, system tuned
//!   (powertop auto-tune) so PC6 is reachable.
//!
//! The reproduction adds **`CPc1a`** — `Cshallow` plus the APC hardware, so
//! the package can enter PC1A whenever all cores are in CC1.

use std::fmt;

use apc_soc::cstate::{CoreCState, PackageCState};

/// Which package-level power mechanism is available to the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackagePolicy {
    /// No package C-state is ever entered (package C-states disabled, the
    /// `Cshallow` behaviour).
    None,
    /// The firmware GPMU may enter PC6 when all cores reach CC6
    /// (the `Cdeep` behaviour).
    Pc6,
    /// The APC hardware may enter PC1A when all cores reach CC1
    /// (the `CPC1A` behaviour).
    Pc1a,
}

impl fmt::Display for PackagePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackagePolicy::None => f.write_str("no package C-states"),
            PackagePolicy::Pc6 => f.write_str("PC6"),
            PackagePolicy::Pc1a => f.write_str("PC1A"),
        }
    }
}

/// A named platform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Short name used in reports (`Cshallow`, `Cdeep`, `CPC1A`).
    pub name: &'static str,
    /// Core C-states the OS idle governor may use, shallow to deep.
    pub enabled_core_cstates: Vec<CoreCState>,
    /// The package-level mechanism available.
    pub package_policy: PackagePolicy,
}

impl PlatformConfig {
    /// The realistic datacenter baseline (paper `Cshallow`).
    #[must_use]
    pub fn c_shallow() -> Self {
        PlatformConfig {
            name: "Cshallow",
            enabled_core_cstates: vec![CoreCState::CC1],
            package_policy: PackagePolicy::None,
        }
    }

    /// The deep-idle baseline (paper `Cdeep`).
    #[must_use]
    pub fn c_deep() -> Self {
        PlatformConfig {
            name: "Cdeep",
            enabled_core_cstates: vec![CoreCState::CC1, CoreCState::CC1E, CoreCState::CC6],
            package_policy: PackagePolicy::Pc6,
        }
    }

    /// `Cshallow` enhanced with the APC architecture (paper `CPC1A`).
    #[must_use]
    pub fn c_pc1a() -> Self {
        PlatformConfig {
            name: "CPC1A",
            enabled_core_cstates: vec![CoreCState::CC1],
            package_policy: PackagePolicy::Pc1a,
        }
    }

    /// The deepest package C-state reachable under this configuration.
    #[must_use]
    pub fn package_cstate_limit(&self) -> PackageCState {
        match self.package_policy {
            PackagePolicy::None => PackageCState::PC0,
            PackagePolicy::Pc6 => PackageCState::PC6,
            PackagePolicy::Pc1a => PackageCState::PC1A,
        }
    }
}

impl fmt::Display for PlatformConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: core C-states {:?}, package {}",
            self.name,
            self.enabled_core_cstates
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
            self.package_policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cshallow_matches_paper_description() {
        let c = PlatformConfig::c_shallow();
        assert_eq!(c.name, "Cshallow");
        assert_eq!(c.enabled_core_cstates, vec![CoreCState::CC1]);
        assert_eq!(c.package_policy, PackagePolicy::None);
        assert_eq!(c.package_cstate_limit(), PackageCState::PC0);
    }

    #[test]
    fn cdeep_matches_paper_description() {
        let c = PlatformConfig::c_deep();
        assert!(c.enabled_core_cstates.contains(&CoreCState::CC6));
        assert_eq!(c.package_policy, PackagePolicy::Pc6);
        assert_eq!(c.package_cstate_limit(), PackageCState::PC6);
    }

    #[test]
    fn cpc1a_is_cshallow_plus_apc() {
        let apc = PlatformConfig::c_pc1a();
        let shallow = PlatformConfig::c_shallow();
        assert_eq!(apc.enabled_core_cstates, shallow.enabled_core_cstates);
        assert_eq!(apc.package_policy, PackagePolicy::Pc1a);
        assert_eq!(apc.package_cstate_limit(), PackageCState::PC1A);
    }

    #[test]
    fn display_is_informative() {
        let s = PlatformConfig::c_deep().to_string();
        assert!(s.contains("Cdeep"));
        assert!(s.contains("CC6"));
        assert_eq!(PackagePolicy::Pc1a.to_string(), "PC1A");
    }
}
