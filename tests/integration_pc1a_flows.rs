//! Integration tests of the PC1A flow against the substrate component
//! models: Table 2 component states, Fig. 4 flow ordering and the Sec. 5.5
//! latency bounds, exercised through the public APMU interface.

use apc::core::apmu::{Apmu, WakeCause, WakeOutcome};
use apc::prelude::*;
use apc::soc::clock::PMU_CLOCK;
use apc::soc::io::LinkPowerState;
use apc::soc::memory::{DramPowerMode, MemorySet};
use apc::soc::pll::PllState;

fn idle_socket(at: SimTime) -> SkxSoc {
    let mut soc = SkxSoc::xeon_silver_4114();
    soc.force_all_cores(CoreCState::CC1);
    for link in soc.ios_mut().iter_mut() {
        link.end_traffic(at);
    }
    soc
}

#[test]
fn pc1a_resident_state_matches_table2() {
    let t0 = SimTime::from_micros(10);
    let mut soc = idle_socket(t0);
    let mut apmu = Apmu::new();

    let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
    assert!(apmu.on_standby_deadline(&mut soc, deadline).is_some());
    apmu.on_entry_complete();

    // Table 2, PC1A row: cores CC1, L3 retained, PLLs on, PCIe/DMI in L0s,
    // UPI in L0p, DRAM CKE-off.
    assert!(soc.cores().all_in_cc1_or_deeper());
    assert_eq!(soc.plls().uncore_state(), PllState::Locked);
    for link in soc.ios().iter() {
        match link.kind() {
            apc::soc::io::IoKind::Upi => assert_eq!(link.state(), LinkPowerState::L0p),
            _ => assert_eq!(link.state(), LinkPowerState::L0s),
        }
    }
    assert_eq!(soc.memory().mode(), DramPowerMode::PrechargePowerDown);
    assert_eq!(soc.clm().state(), apc::soc::clm::ClmState::Retention);
}

#[test]
fn entry_plus_exit_fits_the_200ns_budget() {
    // Each step timed by the component it drives, on a socket of its own.
    let mut soc = SkxSoc::xeon_silver_4114();
    let clm = soc.clm_mut();
    let gate = clm.clock_gate();
    let down = clm.assert_retention(SimTime::ZERO);
    clm.complete_voltage_transition(SimTime::ZERO + down);
    let ramp = clm.deassert_retention(SimTime::from_micros(1));
    let ungate = clm.clock().ungate_latency();

    let pc1a = flow_latency(PackageCState::PC1A);
    assert_eq!(
        pc1a.entry,
        gate + PMU_CLOCK.cycles(2) + MemorySet::CKE_OFF_ENTRY,
        "clock gate, Allow_CKE_OFF, CKE-off entry"
    );
    assert_eq!(pc1a.entry, SimDuration::from_nanos(18));
    // The links' and the CKE-off exits overlap the ramp; the ungate waits
    // for `PwrOk`.
    assert_eq!(pc1a.exit, ramp + ungate);
    assert_eq!(pc1a.exit, SimDuration::from_nanos(154));
    assert!(pc1a.round_trip() <= SimDuration::from_nanos(200));
}

#[test]
fn exit_restores_full_operation() {
    let t0 = SimTime::ZERO;
    let mut soc = idle_socket(t0);
    let mut apmu = Apmu::new();
    let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
    let resident = apmu.on_standby_deadline(&mut soc, deadline).unwrap();
    apmu.on_entry_complete();

    let wake = resident + SimDuration::from_micros(100);
    let WakeOutcome::Exiting { done_at, .. } = apmu.wakeup(&mut soc, wake, WakeCause::GpmuEvent)
    else {
        panic!("expected exit flow");
    };
    apmu.on_exit_complete(&mut soc, done_at);
    apmu.on_core_active(&mut soc);

    assert!(soc.ios().iter().all(|l| l.state() == LinkPowerState::L0));
    assert_eq!(soc.memory().mode(), DramPowerMode::Active);
    assert_eq!(soc.clm().state(), apc::soc::clm::ClmState::Operational);
    assert_eq!(apmu.stats().pc1a_entries, 1);
}

#[test]
fn pc6_flow_is_two_orders_of_magnitude_slower() {
    use apc::pmu::gpmu::Gpmu;
    let mut soc = SkxSoc::xeon_silver_4114();
    soc.force_all_cores(CoreCState::CC6);
    let mut gpmu = Gpmu::new();
    let entry = gpmu.begin_entry(&mut soc, SimTime::from_micros(10));
    gpmu.complete_entry(&mut soc, SimTime::from_micros(10) + entry);
    let exit = gpmu.begin_exit(&mut soc, SimTime::from_micros(500));
    let pc6_round_trip = entry + exit;
    let pc1a_round_trip = flow_latency(PackageCState::PC1A).round_trip();
    let ratio = pc6_round_trip.as_nanos() as f64 / pc1a_round_trip.as_nanos() as f64;
    assert!(ratio > 250.0, "ratio {ratio}");
}
