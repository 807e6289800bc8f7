//! Walks the PC1A entry/exit flow step by step on a bare socket model and
//! prints the signal/latency timeline of Fig. 4, the Sec. 5.5 latency
//! budget, the Sec. 5.4 power derivation and the Sec. 5.1–5.3 area report.
//!
//! Run with: `cargo run --release --example pc1a_flow_trace`

use apc::core::apmu::WakeOutcome;
use apc::prelude::*;

fn main() {
    let mut soc = SkxSoc::xeon_silver_4114();
    let mut apmu = Apmu::new();

    println!("== PC1A flow walk (Fig. 4) ==");
    let t0 = SimTime::from_micros(100);
    soc.force_all_cores(CoreCState::CC1);
    for link in soc.ios_mut().iter_mut() {
        link.end_traffic(t0);
    }
    println!(
        "[{t0}] all cores reached CC1 -> AllowL0s asserted (state {})",
        apmu.state()
    );

    let deadline = apmu
        .on_all_cores_idle(&mut soc)
        .expect("all links are idle");
    println!("[{deadline}] all links in L0s/L0p expected (16 ns idle window)");

    let resident_at = apmu
        .on_standby_deadline(&mut soc, deadline)
        .expect("PC1A entry starts");
    println!(
        "[{resident_at}] CLM clock-gated, Ret asserted, Allow_CKE_OFF set -> resident in PC1A"
    );
    apmu.on_entry_complete();
    println!(
        "           IOs: {}   DRAM: {}   CLM: {}",
        soc.ios().controller(apc::soc::io::IoId(0)).state(),
        soc.memory().controller(apc::soc::memory::McId(0)).mode(),
        soc.clm().state()
    );

    let wake_at = resident_at + SimDuration::from_micros(40);
    let outcome = apmu.wakeup(&mut soc, wake_at, WakeCause::IoTraffic);
    if let WakeOutcome::Exiting { done_at, latency } = outcome {
        println!(
            "[{wake_at}] IO traffic wakeup -> exit flow ({latency}), uncore ready at {done_at}"
        );
        apmu.on_exit_complete(&mut soc, done_at);
        apmu.on_core_active(&mut soc);
        println!(
            "[{done_at}] back in PC0, links in {}",
            soc.ios().controller(apc::soc::io::IoId(0)).state()
        );
    }

    println!("\n== Sec. 5.5 latency budget ==");
    println!("{}", Pc1aLatencyModel::from_components());

    println!("\n== Sec. 5.4 power derivation (Eq. 2/3) ==");
    println!("{}", Pc1aPowerEstimator::skx_reference().estimate());

    println!("\n== Sec. 5.1-5.3 area overhead ==");
    println!("{}", ApcAreaModel::skx().report());
}
