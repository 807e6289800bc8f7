//! Property-based tests of core invariants across the stack.
//!
//! The crates.io `proptest` crate is unavailable in the offline build
//! environment, so these properties are exercised by a small hand-rolled
//! harness: each property runs against many randomly generated inputs drawn
//! from a fixed-seed [`SimRng`], which keeps failures exactly reproducible.

use apc::core::apmu::{Apmu, WakeCause};
use apc::prelude::*;
use apc::sim::engine::EventQueue;
use apc::sim::rng::SimRng;
use apc::sim::stats::PercentileRecorder;

/// Runs `body` against `cases` independently seeded RNG streams. The seed is
/// derived from the property name so each property sees a distinct but fully
/// reproducible input sequence.
fn for_each_case(label: &str, cases: u64, mut body: impl FnMut(&mut SimRng)) {
    let base = SimRng::from_seed(0xA11CE).fork(label).seed();
    for case in 0..cases {
        let mut rng = SimRng::from_seed(base ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        body(&mut rng);
    }
}

fn vec_u64(rng: &mut SimRng, lo: u64, hi: u64, min_len: usize, max_len: usize) -> Vec<u64> {
    let len = min_len + rng.index(max_len - min_len);
    (0..len)
        .map(|_| lo + (rng.next_u64() % (hi - lo)))
        .collect()
}

fn vec_f64(rng: &mut SimRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = min_len + rng.index(max_len - min_len);
    (0..len).map(|_| rng.uniform_range(lo, hi)).collect()
}

/// The event queue always delivers events in non-decreasing time order,
/// regardless of the insertion order.
#[test]
fn event_queue_is_time_ordered() {
    for_each_case("event_queue_is_time_ordered", 64, |rng| {
        let times = vec_u64(rng, 0, 1_000_000, 1, 200);
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(*t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    });
}

/// Quantiles are monotonic in the quantile parameter and bounded by the
/// sample extremes.
#[test]
fn quantiles_are_monotonic() {
    for_each_case("quantiles_are_monotonic", 64, |rng| {
        let values = vec_f64(rng, 0.0, 1e9, 2, 200);
        let mut r = PercentileRecorder::new();
        for &v in &values {
            r.record(v);
        }
        let lo = r.quantile(0.1).unwrap();
        let mid = r.quantile(0.5).unwrap();
        let hi = r.quantile(0.99).unwrap();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo <= mid && mid <= hi);
        assert!(lo >= min - 1e-9 && hi <= max + 1e-9);
    });
}

/// The exact recorder agrees with a direct computation: its quantile at
/// every sample rank is that rank's sorted sample, and its mean is the
/// two-pass mean.
#[test]
fn percentile_recorder_matches_a_sorted_copy() {
    for_each_case("percentile_recorder_matches_a_sorted_copy", 64, |rng| {
        let values = vec_f64(rng, -1e6, 1e6, 2, 300);
        let mut r = PercentileRecorder::new();
        for &v in &values {
            r.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let last_rank = (sorted.len() - 1) as f64;
        for (rank, &x) in sorted.iter().enumerate() {
            let q = r.quantile(rank as f64 / last_rank).unwrap();
            assert!(
                (q - x).abs() <= 1e-9 * x.abs().max(1.0),
                "rank {rank}: {q} vs {x}"
            );
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((r.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
    });
}

/// The power model never produces negative power, and deeper package
/// states never consume more than shallower ones.
#[test]
fn package_power_ordering_holds() {
    for_each_case("package_power_ordering_holds", 32, |rng| {
        let util = rng.uniform();
        let budget = PackageStatePower::skx_reference();
        let pc0idle = budget.state_power(PackageCState::PC0Idle).total().as_f64();
        let pc1a = budget.state_power(PackageCState::PC1A).total().as_f64();
        let pc6 = budget.state_power(PackageCState::PC6).total().as_f64();
        assert!(pc6 > 0.0 && pc1a > 0.0 && pc0idle > 0.0);
        assert!(pc6 < pc1a && pc1a < pc0idle);
        // DRAM utilisation never makes idle states more expensive.
        let model = PowerModel::skx_calibrated();
        let soc = SkxSoc::xeon_silver_4114();
        let snap = model.snapshot(&soc, util);
        assert!(snap.soc_total().as_f64() > 0.0);
        assert!(snap.dram.as_f64() >= 5.5 - 1e-9);
    });
}

/// However the APMU is driven (random wake/idle sequences), its PC1A
/// residency accounting never exceeds wall-clock time and entries never
/// exceed all-idle episodes.
#[test]
fn apmu_statistics_are_consistent() {
    for_each_case("apmu_statistics_are_consistent", 48, |rng| {
        let gaps = vec_u64(rng, 1, 500, 1, 40);
        let mut soc = SkxSoc::xeon_silver_4114();
        let mut apmu = Apmu::new();
        let mut now = SimTime::from_micros(1);
        for (i, gap) in gaps.iter().enumerate() {
            // All cores idle, links idle.
            soc.force_all_cores(now, CoreCState::CC1);
            for link in soc.ios_mut().iter_mut() {
                link.end_traffic(now);
            }
            if let Some(deadline) = apmu.on_all_cores_idle(&mut soc, now) {
                if let Some(resident) = apmu.on_standby_deadline(&mut soc, deadline) {
                    apmu.on_entry_complete(resident);
                    now = resident + SimDuration::from_micros(*gap);
                    let cause = if i % 2 == 0 {
                        WakeCause::IoTraffic
                    } else {
                        WakeCause::CoreInterrupt
                    };
                    if let apc::core::apmu::WakeOutcome::Exiting { done_at, .. } =
                        apmu.wakeup(&mut soc, now, cause)
                    {
                        apmu.on_exit_complete(&mut soc, done_at);
                        apmu.on_core_active(&mut soc, done_at);
                        now = done_at + SimDuration::from_micros(5);
                    }
                } else {
                    now += SimDuration::from_micros(*gap);
                    let _ = apmu.wakeup(&mut soc, now, WakeCause::CoreInterrupt);
                    now += SimDuration::from_micros(5);
                }
            }
        }
        let stats = apmu.stats();
        assert!(stats.pc1a_entries <= stats.acc1_entries);
        assert!(stats.pc1a_residency <= now - SimTime::ZERO);
        assert!(stats.io_wakeups + stats.event_wakeups >= stats.pc1a_entries);
    });
}

/// Short full-system runs never violate basic accounting invariants,
/// whatever the (low) request rate and seed.
#[test]
fn full_system_runs_are_well_formed() {
    for_each_case("full_system_runs_are_well_formed", 8, |rng| {
        let rate = rng.uniform_range(1_000.0, 40_000.0);
        let seed = rng.next_u64() % 1_000;
        let cfg = ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(50))
            .with_seed(seed);
        let result = run_experiment(cfg, WorkloadSpec::memcached_etc(), rate);
        assert!(result.avg_soc_power.as_f64() > 10.0);
        assert!(result.avg_soc_power.as_f64() < 90.0);
        assert!(result.pc1a_residency >= 0.0 && result.pc1a_residency <= 1.0);
        assert!(result.latency.mean >= SimDuration::from_micros(117));
        assert!(result.cpu_utilization <= 1.0);
    });
}
