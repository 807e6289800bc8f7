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
use apc::telemetry::QuantileSketch;

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

/// The latency sketch against a sorted copy of what it recorded: count,
/// minimum, maximum and mean are exact, and the quantile at every sample
/// rank is within the sketch's relative error of that rank's sample, plus
/// the half unit lost by rounding the estimate to an integer (a sample of
/// 22 479 just above a bucket's lower edge reads as 22 704, 1.0009 % off).
#[test]
fn sketch_matches_a_sorted_copy() {
    for_each_case("sketch_matches_a_sorted_copy", 64, |rng| {
        let hi = 1u64 << (10 + rng.index(53));
        let values = vec_u64(rng, 1, hi, 1, 300);
        let mut sketch = QuantileSketch::latency_default();
        for &v in &values {
            sketch.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(sketch.count(), sorted.len() as u64);
        assert_eq!(sketch.min(), sorted.first().copied());
        assert_eq!(sketch.max(), sorted.last().copied());
        let sum: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
        assert_eq!(sketch.mean(), Some(sum as f64 / sorted.len() as f64));
        // The contract's lower nearest-rank quantile, at every sample rank.
        let last_rank = (sorted.len() - 1) as f64;
        for rank in 0..sorted.len() {
            let q = rank as f64 / last_rank.max(1.0);
            let exact = sorted[(q * last_rank).floor() as usize];
            let got = sketch.quantile(q).unwrap();
            let bound = sketch.relative_error() * exact as f64 + 0.5;
            assert!(
                got.abs_diff(exact) as f64 <= bound,
                "q={q} of {} samples: {got} vs {exact}",
                sorted.len()
            );
        }
    });
}

/// The latency sketch's quantiles are non-decreasing in the quantile
/// parameter and stay inside the exact sample extremes.
#[test]
fn quantiles_are_monotonic() {
    for_each_case("quantiles_are_monotonic", 256, |rng| {
        let values = vec_u64(rng, 0, 1 << 62, 2, 200);
        let mut sketch = QuantileSketch::latency_default();
        for &v in &values {
            sketch.record(v);
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let mut last = min;
        for step in 0..=200 {
            let q = f64::from(step) / 200.0;
            let x = sketch.quantile(q).unwrap();
            assert!(x >= last, "quantile({q}) = {x} fell below {last}");
            assert!(x <= max, "quantile({q}) = {x} exceeds the maximum {max}");
            last = x;
        }
    });
}

/// The power model never produces negative power, and deeper package
/// states never consume more than shallower ones.
#[test]
fn package_power_ordering_holds() {
    for_each_case("package_power_ordering_holds", 32, |rng| {
        let util = rng.uniform();
        let model = PowerModel::skx_calibrated();
        let power = |state| model.snapshot(&resident_soc(state), 0.0).total().as_f64();
        let pc0idle = power(PackageCState::PC0Idle);
        let pc1a = power(PackageCState::PC1A);
        let pc6 = power(PackageCState::PC6);
        assert!(pc6 > 0.0 && pc1a > 0.0 && pc0idle > 0.0);
        assert!(pc6 < pc1a && pc1a < pc0idle);
        // DRAM utilisation never makes idle states more expensive.
        let soc = SkxSoc::xeon_silver_4114();
        let snap = model.snapshot(&soc, util);
        assert!(snap.soc_total().as_f64() > 0.0);
        assert!(snap.dram.as_f64() >= 5.5 - 1e-9);
    });
}

/// However the APMU is driven (random wake/idle sequences), it counts every
/// completed PC1A entry, and entries never exceed all-idle episodes.
#[test]
fn apmu_statistics_are_consistent() {
    for_each_case("apmu_statistics_are_consistent", 48, |rng| {
        let gaps = vec_u64(rng, 1, 500, 1, 40);
        let mut soc = SkxSoc::xeon_silver_4114();
        let mut apmu = Apmu::new();
        let mut now = SimTime::from_micros(1);
        let mut entered = 0;
        for (i, gap) in gaps.iter().enumerate() {
            // All cores idle, links idle.
            soc.force_all_cores(CoreCState::CC1);
            for link in soc.ios_mut().iter_mut() {
                link.end_traffic(now);
            }
            if let Some(deadline) = apmu.on_all_cores_idle(&mut soc) {
                if let Some(resident) = apmu.on_standby_deadline(&mut soc, deadline) {
                    apmu.on_entry_complete();
                    entered += 1;
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
                        apmu.on_core_active(&mut soc);
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
        assert_eq!(stats.pc1a_entries, entered);
        assert!(stats.pc1a_entries <= gaps.len() as u64);
        assert_eq!(stats.aborted_entries, 0);
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
