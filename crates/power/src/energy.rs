//! Energy accounting over a simulated timeline.
//!
//! The full-system simulation is piecewise-constant in power: between two
//! consecutive events every component stays in its state, so the power drawn
//! in that interval is constant. [`EnergyMeter`] integrates those intervals
//! into per-domain energy and derives average power, which is what the
//! paper's figures report.
//!
//! The integration is exact integer arithmetic. A [`PowerLevel`] holds each
//! domain's power quantised to whole nanowatts (within 0.5 nW of the model's
//! watts), and the meter accumulates nW × ns — 10⁻¹⁸ J — in `u128`. Integer
//! sums are exact and associative, so the accumulated energy depends only on
//! the piecewise-constant power function: splitting an interval at any
//! instant, or accounting it at fewer instants, leaves every accumulator bit
//! for bit the same, and adding two meters' accumulators merges them
//! exactly.

use apc_sim::{SimDuration, SimTime};

use crate::model::PowerBreakdown;
use crate::units::Watts;

/// Watts to the nearest whole nanowatt: the quantiser behind every
/// [`PowerLevel`] field. Adding 0.5 and truncating rounds half up for the
/// non-negative levels the model produces (and clamps anything negative to
/// zero) without the library call `f64::round` costs on baseline x86-64.
#[inline]
#[must_use]
pub fn nanowatts(power: Watts) -> u64 {
    (power.as_f64() * 1e9 + 0.5) as u64
}

/// Instantaneous power per domain, quantised to whole nanowatts: what the
/// [`EnergyMeter`] integrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PowerLevel {
    /// CPU cores, in nW.
    pub cores: u64,
    /// The CLM domain, in nW.
    pub clm: u64,
    /// IO controllers, PHYs and memory controllers, in nW.
    pub io: u64,
    /// Uncore PLLs, in nW.
    pub plls: u64,
    /// Always-on north-cap infrastructure, in nW.
    pub uncore_misc: u64,
    /// DRAM devices, in nW.
    pub dram: u64,
}

impl PowerLevel {
    /// Quantises every domain of `power` to the nearest nanowatt.
    #[inline]
    #[must_use]
    pub fn quantise(power: &PowerBreakdown) -> Self {
        PowerLevel {
            cores: nanowatts(power.cores),
            clm: nanowatts(power.clm),
            io: nanowatts(power.io),
            plls: nanowatts(power.plls),
            uncore_misc: nanowatts(power.uncore_misc),
            dram: nanowatts(power.dram),
        }
    }

    /// Total SoC (package) power, in nW: every domain but DRAM.
    #[must_use]
    pub fn soc_total(&self) -> u64 {
        self.cores + self.clm + self.io + self.plls + self.uncore_misc
    }
}

/// Cumulative energy per domain, in nanowatt-nanoseconds (10⁻¹⁸ J).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyBreakdown {
    /// Energy consumed by the CPU cores.
    pub cores: u128,
    /// Energy consumed by the CLM domain.
    pub clm: u128,
    /// Energy consumed by IO controllers, PHYs and memory controllers.
    pub io: u128,
    /// Energy consumed by the uncore PLLs.
    pub plls: u128,
    /// Energy consumed by always-on north-cap infrastructure.
    pub uncore_misc: u128,
    /// Energy consumed by DRAM devices.
    pub dram: u128,
}

impl EnergyBreakdown {
    /// Total SoC (package) energy.
    #[must_use]
    pub fn soc_total(&self) -> u128 {
        self.cores + self.clm + self.io + self.plls + self.uncore_misc
    }
}

/// Integrates piecewise-constant power into energy.
///
/// # Examples
///
/// ```
/// use apc_power::energy::{EnergyMeter, PowerLevel};
/// use apc_power::model::PowerBreakdown;
/// use apc_power::units::Watts;
/// use apc_sim::SimTime;
///
/// let mut meter = EnergyMeter::new(SimTime::ZERO);
/// let mut power = PowerBreakdown::default();
/// power.cores = Watts(10.0);
/// let level = PowerLevel::quantise(&power);
///
/// // 10 W held for 1 ms = 10 mJ = 10^16 nW·ns, whether it is accounted in
/// // one step or two.
/// meter.advance(SimTime::from_micros(300), &level);
/// meter.advance(SimTime::from_millis(1), &level);
/// assert_eq!(meter.energy().cores, 10_000_000_000_000_000);
/// assert_eq!(meter.average_soc_power(), Watts(10.0));
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    last: SimTime,
    start: SimTime,
    energy: EnergyBreakdown,
}

impl EnergyMeter {
    /// Creates a meter starting its integration window at `start`.
    #[must_use]
    pub fn new(start: SimTime) -> Self {
        EnergyMeter {
            last: start,
            start,
            energy: EnergyBreakdown::default(),
        }
    }

    /// Advances the meter to `now`, attributing the elapsed interval to
    /// `level` (the power drawn *since the last call*). Calls with `now` at
    /// or before the last timestamp are ignored.
    #[inline]
    pub fn advance(&mut self, now: SimTime, level: &PowerLevel) {
        if now <= self.last {
            return;
        }
        let dt = u128::from((now - self.last).as_nanos());
        self.energy.cores += u128::from(level.cores) * dt;
        self.energy.clm += u128::from(level.clm) * dt;
        self.energy.io += u128::from(level.io) * dt;
        self.energy.plls += u128::from(level.plls) * dt;
        self.energy.uncore_misc += u128::from(level.uncore_misc) * dt;
        self.energy.dram += u128::from(level.dram) * dt;
        self.last = now;
    }

    /// The accumulated energy so far.
    #[must_use]
    pub fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }

    /// The timestamp the meter has been advanced to (the last accounting
    /// point). An [`EnergyMeter::advance`] to this time or earlier is a
    /// no-op, which lets callers skip computing the power level for
    /// zero-length intervals.
    #[must_use]
    pub fn last(&self) -> SimTime {
        self.last
    }

    /// Total elapsed (integrated) time.
    #[must_use]
    pub fn elapsed(&self) -> SimDuration {
        self.last - self.start
    }

    /// Average SoC (package) power over the integration window.
    #[must_use]
    pub fn average_soc_power(&self) -> Watts {
        self.average(self.energy.soc_total())
    }

    /// Average DRAM power over the integration window.
    #[must_use]
    pub fn average_dram_power(&self) -> Watts {
        self.average(self.energy.dram)
    }

    /// `energy` (nW·ns) spread over the integration window; zero power for a
    /// zero-length window.
    fn average(&self, energy: u128) -> Watts {
        let ns = self.elapsed().as_nanos();
        if ns == 0 {
            return Watts::ZERO;
        }
        Watts(energy as f64 / ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_sim::rng::SimRng;

    fn level(cores: f64, dram: f64) -> PowerLevel {
        PowerLevel::quantise(&PowerBreakdown {
            cores: Watts(cores),
            dram: Watts(dram),
            ..PowerBreakdown::default()
        })
    }

    #[test]
    fn integrates_piecewise_constant_power() {
        let mut m = EnergyMeter::new(SimTime::ZERO);
        m.advance(SimTime::from_millis(500), &level(10.0, 2.0));
        m.advance(SimTime::from_secs(1), &level(20.0, 4.0));
        // 10 W * 0.5 s + 20 W * 0.5 s = 15 J; DRAM: 1 + 2 = 3 J.
        assert_eq!(m.energy().cores, 15 * 10u128.pow(18));
        assert_eq!(m.energy().dram, 3 * 10u128.pow(18));
        assert_eq!(m.average_soc_power(), Watts(15.0));
        assert_eq!(m.average_dram_power(), Watts(3.0));
        assert_eq!(m.elapsed(), SimDuration::from_secs(1));
    }

    #[test]
    fn non_monotonic_updates_are_ignored() {
        let mut m = EnergyMeter::new(SimTime::from_millis(10));
        m.advance(SimTime::from_millis(5), &level(100.0, 0.0));
        assert_eq!(m.energy().cores, 0);
        m.advance(SimTime::from_millis(10), &level(100.0, 0.0));
        assert_eq!(m.energy().cores, 0);
        m.advance(SimTime::from_millis(20), &level(100.0, 0.0));
        assert_eq!(m.energy().cores, 10u128.pow(18));
    }

    #[test]
    fn breakdown_totals() {
        let e = EnergyBreakdown {
            cores: 1,
            clm: 2,
            io: 3,
            plls: 4,
            uncore_misc: 5,
            dram: 100,
        };
        assert_eq!(e.soc_total(), 15);
    }

    #[test]
    fn level_soc_total_is_every_domain_but_dram() {
        let level = PowerLevel {
            cores: 1,
            clm: 20,
            io: 300,
            plls: 4_000,
            uncore_misc: 50_000,
            dram: 600_000,
        };
        assert_eq!(level.soc_total(), 54_321);
    }

    #[test]
    fn zero_window_average_power_is_zero() {
        let m = EnergyMeter::new(SimTime::ZERO);
        assert_eq!(m.average_soc_power(), Watts::ZERO);
        assert_eq!(m.elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn quantiser_rounds_to_the_nearest_nanowatt() {
        assert_eq!(nanowatts(Watts(5.46)), 5_460_000_000);
        assert_eq!(nanowatts(Watts(0.007)), 7_000_000);
        assert_eq!(nanowatts(Watts(1.4999e-9)), 1);
        assert_eq!(nanowatts(Watts(1.5e-9)), 2);
        assert_eq!(nanowatts(Watts::ZERO), 0);
        assert_eq!(nanowatts(Watts(-3.0)), 0);
    }

    /// The property that lets a node account power only at its own events:
    /// for random piecewise-constant power functions, accounting every
    /// segment in one step or cut at random instants (with repeated and
    /// backwards calls mixed in) gives identical accumulators, equal to
    /// Σ level × dt computed independently.
    #[test]
    fn splitting_an_interval_never_changes_the_accumulators() {
        fn draw_level(rng: &mut SimRng) -> PowerLevel {
            PowerLevel::quantise(&PowerBreakdown {
                cores: Watts(rng.uniform_range(0.0, 60.0)),
                clm: Watts(rng.uniform_range(0.0, 20.0)),
                io: Watts(rng.uniform_range(0.0, 10.0)),
                plls: Watts(rng.uniform_range(0.0, 0.1)),
                uncore_misc: Watts(rng.uniform_range(0.0, 3.0)),
                dram: Watts(rng.uniform_range(0.0, 8.0)),
            })
        }
        let mut rng = SimRng::from_seed(0x5eed).fork("energy-splits");
        for _ in 0..200 {
            let start = rng.next_u64() % 1_000_000;
            let mut whole = EnergyMeter::new(SimTime::from_nanos(start));
            let mut split = EnergyMeter::new(SimTime::from_nanos(start));
            let mut expected = [0u128; 6];
            let mut t = start;
            for _ in 0..1 + rng.index(30) {
                let level = draw_level(&mut rng);
                let dt = 1 + rng.next_u64() % 50_000_000;
                let mut cuts: Vec<u64> = (0..rng.index(6))
                    .map(|_| t + rng.next_u64() % (dt + 1))
                    .collect();
                cuts.sort_unstable();
                for &cut in &cuts {
                    split.advance(SimTime::from_nanos(cut), &level);
                    // Repeated and earlier accounting points are no-ops,
                    // whatever level they carry.
                    split.advance(SimTime::from_nanos(cut), &draw_level(&mut rng));
                    split.advance(SimTime::from_nanos(start), &draw_level(&mut rng));
                }
                t += dt;
                whole.advance(SimTime::from_nanos(t), &level);
                split.advance(SimTime::from_nanos(t), &level);
                let domains = [
                    level.cores,
                    level.clm,
                    level.io,
                    level.plls,
                    level.uncore_misc,
                    level.dram,
                ];
                for (sum, nw) in expected.iter_mut().zip(domains) {
                    *sum += u128::from(nw) * u128::from(dt);
                }
            }
            assert_eq!(whole.energy(), split.energy());
            let e = whole.energy();
            assert_eq!(
                [e.cores, e.clm, e.io, e.plls, e.uncore_misc, e.dram],
                expected
            );
            assert_eq!(whole.last(), split.last());
        }
    }
}
