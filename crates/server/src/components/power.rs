//! Power and energy accounting component.

use apc_power::energy::{nanowatts, PowerLevel};
use apc_sim::component::{EventHandler, SimulationContext};
use apc_sim::{SimDuration, SimTime};

use super::state::{HasNode, ServerState};
use super::ServerEvent;

/// Attributes elapsed simulated time to the power state that held during it.
///
/// The pre-dispatch hook runs before every event addressed to one of the
/// node's own components, so each interval between two such events is
/// charged at the power level that held across it; the node's
/// [`finish_telemetry`](super::state::ServerState::finish_telemetry) closes
/// the last interval at the horizon. Events of other components (a cluster's
/// front, the fabric, other nodes) cannot change this node's power: at most
/// they deposit into its NIC buffer, which no power input reads. Skipping
/// them only means the meter accounts a constant-power stretch in fewer
/// steps, and the meter's integer accounting is split-invariant (see
/// [`apc_power::energy`]), so a node embedded in a cluster meters exactly
/// what a standalone server with the same event sequence meters.
///
/// The power level is built from three domains, each a pure function of
/// its own inputs: the cores (the per-core C-states), the uncore (the CLM,
/// IO, memory-controller and PLL states) and DRAM (the memory controllers'
/// modes and the busy-core count, which fixes memory utilisation). The
/// component caches the level, quantised to whole nanowatts, and keys each
/// domain on a maintained counter: the core set's
/// [`cstate_changes`](apc_soc::core::CoreSet::cstate_changes), the SoC's
/// [`uncore_change_epoch`](apc_soc::topology::SkxSoc::uncore_change_epoch),
/// and that epoch with
/// [`busy_cores`](super::state::SchedState::busy_cores). Only a domain whose
/// key moved is recomputed, and zero-length intervals skip the level
/// entirely. Equal keys guarantee a recompute would reproduce the cached
/// value bit for bit (same inputs through the same float operations and the
/// same quantiser), so both shortcuts preserve the recompute-every-event
/// accounting exactly.
///
/// When a sampling interval is configured the component also records an
/// instantaneous SoC power trace, useful for debugging entry/exit flows.
pub struct PowerTelemetry {
    node: usize,
    sample_every: Option<SimDuration>,
    /// The level as of the last refresh, with the key each domain was
    /// computed at; `None` until the first refresh.
    cached: Option<CachedLevel>,
}

/// A cached [`PowerLevel`] and the key of each of its domains.
struct CachedLevel {
    level: PowerLevel,
    /// The core set's C-state change counter at the cores' refresh.
    cstates: u64,
    /// The SoC's uncore epoch at the uncore domains' refresh.
    uncore: u64,
    /// `(uncore epoch, busy cores)` at the DRAM refresh.
    dram: (u64, usize),
}

impl PowerTelemetry {
    /// Creates the accounting component for node `node`; `sample_every`
    /// enables the optional instantaneous power trace. A zero interval is
    /// treated as disabled — re-arming a sample at the current timestamp
    /// would stall the event loop at one instant forever.
    #[must_use]
    pub fn new(node: usize, sample_every: Option<SimDuration>) -> Self {
        PowerTelemetry {
            node,
            sample_every: sample_every.filter(|d| !d.is_zero()),
            cached: None,
        }
    }

    /// The node's current power level, recomputing only the domains whose
    /// key moved since the last call. Always equal to
    /// [`ServerState::power_level`].
    fn level(&mut self, node: &ServerState) -> &PowerLevel {
        let model = &node.config.power;
        let cstates = node.soc.cores().cstate_changes();
        let uncore = node.soc.uncore_change_epoch();
        let busy = node.sched.busy_cores();
        let cache = self.cached.get_or_insert_with(|| CachedLevel {
            level: node.power_level(),
            cstates,
            uncore,
            dram: (uncore, busy),
        });
        if cache.cstates != cstates {
            cache.level.cores = nanowatts(model.cores_domain(node.soc.cores()));
            cache.cstates = cstates;
        }
        if cache.uncore != uncore {
            let power = model.uncore_domain(&node.soc);
            cache.level.clm = nanowatts(power.clm);
            cache.level.io = nanowatts(power.io);
            cache.level.plls = nanowatts(power.plls);
            cache.level.uncore_misc = nanowatts(power.uncore_misc);
            cache.uncore = uncore;
        }
        if cache.dram != (uncore, busy) {
            let utilization = node.memory_utilization(busy);
            cache.level.dram = nanowatts(model.dram_domain(node.soc.memory(), utilization));
            cache.dram = (uncore, busy);
        }
        &cache.level
    }
}

impl<S: HasNode> EventHandler<ServerEvent, S> for PowerTelemetry {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut S,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        debug_assert!(matches!(event, ServerEvent::PowerSample));
        let _ = event;
        let shared = shared.node_mut(self.node);
        let Some(every) = self.sample_every else {
            return;
        };
        let snapshot = shared.power_snapshot();
        shared
            .telemetry
            .power_trace
            .push((ctx.now(), snapshot.soc_total()));
        ctx.emit_self(every, ServerEvent::PowerSample);
    }

    fn observes_dispatch(&self) -> bool {
        true
    }

    fn observes_post_dispatch(&self) -> bool {
        false
    }

    fn on_pre_dispatch(&mut self, now: SimTime, shared: &mut S) {
        let node = shared.node_mut(self.node);
        if now <= node.telemetry.energy.last() {
            // Zero-length interval: `advance` would be a no-op, so the
            // level is not needed at all.
            return;
        }
        let level = *self.level(node);
        node.telemetry.energy.advance(now, &level);
    }
}

#[cfg(test)]
mod tests {
    use apc_sim::rng::SimRng;
    use apc_soc::core::{CoreActivity, CoreId};
    use apc_soc::cstate::CoreCState;
    use apc_soc::io::IoId;
    use apc_soc::topology::SocConfig;

    use super::*;
    use crate::components::WorkItem;
    use crate::config::ServerConfig;

    const IDLE: [CoreCState; 3] = [CoreCState::CC1, CoreCState::CC1E, CoreCState::CC6];

    /// One legal transition of a drawn core.
    fn step_core(node: &mut ServerState, rng: &mut SimRng, now: SimTime) {
        let cores = node.soc.cores_mut();
        let id = CoreId(rng.index(cores.len()));
        match cores.core(id).activity() {
            CoreActivity::Busy => {
                cores.begin_idle(id, now, IDLE[rng.index(3)]);
            }
            CoreActivity::Idle => {
                cores.begin_wakeup(id, now);
            }
            CoreActivity::Transitioning => cores.complete_transition(id, now),
        }
    }

    /// Starts or finishes work on a drawn core.
    fn step_busy(node: &mut ServerState, running: &mut [bool], rng: &mut SimRng) {
        let core = rng.index(running.len());
        if running[core] {
            assert!(node.sched.take_running(core).is_some());
        } else {
            let work = SimDuration::from_micros(1);
            node.sched
                .start_running(core, WorkItem::Background { work });
        }
        running[core] = !running[core];
    }

    /// One drawn uncore change, including mutable accesses that change
    /// nothing.
    fn step_uncore(node: &mut ServerState, rng: &mut SimRng, now: SimTime) {
        let soc = &mut node.soc;
        match rng.index(10) {
            0 => {
                soc.clm_mut().clock_gate(now);
            }
            1 => {
                soc.clm_mut().clock_ungate(now);
            }
            2 => {
                let clm = soc.clm_mut();
                if rng.chance(0.5) {
                    clm.assert_retention(now);
                } else {
                    clm.deassert_retention(now);
                }
                clm.complete_voltage_transition(now);
            }
            3 => {
                soc.ios_mut().set_allow_shallow_all(now, rng.chance(0.5));
            }
            4 => {
                let io = soc.ios_mut().controller_mut(IoId(rng.index(2)));
                io.begin_traffic(now);
                io.end_traffic(now);
                io.try_enter_shallow(now + SimDuration::from_millis(1));
            }
            5 => {
                soc.memory_mut().set_allow_cke_off_all(now, rng.chance(0.5));
            }
            6 => {
                for mc in soc.memory_mut().iter_mut() {
                    mc.set_allow_self_refresh(true);
                    mc.enter_self_refresh(now);
                }
            }
            7 => {
                for mc in soc.memory_mut().iter_mut() {
                    mc.wake(now);
                }
            }
            8 => {
                let plls = soc.plls_mut();
                if rng.chance(0.5) {
                    plls.power_off_uncore(now);
                } else {
                    plls.begin_relock_uncore(now);
                    plls.complete_relock_uncore(now);
                }
            }
            _ => {
                let _ = soc.clm_mut();
            }
        }
    }

    /// Drives drawn core, busy and uncore changes through a node and checks
    /// the cached level against a full recomputation after every step.
    fn check_cached_level(soc: SocConfig, steps: usize, seed: u64) {
        let mut config = ServerConfig::c_pc1a();
        config.soc = soc;
        let mut node = ServerState::new(config);
        let mut running = vec![false; node.soc.cores().len()];
        let mut power = PowerTelemetry::new(0, None);
        let mut rng = SimRng::from_seed(seed);
        let mut now = SimTime::ZERO;
        for step in 0..steps {
            // Several changes between two reads, of one domain or of many.
            for _ in 0..1 + rng.index(3) {
                now += SimDuration::from_nanos(1 + rng.index(5_000) as u64);
                match rng.index(3) {
                    0 => step_core(&mut node, &mut rng, now),
                    1 => step_busy(&mut node, &mut running, &mut rng),
                    _ => step_uncore(&mut node, &mut rng, now),
                }
            }
            assert_eq!(
                *power.level(&node),
                node.power_level(),
                "step {step} (seed {seed})"
            );
        }
    }

    #[test]
    fn cached_level_matches_a_recompute_on_10_cores() {
        for seed in 0..10 {
            check_cached_level(SocConfig::xeon_silver_4114(), 2_000, seed);
        }
    }

    #[test]
    fn cached_level_matches_a_recompute_on_48_cores() {
        // More cores than a 2-bit-per-core word holds: the per-domain keys
        // need no such limit.
        for seed in 0..5 {
            check_cached_level(SocConfig::small_test(48), 2_000, seed);
        }
    }
}
