//! Power and energy accounting component.

use apc_power::energy::PowerLevel;
use apc_sim::component::{EventHandler, SimulationContext};
use apc_sim::{SimDuration, SimTime};

use super::state::HasNode;
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
/// The power level is a pure function of three inputs: the uncore component
/// states, the per-core C-state vector and the busy-core count (which fixes
/// memory utilisation). The component caches the level, quantised to whole
/// nanowatts, keyed on all three — the SoC's
/// [`uncore_change_epoch`](apc_soc::topology::SkxSoc::uncore_change_epoch),
/// the injective
/// [`cstate_fingerprint`](apc_soc::core::CoreSet::cstate_fingerprint) and
/// `busy_cores()` — and recomputes only when a key moved; zero-length
/// intervals skip the level entirely. Equal keys guarantee a recompute
/// would reproduce the cached value bit for bit (same inputs through the
/// same float operations and the same quantiser), so both shortcuts
/// preserve the recompute-every-event accounting exactly. (A `None`
/// fingerprint — more cores than the encoding can hold — disables the cache
/// rather than risking a stale hit.)
///
/// When a sampling interval is configured the component also records an
/// instantaneous SoC power trace, useful for debugging entry/exit flows.
pub struct PowerTelemetry {
    node: usize,
    sample_every: Option<SimDuration>,
    /// `(uncore change-epoch, core C-state fingerprint, busy-core count,
    /// level)` as of the last recomputation; stale once any key differs from
    /// the node's current value.
    cached: Option<(u64, u64, usize, PowerLevel)>,
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
        let epoch = node.soc.uncore_change_epoch();
        let busy = node.sched.busy_cores();
        let level = match (node.soc.cores().cstate_fingerprint(), &self.cached) {
            (Some(fp), Some((e, f, b, cached))) if *e == epoch && *f == fp && *b == busy => cached,
            (Some(fp), _) => {
                self.cached = Some((epoch, fp, busy, node.power_level()));
                &self.cached.as_ref().expect("cache filled above").3
            }
            // Too many cores for the fingerprint: no caching, recompute.
            (None, _) => {
                self.cached = Some((epoch, 0, usize::MAX, node.power_level()));
                &self.cached.as_ref().expect("cache filled above").3
            }
        };
        node.telemetry.energy.advance(now, level);
    }
}
