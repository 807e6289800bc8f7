//! One server node, registered as one simulation component.
//!
//! [`crate::cluster::ClusterSimulation`] registers one [`Node`] per node
//! (plus its front component, the load balancer or the chain coordinator,
//! and the fabric) over a [`ClusterState`]; a single server is the 1-node
//! case. A node owns one executor per core and the optional time-series
//! sampler. Its state, the package controller and the telemetry its
//! result is reduced from included, is entry `index` of
//! [`ClusterState::nodes`], so the cluster needs no handle on the node.
//!
//! # Routing by kind
//!
//! Every [`ServerEvent`] kind has exactly one handler (see the enum's
//! notes), so the node hands each of its events to that handler by kind;
//! the core-directed kinds carry the core's index. A signal between the
//! node's parts is an event the node emits to itself. The event queue
//! orders events by (time, scheduling sequence) and never reads their
//! destination, so how a node's events are addressed changes no delivery
//! order.
//!
//! # Determinism across embeddings
//!
//! Each core draws its background noise from its own stream, forked off
//! the **node's own seed** by `"core {i}"`, and the bootstrap offsets come
//! from the node seed's `"bootstrap"` stream. [`SimRng::fork`] is a pure
//! function of `(seed, label)`, so a node draws the same streams whatever
//! its index and whatever else shares its cluster.
//!
//! # Accounting around node events
//!
//! The node's handler charges the node's energy meter up to the event's
//! instant ([`ServerState::charge`]) before the event's handler runs, and
//! records the node's package C-state ([`ServerState::settle`]) after it.
//! `settle` returns whether some core is active, and the node publishes
//! that as its awake bit in the cluster's [`RoutingIndex`]. Only the
//! node's own events can move its power, package state or awake flag, so
//! bracketing exactly those events accounts energy and residency at the
//! instants they change, at the cost of the node's events alone. A
//! cluster's front and fabric run no node accounting: they at most deposit
//! into NIC buffers.
//!
//! [`ServerState::charge`]: crate::components::state::ServerState::charge
//! [`ServerState::settle`]: crate::components::state::ServerState::settle
//! [`RoutingIndex`]: crate::components::state::RoutingIndex

use apc_pmu::governor::IdleGovernor;
use apc_sim::component::{ComponentId, EventHandler, Simulation, SimulationContext};
use apc_sim::rng::SimRng;
use apc_sim::SimTime;
use apc_soc::cstate::{CoreCState, PackageCState};
use apc_telemetry::latency::LatencySummary;

use crate::components::core_exec::CoreExec;
use crate::components::state::{ClusterState, ServerState};
use crate::components::timeseries::TimeSeriesSampler;
use crate::components::{nic, scheduler, ServerEvent};
use crate::result::RunResult;

/// The component id of node `index`. The cluster registers its nodes
/// first, in index order, so node `index` is component `index`
/// ([`Node::register`] asserts it).
pub(crate) fn component_id(index: usize) -> ComponentId {
    ComponentId::from_raw(index)
}

/// One complete server: the component that handles every event of one
/// node (see the [module docs](self)).
pub struct Node {
    index: usize,
    cores: Vec<CoreExec>,
    timeseries: Option<TimeSeriesSampler>,
}

impl Node {
    /// Builds node `index` from its configuration and registers it with
    /// `sim` as `"node {index}"`. Requests reach it through its NIC buffer,
    /// deposited by the cluster's front (or the fabric, for requests with
    /// wire delay).
    ///
    /// The node's configuration is read from its [`ServerState`] in
    /// `sim.shared()`, which must already hold a state for this index.
    ///
    /// # Panics
    ///
    /// Panics unless nodes `0..index` are the only components registered
    /// before it: a deposit addresses node `index` as component `index`.
    pub(crate) fn register(sim: &mut Simulation<ServerEvent, ClusterState>, index: usize) {
        let state = &sim.shared().nodes[index];
        let config = &state.config;
        let streams = SimRng::from_seed(config.seed);
        let cores = (0..state.soc.cores().len())
            .map(|i| {
                let governor = IdleGovernor::new(&config.platform);
                let rng = streams.fork(&format!("core {i}"));
                CoreExec::new(index, i, governor, config.noise.clone(), rng)
            })
            .collect();
        let node = Node {
            index,
            cores,
            timeseries: config
                .timeseries_interval
                .filter(|d| !d.is_zero())
                .map(TimeSeriesSampler::new),
        };
        let id = sim.add_component(format!("node {index}"), node);
        assert_eq!(id, component_id(index), "nodes register first, in order");
    }

    /// Schedules node `index`'s bootstrap events: one background timer per
    /// core (offsets drawn from the node-seed `"bootstrap"` stream so the
    /// cores' streams stay stable), an immediate idle entry for every
    /// booted core, and the first time-series sample when the series is
    /// enabled.
    ///
    /// The *arrival* bootstrap is the driver's job (the front component's
    /// first `ClusterArrival` / `ChainArrival`) and must be scheduled
    /// **before** this call to keep the historical same-timestamp event
    /// order.
    pub(crate) fn bootstrap(sim: &mut Simulation<ServerEvent, ClusterState>, index: usize) {
        let id = component_id(index);
        let state = &sim.shared().nodes[index];
        let (cores, sampled) = (
            state.soc.cores().len(),
            state.telemetry.timeseries.is_some(),
        );
        if let Some(noise) = state.config.noise.clone() {
            let mut boot_rng = SimRng::from_seed(state.config.seed).fork("bootstrap");
            for core in 0..cores {
                let at = SimTime::ZERO + noise.sample_interval(&mut boot_rng);
                sim.shared_mut().nodes[index].sched.next_background_at[core] = at;
                sim.schedule(id, at, ServerEvent::BackgroundTick { core });
            }
        }
        for core in 0..cores {
            sim.schedule(id, SimTime::ZERO, ServerEvent::InitIdle { core });
        }
        if sampled {
            sim.schedule(id, SimTime::ZERO, ServerEvent::TimeSeriesSample);
        }
    }

    /// Closes a node's telemetry at `end` and reduces its `state` into a
    /// [`RunResult`].
    #[must_use]
    pub(crate) fn collect_result(state: &mut ServerState, end: SimTime) -> RunResult {
        let apmu_stats = state.package.apmu_stats();
        let pc6_entries = state.package.pc6_entries();
        state.finish_telemetry(end);
        let cores = state.soc.cores().len() as f64;
        let util = state.telemetry.busy_core_time.as_secs_f64()
            / (state.config.duration.as_secs_f64() * cores);
        let cc1 = state
            .telemetry
            .core_residency
            .average_fraction_in(CoreCState::CC1)
            + state
                .telemetry
                .core_residency
                .average_fraction_in(CoreCState::CC1E);
        RunResult {
            config_name: state.config.platform.name,
            workload: state.workload_name,
            offered_rate: state.offered_rate,
            duration: state.config.duration,
            completed_requests: state.telemetry.latency.count(),
            latency: LatencySummary::of(&state.telemetry.latency),
            latency_sketch: state.telemetry.latency.clone(),
            avg_soc_power: state.telemetry.energy.average_soc_power(),
            avg_dram_power: state.telemetry.energy.average_dram_power(),
            cpu_utilization: util,
            cc0_fraction: state
                .telemetry
                .core_residency
                .average_fraction_in(CoreCState::CC0),
            cc1_fraction: cc1,
            cc6_fraction: state
                .telemetry
                .core_residency
                .average_fraction_in(CoreCState::CC6),
            all_idle_fraction: state.telemetry.idle_tracker.idle_fraction(),
            pc1a_residency: state
                .telemetry
                .package_residency
                .fraction_in(PackageCState::PC1A),
            pc6_residency: state
                .telemetry
                .package_residency
                .fraction_in(PackageCState::PC6),
            pc1a_transitions: apmu_stats.pc1a_entries,
            pc1a_aborted: apmu_stats.aborted_entries,
            pc6_transitions: pc6_entries,
            idle_periods: state.telemetry.idle_tracker.period_count(),
            idle_periods_20_200us: state.telemetry.idle_tracker.fraction_20_200us(),
            timeseries: state.telemetry.timeseries.take(),
            // The span log, the profile and the dispatch count belong to the
            // cluster's one event loop and live on the cluster-level result;
            // a single-server run moves them into its own result.
            trace: None,
            profile: None,
            events_dispatched: 0,
            finished_at: end,
        }
    }
}

/// Charges the node, hands the event to its one handler, then settles the
/// node and publishes its awake bit (see the [module docs](self)).
impl EventHandler<ServerEvent, ClusterState> for Node {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        let node = &mut shared.nodes[self.index];
        node.charge(now);
        let (package, soc) = (&mut node.package, &mut node.soc);
        match event {
            ServerEvent::NicDeliver => nic::on_nic_deliver(node, ctx),
            ServerEvent::Dispatch => scheduler::on_dispatch(node, ctx),
            ServerEvent::BackgroundTick { core } => self.cores[core].on_background_tick(node, ctx),
            ServerEvent::InitIdle { core } => self.cores[core].begin_idle(now, node, ctx),
            ServerEvent::BeginWake { core } => self.cores[core].on_begin_wake(node, ctx),
            ServerEvent::WakeDone { core, epoch } => {
                self.cores[core].on_wake_done(epoch, node, ctx);
            }
            ServerEvent::ServiceDone { core } => self.cores[core].on_service_done(shared, ctx),
            ServerEvent::IdleEntered { core, epoch } => {
                self.cores[core].on_idle_entered(epoch, node, ctx);
            }
            ServerEvent::PackageWake { cause } => package.on_package_wake(cause, soc, ctx),
            ServerEvent::CoreActive => package.on_core_active(soc),
            ServerEvent::AllIdleCheck => package.on_all_idle_check(soc, ctx),
            ServerEvent::StandbyDeadline => package.on_standby_deadline(soc, ctx),
            ServerEvent::ApmuEntryDone => package.on_apmu_entry_done(),
            ServerEvent::ApmuExitDone => package.on_apmu_exit_done(soc, ctx),
            ServerEvent::GpmuEntryDone => package.on_gpmu_entry_done(soc, ctx),
            ServerEvent::GpmuExitDone => package.on_gpmu_exit_done(soc, ctx),
            ServerEvent::TimeSeriesSample => {
                let sampler = self.timeseries.as_mut().expect("armed only with a sampler");
                sampler.on_sample(node, shared.routing.load(self.index), ctx);
            }
            front @ (ServerEvent::ClusterArrival
            | ServerEvent::WireDeliver { .. }
            | ServerEvent::ChainArrival
            | ServerEvent::ChainLeafDone { .. }) => {
                unreachable!("node {} received front event {front:?}", self.index)
            }
        }
        let awake = shared.nodes[self.index].settle(now);
        shared.routing.set_awake(self.index, awake);
    }
}
