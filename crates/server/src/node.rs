//! Embeddable server node: registers one complete server's components into
//! a cluster's [`Simulation`].
//!
//! [`crate::cluster::ClusterSimulation`] registers one [`ServerNode`] per
//! node (plus its front component, the load balancer or the chain
//! coordinator) over a [`ClusterState`]; a single server is the 1-node
//! case. Registration, bootstrap scheduling and result extraction are the
//! same for every node.
//!
//! # Determinism across embeddings
//!
//! Component registration names must be unique within a simulation, so
//! nodes register under prefixed names (`"node 1 nic"`, …). RNG streams,
//! however, are derived from the **node's own seed** by the *unprefixed*
//! label (`"nic"`, `"core 3"`, `"bootstrap"`) via
//! [`Simulation::add_component_with_stream`] — a pure function of
//! `(seed, label)` — so a node draws the same streams whatever its index
//! and whatever else shares its cluster.
//!
//! # Accounting around node events
//!
//! Every node component is registered inside one generic wrapper whose
//! handler charges the node's energy meter up to the event's instant
//! ([`ServerState::charge`]) before the component runs, and records the
//! node's package C-state ([`ServerState::settle`]) after it. `settle`
//! returns whether some core is active, and the wrapper publishes that as
//! the node's awake bit in the cluster's [`RoutingIndex`]. Only the node's
//! own events can move its power, package state or awake flag, so
//! bracketing exactly those events accounts energy and residency at the
//! instants they change, at the cost of the node's events alone. A
//! cluster's front and fabric stay unwrapped: they at most deposit into NIC
//! buffers.
//!
//! [`ServerState::charge`]: crate::components::state::ServerState::charge
//! [`ServerState::settle`]: crate::components::state::ServerState::settle
//! [`RoutingIndex`]: crate::components::state::RoutingIndex

use std::cell::RefCell;
use std::rc::Rc;

use apc_pmu::governor::IdleGovernor;
use apc_sim::component::{ComponentId, EventHandler, Simulation, SimulationContext};
use apc_sim::rng::SimRng;
use apc_sim::{SimDuration, SimTime};
use apc_soc::cstate::{CoreCState, PackageCState};

use crate::components::core_exec::CoreExec;
use crate::components::nic::NicArrival;
use crate::components::package::PackageController;
use crate::components::scheduler::Scheduler;
use crate::components::state::ClusterState;
use crate::components::timeseries::TimeSeriesSampler;
use crate::components::{Addresses, ServerEvent};
use crate::result::RunResult;

/// Builder that registers one server node's components into a cluster's
/// simulation. See the [module docs](self) for the naming/seeding scheme.
pub struct ServerNode {
    index: usize,
    prefix: String,
}

/// Handles to one registered node: its peer addresses and the package
/// controller (whose FSM statistics the run result needs).
pub struct NodeHandles {
    /// The node's index in [`ClusterState::nodes`].
    pub index: usize,
    /// Component ids of the node's components.
    pub addrs: Addresses,
    /// The time-series sampler's id, when the node's configuration enables
    /// time-series telemetry.
    pub timeseries: Option<ComponentId>,
    /// The node's package controller (APMU/GPMU stats live here).
    pub package: Rc<RefCell<PackageController>>,
}

impl ServerNode {
    /// A builder for node `index`; components are registered under
    /// `"node {index} "`-prefixed names.
    #[must_use]
    pub fn new(index: usize) -> Self {
        ServerNode {
            index,
            prefix: format!("node {index} "),
        }
    }

    /// Registers `handler` as one of this node's components, inside the
    /// accounting wrapper (see the [module docs](self)).
    fn add(
        &self,
        sim: &mut Simulation<ServerEvent, ClusterState>,
        base: &str,
        handler: impl EventHandler<ServerEvent, ClusterState> + 'static,
        streams: &SimRng,
    ) -> ComponentId {
        let accounted = Accounted {
            node: self.index,
            inner: handler,
        };
        let name = self.prefix.clone() + base;
        sim.add_component_with_stream(name, accounted, streams.fork(base))
    }

    /// Registers the node's component kinds (package, scheduler, NIC, one
    /// executor per core, and the time-series sampler when enabled) with
    /// `sim` and fills the node's [`Addresses`] in the shared state. The
    /// NIC's requests are deposited by the cluster's front component (or
    /// the fabric, for requests with wire delay).
    ///
    /// The node's configuration is read from its [`ServerState`] in
    /// `sim.shared()`, which must already hold a state for this index.
    ///
    /// [`ServerState`]: crate::components::state::ServerState
    pub fn register(&self, sim: &mut Simulation<ServerEvent, ClusterState>) -> NodeHandles {
        let (seed, platform, noise, timeseries_every, cores) = {
            let node = &sim.shared().nodes[self.index];
            (
                node.config.seed,
                node.config.platform.clone(),
                node.config.noise.clone(),
                node.config.timeseries_interval.filter(|d| !d.is_zero()),
                node.soc.cores().len(),
            )
        };
        let streams = SimRng::from_seed(seed);

        let package = Rc::new(RefCell::new(PackageController::new(
            self.index,
            platform.package_policy,
            platform.package_cstate_limit(),
        )));
        let package_id = self.add(sim, "package", Rc::clone(&package), &streams);
        let scheduler = self.add(sim, "scheduler", Scheduler::new(self.index), &streams);
        let nic = self.add(sim, "nic", NicArrival::new(self.index), &streams);
        let core_ids = (0..cores)
            .map(|i| {
                let governor = IdleGovernor::new(&platform);
                let core = CoreExec::new(self.index, i, governor, noise.clone());
                self.add(sim, &format!("core {i}"), core, &streams)
            })
            .collect();
        let timeseries = timeseries_every.map(|every| {
            let sampler = TimeSeriesSampler::new(self.index, every);
            self.add(sim, "timeseries", sampler, &streams)
        });
        let addrs = Addresses {
            nic,
            scheduler,
            package: package_id,
            cores: core_ids,
        };

        sim.shared_mut().nodes[self.index].addrs = addrs.clone();
        NodeHandles {
            index: self.index,
            addrs,
            timeseries,
            package,
        }
    }

    /// Schedules the node's bootstrap events: one background timer per core
    /// (offsets drawn from the node-seed `"bootstrap"` stream so component
    /// streams stay stable), an immediate idle entry for every booted core,
    /// and the first time-series sample when the series is enabled.
    ///
    /// The *arrival* bootstrap is the driver's job (the front component's
    /// first `ClusterArrival` / `ChainArrival`) and must be scheduled
    /// **before** this call to keep the historical same-timestamp event
    /// order.
    pub fn bootstrap(
        &self,
        sim: &mut Simulation<ServerEvent, ClusterState>,
        handles: &NodeHandles,
    ) {
        let (seed, noise, cores) = {
            let node = &sim.shared().nodes[self.index];
            (
                node.config.seed,
                node.config.noise.clone(),
                node.soc.cores().len(),
            )
        };
        if let Some(noise) = noise {
            let mut boot_rng = SimRng::from_seed(seed).fork("bootstrap");
            for i in 0..cores {
                let at = SimTime::ZERO + noise.sample_interval(&mut boot_rng);
                sim.shared_mut().nodes[self.index].sched.next_background_at[i] = at;
                sim.schedule(handles.addrs.cores[i], at, ServerEvent::BackgroundTick);
            }
        }
        for i in 0..cores {
            sim.schedule(handles.addrs.cores[i], SimTime::ZERO, ServerEvent::InitIdle);
        }
        if let Some(timeseries) = handles.timeseries {
            sim.schedule(timeseries, SimTime::ZERO, ServerEvent::TimeSeriesSample);
        }
    }
}

/// A node component inside the node's accounting: charges the node's energy
/// meter before each of the component's events, and after it settles its
/// package state and publishes its awake bit (see the [module docs](self)).
struct Accounted<H> {
    node: usize,
    inner: H,
}

impl<H: EventHandler<ServerEvent, ClusterState>> EventHandler<ServerEvent, ClusterState>
    for Accounted<H>
{
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        shared.nodes[self.node].charge(now);
        self.inner.on_event(event, shared, ctx);
        let awake = shared.nodes[self.node].settle(now);
        shared.routing.set_awake(self.node, awake);
    }
}

impl NodeHandles {
    /// Closes the node's telemetry at `end` and reduces it into a
    /// [`RunResult`].
    #[must_use]
    pub fn collect_result(&self, shared: &mut ClusterState, end: SimTime) -> RunResult {
        let package = self.package.borrow();
        let apmu_stats = package.apmu().stats();
        let pc6_entries = package.gpmu().pc6_entries();
        drop(package);

        let state = &mut shared.nodes[self.index];
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
            completed_requests: state.telemetry.completed_requests,
            latency: state.telemetry.latency.summary(),
            latency_sketch: state.telemetry.latency.sketch().clone(),
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
            idle_periods_20_200us: state
                .telemetry
                .idle_tracker
                .fraction_between(SimDuration::from_micros(20), SimDuration::from_micros(200)),
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
