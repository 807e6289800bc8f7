//! The full-system server simulation: a thin driver over the component
//! architecture.
//!
//! [`ServerSimulation`] is the single-server (1-node) instance of the
//! embeddable-node design: it owns a [`Simulation`] whose shared state is
//! one [`ServerState`], registers that node's components through
//! [`crate::node::ServerNode`], bootstraps the initial events and runs the
//! event loop to the configured horizon. All simulation behaviour lives in
//! the components of [`crate::components`]; this module only wires them
//! together and reduces the shared telemetry into a [`RunResult`]. The
//! N-node counterpart hosting several servers plus a front component (load
//! balancer or chain coordinator) in one event loop is
//! [`crate::cluster::ClusterSimulation`].

use apc_sim::component::Simulation;
use apc_sim::rng::SimRng;
use apc_sim::SimTime;
use apc_trace::TraceState;
use apc_workloads::loadgen::LoadGenerator;

use crate::components::state::ServerState;
use crate::components::{profile_report, ServerEvent};
use crate::config::ServerConfig;
use crate::node::{NodeHandles, ServerNode};
use crate::result::RunResult;

/// The full-system simulation of one server.
pub struct ServerSimulation {
    sim: Simulation<ServerEvent, ServerState>,
    node: NodeHandles,
    end_at: SimTime,
    profile: bool,
}

impl ServerSimulation {
    /// Builds a simulation for `config` driving `loadgen`.
    #[must_use]
    pub fn new(config: ServerConfig, loadgen: LoadGenerator) -> Self {
        let mut state = ServerState::new(config);
        state.workload_name = loadgen.spec().name;
        state.offered_rate = loadgen.rate_per_sec();
        state.network_rtt = loadgen.spec().network_rtt;
        // Request tracing draws sampling decisions from a dedicated fork of
        // the experiment seed, so enabling it perturbs no component stream.
        state.telemetry.trace = state.config.trace.map(|trace| {
            TraceState::new(
                trace,
                SimRng::from_seed(state.config.seed).fork("trace-sampler"),
            )
        });
        let profile = state.config.profile;
        let end_at = SimTime::ZERO + state.config.duration;
        let seed = state.config.seed;
        let first_arrival = loadgen.peek_next_arrival();

        let mut sim = Simulation::new(seed, state);
        if profile {
            sim.enable_event_profile(ServerEvent::KIND_COUNT, ServerEvent::kind);
        }
        let builder = ServerNode::standalone();
        let node = builder.register(&mut sim, Some(loadgen));
        // Bootstrap order (first client arrival, then the node's background
        // timers / initial idle entries / time series) is part of the
        // deterministic event sequence — see `ServerNode::bootstrap`.
        sim.schedule(node.addrs.nic, first_arrival, ServerEvent::ClientArrival);
        builder.bootstrap(&mut sim, &node);

        ServerSimulation {
            sim,
            node,
            end_at,
            profile,
        }
    }

    /// Runs the simulation to completion and returns the result.
    #[must_use]
    pub fn run(self) -> RunResult {
        self.run_into_state().0
    }

    /// Runs the simulation to completion and returns the result together
    /// with the final shared state (queues, telemetry).
    #[must_use]
    pub fn run_into_state(mut self) -> (RunResult, ServerState) {
        let dispatched = self.sim.run_until(self.end_at);
        let mut result = self.node.collect_result(self.sim.shared_mut(), self.end_at);
        result.events_dispatched = dispatched;
        if self.profile {
            result.profile = Some(profile_report(
                self.sim.queue_counters(),
                self.sim.event_profile(),
            ));
        }
        (result, self.sim.into_shared())
    }

    /// Read access to the shared state (for tests and tracing).
    #[must_use]
    pub fn state(&self) -> &ServerState {
        self.sim.shared()
    }

    /// The underlying component simulation (for tests and tracing).
    #[must_use]
    pub fn simulation(&self) -> &Simulation<ServerEvent, ServerState> {
        &self.sim
    }
}

/// Convenience: run one workload at one rate under one configuration.
#[must_use]
pub fn run_experiment(
    config: ServerConfig,
    spec: apc_workloads::spec::WorkloadSpec,
    rate_per_sec: f64,
) -> RunResult {
    let seed = config.seed;
    let loadgen = LoadGenerator::new(spec, rate_per_sec, seed);
    ServerSimulation::new(config, loadgen).run()
}
