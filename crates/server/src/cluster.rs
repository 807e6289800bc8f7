//! The simulation driver: N complete server nodes plus the component at the
//! cluster's front, in one event loop.
//!
//! A [`ClusterSimulation`] hosts every node inside **one** [`Simulation`],
//! fed by a [`ClusterFront`] that owns the cluster's arrival process and
//! routes work into node NIC buffers through a pluggable [`RoutingPolicy`].
//! It is the only driver: a single server (every
//! [`crate::fleet::FleetMember`], and so [`crate::sim::run_experiment`]) is
//! a 1-node cluster behind a round-robin [`Balancer`], and a
//! [`crate::fleet::Fleet`] runs many of those independently. Two fronts
//! exist:
//!
//! * the [`Balancer`] routes one stream of independent requests and reduces
//!   to a [`ClusterResult`];
//! * the [`ChainCoordinator`] fans multi-tier request chains out across the
//!   nodes, joins them and reduces to a [`ChainResult`].
//!
//! This is the layer where routing policy — the thing that *creates* each
//! server's idle-period distribution — becomes studyable: the same offered
//! load produces entirely different per-node idle-period distributions (and
//! therefore PC1A savings) under spreading vs. packing policies.
//!
//! [`RoutingPolicy`]: crate::balancer::RoutingPolicy
//! [`ChainCoordinator`]: crate::chain::ChainCoordinator
//! [`ChainResult`]: crate::chain::ChainResult
//!
//! # Determinism
//!
//! A cluster run is exactly reproducible: nodes draw from streams forked
//! off each node's own seed (see [`crate::node::Node`]), the
//! front from the cluster seed's stream named after it (`"balancer"` or
//! `"chain-coordinator"`), and the arrival stream from the front's own seed
//! (the cluster loadgen's, or the cluster seed's `"chain-loadgen"` stream).
//! With one node every routing policy picks node 0, so a 1-node balanced
//! cluster gives the same result under every policy — the test
//! `crates/server/tests/cluster.rs` pins this against
//! [`crate::sim::run_experiment`].
//!
//! # Example
//!
//! ```
//! use apc_server::balancer::RoutingPolicyKind;
//! use apc_server::cluster::run_cluster_experiment;
//! use apc_server::config::ServerConfig;
//! use apc_sim::SimDuration;
//! use apc_workloads::spec::WorkloadSpec;
//!
//! let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(20));
//! let result = run_cluster_experiment(
//!     &base,
//!     4,
//!     RoutingPolicyKind::JoinShortestQueue,
//!     WorkloadSpec::memcached_etc(),
//!     40_000.0, // cluster-aggregate rate
//! );
//! assert_eq!(result.nodes.servers(), 4);
//! assert_eq!(result.total_routed(), result.routed.iter().sum::<u64>());
//! ```

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use apc_network::{NetworkConfig, NetworkStats};
use apc_sim::component::{EventHandler, Simulation};
use apc_sim::rng::SimRng;
use apc_sim::{SimDuration, SimTime};
use apc_trace::{ProfileReport, TraceLog, TraceState};
use apc_workloads::loadgen::LoadGenerator;
use apc_workloads::spec::WorkloadSpec;

use crate::balancer::{routing_imbalance, Balancer, RoutingPolicyKind};
use crate::components::fabric::{Fabric, FabricState};
use crate::components::state::{ClusterState, ServerState};
use crate::components::ServerEvent;
use crate::config::ServerConfig;
use crate::fleet::{Fleet, FleetResult, Pool, PoolMember};
use crate::node::Node;

/// The component at a cluster's front: it owns the cluster's arrival
/// process and routes work into node NIC buffers. [`ClusterSimulation`]
/// supplies everything else — the nodes, the fabric, tracing, profiling and
/// the front-independent part of the result.
pub trait ClusterFront: EventHandler<ServerEvent, ClusterState> + 'static {
    /// Registration name. The front's component stream, which randomised
    /// routing policies draw from, forks from the cluster seed by this name.
    const NAME: &'static str;

    /// What a run reduces to.
    type Output;

    /// Labels every node with the workload name, nominal offered rate and
    /// client RTT its [`crate::result::RunResult`] reports.
    fn describe_nodes(&self, nodes: &mut [ServerState]);

    /// The front's first arrival: its instant and the event kind the front
    /// handles it as.
    fn first_arrival(&self) -> (SimTime, ServerEvent);

    /// Reduces the front's telemetry and the shared part of the run into the
    /// result. Called once, after the horizon.
    fn finish(&mut self, run: ClusterRun) -> Self::Output;
}

/// The part of a cluster run's result that does not depend on its front.
#[derive(Debug)]
pub struct ClusterRun {
    /// The simulated duration.
    pub duration: SimDuration,
    /// Total simulation events dispatched by the run's single event loop
    /// (every node plus the front and fabric).
    pub events_dispatched: u64,
    /// Wire-delay statistics of the network fabric, when one was configured.
    pub network: Option<NetworkStats>,
    /// Span log of head-sampled requests, when tracing was configured.
    pub trace: Option<TraceLog>,
    /// Engine self-profile, when profiling was configured.
    pub profile: Option<ProfileReport>,
    /// Per-node results in node order.
    pub nodes: FleetResult,
}

/// N complete servers and a front component sharing one event loop.
pub struct ClusterSimulation<F> {
    sim: Simulation<ServerEvent, ClusterState>,
    front: Rc<RefCell<F>>,
    end_at: SimTime,
    profile: bool,
}

impl<F: ClusterFront> ClusterSimulation<F> {
    /// Builds a cluster of one node per config, fed by `front`.
    ///
    /// `seed` is the cluster-level seed: the front's component stream forks
    /// from it by [`ClusterFront::NAME`], and the request-trace sampler by
    /// `"trace-sampler"`. Nodes draw from their own config's seed.
    ///
    /// `network` routes every front deposit — and every chain leaf's
    /// completion report — through a network fabric (see
    /// [`crate::components::fabric`]). `None`, or an
    /// [instantaneous](NetworkConfig::is_instantaneous) configuration such as
    /// [`NetworkConfig::ideal`], is **bit-identical** to the fabric-less
    /// path: requests deposit synchronously in the exact pre-fabric order
    /// (`crates/server/tests/network_differential.rs` pins this op-for-op).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the configs disagree on duration
    /// (every node must share the measurement horizon).
    #[must_use]
    pub fn new(
        seed: u64,
        configs: Vec<ServerConfig>,
        front: F,
        network: Option<NetworkConfig>,
    ) -> Self {
        assert!(!configs.is_empty(), "a cluster needs at least one node");
        let duration = configs[0].duration;
        assert!(
            configs.iter().all(|c| c.duration == duration),
            "every cluster node must share one measurement duration"
        );
        let node_count = configs.len();
        let end_at = SimTime::ZERO + duration;
        // Observability is a cluster-level concern (one sampler, one span
        // log, one event loop to profile): the first node's config decides.
        let trace_config = configs[0].trace;
        let profile = configs[0].profile;

        let mut state = ClusterState::new(configs);
        front.describe_nodes(&mut state.nodes);
        let (first_at, first_arrival) = front.first_arrival();

        let mut sim = Simulation::new(seed, state);
        for i in 0..node_count {
            Node::register(&mut sim, i);
        }
        // A node accounts energy and residency around its own events only
        // (see `crate::node`). Front and fabric events deposit into NIC
        // buffers, which no accounting input reads: a node charges its
        // energy at its own events and at the horizon, which the integer
        // energy meter makes exactly what charging at every deposit as well
        // would meter.
        let front = Rc::new(RefCell::new(front));
        let front_id = sim.add_component(F::NAME, Rc::clone(&front));
        // The fabric component registers even without a `[network]`
        // configuration: registration forks its RNG stream by name (a pure
        // function that perturbs no other stream) and an absent fabric never
        // receives an event, so the no-network event sequence is untouched.
        let fabric_id = sim.add_component("fabric", Fabric);
        sim.shared_mut().fabric =
            network.map(|config| FabricState::new(config, node_count, fabric_id));
        sim.shared_mut().trace = trace_config
            .map(|config| TraceState::new(config, SimRng::from_seed(seed).fork("trace-sampler")));
        if profile {
            sim.enable_event_profile(ServerEvent::KIND_COUNT, ServerEvent::kind);
        }
        // Bootstrap order: the first arrival, then every node's background
        // timers / initial idle entries / time series.
        sim.schedule(front_id, first_at, first_arrival);
        for i in 0..node_count {
            Node::bootstrap(&mut sim, i);
        }

        ClusterSimulation {
            sim,
            front,
            end_at,
            profile,
        }
    }

    /// The underlying component simulation (for tests and tracing).
    #[must_use]
    pub fn simulation(&self) -> &Simulation<ServerEvent, ClusterState> {
        &self.sim
    }

    /// Runs the cluster to the horizon and reduces per-node telemetry and
    /// the front's own into the front's result.
    #[must_use]
    pub fn run(mut self) -> F::Output {
        let events_dispatched = self.sim.run_until(self.end_at);
        let end = self.end_at;
        let network = self
            .sim
            .shared()
            .fabric
            .as_ref()
            .map(|f| f.net.stats().clone());
        let profile = self.profile.then(|| {
            crate::components::profile_report(self.sim.queue_counters(), self.sim.event_profile())
        });
        let runs = self
            .sim
            .shared_mut()
            .nodes
            .iter_mut()
            .map(|state| Node::collect_result(state, end))
            .collect();
        let trace = self.sim.shared_mut().trace.take().map(TraceState::into_log);
        self.front.borrow_mut().finish(ClusterRun {
            duration: end.saturating_since(SimTime::ZERO),
            events_dispatched,
            network,
            trace,
            profile,
            nodes: FleetResult { runs },
        })
    }
}

/// The outcome of one cluster run: per-node results (with the fleet
/// aggregation helpers) plus the balancer's routing census.
///
/// Equality is exact per-metric equality, so two results compare equal only
/// when the underlying simulations were bit-identical — what the cluster
/// determinism tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResult {
    /// The routing policy that ran.
    pub policy: &'static str,
    /// Requests routed to each node, in node order.
    pub routed: Vec<u64>,
    /// The simulated duration.
    pub duration: SimDuration,
    /// Total simulation events dispatched by the run's single event loop
    /// (every node plus the balancer). The event core's workload size: wall
    /// time divided by this is the per-event cost of the whole stack (queue,
    /// accounting, handlers).
    pub events_dispatched: u64,
    /// Wire-delay statistics of the network fabric, when one was configured
    /// (`None` for the instantaneous-deposit path).
    pub network: Option<NetworkStats>,
    /// Span log of head-sampled requests, when tracing was configured (see
    /// [`crate::config::ServerConfig::trace`]; the first node's config
    /// decides for the cluster).
    pub trace: Option<TraceLog>,
    /// Engine self-profile, when profiling was configured (see
    /// [`crate::config::ServerConfig::profile`]).
    pub profile: Option<ProfileReport>,
    /// Per-node results in node order, with fleet-style aggregates.
    pub nodes: FleetResult,
}

impl ClusterResult {
    /// Total requests the balancer routed (≥ completed: requests still in
    /// flight at the horizon were routed but never finished).
    #[must_use]
    pub fn total_routed(&self) -> u64 {
        self.routed.iter().sum()
    }

    /// Total fully-idle periods observed across the nodes.
    #[must_use]
    pub fn total_idle_periods(&self) -> u64 {
        self.nodes.runs.iter().map(|r| r.idle_periods).sum()
    }

    /// Fraction of the cluster's fully-idle periods between 20 µs and 200 µs
    /// (the paper's Fig. 6(c) band), weighted by each node's period count.
    #[must_use]
    pub fn idle_periods_20_200us(&self) -> f64 {
        let total = self.total_idle_periods();
        if total == 0 {
            return 0.0;
        }
        self.nodes
            .runs
            .iter()
            .map(|r| r.idle_periods_20_200us * r.idle_periods as f64)
            .sum::<f64>()
            / total as f64
    }

    /// How unevenly the policy spread requests: max/mean routed per node
    /// (1.0 = perfectly even, N = everything on one of N nodes).
    #[must_use]
    pub fn routing_imbalance(&self) -> f64 {
        routing_imbalance(&self.routed)
    }
}

/// One line per node (routed share, throughput, power, PC1A residency), then
/// the cluster totals.
impl fmt::Display for ClusterResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.nodes.runs.iter().enumerate() {
            writeln!(
                f,
                "node {i:>3}: routed {:>8} {:>10.0} rps {:>7.1} W PC1A {:>5.1}% p99 {} p999 {}",
                self.routed.get(i).copied().unwrap_or(0),
                r.throughput(),
                r.avg_total_power().as_f64(),
                r.pc1a_residency * 100.0,
                r.latency.p99,
                r.latency.p999,
            )?;
        }
        write!(
            f,
            "cluster ({}): {} nodes {:>10.0} rps {:>7.1} W mean PC1A {:>5.1}% worst p99 {} p999 {}",
            self.policy,
            self.nodes.servers(),
            self.nodes.aggregate_throughput(),
            self.nodes.total_power_w(),
            self.nodes.mean_pc1a_residency() * 100.0,
            self.nodes.worst_p99(),
            self.nodes.worst_p999(),
        )
    }
}

/// A declarative, `Send` description of one cluster run — the cluster
/// counterpart of [`crate::fleet::FleetMember`], usable as a member of a
/// [`ClusterFleet`].
#[derive(Debug)]
pub struct ClusterMember {
    /// Per-node configurations (each carries its own seed).
    pub nodes: Vec<ServerConfig>,
    /// The routing policy to run.
    pub policy: RoutingPolicyKind,
    /// The workload of the cluster arrival stream.
    pub spec: WorkloadSpec,
    /// Cluster-aggregate offered rate (requests per second).
    pub total_rate_per_sec: f64,
    /// Cluster seed: balancer stream and arrival-stream seed.
    pub seed: u64,
    /// The network fabric every routed RPC crosses (`None` keeps the
    /// instantaneous-deposit path).
    pub network: Option<NetworkConfig>,
}

impl ClusterMember {
    /// A cluster of `n` nodes sharing `base`'s platform, with node seeds
    /// derived by the canonical [`Fleet::member_seed`] scheme from `base`'s
    /// seed, serving `spec` at cluster-aggregate `total_rate_per_sec` under
    /// `policy`.
    #[must_use]
    pub fn homogeneous(
        base: &ServerConfig,
        n: usize,
        policy: RoutingPolicyKind,
        spec: WorkloadSpec,
        total_rate_per_sec: f64,
    ) -> Self {
        ClusterMember {
            nodes: (0..n)
                .map(|i| base.clone().with_seed(Fleet::member_seed(base.seed, i)))
                .collect(),
            policy,
            spec,
            total_rate_per_sec,
            seed: base.seed,
            network: None,
        }
    }

    /// Routes every RPC of this cluster through `network` (see
    /// [`ClusterSimulation::new`]).
    #[must_use]
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = Some(network);
        self
    }

    /// Builds and runs the cluster to completion.
    #[must_use]
    pub fn run(self) -> ClusterResult {
        let loadgen = LoadGenerator::new(self.spec, self.total_rate_per_sec, self.seed);
        let balancer = Balancer::new(loadgen, self.policy.build(), self.nodes.len());
        ClusterSimulation::new(self.seed, self.nodes, balancer, self.network).run()
    }
}

impl PoolMember for ClusterMember {
    type Output = ClusterResult;
    type Results = Vec<ClusterResult>;

    fn run(self) -> ClusterResult {
        ClusterMember::run(self)
    }
}

/// A set of independent cluster simulations run as one experiment — e.g. the
/// same cluster under every routing policy, or a policy under every platform
/// configuration — on the deterministic worker pool of [`crate::fleet`]: a
/// parallel run is bit-identical to a sequential one (see [`Pool::run`]).
pub type ClusterFleet = Pool<ClusterMember>;

/// Convenience: run one homogeneous cluster experiment (see
/// [`ClusterMember::homogeneous`] for the seed-derivation scheme).
#[must_use]
pub fn run_cluster_experiment(
    base: &ServerConfig,
    n: usize,
    policy: RoutingPolicyKind,
    spec: WorkloadSpec,
    total_rate_per_sec: f64,
) -> ClusterResult {
    ClusterMember::homogeneous(base, n, policy, spec, total_rate_per_sec).run()
}
