//! Single-event-loop cluster simulation: N complete server nodes plus a
//! load balancer.
//!
//! Where [`crate::fleet::Fleet`] runs *independent* server simulations (one
//! event loop each, no cross-server interaction), a [`ClusterSimulation`]
//! hosts every node inside **one** [`Simulation`]: one cluster-level arrival
//! stream feeds a [`Balancer`] component that routes each request to a
//! node's NIC according to a pluggable [`RoutingPolicy`]. This is the layer
//! where routing policy — the thing that *creates* each server's idle-period
//! distribution — becomes studyable: the same offered load produces entirely
//! different per-node idle-period distributions (and therefore PC1A savings)
//! under spreading vs. packing policies.
//!
//! # Determinism
//!
//! A cluster run is exactly reproducible: node components draw from streams
//! forked off each node's own seed (see [`crate::node::ServerNode`]), the
//! balancer from the cluster seed's `"balancer"` stream, and the arrival
//! stream from the cluster loadgen's seed. A **1-node cluster replays a
//! standalone [`crate::sim::ServerSimulation`] bit-for-bit** when node
//! config and loadgen seed match — the regression test
//! `crates/server/tests/cluster.rs` pins this.
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
use apc_sim::component::Simulation;
use apc_sim::rng::SimRng;
use apc_sim::{SimDuration, SimTime};
use apc_trace::{ProfileReport, TraceLog, TraceState};
use apc_workloads::loadgen::LoadGenerator;
use apc_workloads::spec::WorkloadSpec;

use crate::balancer::{Balancer, RoutingPolicy, RoutingPolicyKind};
use crate::components::fabric::{Fabric, FabricState};
use crate::components::state::ClusterState;
use crate::components::ServerEvent;
use crate::config::ServerConfig;
use crate::fleet::{Fleet, FleetResult, Pool, PoolMember};
use crate::node::{NodeHandles, ServerNode};

/// N complete servers and a load balancer sharing one event loop.
pub struct ClusterSimulation {
    sim: Simulation<ServerEvent, ClusterState>,
    nodes: Vec<NodeHandles>,
    balancer: Rc<RefCell<Balancer>>,
    end_at: SimTime,
    profile: bool,
}

impl ClusterSimulation {
    /// Builds a cluster of one node per config, balancing `loadgen`'s
    /// arrival stream across them through `policy`.
    ///
    /// `seed` is the cluster-level seed: it feeds the balancer's private
    /// stream (randomised policies draw from it). Node components draw from
    /// their own config's seed and the arrival stream from the loadgen's, so
    /// a 1-node cluster whose node config and loadgen seed match a
    /// standalone server reproduces it exactly.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the configs disagree on duration
    /// (every node must share the measurement horizon).
    #[must_use]
    pub fn new(
        seed: u64,
        configs: Vec<ServerConfig>,
        policy: Box<dyn RoutingPolicy>,
        loadgen: LoadGenerator,
    ) -> Self {
        Self::with_network(seed, configs, policy, loadgen, None)
    }

    /// Like [`ClusterSimulation::new`], additionally routing every balancer
    /// deposit through a network fabric (see [`crate::components::fabric`]).
    ///
    /// `None` — or an [instantaneous](NetworkConfig::is_instantaneous)
    /// configuration such as [`NetworkConfig::ideal`] — is **bit-identical**
    /// to the fabric-less path: requests deposit synchronously in the exact
    /// pre-fabric order (`crates/server/tests/network_differential.rs` pins
    /// this op-for-op).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the configs disagree on duration.
    #[must_use]
    pub fn with_network(
        seed: u64,
        configs: Vec<ServerConfig>,
        policy: Box<dyn RoutingPolicy>,
        loadgen: LoadGenerator,
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
        // Each node's recorded `offered_rate` is the *nominal* per-node share
        // of the cluster rate (total / N), mirroring how a standalone server
        // records its loadgen's nominal rate. Non-uniform policies route more
        // or less than this to individual nodes — the actual census is
        // [`ClusterResult::routed`] (divide by the duration for the achieved
        // per-node offered rate).
        let per_node_rate = loadgen.rate_per_sec() / node_count as f64;
        for node in &mut state.nodes {
            node.workload_name = loadgen.spec().name;
            node.offered_rate = per_node_rate;
            node.network_rtt = loadgen.spec().network_rtt;
        }
        let first_arrival = loadgen.peek_next_arrival();

        let mut sim = Simulation::new(seed, state);
        let builders: Vec<ServerNode> = (0..node_count).map(ServerNode::new).collect();
        let nodes: Vec<NodeHandles> = builders
            .iter()
            .map(|b| b.register(&mut sim, None))
            .collect();
        let balancer = Rc::new(RefCell::new(Balancer::new(loadgen, policy, node_count)));
        let balancer_id = sim.add_component("balancer", Rc::clone(&balancer));
        // Each node's observers are scoped to the node's own components (see
        // `ServerNode::register`); subscribe the power observers to the
        // balancer too, since an arrival deposits into a node's NIC buffer —
        // the instant a standalone server would account through its own
        // `ClientArrival`. The package observers stay unsubscribed: a
        // balancer event only touches a NIC buffer, which none of the
        // package-state inputs read, so their hooks would record a
        // same-state no-op transition (the range check in
        // `PackageController::on_post_dispatch` guards the same invariant).
        // The fabric component registers even without a `[network]`
        // configuration: registration forks its RNG stream by name (a pure
        // function that perturbs no other stream) and an absent fabric never
        // receives an event, so the no-network event sequence is untouched.
        // A deferred `WireDeliver` deposits into a node's NIC buffer just
        // like a balancer arrival, so the power observers watch it too.
        let fabric_id = sim.add_component("fabric", Fabric);
        for handles in &nodes {
            sim.add_observer_target(handles.power, balancer_id);
            sim.add_observer_target(handles.power, fabric_id);
        }
        sim.shared_mut().fabric =
            network.map(|config| FabricState::new(config, node_count, fabric_id));
        sim.shared_mut().trace = trace_config
            .map(|config| TraceState::new(config, SimRng::from_seed(seed).fork("trace-sampler")));
        if profile {
            sim.enable_event_profile(ServerEvent::KIND_COUNT, ServerEvent::kind);
        }
        // Bootstrap in the standalone order: the first arrival, then every
        // node's background timers / initial idle entries / power sampling.
        sim.schedule(balancer_id, first_arrival, ServerEvent::ClusterArrival);
        for (builder, handles) in builders.iter().zip(&nodes) {
            builder.bootstrap(&mut sim, handles);
        }

        ClusterSimulation {
            sim,
            nodes,
            balancer,
            end_at,
            profile,
        }
    }

    /// Number of server nodes in the cluster.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to the shared cluster state (for tests and tracing).
    #[must_use]
    pub fn state(&self) -> &ClusterState {
        self.sim.shared()
    }

    /// The underlying component simulation (for tests and tracing).
    #[must_use]
    pub fn simulation(&self) -> &Simulation<ServerEvent, ClusterState> {
        &self.sim
    }

    /// Runs the cluster to the horizon and reduces per-node telemetry into a
    /// [`ClusterResult`].
    #[must_use]
    pub fn run(mut self) -> ClusterResult {
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
            .nodes
            .iter()
            .map(|handles| handles.collect_result(self.sim.shared_mut(), end))
            .collect();
        let trace = self.sim.shared_mut().trace.take().map(TraceState::into_log);
        let balancer = self.balancer.borrow();
        ClusterResult {
            policy: balancer.policy_name(),
            routed: balancer.routed().to_vec(),
            duration: self.end_at.saturating_since(SimTime::ZERO),
            events_dispatched,
            network,
            trace,
            profile,
            nodes: FleetResult { runs },
        }
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
    /// dispatch hooks, handlers).
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
        let total = self.total_routed();
        if total == 0 || self.routed.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.routed.len() as f64;
        let max = self.routed.iter().copied().max().unwrap_or(0) as f64;
        max / mean
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
    /// [`ClusterSimulation::with_network`]).
    #[must_use]
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = Some(network);
        self
    }

    /// Builds and runs the cluster to completion.
    #[must_use]
    pub fn run(self) -> ClusterResult {
        let loadgen = LoadGenerator::new(self.spec, self.total_rate_per_sec, self.seed);
        ClusterSimulation::with_network(
            self.seed,
            self.nodes,
            self.policy.build(),
            loadgen,
            self.network,
        )
        .run()
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
/// parallel run is bit-identical to [`Pool::run_sequential`].
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
