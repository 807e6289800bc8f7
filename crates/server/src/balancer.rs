//! Cluster load balancer: the cluster-level arrival stream and pluggable
//! request-routing policies.
//!
//! The [`Balancer`] is the front component of a
//! [`crate::cluster::ClusterSimulation`] serving independent requests: it
//! owns the cluster's [`LoadGenerator`], draws each arriving request, asks
//! its [`RoutingPolicy`] for a destination node and deposits the request into
//! that node's NIC coalescing buffer. A single server is a 1-node cluster
//! behind a balancer, so routing is the *only* behavioural difference
//! between a node in a cluster and a server on its own. The chain
//! coordinator ([`crate::chain::ChainCoordinator`]) routes every RPC through
//! the same hand-off.
//!
//! Routing is what shapes the per-server idle-period distribution the
//! paper's PC1A savings depend on: spreading policies
//! ([`Random`], [`RoundRobin`], [`JoinShortestQueue`]) keep every node
//! lightly loaded with many short idle periods, while the packing
//! [`PowerAware`] policy concentrates load on already-awake nodes so the
//! rest accumulate long, deep package-idle residency.

use apc_sim::component::{EventHandler, SimulationContext};
use apc_sim::rng::SimRng;
use apc_sim::SimTime;
use apc_workloads::loadgen::LoadGenerator;
use apc_workloads::request::Request;

use crate::cluster::{ClusterFront, ClusterResult, ClusterRun};
use crate::components::fabric::deliver_routed;
use crate::components::state::{ClusterState, ServerState};
use crate::components::ServerEvent;

/// A request-routing policy: picks the destination node for each arriving
/// request.
///
/// Policies are *pluggable*: implement this trait to study custom routing.
/// The built-ins cover the classic datacenter spectrum ([`Random`],
/// [`RoundRobin`], [`JoinShortestQueue`]) plus the power-aware packing
/// policy ([`PowerAware`]) the paper's idle-period analysis motivates.
pub trait RoutingPolicy: Send {
    /// The policy's name as it appears in results and tables.
    fn name(&self) -> &'static str;

    /// Picks the node for the next request.
    ///
    /// `cluster` exposes every node's queues, core activity and package
    /// state, and each node's outstanding requests in O(1) through
    /// [`ClusterState::routing`]; `rng` is the balancer's private
    /// deterministic stream (so randomised policies never perturb node
    /// streams). Must return an index `< cluster.nodes.len()`.
    fn route(&mut self, cluster: &ClusterState, rng: &mut SimRng) -> usize;
}

/// Uniform random routing: each request goes to a node drawn uniformly from
/// the balancer's deterministic stream. The classic stateless baseline; it
/// spreads load (and wakes) evenly, fragmenting every node's idle time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Random;

impl RoutingPolicy for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn route(&mut self, cluster: &ClusterState, rng: &mut SimRng) -> usize {
        (rng.next_u64() % cluster.nodes.len() as u64) as usize
    }
}

/// Round-robin routing: node `i`, then `i + 1`, … wrapping around.
/// Deterministic spreading with perfectly even request counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundRobin {
    next: usize,
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, cluster: &ClusterState, _rng: &mut SimRng) -> usize {
        let target = self.next % cluster.nodes.len();
        self.next = target + 1;
        target
    }
}

/// Join-shortest-queue: each request goes to the node with the fewest
/// outstanding client requests (buffered, queued, reserved or in service;
/// see [`ClusterState::routing`]), lowest index winning ties. The
/// latency-optimal greedy policy — and the most aggressive idle-period
/// fragmenter, since it preferentially wakes the most-idle node.
#[derive(Debug, Default, Clone, Copy)]
pub struct JoinShortestQueue;

impl RoutingPolicy for JoinShortestQueue {
    fn name(&self) -> &'static str {
        "join-shortest-queue"
    }

    fn route(&mut self, cluster: &ClusterState, _rng: &mut SimRng) -> usize {
        let pick = cluster.routing.least_loaded();
        debug_assert_eq!(Some(pick), scan_least_loaded(cluster, |_| true));
        pick
    }
}

/// Power-aware packing: prefer nodes that are already awake (some core
/// active), taking the least-loaded among them; only when every node is
/// package-idle does the request wake one (the least-loaded, lowest index —
/// in practice node 0). Load concentrates on few warm nodes, so the
/// remaining nodes see long unbroken idle periods and deep PC1A/PC6
/// residency — the routing-layer complement to the paper's fast package
/// C-state. Reads the awake bits and loads of [`ClusterState::routing`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PowerAware;

impl RoutingPolicy for PowerAware {
    fn name(&self) -> &'static str {
        "power-aware"
    }

    fn route(&mut self, cluster: &ClusterState, _rng: &mut SimRng) -> usize {
        let routing = &cluster.routing;
        let pick = routing
            .least_loaded_awake()
            .unwrap_or_else(|| routing.least_loaded());
        debug_assert_eq!(
            Some(pick),
            scan_least_loaded(cluster, ServerState::any_core_active)
                .or_else(|| scan_least_loaded(cluster, |_| true))
        );
        pick
    }
}

/// The lowest-index node with the fewest outstanding requests among those
/// `eligible` admits, found by scanning every node's [`ServerState`]: the
/// pick the routing index must reproduce (checked in debug builds).
fn scan_least_loaded(
    cluster: &ClusterState,
    eligible: impl Fn(&ServerState) -> bool,
) -> Option<usize> {
    (0..cluster.nodes.len())
        .filter(|&i| eligible(&cluster.nodes[i]))
        .min_by_key(|&i| cluster.nodes[i].outstanding_requests())
}

/// The built-in routing policies as a plain enum, for declarative cluster
/// specs that must be `Send + Clone` (scenario tables, parallel cluster
/// fleets). [`RoutingPolicyKind::build`] materialises the boxed policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicyKind {
    /// [`Random`].
    Random,
    /// [`RoundRobin`].
    RoundRobin,
    /// [`JoinShortestQueue`].
    JoinShortestQueue,
    /// [`PowerAware`].
    PowerAware,
}

impl RoutingPolicyKind {
    /// Every built-in policy, in presentation order.
    #[must_use]
    pub fn all() -> [RoutingPolicyKind; 4] {
        [
            RoutingPolicyKind::Random,
            RoutingPolicyKind::RoundRobin,
            RoutingPolicyKind::JoinShortestQueue,
            RoutingPolicyKind::PowerAware,
        ]
    }

    /// Builds the policy instance.
    #[must_use]
    pub fn build(self) -> Box<dyn RoutingPolicy> {
        match self {
            RoutingPolicyKind::Random => Box::new(Random),
            RoutingPolicyKind::RoundRobin => Box::new(RoundRobin::default()),
            RoutingPolicyKind::JoinShortestQueue => Box::new(JoinShortestQueue),
            RoutingPolicyKind::PowerAware => Box::new(PowerAware),
        }
    }

    /// The policy's display name (same as the built instance's
    /// [`RoutingPolicy::name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicyKind::Random => "random",
            RoutingPolicyKind::RoundRobin => "round-robin",
            RoutingPolicyKind::JoinShortestQueue => "join-shortest-queue",
            RoutingPolicyKind::PowerAware => "power-aware",
        }
    }
}

/// A routing policy plus its per-node census: the hand-off every cluster
/// front shares.
pub(crate) struct Router {
    policy: Box<dyn RoutingPolicy>,
    routed: Vec<u64>,
}

impl Router {
    /// A router over `nodes` nodes.
    pub(crate) fn new(policy: Box<dyn RoutingPolicy>, nodes: usize) -> Self {
        Router {
            policy,
            routed: vec![0; nodes],
        }
    }

    /// Routes `request` to a node, counts it and deposits it into that
    /// node's NIC through the fabric. The policy draws from `ctx`'s stream,
    /// the front component's own.
    pub(crate) fn send(
        &mut self,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
        request: Request,
    ) {
        let target = self.policy.route(shared, ctx.rng());
        debug_assert!(
            target < shared.nodes.len(),
            "policy {} routed to node {target} of {}",
            self.policy.name(),
            shared.nodes.len()
        );
        self.routed[target] += 1;
        deliver_routed(shared, ctx, target, request);
    }

    /// The policy's name and the requests routed to each node, in node
    /// order.
    pub(crate) fn census(&self) -> (&'static str, Vec<u64>) {
        (self.policy.name(), self.routed.clone())
    }
}

/// How unevenly a routing census spread its requests: max/mean per node
/// (1.0 = perfectly even, N = everything on one of N nodes).
pub(crate) fn routing_imbalance(routed: &[u64]) -> f64 {
    let total: u64 = routed.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / routed.len() as f64;
    let max = routed.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

/// The load-balancer component: generates the cluster arrival stream and
/// routes each request to a node's NIC.
///
/// With one node every policy routes to node 0, so a 1-node cluster — a
/// single server — runs the same event sequence whatever the policy.
/// When the cluster carries a network fabric the routed request first
/// crosses the wire (see [`crate::components::fabric`]); an instantaneous
/// fabric — or none — deposits synchronously through that same code path.
pub struct Balancer {
    loadgen: LoadGenerator,
    router: Router,
}

impl Balancer {
    /// Creates the balancer for a cluster of `nodes` nodes, driving
    /// `loadgen` (the cluster-level arrival stream) through `policy`.
    #[must_use]
    pub fn new(loadgen: LoadGenerator, policy: Box<dyn RoutingPolicy>, nodes: usize) -> Self {
        Balancer {
            loadgen,
            router: Router::new(policy, nodes),
        }
    }
}

impl EventHandler<ServerEvent, ClusterState> for Balancer {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        debug_assert!(matches!(event, ServerEvent::ClusterArrival));
        let _ = event;
        let mut request = self.loadgen.next_request();
        let next_arrival = self.loadgen.peek_next_arrival();
        // Cluster head-sampling site: the decision is drawn before routing
        // from the cluster's dedicated sampler stream, so a traced request's
        // span tree starts at the balancer whatever node it lands on.
        if let Some(trace) = shared.trace.as_mut() {
            if trace.sampler.sample() {
                let root = apc_trace::TraceCtx::root(request.id.0, request.arrival);
                request = request.with_trace(root);
            }
        }
        self.router.send(shared, ctx, request);
        ctx.emit_self_at(next_arrival, ServerEvent::ClusterArrival);
    }
}

impl ClusterFront for Balancer {
    const NAME: &'static str = "balancer";
    type Output = ClusterResult;

    /// Each node's recorded `offered_rate` is the *nominal* per-node share
    /// of the cluster rate (total / N): the loadgen's nominal rate for a
    /// single server. Non-uniform policies route more or less than this to
    /// individual nodes — the actual census is [`ClusterResult::routed`]
    /// (divide by the duration for the achieved per-node offered rate).
    fn describe_nodes(&self, nodes: &mut [ServerState]) {
        let per_node_rate = self.loadgen.rate_per_sec() / nodes.len() as f64;
        for node in nodes {
            node.workload_name = self.loadgen.spec().name;
            node.offered_rate = per_node_rate;
            node.network_rtt = self.loadgen.spec().network_rtt;
        }
    }

    fn first_arrival(&self) -> (SimTime, ServerEvent) {
        (
            self.loadgen.peek_next_arrival(),
            ServerEvent::ClusterArrival,
        )
    }

    fn finish(&mut self, run: ClusterRun) -> ClusterResult {
        let (policy, routed) = self.router.census();
        ClusterResult {
            policy,
            routed,
            duration: run.duration,
            events_dispatched: run.events_dispatched,
            network: run.network,
            trace: run.trace,
            profile: run.profile,
            nodes: run.nodes,
        }
    }
}
