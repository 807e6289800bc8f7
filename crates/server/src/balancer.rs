//! Cluster load balancer: the cluster-level arrival stream and the
//! request-routing policies.
//!
//! The [`Balancer`] is the front component of a
//! [`crate::cluster::ClusterSimulation`] serving independent requests: it
//! owns the cluster's [`LoadGenerator`], draws each arriving request, picks
//! a destination node under its [`RoutingPolicyKind`] and deposits the
//! request into that node's NIC coalescing buffer. A single server is a
//! 1-node cluster behind a balancer, so routing is the *only* behavioural
//! difference between a node in a cluster and a server on its own. The
//! chain coordinator ([`crate::chain::ChainCoordinator`]) routes every RPC
//! through the same hand-off.
//!
//! Routing is what shapes the per-server idle-period distribution the
//! paper's PC1A savings depend on: spreading policies
//! ([`RoutingPolicyKind::Random`], [`RoutingPolicyKind::RoundRobin`],
//! [`RoutingPolicyKind::JoinShortestQueue`]) keep every node lightly loaded
//! with many short idle periods, while the packing
//! [`RoutingPolicyKind::PowerAware`] policy concentrates load on
//! already-awake nodes so the rest accumulate long, deep package-idle
//! residency.

use apc_sim::component::{EventHandler, SimulationContext};
use apc_sim::rng::SimRng;
use apc_sim::SimTime;
use apc_workloads::loadgen::LoadGenerator;
use apc_workloads::request::Request;

use crate::cluster::{ClusterFront, ClusterResult, ClusterRun};
use crate::components::fabric::deliver_routed;
use crate::components::state::{ClusterState, ServerState};
use crate::components::ServerEvent;

/// A request-routing policy: how the front picks the destination node for
/// each arriving request. The classic datacenter spectrum plus the
/// power-aware packing policy the paper's idle-period analysis motivates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicyKind {
    /// Uniform random routing: each request goes to a node drawn uniformly
    /// from the front's deterministic stream. The classic stateless
    /// baseline; it spreads load (and wakes) evenly, fragmenting every
    /// node's idle time.
    Random,
    /// Round-robin routing: node `i`, then `i + 1`, … wrapping around.
    /// Deterministic spreading with perfectly even request counts.
    RoundRobin,
    /// Join-shortest-queue: each request goes to the node with the fewest
    /// outstanding client requests (buffered, queued, reserved or in
    /// service; see [`ClusterState::routing`]), lowest index winning ties.
    /// The latency-optimal greedy policy — and the most aggressive
    /// idle-period fragmenter, since it preferentially wakes the most-idle
    /// node.
    JoinShortestQueue,
    /// Power-aware packing: prefer nodes that are already awake (some core
    /// active), taking the least-loaded among them; only when every node is
    /// package-idle does the request wake one (the least-loaded, lowest
    /// index — in practice node 0). Load concentrates on few warm nodes, so
    /// the remaining nodes see long unbroken idle periods and deep PC1A/PC6
    /// residency — the routing-layer complement to the paper's fast package
    /// C-state. Reads the awake bits and loads of [`ClusterState::routing`].
    PowerAware,
}

impl RoutingPolicyKind {
    /// Every policy, in presentation order.
    #[must_use]
    pub fn all() -> [RoutingPolicyKind; 4] {
        [
            RoutingPolicyKind::Random,
            RoutingPolicyKind::RoundRobin,
            RoutingPolicyKind::JoinShortestQueue,
            RoutingPolicyKind::PowerAware,
        ]
    }

    /// The policy's name as it appears in results and tables.
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

/// Whether every routing-index pick is checked against a scan of the nodes
/// ([`scan_least_loaded`]): in debug builds, and in this crate's unit tests
/// in release builds too.
const CHECK_PICKS: bool = cfg!(any(debug_assertions, test));

/// The lowest-index node with the fewest outstanding requests among those
/// `eligible` admits, found by scanning every node's [`ServerState`]: the
/// pick the routing index must reproduce (see [`CHECK_PICKS`]).
fn scan_least_loaded(
    cluster: &ClusterState,
    eligible: impl Fn(&ServerState) -> bool,
) -> Option<usize> {
    (0..cluster.nodes.len())
        .filter(|&i| eligible(&cluster.nodes[i]))
        .min_by_key(|&i| cluster.nodes[i].outstanding_requests())
}

/// A routing policy plus its round-robin cursor and per-node census: the
/// hand-off every cluster front shares.
pub(crate) struct Router {
    policy: RoutingPolicyKind,
    /// The node round-robin routing picks next (modulo the node count).
    next: usize,
    routed: Vec<u64>,
}

impl Router {
    /// A router over `nodes` nodes.
    pub(crate) fn new(policy: RoutingPolicyKind, nodes: usize) -> Self {
        Router {
            policy,
            next: 0,
            routed: vec![0; nodes],
        }
    }

    /// Picks the node for the next request. `cluster` exposes each node's
    /// outstanding requests and awake bit in O(1) through
    /// [`ClusterState::routing`]; `rng` is the front component's own
    /// deterministic stream (so random routing never perturbs node
    /// streams).
    fn pick(&mut self, cluster: &ClusterState, rng: &mut SimRng) -> usize {
        let nodes = cluster.nodes.len();
        match self.policy {
            RoutingPolicyKind::Random => (rng.next_u64() % nodes as u64) as usize,
            RoutingPolicyKind::RoundRobin => {
                let target = self.next % nodes;
                self.next = target + 1;
                target
            }
            RoutingPolicyKind::JoinShortestQueue => {
                let pick = cluster.routing.least_loaded();
                if CHECK_PICKS {
                    assert_eq!(Some(pick), scan_least_loaded(cluster, |_| true));
                }
                pick
            }
            RoutingPolicyKind::PowerAware => {
                let routing = &cluster.routing;
                let pick = routing
                    .least_loaded_awake()
                    .unwrap_or_else(|| routing.least_loaded());
                if CHECK_PICKS {
                    assert_eq!(
                        Some(pick),
                        scan_least_loaded(cluster, ServerState::any_core_active)
                            .or_else(|| scan_least_loaded(cluster, |_| true))
                    );
                }
                pick
            }
        }
    }

    /// Routes `request` to a node, counts it and deposits it into that
    /// node's NIC through the fabric. Random routing draws from `ctx`'s
    /// stream, the front component's own.
    pub(crate) fn send(
        &mut self,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
        request: Request,
    ) {
        let target = self.pick(shared, ctx.rng());
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
    pub fn new(loadgen: LoadGenerator, policy: RoutingPolicyKind, nodes: usize) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainCoordinator, RequestGraph};
    use crate::cluster::ClusterSimulation;
    use crate::config::ServerConfig;
    use crate::fleet::Fleet;
    use apc_sim::SimDuration;
    use apc_workloads::spec::WorkloadSpec;

    /// Runs `nodes` nodes at 20k req/s each for 1 ms behind a balancer and
    /// behind a 1 → 4 fan-out chain front (five RPCs a chain, so chains
    /// arrive at a fifth of the rate) under `policy`, and returns each
    /// front's per-node routing census. [`CHECK_PICKS`] holds in unit
    /// tests, so every pick is checked against a scan of the nodes.
    fn routed(nodes: usize, policy: RoutingPolicyKind) -> [Vec<u64>; 2] {
        let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(1));
        let configs: Vec<_> = (0..nodes)
            .map(|i| base.clone().with_seed(Fleet::member_seed(base.seed, i)))
            .collect();
        let rate = 20_000.0 * nodes as f64;
        let loadgen = LoadGenerator::new(WorkloadSpec::memcached_etc(), rate, base.seed);
        let balancer = Balancer::new(loadgen, policy, nodes);
        let cluster = ClusterSimulation::new(base.seed, configs.clone(), balancer, None).run();
        let graph = RequestGraph::memcached_fanout(4);
        let front = ChainCoordinator::new(graph, rate / 5.0, policy, nodes, base.seed);
        let chain = ClusterSimulation::new(base.seed, configs, front, None).run();
        [cluster.routed, chain.routed]
    }

    /// The routing index picks what a scan of the nodes picks, across the
    /// awake bitset's 64-bit word boundaries: at 1, 7, 64, 65 and 130
    /// nodes, every power-aware and JSQ pick behind either front equals the
    /// scan's, in debug and release builds. Past 64 nodes both policies
    /// route to nodes of the second and third word.
    #[test]
    fn routing_index_picks_what_a_scan_picks() {
        for nodes in [1, 7, 64, 65, 130] {
            for policy in [
                RoutingPolicyKind::PowerAware,
                RoutingPolicyKind::JoinShortestQueue,
            ] {
                for routed in routed(nodes, policy) {
                    assert!(routed.iter().sum::<u64>() > 0);
                    for word_start in [64, 128] {
                        if nodes > word_start {
                            assert!(
                                routed[word_start..].iter().any(|&r| r > 0),
                                "{} routed nothing past node {word_start} of {nodes}: {routed:?}",
                                policy.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
