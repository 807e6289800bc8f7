//! Multi-tier RPC request chains across the cluster: scatter-gather fan-out
//! with wait-for-all joins, and the end-to-end latency they produce.
//!
//! The paper's motivation is microservice traffic where one client request
//! becomes a *chain* of internal RPCs — a frontend parses it, fans out to N
//! storage leaves (the memcached scatter-gather pattern) and joins the
//! responses. End-to-end latency is then decided by the **slowest leaf**, so
//! every microsecond of wake latency compounds at the join and tail latency
//! is shaped by *coordinated* idleness across the cluster. This module makes
//! that traffic class simulable:
//!
//! * [`RequestGraph`] — the shape of a chain: sequential tiers, each a
//!   [`Tier`] of `width` parallel RPCs (width 1 = a linear hop, width N = a
//!   fan-out joined by wait-for-all) with a per-tier service-time spec
//!   ([`apc_workloads::chain::TierService`]);
//! * [`ChainCoordinator`] — the front component of a
//!   [`ClusterSimulation`]: it owns the root-arrival process, routes every
//!   RPC through a pluggable [`RoutingPolicy`] into node NIC buffers (the
//!   same hand-off the balancer uses), joins per-leaf completions reported
//!   by the serving cores and records end-to-end latency (root arrival →
//!   last leaf join) plus the leaf-straggler gap (first → last leaf of a
//!   fan-out tier);
//! * [`ChainMember`] / [`ChainFleet`] — a chain run described declaratively
//!   and a set of them run in parallel with bit-identical results, mirroring
//!   [`crate::cluster`].
//!
//! # Determinism
//!
//! A chain run is exactly reproducible: nodes draw from streams forked off
//! each node's own seed (see [`crate::node::Node`]), the
//! coordinator's routing policy from the cluster seed's
//! `"chain-coordinator"` stream, and root arrivals plus per-tier service
//! times from the cluster seed's `"chain-loadgen"` stream. [`ChainResult`]'s
//! `PartialEq` is exact, and a parallel [`ChainFleet`] run equals its
//! sequential path bit-for-bit (`crates/server/tests/chain.rs`).
//!
//! # Example
//!
//! ```
//! use apc_server::balancer::RoutingPolicyKind;
//! use apc_server::chain::{run_chain_experiment, RequestGraph};
//! use apc_server::config::ServerConfig;
//! use apc_sim::SimDuration;
//!
//! let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(20));
//! let result = run_chain_experiment(
//!     &base,
//!     4,                                  // nodes
//!     RoutingPolicyKind::JoinShortestQueue,
//!     RequestGraph::memcached_fanout(4),  // frontend -> 4 leaves
//!     5_000.0,                            // root chains per second
//! );
//! assert_eq!(result.nodes.servers(), 4);
//! assert!(result.chains_completed > 0);
//! // The join waits for the slowest leaf: the end-to-end tail dominates
//! // the straggler gap by construction.
//! assert!(result.chain_latency.p99 >= result.straggler.p99);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use apc_sim::component::{EventHandler, SimulationContext};
use apc_sim::rng::SimRng;
use apc_sim::{SimDuration, SimTime};
use apc_telemetry::latency::LatencySummary;
use apc_telemetry::sketch::QuantileSketch;
use apc_trace::{ProfileReport, Span, SpanKind, TraceCtx, TraceLog};
use apc_workloads::arrival::{ArrivalProcess, PoissonArrivals};
use apc_workloads::chain::TierService;
use apc_workloads::request::{ChainTag, Request, RequestId};

use apc_network::{NetworkConfig, NetworkStats};

use crate::balancer::{routing_imbalance, Router, RoutingPolicy, RoutingPolicyKind};
use crate::cluster::{ClusterFront, ClusterRun, ClusterSimulation};
use crate::components::state::{ClusterState, ServerState};
use crate::components::ServerEvent;
use crate::config::ServerConfig;
use crate::fleet::{Fleet, FleetResult, Pool, PoolMember};

/// One tier of a request chain: `width` parallel RPCs drawn from one
/// service-time spec, joined by wait-for-all before the next tier starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    /// Number of sibling RPCs issued in parallel (1 = a linear hop).
    pub width: usize,
    /// The CPU work of each RPC in this tier.
    pub service: TierService,
}

impl Tier {
    /// A tier of `width` parallel RPCs served per `service`.
    #[must_use]
    pub fn new(width: usize, service: TierService) -> Self {
        Tier { width, service }
    }
}

/// The shape of a multi-tier request chain: sequential tiers, each fanned
/// out `width` ways and joined (wait-for-all) before the next tier issues.
///
/// Linear chains and frontend → N-leaf scatter-gather are the two common
/// instances; arbitrary tier stacks compose the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestGraph {
    tiers: Vec<Tier>,
}

impl RequestGraph {
    /// A graph from explicit tiers.
    ///
    /// # Panics
    ///
    /// Panics when `tiers` is empty or any tier has width 0 — an empty chain
    /// or tier would complete instantly and silently record zero latency.
    #[must_use]
    pub fn new(tiers: Vec<Tier>) -> Self {
        assert!(!tiers.is_empty(), "a request graph needs at least one tier");
        assert!(
            tiers.iter().all(|t| t.width >= 1),
            "every tier needs at least one RPC"
        );
        RequestGraph { tiers }
    }

    /// A linear chain: one RPC per service, strictly sequential.
    #[must_use]
    pub fn linear(services: Vec<TierService>) -> Self {
        RequestGraph::new(services.into_iter().map(|s| Tier::new(1, s)).collect())
    }

    /// A frontend → N-leaf scatter-gather: one `frontend` RPC, then `width`
    /// parallel `leaf` RPCs joined by wait-for-all.
    #[must_use]
    pub fn fanout(frontend: TierService, leaf: TierService, width: usize) -> Self {
        RequestGraph::new(vec![Tier::new(1, frontend), Tier::new(width, leaf)])
    }

    /// The canonical memcached scatter-gather: a [`TierService::frontend`]
    /// root fanning out to `width` [`TierService::memcached_leaf`] lookups.
    #[must_use]
    pub fn memcached_fanout(width: usize) -> Self {
        RequestGraph::fanout(
            TierService::frontend(),
            TierService::memcached_leaf(),
            width,
        )
    }

    /// The tiers, root first.
    #[must_use]
    fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Total RPCs issued per chain (the sum of tier widths).
    #[must_use]
    fn rpcs_per_chain(&self) -> u64 {
        self.tiers.iter().map(|t| t.width as u64).sum()
    }

    /// A compact human-readable shape, e.g. `1x frontend -> 4x kv-get`.
    #[must_use]
    pub fn describe(&self) -> String {
        self.tiers
            .iter()
            .map(|t| format!("{}x {}", t.width, t.service.class))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

impl fmt::Display for RequestGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Progress of one in-flight chain inside the coordinator.
#[derive(Debug)]
struct ChainProgress {
    /// When the root request arrived at the coordinator.
    root_arrival: SimTime,
    /// Index of the tier currently in flight.
    tier: usize,
    /// RPCs of the current tier not yet completed.
    outstanding: usize,
    /// First completion instant within the current tier (straggler gap =
    /// last − first on the join of a fan-out tier).
    first_done: Option<SimTime>,
    /// Join bookkeeping for a head-sampled chain (`None` when the chain is
    /// untraced): when the current tier was issued and when each sibling's
    /// completion report arrived, turned into join/tier spans when the tier
    /// joins.
    trace: Option<TierTrace>,
}

/// Per-tier span bookkeeping of a traced chain (see [`ChainProgress::trace`]).
#[derive(Debug)]
struct TierTrace {
    /// When the tier's RPCs were issued.
    tier_start: SimTime,
    /// Arrival instant of each sibling's completion report, in join order.
    reports: Vec<SimTime>,
}

/// The chain-coordinator component: generates root-chain arrivals, fans each
/// tier out across the cluster through a [`RoutingPolicy`], joins per-leaf
/// completions and records chain-level latency telemetry.
///
/// RPC deposits reuse the balancer's exact hand-off into a node's NIC
/// coalescing buffer (the shared `buffer_request` deposit helper of the
/// NIC), so a node serves chain RPCs indistinguishably from balanced
/// open-loop requests; the serving core reports each completion back via
/// [`ServerEvent::ChainLeafDone`] (routed by the [`ChainTag`] the request
/// carries).
pub struct ChainCoordinator {
    graph: RequestGraph,
    arrivals: Box<dyn ArrivalProcess>,
    /// Private stream for arrival gaps and service-time draws (forked from
    /// the cluster seed by `"chain-loadgen"`, mirroring [`LoadGenerator`]'s
    /// seeding so the policy's component stream stays untouched).
    ///
    /// [`LoadGenerator`]: apc_workloads::loadgen::LoadGenerator
    workload_rng: SimRng,
    router: Router,
    next_arrival: SimTime,
    inflight: BTreeMap<u64, ChainProgress>,
    next_chain_id: u64,
    next_request_id: u64,
    chains_started: u64,
    /// End-to-end chain latency in nanoseconds: one sample per completed
    /// chain.
    e2e: QuantileSketch,
    straggler: QuantileSketch,
}

impl ChainCoordinator {
    /// Creates the coordinator for a cluster of `nodes` nodes executing
    /// `graph` at `chains_per_sec` root arrivals (Poisson), routing each RPC
    /// through `policy`. `seed` is the cluster seed; the coordinator forks
    /// its workload stream from it by the `"chain-loadgen"` label.
    #[must_use]
    pub fn new(
        graph: RequestGraph,
        chains_per_sec: f64,
        policy: Box<dyn RoutingPolicy>,
        nodes: usize,
        seed: u64,
    ) -> Self {
        let mut arrivals: Box<dyn ArrivalProcess> = Box::new(PoissonArrivals::new(chains_per_sec));
        let mut workload_rng = SimRng::from_seed(seed).fork("chain-loadgen");
        // Draw the first gap at construction so roots do not all start at
        // t = 0 (the same convention the open-loop load generator uses).
        let first_gap = arrivals.next_gap(&mut workload_rng);
        ChainCoordinator {
            graph,
            arrivals,
            workload_rng,
            router: Router::new(policy, nodes),
            next_arrival: SimTime::ZERO + first_gap,
            inflight: BTreeMap::new(),
            next_chain_id: 0,
            next_request_id: 0,
            chains_started: 0,
            e2e: QuantileSketch::latency_default(),
            straggler: QuantileSketch::latency_default(),
        }
    }

    /// Issues every RPC of the chain's current tier, routing each through
    /// the policy into a node's NIC buffer.
    fn issue_tier(
        &mut self,
        chain_id: u64,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let progress = self
            .inflight
            .get_mut(&chain_id)
            .expect("issuing a tier of an unknown chain");
        let tier = self.graph.tiers()[progress.tier];
        progress.outstanding = tier.width;
        progress.first_done = None;
        let now = ctx.now();
        let traced = if let Some(tier_trace) = progress.trace.as_mut() {
            tier_trace.tier_start = now;
            tier_trace.reports.clear();
            true
        } else {
            false
        };
        let tag = ChainTag {
            coordinator: ctx.id(),
            chain: chain_id,
        };
        for _ in 0..tier.width {
            let service = tier.service.sample_service(&mut self.workload_rng);
            let mut request = Request::new(
                RequestId(self.next_request_id),
                tier.service.class,
                now,
                service,
            )
            .with_chain(tag);
            if traced {
                // Chain RPCs trace under the chain id (not the request id),
                // so every tier's spans join one causal tree.
                request = request.with_trace(TraceCtx::root(chain_id, now));
            }
            self.next_request_id += 1;
            self.router.send(shared, ctx, request);
        }
    }

    fn on_chain_arrival(
        &mut self,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let chain_id = self.next_chain_id;
        self.next_chain_id += 1;
        self.chains_started += 1;
        // Chain head-sampling site: one decision per root chain, drawn from
        // the cluster's dedicated sampler stream.
        let traced = shared
            .trace
            .as_mut()
            .is_some_and(|trace| trace.sampler.sample());
        self.inflight.insert(
            chain_id,
            ChainProgress {
                root_arrival: ctx.now(),
                tier: 0,
                outstanding: 0,
                first_done: None,
                trace: traced.then(|| TierTrace {
                    tier_start: ctx.now(),
                    reports: Vec::new(),
                }),
            },
        );
        self.issue_tier(chain_id, shared, ctx);
        let gap = self.arrivals.next_gap(&mut self.workload_rng);
        self.next_arrival = ctx.now() + gap;
        ctx.emit_self_at(self.next_arrival, ServerEvent::ChainArrival);
    }

    fn on_leaf_done(
        &mut self,
        chain_id: u64,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        let progress = self
            .inflight
            .get_mut(&chain_id)
            .expect("leaf completion for an unknown chain");
        debug_assert!(progress.outstanding > 0, "tier joined more than its width");
        if progress.first_done.is_none() {
            progress.first_done = Some(now);
        }
        if let Some(tier_trace) = progress.trace.as_mut() {
            tier_trace.reports.push(now);
        }
        progress.outstanding -= 1;
        if progress.outstanding > 0 {
            return;
        }
        // The tier joined. Record the straggler gap of fan-out tiers: how
        // long the join waited on the slowest sibling after the fastest.
        let tier = self.graph.tiers()[progress.tier];
        if tier.width > 1 {
            let first = progress.first_done.expect("joined tier saw a completion");
            self.straggler
                .record(now.saturating_since(first).as_nanos());
        }
        // A traced chain emits its join/tier spans on the coordinator's
        // pseudo-node (index = node count): one join span per sibling report
        // (report arrival → tier join; the straggler's is zero-length) and
        // one tier span covering issue → join.
        let coordinator_node = shared.nodes.len() as u32;
        if let (Some(tier_trace), Some(trace)) = (progress.trace.as_ref(), shared.trace.as_mut()) {
            for (sibling, &report) in tier_trace.reports.iter().enumerate() {
                trace.log.push(Span {
                    trace: chain_id,
                    kind: SpanKind::Join,
                    label: "",
                    node: coordinator_node,
                    lane: sibling as u32,
                    start: report,
                    end: now,
                });
            }
            trace.log.push(Span {
                trace: chain_id,
                kind: SpanKind::Tier,
                label: "",
                node: coordinator_node,
                lane: 0,
                start: tier_trace.tier_start,
                end: now,
            });
        }
        if progress.tier + 1 < self.graph.tiers().len() {
            progress.tier += 1;
            self.issue_tier(chain_id, shared, ctx);
            return;
        }
        // Last tier joined: the chain is complete end-to-end.
        let root_arrival = progress.root_arrival;
        let traced = self.inflight.remove(&chain_id).expect("present").trace;
        self.e2e
            .record(now.saturating_since(root_arrival).as_nanos());
        if traced.is_some() {
            if let Some(trace) = shared.trace.as_mut() {
                trace.log.push(Span {
                    trace: chain_id,
                    kind: SpanKind::Root,
                    label: "",
                    node: coordinator_node,
                    lane: 0,
                    start: root_arrival,
                    end: now,
                });
            }
        }
    }
}

impl EventHandler<ServerEvent, ClusterState> for ChainCoordinator {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        match event {
            ServerEvent::ChainArrival => self.on_chain_arrival(shared, ctx),
            ServerEvent::ChainLeafDone { chain } => self.on_leaf_done(chain, shared, ctx),
            other => unreachable!("chain coordinator received unexpected event {other:?}"),
        }
    }
}

impl ClusterFront for ChainCoordinator {
    const NAME: &'static str = "chain-coordinator";
    type Output = ChainResult;

    /// Each node's nominal offered rate is its share of the cluster-wide
    /// RPC rate (chains/sec × RPCs per chain ÷ N); the routed census is the
    /// actual per-node count. Chain RPCs travel the internal fabric, so no
    /// client network RTT is added to per-RPC node latency.
    fn describe_nodes(&self, nodes: &mut [ServerState]) {
        let rpc_rate = self.arrivals.rate_per_sec() * self.graph.rpcs_per_chain() as f64;
        let per_node_rate = rpc_rate / nodes.len() as f64;
        for node in nodes {
            node.workload_name = "chain";
            node.offered_rate = per_node_rate;
            node.network_rtt = SimDuration::ZERO;
        }
    }

    fn first_arrival(&self) -> (SimTime, ServerEvent) {
        (self.next_arrival, ServerEvent::ChainArrival)
    }

    fn finish(&mut self, run: ClusterRun) -> ChainResult {
        let (policy, routed) = self.router.census();
        ChainResult {
            policy,
            graph: self.graph.describe(),
            duration: run.duration,
            chains_started: self.chains_started,
            chains_completed: self.e2e.count(),
            chain_latency: LatencySummary::of(&self.e2e),
            straggler: LatencySummary::of(&self.straggler),
            routed,
            network: run.network,
            events_dispatched: run.events_dispatched,
            trace: run.trace,
            profile: run.profile,
            nodes: run.nodes,
        }
    }
}

/// The outcome of one chain run: chain-level latency telemetry plus per-node
/// results (with the fleet aggregation helpers) and the routing census.
///
/// Equality is exact per-metric equality, so two results compare equal only
/// when the underlying simulations were bit-identical — what the chain
/// determinism tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainResult {
    /// The routing policy that ran.
    pub policy: &'static str,
    /// The chain shape (see [`RequestGraph::describe`]).
    pub graph: String,
    /// The simulated duration.
    pub duration: SimDuration,
    /// Chains whose root arrived during the run.
    pub chains_started: u64,
    /// Chains that fully joined (roots still in flight at the horizon were
    /// started but never completed).
    pub chains_completed: u64,
    /// End-to-end chain latency: root arrival → last leaf join of the final
    /// tier.
    pub chain_latency: LatencySummary,
    /// The leaf-straggler gap: on every fan-out (width > 1) tier join, the
    /// time the join waited on the slowest sibling after the fastest one
    /// finished. Empty for purely linear graphs.
    pub straggler: LatencySummary,
    /// RPCs routed to each node, in node order.
    pub routed: Vec<u64>,
    /// Wire-delay statistics of the network fabric, when one was configured
    /// (`None` for the instantaneous-deposit path).
    pub network: Option<NetworkStats>,
    /// Events the cluster's event loop dispatched to reach the horizon.
    pub events_dispatched: u64,
    /// Span log of head-sampled chains, when tracing was configured (see
    /// [`crate::config::ServerConfig::trace`]; the first node's config
    /// decides for the cluster).
    pub trace: Option<TraceLog>,
    /// Engine self-profile, when profiling was configured (see
    /// [`crate::config::ServerConfig::profile`]).
    pub profile: Option<ProfileReport>,
    /// Per-node results in node order, with fleet-style aggregates.
    pub nodes: FleetResult,
}

impl ChainResult {
    /// Total RPCs the coordinator routed.
    #[must_use]
    pub fn total_routed(&self) -> u64 {
        self.routed.iter().sum()
    }

    /// Achieved chain throughput (completed chains per second).
    #[must_use]
    pub fn chains_per_sec(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.chains_completed as f64 / secs
        }
    }

    /// How unevenly the policy spread RPCs: max/mean routed per node
    /// (1.0 = perfectly even).
    #[must_use]
    pub fn routing_imbalance(&self) -> f64 {
        routing_imbalance(&self.routed)
    }
}

/// One line per node (routed share, power, PC1A residency), then the chain
/// totals: end-to-end p50/p99/p999 and the straggler breakdown.
impl fmt::Display for ChainResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.nodes.runs.iter().enumerate() {
            writeln!(
                f,
                "node {i:>3}: routed {:>8} {:>7.1} W PC1A {:>5.1}% rpc p99 {}",
                self.routed.get(i).copied().unwrap_or(0),
                r.avg_total_power().as_f64(),
                r.pc1a_residency * 100.0,
                r.latency.p99,
            )?;
        }
        write!(
            f,
            "chain ({}, {}): {:>7.0} chains/s {:>7.1} W e2e p50 {} p99 {} p999 {} straggler p99 {}",
            self.policy,
            self.graph,
            self.chains_per_sec(),
            self.nodes.total_power_w(),
            self.chain_latency.p50,
            self.chain_latency.p99,
            self.chain_latency.p999,
            self.straggler.p99,
        )
    }
}

/// A declarative, `Send` description of one chain run — the chain
/// counterpart of [`crate::cluster::ClusterMember`], usable as a member of a
/// [`ChainFleet`].
#[derive(Debug, Clone)]
pub struct ChainMember {
    /// Per-node configurations (each carries its own seed).
    pub nodes: Vec<ServerConfig>,
    /// The routing policy to run.
    pub policy: RoutingPolicyKind,
    /// The chain shape.
    pub graph: RequestGraph,
    /// Root-chain arrival rate (chains per second, Poisson).
    pub chains_per_sec: f64,
    /// Cluster seed: coordinator streams fork from it.
    pub seed: u64,
    /// The network fabric every RPC and leaf report crosses (`None` keeps
    /// the instantaneous-deposit path).
    pub network: Option<NetworkConfig>,
}

impl ChainMember {
    /// A chain cluster of `n` nodes sharing `base`'s platform, with node
    /// seeds derived by the canonical [`Fleet::member_seed`] scheme from
    /// `base`'s seed, executing `graph` at `chains_per_sec` under `policy`.
    #[must_use]
    pub fn homogeneous(
        base: &ServerConfig,
        n: usize,
        policy: RoutingPolicyKind,
        graph: RequestGraph,
        chains_per_sec: f64,
    ) -> Self {
        ChainMember {
            nodes: (0..n)
                .map(|i| base.clone().with_seed(Fleet::member_seed(base.seed, i)))
                .collect(),
            policy,
            graph,
            chains_per_sec,
            seed: base.seed,
            network: None,
        }
    }

    /// Routes every RPC and leaf report of this chain cluster through
    /// `network` (see [`ClusterSimulation::new`]).
    #[must_use]
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = Some(network);
        self
    }

    /// Builds and runs the chain cluster to completion.
    #[must_use]
    pub fn run(self) -> ChainResult {
        let coordinator = ChainCoordinator::new(
            self.graph,
            self.chains_per_sec,
            self.policy.build(),
            self.nodes.len(),
            self.seed,
        );
        ClusterSimulation::new(self.seed, self.nodes, coordinator, self.network).run()
    }
}

impl PoolMember for ChainMember {
    type Output = ChainResult;
    type Results = Vec<ChainResult>;

    fn run(self) -> ChainResult {
        ChainMember::run(self)
    }
}

/// A set of independent chain simulations run as one experiment — e.g. the
/// same chain cluster under every platform, or a platform under every
/// routing policy — on the deterministic worker pool of [`crate::fleet`]: a
/// parallel run is bit-identical to a sequential one (see [`Pool::run`]).
pub type ChainFleet = Pool<ChainMember>;

/// Convenience: run one homogeneous chain experiment (see
/// [`ChainMember::homogeneous`] for the seed-derivation scheme).
#[must_use]
pub fn run_chain_experiment(
    base: &ServerConfig,
    n: usize,
    policy: RoutingPolicyKind,
    graph: RequestGraph,
    chains_per_sec: f64,
) -> ChainResult {
    ChainMember::homogeneous(base, n, policy, graph, chains_per_sec).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_shapes() {
        let linear =
            RequestGraph::linear(vec![TierService::frontend(), TierService::memcached_leaf()]);
        assert_eq!(linear.rpcs_per_chain(), 2);

        let fan = RequestGraph::memcached_fanout(4);
        assert_eq!(fan.rpcs_per_chain(), 5);
        assert_eq!(fan.describe(), "1x frontend -> 4x kv-get");
        assert_eq!(fan.to_string(), fan.describe());
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_graph_is_rejected() {
        let _ = RequestGraph::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one RPC")]
    fn zero_width_tier_is_rejected() {
        let _ = RequestGraph::new(vec![Tier::new(0, TierService::frontend())]);
    }
}
