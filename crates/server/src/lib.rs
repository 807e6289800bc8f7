//! # `apc-server` — full-system datacenter server simulation
//!
//! The testbed substitute: an event-driven simulation of a latency-critical
//! service running on the modelled Skylake-SP server under one of the
//! paper's platform configurations, producing the power, residency and
//! latency measurements every figure of the evaluation is built from.
//!
//! * [`config`] — [`config::ServerConfig`] (topology, platform, background
//!   noise, horizon, seed);
//! * [`components`] — the parts of a server (NIC, dispatch scheduler,
//!   per-core execution, package controller, time-series sampler), the
//!   [`components::ServerEvent`]s between them, and the shared state: one
//!   [`components::state::ServerState`] per node in the
//!   [`components::state::ClusterState`];
//! * [`node`] — [`node::Node`], one complete server registered as one
//!   component, which routes each of its events to its handler by kind;
//! * [`cluster`] — [`cluster::ClusterSimulation`], the one simulation
//!   driver: N nodes plus a [`cluster::ClusterFront`] component in one
//!   event loop, with per-node and cluster-aggregate results. A single
//!   server is a 1-node cluster;
//! * [`sim`] — the single-server [`sim::run_experiment`] entry point;
//! * [`balancer`] — the pluggable [`balancer::RoutingPolicy`] (random,
//!   round-robin, join-shortest-queue, power-aware packing) and the
//!   [`balancer::Balancer`] front, which routes one cluster-level arrival
//!   stream of independent requests;
//! * [`chain`] — multi-tier RPC request chains ([`chain::RequestGraph`]:
//!   linear chains and frontend → N-leaf scatter-gather with wait-for-all
//!   joins), executed across the cluster by the [`chain::ChainCoordinator`]
//!   front, which records end-to-end latency and the leaf-straggler gap;
//! * [`fleet`] — the [`fleet::Pool`] running many independent simulations
//!   (servers, clusters or chains) in parallel with bit-identical results,
//!   and the [`fleet::Fleet`] of servers aggregating theirs;
//! * [`result`] — [`result::RunResult`] with derived metrics.
//!
//! # Example
//!
//! ```
//! use apc_server::config::ServerConfig;
//! use apc_server::sim::run_experiment;
//! use apc_sim::SimDuration;
//! use apc_workloads::spec::WorkloadSpec;
//!
//! let cfg = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(20));
//! let result = run_experiment(cfg, WorkloadSpec::memcached_etc(), 10_000.0);
//! assert!(result.avg_soc_power.as_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod balancer;
pub mod chain;
pub mod cluster;
pub mod components;
pub mod config;
pub mod fleet;
pub mod node;
pub mod result;
pub mod sim;

pub use balancer::{RoutingPolicy, RoutingPolicyKind};
pub use chain::{run_chain_experiment, ChainFleet, ChainMember, ChainResult, RequestGraph, Tier};
pub use cluster::{
    run_cluster_experiment, ClusterFleet, ClusterMember, ClusterResult, ClusterSimulation,
};
pub use config::ServerConfig;
pub use fleet::{Fleet, FleetMember, FleetResult, Pool, PoolMember};
pub use result::RunResult;
pub use sim::run_experiment;
