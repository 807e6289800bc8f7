//! # `apc` — AgilePkgC reproduction facade
//!
//! One-stop crate re-exporting the whole public API of the AgilePkgC (APC)
//! reproduction, so applications and experiments can depend on a single
//! crate:
//!
//! * [`sim`] — discrete-event engine, distributions, statistics;
//! * [`soc`] — the Skylake-SP class SoC structural model;
//! * [`power`] — calibrated power model and energy accounting;
//! * [`pmu`] — baseline power management (idle governor, GPMU, PC6);
//! * [`core`] — the APC architecture (the APMU and its PC1A flow over
//!   IOSM and CLMR, the flows' measured power and latency, the area
//!   model);
//! * [`workloads`] — Memcached/Kafka/MySQL load generators;
//! * [`telemetry`] — residency, idle-period and latency telemetry;
//! * [`trace`] — request-span tracing, head sampling and the engine
//!   self-profiler (Chrome-trace export lives in [`analysis`]);
//! * [`network`] — link/topology model and the cluster network fabric
//!   configuration (flat, two-tier, fat-tree);
//! * [`server`] — the full-system server simulation;
//! * [`analysis`] — Eq. 1 savings model, performance-impact model, report
//!   formatting, deterministic JSON/CSV export.
//!
//! The `apc-cli` binary (not re-exported: it is an application, not a
//! library layer) runs declarative experiment specs through all of the
//! above — see the "Experiment runner" section of `docs/ARCHITECTURE.md`.
//!
//! # Quick start
//!
//! ```
//! use apc::prelude::*;
//!
//! // Simulate 20 ms of Memcached at 10 K QPS on the APC-enhanced server.
//! let config = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(20));
//! let result = run_experiment(config, WorkloadSpec::memcached_etc(), 10_000.0);
//! assert!(result.avg_soc_power.as_f64() > 10.0);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

// Compile and run the code examples in docs/ARCHITECTURE.md and
// docs/REPRODUCING.md as doctests so the guides cannot drift from the
// real API (shell snippets in ```bash fences are left alone).
#[cfg(doctest)]
#[doc = include_str!("../../../docs/ARCHITECTURE.md")]
pub struct ArchitectureGuide;

#[cfg(doctest)]
#[doc = include_str!("../../../docs/REPRODUCING.md")]
pub struct ReproducingGuide;

pub use apc_analysis as analysis;
pub use apc_core as core;
pub use apc_network as network;
pub use apc_pmu as pmu;
pub use apc_power as power;
pub use apc_server as server;
pub use apc_sim as sim;
pub use apc_soc as soc;
pub use apc_telemetry as telemetry;
pub use apc_trace as trace;
pub use apc_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use apc_analysis::export::{
        cluster_result_json, fleet_result_json, run_result_json, timeseries_csv, JsonValue,
    };
    pub use apc_analysis::impact::ImpactInputs;
    pub use apc_analysis::report::TextTable;
    pub use apc_analysis::savings::SavingsInputs;
    pub use apc_core::apmu::{Apmu, ApmuState, WakeCause};
    pub use apc_core::area::ApcAreaModel;
    pub use apc_core::power::{flow_latency, resident_soc, Pc1aPowerEstimate};
    pub use apc_network::{NetworkConfig, NetworkStats, Topology, TopologyKind};
    pub use apc_pmu::config::PlatformConfig;
    pub use apc_power::model::PowerModel;
    pub use apc_power::units::Watts;
    pub use apc_server::balancer::{RoutingPolicy, RoutingPolicyKind};
    pub use apc_server::chain::{
        run_chain_experiment, ChainFleet, ChainMember, ChainResult, RequestGraph, Tier,
    };
    pub use apc_server::cluster::{
        run_cluster_experiment, ClusterFleet, ClusterMember, ClusterResult, ClusterSimulation,
    };
    pub use apc_server::config::ServerConfig;
    pub use apc_server::fleet::{Fleet, FleetMember, FleetResult};
    pub use apc_server::result::RunResult;
    pub use apc_server::sim::run_experiment;
    pub use apc_sim::component::{EventHandler, Simulation, SimulationContext};
    pub use apc_sim::{SimDuration, SimTime};
    pub use apc_soc::cstate::{CoreCState, PackageCState};
    pub use apc_soc::topology::{SkxSoc, SocConfig};
    pub use apc_telemetry::timeseries::{TimeSeries, TimeSeriesSample};
    pub use apc_trace::{ProfileReport, Span, SpanKind, TraceConfig, TraceLog};
    pub use apc_workloads::chain::TierService;
    pub use apc_workloads::loadgen::LoadGenerator;
    pub use apc_workloads::spec::WorkloadSpec;
}
