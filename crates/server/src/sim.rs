//! The single-server entry point.
//!
//! A single server runs as a 1-node [`crate::cluster::ClusterSimulation`]
//! behind a round-robin balancer (see [`crate::fleet::FleetMember`]): one
//! driver, one arrival path and one place for trace state serve every run.
//! [`run_experiment`] is the shorthand for one such run.

use apc_workloads::spec::WorkloadSpec;

use crate::config::ServerConfig;
use crate::fleet::{FleetMember, PoolMember};
use crate::result::RunResult;

/// Convenience: run one workload at one rate under one configuration.
#[must_use]
pub fn run_experiment(config: ServerConfig, spec: WorkloadSpec, rate_per_sec: f64) -> RunResult {
    FleetMember::new(config, spec, rate_per_sec).run()
}
