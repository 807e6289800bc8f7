//! Network fabric component: routed RPCs and leaf-completion reports cross
//! the modelled datacenter network instead of teleporting.
//!
//! The wire-delay model itself lives in [`apc_network`]; this module is the
//! glue binding it into the cluster event loop:
//!
//! * [`FabricState`] — the [`apc_network::NetworkState`] plus the fabric
//!   component's id, stored in the shared cluster state as
//!   [`ClusterState::fabric`];
//! * [`Fabric`] — the registered component receiving
//!   [`ServerEvent::WireDeliver`] events and depositing the request into the
//!   destination node's NIC buffer through the same
//!   `buffer_request` helper the balancer uses;
//! * `deliver_routed` / `report_delay` — the two transmission
//!   directions: balancer/coordinator → node (a routed RPC) and node →
//!   coordinator (a chain leaf's completion report).
//!
//! # The bit-identity contract
//!
//! When the fabric is absent — or configured but
//! [instantaneous](apc_network::NetworkConfig::is_instantaneous) — routed
//! requests are deposited *synchronously*, with no event hop: the code path
//! reduces to exactly the pre-fabric one, so the zero-latency fabric is
//! bit-identical to no fabric at all (same event sequence, same FIFO order,
//! same RNG draws, same `predicted_idle_bound`). Only a transmission with
//! nonzero wire delay schedules a [`ServerEvent::WireDeliver`] through the
//! event queue. `crates/server/tests/network_differential.rs` enforces this
//! op-for-op.

use apc_sim::component::{ComponentId, EventHandler, SimulationContext};
use apc_sim::{SimDuration, SimTime};
use apc_workloads::request::Request;

use apc_network::{NetworkConfig, NetworkState};

use super::nic::buffer_request;
use super::state::ClusterState;
use super::ServerEvent;

/// The shared-state half of the network fabric: the wire-delay model plus
/// the address of the [`Fabric`] component that completes deferred
/// deliveries.
#[derive(Debug, Clone)]
pub struct FabricState {
    /// The wire-delay model: resolved topology, per-link occupancy, stats.
    pub net: NetworkState,
    /// The registered [`Fabric`] component's id — the destination of
    /// [`ServerEvent::WireDeliver`] events.
    pub component: ComponentId,
}

impl FabricState {
    /// Builds the fabric for a cluster of `servers` nodes. `component` is
    /// the id returned from registering the [`Fabric`] component.
    #[must_use]
    pub fn new(config: NetworkConfig, servers: usize, component: ComponentId) -> Self {
        FabricState {
            net: NetworkState::new(config, servers),
            component,
        }
    }
}

/// The fabric component: the delivery end of every in-flight wire
/// transmission. Receives [`ServerEvent::WireDeliver`] when a routed RPC's
/// wire delay elapses and hands the request to the destination node's NIC
/// exactly as the balancer would have.
pub struct Fabric;

impl EventHandler<ServerEvent, ClusterState> for Fabric {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        match event {
            ServerEvent::WireDeliver { node, request } => {
                buffer_request(shared, node, ctx, *request);
            }
            other => unreachable!("fabric received unexpected event {other:?}"),
        }
    }
}

/// Deposits a routed request into node `target`'s NIC through the network
/// fabric (balancer / chain-coordinator → node direction).
///
/// Without a fabric, or when the transmission takes zero wire time, the
/// deposit happens synchronously through [`buffer_request`] — the exact
/// pre-fabric code path. A nonzero wire delay instead schedules
/// [`ServerEvent::WireDeliver`] on the [`Fabric`] component.
pub(crate) fn deliver_routed(
    shared: &mut ClusterState,
    ctx: &mut SimulationContext<'_, ServerEvent>,
    target: usize,
    request: Request,
) {
    let (delay, component) = match shared.fabric.as_mut() {
        None => (SimDuration::ZERO, None),
        Some(fabric) => {
            let client = fabric.net.client();
            (
                fabric.net.transmit(client, target, ctx.now()),
                Some(fabric.component),
            )
        }
    };
    if delay.is_zero() {
        buffer_request(shared, target, ctx, request);
    } else {
        let component = component.expect("nonzero wire delay requires a fabric");
        ctx.emit(
            component,
            delay,
            ServerEvent::WireDeliver {
                node: target,
                request: Box::new(request),
            },
        );
    }
}

/// The wire delay of a chain leaf's completion report from node `node` back
/// to the coordinator endpoint (node → coordinator direction). Zero without
/// a fabric; the caller emits [`ServerEvent::ChainLeafDone`] after this
/// delay, which with a zero delay is the exact pre-fabric `emit_now`.
pub(crate) fn report_delay(shared: &mut ClusterState, node: usize, now: SimTime) -> SimDuration {
    match shared.fabric.as_mut() {
        None => SimDuration::ZERO,
        Some(fabric) => {
            let client = fabric.net.client();
            fabric.net.transmit(node, client, now)
        }
    }
}
