//! The full-system server simulation, decomposed into registered components.
//!
//! Each module implements one focused piece of the modelled server as an
//! [`apc_sim::component::EventHandler`]:
//!
//! * [`nic`] — NIC interrupt coalescing of the requests deposited by the
//!   cluster's front;
//! * [`core_exec`] — one component per core: wake transitions, request
//!   execution, idle entry and OS background noise;
//! * [`scheduler`] — work dispatch onto free cores (gated on uncore
//!   availability);
//! * [`package`] — the package controllers: firmware GPMU (PC6) and, under
//!   `CPC1A`, the APC APMU (PC1A entry/abort/exit flows);
//! * [`timeseries`] — the optional periodic time-series sampler (power,
//!   residency deltas, queue depth over simulated time);
//! * [`fabric`] — the network fabric routed requests cross.
//!
//! Cross-component state (the SoC structural model, work queues, uncore
//! availability, telemetry) lives in [`state::ServerState`]; everything else
//! is private to its component. Energy and package-residency accounting
//! belong to no component: [`crate::node::ServerNode::register`] wraps each
//! of the node's components so that [`state::ServerState::charge`] and
//! [`state::ServerState::settle`] bracket every event they handle.
//! Components communicate only by events: zero-delay events model
//! same-instant hardware signals (e.g. the NIC raising `PackageWake` before
//! the scheduler's `Dispatch` runs) and the FIFO tie-break of the event
//! queue keeps those exchanges deterministic.
//!
//! Every component is *node-scoped*: it carries the index of the server node
//! it belongs to and reaches that node's [`state::ServerState`] as
//! `nodes[index]` of the one shared [`state::ClusterState`], which hosts N
//! complete servers plus a front component (load balancer or chain
//! coordinator) in one event loop ([`crate::cluster::ClusterSimulation`]).
//! A single server is the 1-node case.

pub mod core_exec;
pub mod fabric;
pub mod nic;
pub mod package;
pub mod scheduler;
pub mod state;
pub mod timeseries;

use apc_core::apmu::WakeCause;
use apc_sim::component::ComponentId;
use apc_sim::SimDuration;
use apc_workloads::request::Request;

/// Events driving the simulation. Routing is by destination [`ComponentId`];
/// the comments note the component each variant is addressed to.
#[derive(Debug, Clone)]
pub enum ServerEvent {
    /// The next client request arrives at the cluster's load balancer, which
    /// routes it to a node — the only node, for a single server.
    /// (→ `balancer`)
    ClusterArrival,
    /// The NIC raises an interrupt delivering the coalesced batch. (→ `nic`)
    NicDeliver,
    /// A routed request finished its wire flight through the network fabric
    /// and reaches the destination node's NIC buffer. Only fires when a
    /// fabric with nonzero wire delay is configured — instantaneous
    /// transmissions deposit synchronously without an event hop. (→ `fabric`)
    WireDeliver {
        /// The destination node.
        node: usize,
        /// The request coming off the wire, boxed so that this rare variant
        /// does not size every queued event.
        request: Box<Request>,
    },
    /// A core's periodic background (OS) wakeup fires. (→ `core <i>`)
    BackgroundTick,
    /// Bootstrap: put the freshly booted core to sleep. (→ `core <i>`)
    InitIdle,
    /// The scheduler assigned work; begin the wake transition. (→ `core <i>`)
    BeginWake,
    /// The core finished its wake transition and starts executing.
    /// (→ `core <i>`)
    WakeDone {
        /// Transition epoch the event belongs to (stale events are ignored).
        epoch: u64,
    },
    /// The core finished executing its current work item. (→ `core <i>`)
    ServiceDone,
    /// The core finished entering its idle C-state. (→ `core <i>`)
    IdleEntered {
        /// Transition epoch the event belongs to (stale events are ignored).
        epoch: u64,
    },
    /// Try to place queued work onto free cores. (→ `scheduler`)
    Dispatch,
    /// An interrupt or IO traffic wakes the package. (→ `package`)
    PackageWake {
        /// What triggered the wake.
        cause: WakeCause,
    },
    /// A core returned to CC0 (the ACC1 → PC0 edge). (→ `package`)
    CoreActive,
    /// A core finished entering idle; check the PC1A/PC6 opportunity.
    /// (→ `package`)
    AllIdleCheck,
    /// The APMU's IO-standby deadline elapsed (try to enter PC1A).
    /// (→ `package`)
    StandbyDeadline,
    /// The PC1A entry flow completed. (→ `package`)
    ApmuEntryDone,
    /// The PC1A exit flow completed. (→ `package`)
    ApmuExitDone,
    /// The PC6 entry flow completed. (→ `package`)
    GpmuEntryDone,
    /// The PC6 exit flow completed. (→ `package`)
    GpmuExitDone,
    /// Periodic time-series telemetry sample. (→ `timeseries`)
    TimeSeriesSample,
    /// The next root request of a request chain arrives at the chain
    /// coordinator, which fans it out across the cluster. Never fires
    /// outside a chain simulation. (→ `chain-coordinator`)
    ChainArrival,
    /// A core finished serving one chain-tagged RPC; the coordinator joins
    /// it into its chain (emitted by the serving core to the coordinator
    /// named in the request's [`apc_workloads::request::ChainTag`]).
    /// (→ `chain-coordinator`)
    ChainLeafDone {
        /// The coordinator-local chain the completed RPC belongs to.
        chain: u64,
    },
}

impl ServerEvent {
    /// Number of distinct event kinds (the bound for
    /// [`ServerEvent::kind`] indices and the length of
    /// `ServerEvent::KIND_NAMES`).
    pub const KIND_COUNT: usize = 21;

    /// Stable names of every event kind, indexed by [`ServerEvent::kind`].
    const KIND_NAMES: [&'static str; Self::KIND_COUNT] = [
        "ClusterArrival",
        "NicDeliver",
        "WireDeliver",
        "BackgroundTick",
        "InitIdle",
        "BeginWake",
        "WakeDone",
        "ServiceDone",
        "IdleEntered",
        "Dispatch",
        "PackageWake",
        "CoreActive",
        "AllIdleCheck",
        "StandbyDeadline",
        "ApmuEntryDone",
        "ApmuExitDone",
        "GpmuEntryDone",
        "GpmuExitDone",
        "TimeSeriesSample",
        "ChainArrival",
        "ChainLeafDone",
    ];

    /// Kind index of this event for the engine self-profiler.
    #[must_use]
    pub fn kind(&self) -> usize {
        match self {
            ServerEvent::ClusterArrival => 0,
            ServerEvent::NicDeliver => 1,
            ServerEvent::WireDeliver { .. } => 2,
            ServerEvent::BackgroundTick => 3,
            ServerEvent::InitIdle => 4,
            ServerEvent::BeginWake => 5,
            ServerEvent::WakeDone { .. } => 6,
            ServerEvent::ServiceDone => 7,
            ServerEvent::IdleEntered { .. } => 8,
            ServerEvent::Dispatch => 9,
            ServerEvent::PackageWake { .. } => 10,
            ServerEvent::CoreActive => 11,
            ServerEvent::AllIdleCheck => 12,
            ServerEvent::StandbyDeadline => 13,
            ServerEvent::ApmuEntryDone => 14,
            ServerEvent::ApmuExitDone => 15,
            ServerEvent::GpmuEntryDone => 16,
            ServerEvent::GpmuExitDone => 17,
            ServerEvent::TimeSeriesSample => 18,
            ServerEvent::ChainArrival => 19,
            ServerEvent::ChainLeafDone { .. } => 20,
        }
    }
}

/// Builds the engine self-profile surfaced in run results from one event
/// queue's counters (`kinds` is the per-event-kind breakdown, present when
/// the kind classifier was enabled). Event kinds that never appeared are
/// dropped from the report.
#[must_use]
pub fn profile_report(
    counters: apc_sim::engine::QueueCounters,
    kinds: Option<&[apc_sim::engine::KindCounters]>,
) -> apc_trace::ProfileReport {
    let events = kinds
        .map(|kinds| {
            ServerEvent::KIND_NAMES
                .iter()
                .zip(kinds)
                .map(|(name, k)| apc_trace::EventKindCount {
                    kind: name,
                    scheduled: k.scheduled,
                    dispatched: k.dispatched,
                })
                .collect()
        })
        .unwrap_or_default();
    let mut report = apc_trace::ProfileReport {
        engine: counters,
        events,
    };
    report.retain_active_kinds();
    report
}

/// A unit of work a core can execute.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// A client request (latency-accounted).
    Client(Request),
    /// OS background work (not latency-accounted).
    Background {
        /// CPU time the background task consumes.
        work: SimDuration,
    },
}

/// Component ids every component needs to address its peers. Lives in the
/// shared [`state::ServerState`] and is filled by the driver with the real
/// ids returned from registration, before any event is scheduled.
#[derive(Debug, Clone)]
pub struct Addresses {
    /// The NIC component.
    pub nic: ComponentId,
    /// The dispatch scheduler.
    pub scheduler: ComponentId,
    /// The package controller.
    pub package: ComponentId,
    /// Per-core execution components, indexed by core number.
    pub cores: Vec<ComponentId>,
}

impl Default for Addresses {
    /// Placeholder ids that no simulation ever issues: an event emitted
    /// through an unfilled `Addresses` panics loudly at dispatch instead of
    /// silently reaching component 0.
    fn default() -> Self {
        let unset = ComponentId::from_raw(usize::MAX);
        Addresses {
            nic: unset,
            scheduler: unset,
            package: unset,
            cores: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_small() {
        // Every scheduled event is moved into and out of the queue's slab:
        // the wire variant boxes its request so no payload inflates them.
        assert_eq!(std::mem::size_of::<ServerEvent>(), 24);
    }
}
