//! # `apc-network` — datacenter network fabric model
//!
//! The paper's killer-microseconds argument rests on package C-state wake
//! latency being *comparable to datacenter network RTTs*: a few microseconds
//! of wire delay is the yardstick against which PC1A's nanosecond wake is
//! agile and PC6's ~100 µs wake is a latency cliff. This crate supplies the
//! other side of that comparison: a deterministic wire-delay model that the
//! cluster and chain simulations route every RPC through.
//!
//! The model is deliberately simple — the paper studies *servers*, not
//! congestion control — but captures the two axes that interact with
//! C-states:
//!
//! * **propagation latency** per [`Link`], so fan-out chains see a real RTT
//!   between the coordinator and the leaves, and
//! * **bandwidth serialization** per link with store-and-forward queueing
//!   (`busy_until` per link), so large payloads and oversubscribed uplinks
//!   stretch the tail.
//!
//! Three [`TopologyKind`]s are modelled: a single-switch **flat** network, a
//! **two-tier** rack/ToR + aggregation network, and an oversubscribed
//! three-tier **fat-tree** (ToR → pod aggregation → core). Path resolution
//! is canonical and deterministic: the same `(src, dst)` pair always
//! resolves to the same link sequence, and paths are symmetric mirrors of
//! their reverses.
//!
//! Endpoint `0..servers` are server nodes; one extra endpoint,
//! [`Topology::client`], models the load balancer / chain coordinator and
//! attaches at the top switch tier of the topology.
//!
//! The load-bearing contract, enforced by the differential suite in
//! `apc-server`: a network whose every transmission takes zero time (see
//! [`NetworkConfig::is_instantaneous`]) is **bit-identical** to no network
//! at all.
//!
//! # Example
//!
//! ```
//! use apc_network::{NetworkConfig, NetworkState};
//! use apc_sim::{SimDuration, SimTime};
//!
//! // 8 servers in racks of 4 behind one aggregation switch, 2 µs per link.
//! let config = NetworkConfig::two_tier(SimDuration::from_micros(2), 4);
//! let mut net = NetworkState::new(config, 8);
//!
//! // Load balancer -> server 0 crosses three links (lb->agg->tor->server).
//! let lb = net.topology().client();
//! let delay = net.transmit(lb, 0, SimTime::ZERO);
//! assert_eq!(delay, SimDuration::from_micros(6));
//!
//! // The ideal network is instantaneous: every transmission takes zero time.
//! let mut ideal = NetworkState::new(NetworkConfig::ideal(), 8);
//! assert!(ideal.config().is_instantaneous());
//! assert_eq!(ideal.transmit(lb, 3, SimTime::ZERO), SimDuration::ZERO);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt;

use apc_sim::{SimDuration, SimTime};

/// Index of a [`Link`] inside its [`Topology`].
pub type LinkId = usize;

/// The longest path any modelled topology produces (fat-tree inter-pod:
/// server → ToR → pod agg → core → pod agg → ToR → server = 6 links).
pub const MAX_PATH_LINKS: usize = 6;

/// The shape of the switching fabric connecting the endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// Every endpoint hangs off one ideal switch: all pairs are two links
    /// apart. The degenerate baseline; with zero latency and infinite
    /// bandwidth it reproduces the instantaneous-deposit behaviour exactly.
    Flat,
    /// Rack/ToR two-tier: servers are grouped into racks of `rack_size`
    /// behind a top-of-rack switch; every ToR uplinks to one aggregation
    /// switch, where the load balancer also attaches. Same-rack pairs are
    /// two links apart, inter-rack pairs four.
    TwoTier {
        /// Servers per rack (≥ 1; the last rack may be partially filled).
        rack_size: usize,
    },
    /// Three-tier oversubscribed fat-tree: racks of `rack_size` behind ToR
    /// switches, `racks_per_pod` ToRs behind a pod aggregation switch, all
    /// pods behind one core tier where the load balancer attaches. The
    /// pod↔core uplinks carry `1/oversubscription` of the edge bandwidth.
    FatTree {
        /// Servers per rack (≥ 1; the last rack may be partially filled).
        rack_size: usize,
        /// Racks per pod (≥ 1; the last pod may be partially filled).
        racks_per_pod: usize,
        /// Core oversubscription factor (≥ 1): pod↔core link bandwidth is
        /// the edge link bandwidth divided by this factor.
        oversubscription: f64,
    },
}

impl TopologyKind {
    /// The canonical spec-file name of this topology
    /// (`"flat"`, `"two-tier"` or `"fat-tree"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Flat => "flat",
            TopologyKind::TwoTier { .. } => "two-tier",
            TopologyKind::FatTree { .. } => "fat-tree",
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Full description of a network fabric: topology shape plus uniform
/// per-link latency, bandwidth and the RPC payload size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// The switching fabric shape.
    pub topology: TopologyKind,
    /// Propagation latency of every link.
    pub link_latency: SimDuration,
    /// Edge link bandwidth in bytes per second; `None` models infinite
    /// bandwidth (no serialization delay, no link queueing).
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Payload size of one RPC message in bytes (serialized on every link
    /// of the path when bandwidth is finite).
    pub rpc_bytes: u64,
}

impl NetworkConfig {
    /// The ideal network: flat topology, zero latency, infinite bandwidth.
    /// Bit-identical to running without any network fabric at all.
    #[must_use]
    pub fn ideal() -> Self {
        NetworkConfig::flat(SimDuration::ZERO)
    }

    /// A flat single-switch network with the given per-link latency.
    #[must_use]
    pub fn flat(link_latency: SimDuration) -> Self {
        NetworkConfig {
            topology: TopologyKind::Flat,
            link_latency,
            bandwidth_bytes_per_sec: None,
            rpc_bytes: 0,
        }
    }

    /// A two-tier rack/ToR network with the given per-link latency.
    #[must_use]
    pub fn two_tier(link_latency: SimDuration, rack_size: usize) -> Self {
        NetworkConfig {
            topology: TopologyKind::TwoTier { rack_size },
            link_latency,
            bandwidth_bytes_per_sec: None,
            rpc_bytes: 0,
        }
    }

    /// A three-tier oversubscribed fat-tree with the given per-link latency.
    #[must_use]
    pub fn fat_tree(
        link_latency: SimDuration,
        rack_size: usize,
        racks_per_pod: usize,
        oversubscription: f64,
    ) -> Self {
        NetworkConfig {
            topology: TopologyKind::FatTree {
                rack_size,
                racks_per_pod,
                oversubscription,
            },
            link_latency,
            bandwidth_bytes_per_sec: None,
            rpc_bytes: 0,
        }
    }

    /// Sets a finite edge-link bandwidth in bytes per second.
    #[must_use]
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth_bytes_per_sec = Some(bytes_per_sec.max(1));
        self
    }

    /// Sets the RPC payload size in bytes.
    #[must_use]
    pub fn with_rpc_bytes(mut self, bytes: u64) -> Self {
        self.rpc_bytes = bytes;
        self
    }

    /// `true` when every transmission through this network takes zero
    /// simulated time regardless of topology: zero link latency and either
    /// infinite bandwidth or an empty payload. An instantaneous network is
    /// bit-identical to no network at all.
    #[must_use]
    pub fn is_instantaneous(&self) -> bool {
        self.link_latency.is_zero()
            && (self.bandwidth_bytes_per_sec.is_none() || self.rpc_bytes == 0)
    }
}

/// One unidirectional link: propagation latency plus optional finite
/// bandwidth (bytes per second) for serialization delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Propagation latency of the link.
    pub latency: SimDuration,
    /// Bandwidth in bytes per second; `None` = infinite.
    pub bytes_per_sec: Option<u64>,
}

impl Link {
    /// Time to clock `bytes` onto the wire at this link's bandwidth
    /// (zero for infinite bandwidth or an empty payload), rounded up to
    /// the next nanosecond.
    #[must_use]
    fn serialization_delay(&self, bytes: u64) -> SimDuration {
        match self.bytes_per_sec {
            None => SimDuration::ZERO,
            Some(_) if bytes == 0 => SimDuration::ZERO,
            Some(bw) => {
                let ns = (u128::from(bytes) * 1_000_000_000).div_ceil(u128::from(bw));
                SimDuration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
            }
        }
    }
}

/// A resolved unidirectional path: at most [`MAX_PATH_LINKS`] link ids,
/// in traversal order. Cheap to copy; no heap allocation per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Path {
    links: [LinkId; MAX_PATH_LINKS],
    len: u8,
}

impl Path {
    fn push(&mut self, link: LinkId) {
        self.links[self.len as usize] = link;
        self.len += 1;
    }

    /// The link ids in traversal order.
    #[must_use]
    pub fn as_slice(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }

    /// Number of links on the path (zero for `src == dst`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the path traverses no links (`src == dst`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A fully resolved topology: the link table and deterministic path
/// resolution over `servers + 1` endpoints (`0..servers` are server nodes,
/// [`Topology::client`] is the load balancer / chain coordinator endpoint,
/// attached at the top switch tier).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    config: NetworkConfig,
    servers: usize,
    rack_size: usize,
    racks_per_pod: usize,
    links: Vec<Link>,
    /// First rack-uplink id (two-tier, fat-tree); endpoint links precede it.
    rack_base: LinkId,
    /// First pod-uplink id (fat-tree); rack links precede it.
    pod_base: LinkId,
}

impl Topology {
    /// Resolves `config` over `servers` server endpoints plus the client
    /// endpoint. Rack and pod sizes are clamped to at least 1.
    #[must_use]
    pub fn new(config: NetworkConfig, servers: usize) -> Self {
        let (rack_size, racks_per_pod, core_bw_divisor) = match config.topology {
            TopologyKind::Flat => (servers.max(1), 1, 1.0),
            TopologyKind::TwoTier { rack_size } => (rack_size.max(1), 1, 1.0),
            TopologyKind::FatTree {
                rack_size,
                racks_per_pod,
                oversubscription,
            } => (
                rack_size.max(1),
                racks_per_pod.max(1),
                oversubscription.max(1.0),
            ),
        };
        let racks = servers.div_ceil(rack_size).max(1);
        let pods = racks.div_ceil(racks_per_pod).max(1);
        let endpoints = servers + 1;

        let edge = Link {
            latency: config.link_latency,
            bytes_per_sec: config.bandwidth_bytes_per_sec,
        };
        let core = Link {
            latency: config.link_latency,
            bytes_per_sec: config
                .bandwidth_bytes_per_sec
                .map(|bw| ((bw as f64 / core_bw_divisor).floor() as u64).max(1)),
        };

        // Link table layout: [endpoint up/down pairs][rack up/down pairs]
        // [pod up/down pairs]. `up` is always the even id of its pair.
        let mut links = vec![edge; 2 * endpoints];
        let rack_base = links.len();
        if !matches!(config.topology, TopologyKind::Flat) {
            links.extend(std::iter::repeat(edge).take(2 * racks));
        }
        let pod_base = links.len();
        if matches!(config.topology, TopologyKind::FatTree { .. }) {
            links.extend(std::iter::repeat(core).take(2 * pods));
        }

        Topology {
            config,
            servers,
            rack_size,
            racks_per_pod,
            links,
            rack_base,
            pod_base,
        }
    }

    /// The configuration this topology was resolved from.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of server endpoints (`0..servers`).
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The client endpoint index (load balancer / chain coordinator),
    /// attached at the top switch tier.
    #[must_use]
    pub fn client(&self) -> usize {
        self.servers
    }

    /// Total endpoint count (`servers + 1`).
    #[must_use]
    pub fn endpoints(&self) -> usize {
        self.servers + 1
    }

    /// The full unidirectional link table.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The rack a server endpoint belongs to.
    #[must_use]
    pub fn rack_of(&self, server: usize) -> usize {
        server / self.rack_size
    }

    /// The pod a rack belongs to (fat-tree; 0 elsewhere).
    #[must_use]
    pub fn pod_of(&self, rack: usize) -> usize {
        rack / self.racks_per_pod
    }

    fn up(&self, endpoint: usize) -> LinkId {
        2 * endpoint
    }

    fn down(&self, endpoint: usize) -> LinkId {
        2 * endpoint + 1
    }

    fn rack_up(&self, rack: usize) -> LinkId {
        self.rack_base + 2 * rack
    }

    fn rack_down(&self, rack: usize) -> LinkId {
        self.rack_base + 2 * rack + 1
    }

    fn pod_up(&self, pod: usize) -> LinkId {
        self.pod_base + 2 * pod
    }

    fn pod_down(&self, pod: usize) -> LinkId {
        self.pod_base + 2 * pod + 1
    }

    /// Resolves the canonical path from endpoint `src` to endpoint `dst`.
    ///
    /// Resolution is a pure function of `(src, dst)` — no randomness, no
    /// state — and the path from `dst` to `src` is the mirror image (each
    /// `up` link replaced by its paired `down` link) of the forward path.
    /// `src == dst` resolves to the empty path.
    ///
    /// # Panics
    ///
    /// Panics when `src` or `dst` is not a valid endpoint index.
    #[must_use]
    pub fn path(&self, src: usize, dst: usize) -> Path {
        assert!(src < self.endpoints(), "src endpoint {src} out of range");
        assert!(dst < self.endpoints(), "dst endpoint {dst} out of range");
        let mut path = Path::default();
        if src == dst {
            return path;
        }
        path.push(self.up(src));
        let client = self.client();
        match self.config.topology {
            TopologyKind::Flat => {}
            TopologyKind::TwoTier { .. } => {
                // Servers attach at their ToR; the client attaches at the
                // aggregation switch where every ToR uplinks.
                let src_rack = (src != client).then(|| self.rack_of(src));
                let dst_rack = (dst != client).then(|| self.rack_of(dst));
                if src_rack != dst_rack {
                    if let Some(r) = src_rack {
                        path.push(self.rack_up(r));
                    }
                    if let Some(r) = dst_rack {
                        path.push(self.rack_down(r));
                    }
                }
            }
            TopologyKind::FatTree { .. } => {
                // Servers attach at their ToR inside a pod; the client
                // attaches at the core tier above every pod.
                let src_rack = (src != client).then(|| self.rack_of(src));
                let dst_rack = (dst != client).then(|| self.rack_of(dst));
                if src_rack != dst_rack {
                    let src_pod = src_rack.map(|r| self.pod_of(r));
                    let dst_pod = dst_rack.map(|r| self.pod_of(r));
                    if let Some(r) = src_rack {
                        path.push(self.rack_up(r));
                    }
                    if src_pod != dst_pod {
                        if let Some(p) = src_pod {
                            path.push(self.pod_up(p));
                        }
                        if let Some(p) = dst_pod {
                            path.push(self.pod_down(p));
                        }
                    }
                    if let Some(r) = dst_rack {
                        path.push(self.rack_down(r));
                    }
                }
            }
        }
        path.push(self.down(dst));
        path
    }

    /// The uncontended flight time of one RPC from `src` to `dst`: the sum
    /// over the path's links of propagation latency plus serialization of
    /// the configured payload. Ignores link queueing (see
    /// [`NetworkState::transmit`] for the contended form).
    #[must_use]
    pub fn flight_latency(&self, src: usize, dst: usize) -> SimDuration {
        self.path(src, dst)
            .as_slice()
            .iter()
            .map(|&l| {
                self.links[l].latency + self.links[l].serialization_delay(self.config.rpc_bytes)
            })
            .sum()
    }
}

/// Per-link occupancy and queueing statistics for one simulation run.
///
/// Lets a trace attribute wire time to the congested link instead of the
/// path-level census alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Messages forwarded over this link.
    pub messages: u64,
    /// Sum of store-and-forward queueing waits (departure minus arrival).
    pub total_queue_delay: SimDuration,
    /// Largest single queueing wait observed on this link.
    pub max_queue_delay: SimDuration,
    /// Total time the link spent serializing payloads (occupancy).
    pub busy_time: SimDuration,
}

/// Aggregate wire-delay statistics for one simulation run, exported next
/// to the run results.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// The configuration the fabric ran with.
    pub config: NetworkConfig,
    /// Messages transmitted through the fabric.
    pub messages: u64,
    /// Sum of all wire delays in nanoseconds, exact: it does not saturate
    /// where a `SimDuration` sum would.
    pub total_wire_delay_ns: u128,
    /// Largest single wire delay observed.
    pub max_wire_delay: SimDuration,
    /// Per-link breakdown, indexed by [`LinkId`] (same order as
    /// [`Topology::links`]).
    pub per_link: Vec<LinkStats>,
}

impl NetworkStats {
    /// Mean wire delay per message (zero when no messages were sent). The
    /// mean of `u64` delays always fits one.
    #[must_use]
    pub fn mean_wire_delay(&self) -> SimDuration {
        if self.messages == 0 {
            SimDuration::ZERO
        } else {
            let mean = self.total_wire_delay_ns / u128::from(self.messages);
            SimDuration::from_nanos(u64::try_from(mean).expect("a mean of u64 delays fits a u64"))
        }
    }
}

/// The runtime state of a network fabric: the resolved [`Topology`] plus
/// per-link `busy_until` store-and-forward queueing and run statistics.
#[derive(Debug, Clone)]
pub struct NetworkState {
    topology: Topology,
    busy_until: Vec<SimTime>,
    stats: NetworkStats,
}

impl NetworkState {
    /// Builds the fabric for `servers` server endpoints plus the client
    /// endpoint.
    #[must_use]
    pub fn new(config: NetworkConfig, servers: usize) -> Self {
        let topology = Topology::new(config, servers);
        let busy_until = vec![SimTime::ZERO; topology.links().len()];
        let per_link = vec![LinkStats::default(); topology.links().len()];
        NetworkState {
            topology,
            busy_until,
            stats: NetworkStats {
                config,
                messages: 0,
                total_wire_delay_ns: 0,
                max_wire_delay: SimDuration::ZERO,
                per_link,
            },
        }
    }

    /// The resolved topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The fabric configuration.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        self.topology.config()
    }

    /// The client endpoint index (load balancer / chain coordinator).
    #[must_use]
    pub fn client(&self) -> usize {
        self.topology.client()
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Transmits one RPC of the configured payload size from endpoint `src`
    /// to endpoint `dst` starting at `now`, and returns the wire delay
    /// (arrival time minus `now`).
    ///
    /// The message is forwarded store-and-forward: on each link it departs
    /// at `max(arrival at the link, link busy_until)`, occupies the link for
    /// the serialization time, and propagates for the link latency. Link
    /// occupancy is recorded so later messages queue behind earlier ones.
    /// On an [instantaneous](NetworkConfig::is_instantaneous) fabric this
    /// always returns [`SimDuration::ZERO`] and records no occupancy.
    pub fn transmit(&mut self, src: usize, dst: usize, now: SimTime) -> SimDuration {
        let path = self.topology.path(src, dst);
        let bytes = self.topology.config().rpc_bytes;
        let mut at = now;
        for &link_id in path.as_slice() {
            let link = self.topology.links()[link_id];
            let serialize = link.serialization_delay(bytes);
            let depart = if self.busy_until[link_id] > at {
                self.busy_until[link_id]
            } else {
                at
            };
            if !serialize.is_zero() {
                self.busy_until[link_id] = depart + serialize;
            }
            let queued = depart.saturating_since(at);
            let stats = &mut self.stats.per_link[link_id];
            stats.messages += 1;
            stats.total_queue_delay += queued;
            stats.max_queue_delay = stats.max_queue_delay.max(queued);
            stats.busy_time += serialize;
            at = depart + serialize + link.latency;
        }
        let delay = at.saturating_since(now);
        self.stats.messages += 1;
        self.stats.total_wire_delay_ns += u128::from(delay.as_nanos());
        self.stats.max_wire_delay = self.stats.max_wire_delay.max(delay);
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_network_is_instantaneous_everywhere() {
        let mut net = NetworkState::new(NetworkConfig::ideal(), 8);
        let client = net.client();
        for dst in 0..8 {
            assert_eq!(
                net.transmit(client, dst, SimTime::from_micros(3)),
                SimDuration::ZERO
            );
            assert_eq!(
                net.transmit(dst, client, SimTime::from_micros(3)),
                SimDuration::ZERO
            );
        }
        assert_eq!(net.stats().messages, 16);
        assert_eq!(net.stats().total_wire_delay_ns, 0);
    }

    #[test]
    fn zero_latency_nonflat_topologies_are_also_instantaneous() {
        for config in [
            NetworkConfig::two_tier(SimDuration::ZERO, 4),
            NetworkConfig::fat_tree(SimDuration::ZERO, 2, 2, 4.0),
        ] {
            assert!(config.is_instantaneous());
            let mut net = NetworkState::new(config, 8);
            let client = net.client();
            assert_eq!(net.transmit(client, 7, SimTime::ZERO), SimDuration::ZERO);
        }
        // Finite bandwidth with a non-empty payload is not instantaneous.
        let cfg = NetworkConfig::flat(SimDuration::ZERO)
            .with_bandwidth(1_000_000)
            .with_rpc_bytes(100);
        assert!(!cfg.is_instantaneous());
        // ... but finite bandwidth with an empty payload still is.
        assert!(NetworkConfig::flat(SimDuration::ZERO)
            .with_bandwidth(1_000)
            .is_instantaneous());
    }

    #[test]
    fn flat_paths_cross_exactly_two_links() {
        let topo = Topology::new(NetworkConfig::flat(SimDuration::from_micros(1)), 4);
        for src in 0..topo.endpoints() {
            for dst in 0..topo.endpoints() {
                let expect = if src == dst { 0 } else { 2 };
                assert_eq!(topo.path(src, dst).len(), expect, "({src},{dst})");
            }
        }
        assert_eq!(topo.flight_latency(0, 3), SimDuration::from_micros(2));
    }

    #[test]
    fn two_tier_hop_counts_follow_rack_structure() {
        // 8 servers, racks of 4: servers 0-3 in rack 0, 4-7 in rack 1.
        let topo = Topology::new(NetworkConfig::two_tier(SimDuration::from_micros(1), 4), 8);
        let client = topo.client();
        assert_eq!(topo.path(0, 3).len(), 2); // same rack
        assert_eq!(topo.path(0, 4).len(), 4); // across racks
        assert_eq!(topo.path(client, 0).len(), 3); // lb at agg: lb->tor->server
        assert_eq!(topo.path(5, client).len(), 3);
        assert_eq!(topo.flight_latency(client, 0), SimDuration::from_micros(3));
    }

    #[test]
    fn fat_tree_hop_counts_follow_pod_structure() {
        // 8 servers, racks of 2, 2 racks/pod: pods = {r0,r1}, {r2,r3}.
        let topo = Topology::new(
            NetworkConfig::fat_tree(SimDuration::from_micros(1), 2, 2, 4.0),
            8,
        );
        let client = topo.client();
        assert_eq!(topo.path(0, 1).len(), 2); // same rack
        assert_eq!(topo.path(0, 2).len(), 4); // same pod, other rack
        assert_eq!(topo.path(0, 6).len(), 6); // other pod
        assert_eq!(topo.path(client, 0).len(), 4); // lb at core
        assert_eq!(topo.path(0, client).len(), 4);
    }

    #[test]
    fn fat_tree_paths_climb_only_as_high_as_the_endpoints_differ() {
        // 8 servers, racks of 2, 2 racks/pod: pods = {r0,r1}, {r2,r3}.
        let topo = Topology::new(
            NetworkConfig::fat_tree(SimDuration::from_micros(1), 2, 2, 4.0),
            8,
        );
        assert_eq!(topo.path(0, 1).as_slice(), [topo.up(0), topo.down(1)]);
        assert_eq!(
            topo.path(0, 2).as_slice(),
            [topo.up(0), topo.rack_up(0), topo.rack_down(1), topo.down(2)]
        );
        assert_eq!(
            topo.path(0, 6).as_slice(),
            [
                topo.up(0),
                topo.rack_up(0),
                topo.pod_up(0),
                topo.pod_down(1),
                topo.rack_down(3),
                topo.down(6)
            ]
        );
        // The client sits at the core tier: it only ever descends.
        let client = topo.client();
        assert_eq!(
            topo.path(client, 7).as_slice(),
            [
                topo.up(client),
                topo.pod_down(1),
                topo.rack_down(3),
                topo.down(7)
            ]
        );
        assert!(topo.path(5, 5).is_empty());
    }

    #[test]
    fn reverse_paths_mirror_forward_paths() {
        for config in [
            NetworkConfig::flat(SimDuration::from_micros(1)),
            NetworkConfig::two_tier(SimDuration::from_micros(1), 4),
            NetworkConfig::fat_tree(SimDuration::from_micros(1), 2, 2, 4.0),
        ] {
            let topo = Topology::new(config, 8);
            for src in 0..topo.endpoints() {
                for dst in 0..topo.endpoints() {
                    // Every tier lays out its links as (up, down) pairs from
                    // an even base, so `^ 1` maps a link to its partner.
                    let mirrored: Vec<LinkId> = topo
                        .path(src, dst)
                        .as_slice()
                        .iter()
                        .rev()
                        .map(|&l| l ^ 1)
                        .collect();
                    assert_eq!(topo.path(dst, src).as_slice(), mirrored, "({src},{dst})");
                }
            }
        }
    }

    #[test]
    fn oversubscription_thins_core_links_only() {
        let topo = Topology::new(
            NetworkConfig::fat_tree(SimDuration::ZERO, 2, 2, 4.0).with_bandwidth(40_000),
            8,
        );
        let edge = topo.links()[topo.up(0)];
        let core = topo.links()[topo.pod_up(0)];
        assert_eq!(edge.bytes_per_sec, Some(40_000));
        assert_eq!(core.bytes_per_sec, Some(10_000));
        let tor = topo.links()[topo.rack_up(0)];
        assert_eq!(tor.bytes_per_sec, Some(40_000));
    }

    #[test]
    fn serialization_delay_rounds_up_to_nanoseconds() {
        let link = Link {
            latency: SimDuration::ZERO,
            bytes_per_sec: Some(1_000_000_000), // 1 GB/s => 1 ns per byte
        };
        assert_eq!(
            link.serialization_delay(1500),
            SimDuration::from_nanos(1500)
        );
        let slow = Link {
            latency: SimDuration::ZERO,
            bytes_per_sec: Some(3),
        };
        // ceil(1 byte * 1e9 / 3) = 333_333_334 ns.
        assert_eq!(
            slow.serialization_delay(1),
            SimDuration::from_nanos(333_333_334)
        );
        assert_eq!(slow.serialization_delay(0), SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_messages_queue_on_busy_links() {
        // 1 µs serialization per message (1000 bytes at 1 GB/s), no latency.
        let config = NetworkConfig::flat(SimDuration::ZERO)
            .with_bandwidth(1_000_000_000)
            .with_rpc_bytes(1000);
        let mut net = NetworkState::new(config, 2);
        let client = net.client();
        // First message: 2 links x 1 µs serialization.
        let first = net.transmit(client, 0, SimTime::ZERO);
        assert_eq!(first, SimDuration::from_micros(2));
        // The second message departs after the first clears the lb uplink,
        // then queues behind nothing on its own distinct down link.
        let second = net.transmit(client, 1, SimTime::ZERO);
        assert_eq!(second, SimDuration::from_micros(3)); // 1 µs wait + 2 µs
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats().max_wire_delay, SimDuration::from_micros(3));
        assert_eq!(
            net.stats().mean_wire_delay(),
            SimDuration::from_nanos(2_500)
        );
    }

    #[test]
    fn the_mean_wire_delay_is_exact_past_the_u64_range() {
        // 10^18 ns per link, two links per client-server path: thirty
        // messages of 2·10^18 ns sum to 6·10^19 ns, past `u64::MAX`.
        let latency = SimDuration::from_nanos(1_000_000_000_000_000_000);
        let mut net = NetworkState::new(NetworkConfig::flat(latency), 4);
        let client = net.client();
        for i in 0..30 {
            let delay = net.transmit(client, i % 4, SimTime::from_millis(i as u64));
            assert_eq!(delay, latency + latency);
        }
        let stats = net.stats();
        assert_eq!(stats.total_wire_delay_ns, 60_000_000_000_000_000_000);
        assert_eq!(stats.mean_wire_delay(), latency + latency);
        assert_eq!(stats.max_wire_delay, latency + latency);
    }

    #[test]
    fn per_link_stats_attribute_queueing_to_the_congested_link() {
        // Same setup as `back_to_back_messages_queue_on_busy_links`: the
        // second message queues 1 µs behind the first on the shared client
        // uplink, and nowhere else.
        let config = NetworkConfig::flat(SimDuration::ZERO)
            .with_bandwidth(1_000_000_000)
            .with_rpc_bytes(1000);
        let mut net = NetworkState::new(config, 2);
        let client = net.client();
        net.transmit(client, 0, SimTime::ZERO);
        net.transmit(client, 1, SimTime::ZERO);

        let up = 2 * client; // client uplink id per the table layout
        let stats = net.stats();
        assert_eq!(stats.per_link.len(), net.topology().links().len());
        assert_eq!(stats.per_link[up].messages, 2);
        assert_eq!(
            stats.per_link[up].total_queue_delay,
            SimDuration::from_micros(1)
        );
        assert_eq!(
            stats.per_link[up].max_queue_delay,
            SimDuration::from_micros(1)
        );
        assert_eq!(stats.per_link[up].busy_time, SimDuration::from_micros(2));
        // Each server's down link carried one message with no queueing.
        for server in 0..2 {
            let down = 2 * server + 1;
            assert_eq!(stats.per_link[down].messages, 1);
            assert_eq!(stats.per_link[down].total_queue_delay, SimDuration::ZERO);
            assert_eq!(stats.per_link[down].busy_time, SimDuration::from_micros(1));
        }
    }

    #[test]
    fn topology_names_are_stable() {
        assert_eq!(NetworkConfig::ideal().topology.name(), "flat");
        assert_eq!(
            TopologyKind::TwoTier { rack_size: 4 }.to_string(),
            "two-tier"
        );
        assert_eq!(
            NetworkConfig::fat_tree(SimDuration::ZERO, 1, 1, 1.0)
                .topology
                .name(),
            "fat-tree"
        );
    }
}
