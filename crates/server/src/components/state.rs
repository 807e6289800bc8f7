//! The simulation's shared state: one [`ServerState`] per node in one
//! [`ClusterState`].
//!
//! The rule of thumb: state another component reads or writes (the NIC
//! buffer the front deposits into, the routing index) or the run's result
//! is reduced from (the SoC models, the package controller, telemetry)
//! lives here, with the work queues the node's parts share; state private
//! to one part of the node (a core's transition epoch and noise stream,
//! the sampler's previous sample) lives in the [`crate::node::Node`].
//!
//! A node's energy and package-residency accounting lives here too, as
//! [`ServerState::charge`] and [`ServerState::settle`]: the node's handler
//! calls them around every one of its events (see [`crate::node`]).
//! Charging reads the node's power level from its [`PowerTable`] in O(1)
//! integer work.

use std::collections::VecDeque;

use apc_power::energy::{EnergyMeter, PowerLevel};
use apc_power::model::PowerModel;
use apc_power::table::{PowerTable, UncoreLevel};
use apc_sim::{SimDuration, SimTime};
use apc_soc::core::{CoreActivity, CoreId};
use apc_soc::cstate::PackageCState;
use apc_soc::topology::SkxSoc;
use apc_telemetry::idle::IdlePeriodTracker;
use apc_telemetry::residency::{CoreResidencySet, PackageResidency};
use apc_telemetry::sketch::QuantileSketch;
use apc_telemetry::timeseries::TimeSeries;
use apc_trace::TraceState;
use apc_workloads::request::Request;

use super::package::PackageController;
use super::WorkItem;
use crate::config::ServerConfig;

/// A bitset over core indices tracking which cores can currently accept
/// work, maintained so the dispatch scheduler finds the lowest free core in
/// O(1) (one `trailing_zeros` per 64 cores) instead of scanning every core
/// per queued request.
///
/// The set is kept in lock-step with [`SchedState::core_is_free`]: a core's
/// bit is set exactly when it has no running work, no pending assignment and
/// is not busy executing. Only two places change that predicate — the
/// scheduler reserving a core ([`SchedState::mark_occupied`]) and the core
/// starting its idle entry ([`SchedState::mark_free`]) — so the mirror stays
/// exact (and is `debug_assert`ed at every dispatch).
#[derive(Debug, Clone)]
pub struct FreeCoreSet {
    words: Vec<u64>,
    len: usize,
    /// Number of set bits, maintained by `insert`/`remove`.
    ones: usize,
}

impl FreeCoreSet {
    /// A set of `cores` cores, all occupied (cores boot busy until their
    /// initial idle entry).
    #[must_use]
    fn new_all_occupied(cores: usize) -> Self {
        FreeCoreSet {
            words: vec![0; cores.div_ceil(64)],
            len: cores,
            ones: 0,
        }
    }

    /// A set of `cores` cores with no bits set. Alias of
    /// `FreeCoreSet::new_all_occupied` for uses where the set tracks
    /// something other than freeness (e.g. pending background work).
    #[must_use]
    pub fn empty(cores: usize) -> Self {
        FreeCoreSet::new_all_occupied(cores)
    }

    /// Marks `core` free.
    pub fn insert(&mut self, core: usize) {
        debug_assert!(core < self.len);
        let word = &mut self.words[core / 64];
        let bit = 1u64 << (core % 64);
        self.ones += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Marks `core` occupied.
    pub fn remove(&mut self, core: usize) {
        debug_assert!(core < self.len);
        let word = &mut self.words[core / 64];
        let bit = 1u64 << (core % 64);
        self.ones -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    /// `true` when `core` is marked free.
    #[must_use]
    pub fn contains(&self, core: usize) -> bool {
        debug_assert!(core < self.len);
        self.words[core / 64] & (1u64 << (core % 64)) != 0
    }

    /// The lowest free core index, if any.
    #[must_use]
    pub fn lowest(&self) -> Option<usize> {
        self.lowest_at_or_after(0)
    }

    /// The lowest free core index `>= from`, if any. Used to iterate free
    /// cores in index order while marking them occupied along the way.
    #[must_use]
    fn lowest_at_or_after(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut word_idx = from / 64;
        let mut word = self.words[word_idx] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let core = word_idx * 64 + word.trailing_zeros() as usize;
                return (core < self.len).then_some(core);
            }
            word_idx += 1;
            if word_idx >= self.words.len() {
                return None;
            }
            word = self.words[word_idx];
        }
    }

    /// The lowest index `>= from` present in both `self` and `other`, if
    /// any. Same traversal as `FreeCoreSet::lowest_at_or_after` over the
    /// intersection of the two sets (both must cover the same core count).
    #[must_use]
    pub fn lowest_common_at_or_after(&self, other: &FreeCoreSet, from: usize) -> Option<usize> {
        debug_assert_eq!(self.len, other.len);
        if from >= self.len {
            return None;
        }
        let mut word_idx = from / 64;
        let mut word = self.words[word_idx] & other.words[word_idx] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let core = word_idx * 64 + word.trailing_zeros() as usize;
                return (core < self.len).then_some(core);
            }
            word_idx += 1;
            if word_idx >= self.words.len() {
                return None;
            }
            word = self.words[word_idx] & other.words[word_idx];
        }
    }

    /// Number of free cores. O(1): the set maintains the count.
    #[must_use]
    pub fn count(&self) -> usize {
        debug_assert_eq!(
            self.ones,
            self.words
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
        );
        self.ones
    }
}

/// NIC-side arrival buffering: requests waiting for the coalesced interrupt
/// delivery. Shared (rather than private to the NIC component) because the
/// cluster's front (or the fabric) deposits routed requests into a node's
/// buffer, while the node's own NIC component drains it on `NicDeliver`.
#[derive(Debug)]
pub struct NicState {
    /// Requests buffered during the current coalescing window.
    pub buffer: VecDeque<Request>,
    /// `true` while a `NicDeliver` interrupt is armed for the buffer.
    pub deliver_pending: bool,
    /// When the armed `NicDeliver` interrupt fires ([`SimTime::MAX`] when
    /// none is armed). Written by the single shared deposit helper (every
    /// balancer, coordinator and fabric deposit goes through it), read by
    /// the idle governor's predicted-idle bound — a core going idle with a
    /// delivery already armed knows work is imminent and must not pick a
    /// deep C-state it cannot amortise (see
    /// [`ServerState::predicted_idle_bound`]).
    pub next_deliver_at: SimTime,
}

impl Default for NicState {
    fn default() -> Self {
        NicState {
            buffer: VecDeque::new(),
            deliver_pending: false,
            next_deliver_at: SimTime::MAX,
        }
    }
}

/// Work-queue and per-core occupancy state, read by the scheduler and
/// mutated by the NIC, the cores and the scheduler.
#[derive(Debug)]
pub struct SchedState {
    /// Client requests delivered by the NIC, waiting for a free core.
    pub client_queue: VecDeque<Request>,
    /// Per-core queues of pinned OS background work.
    pub background: Vec<VecDeque<SimDuration>>,
    /// Work currently executing on each core; changed only through
    /// [`SchedState::start_running`] and [`SchedState::take_running`], which
    /// keep `busy` in step.
    running: Vec<Option<WorkItem>>,
    /// Number of `Some` slots in `running`.
    busy: usize,
    /// Work assigned to a core that is still completing its wake transition.
    pub pending_start: Vec<Option<WorkItem>>,
    /// When each core's next background timer fires (the OS knows its own
    /// timers, so the idle governor uses this as the predicted idle bound).
    pub next_background_at: Vec<SimTime>,
    /// Cores currently able to accept work; the scheduler's O(1) dispatch
    /// index (see [`FreeCoreSet`]).
    pub free_cores: FreeCoreSet,
    /// Cores whose background queue is non-empty — always equal to
    /// `!background[core].is_empty()` bit for bit. The dispatch round
    /// intersects it with `free_cores` so placing pinned background work
    /// skips free cores with nothing queued instead of probing each queue.
    pub background_pending: FreeCoreSet,
}

impl SchedState {
    /// Empty scheduling state for `cores` cores.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        SchedState {
            client_queue: VecDeque::new(),
            background: vec![VecDeque::new(); cores],
            running: vec![None; cores],
            busy: 0,
            pending_start: vec![None; cores],
            next_background_at: vec![SimTime::MAX; cores],
            free_cores: FreeCoreSet::new_all_occupied(cores),
            background_pending: FreeCoreSet::empty(cores),
        }
    }

    /// Records that `core` began its idle entry and can accept work again.
    pub fn mark_free(&mut self, core: usize) {
        self.free_cores.insert(core);
    }

    /// Records that `core` was reserved for an assignment.
    pub fn mark_occupied(&mut self, core: usize) {
        self.free_cores.remove(core);
    }

    /// Starts `item` executing on `core` (which must be running nothing).
    pub fn start_running(&mut self, core: usize, item: WorkItem) {
        let previous = self.running[core].replace(item);
        debug_assert!(previous.is_none(), "core {core} is already running work");
        self.busy += usize::from(previous.is_none());
    }

    /// Takes the work executing on `core`, if any.
    pub fn take_running(&mut self, core: usize) -> Option<WorkItem> {
        let item = self.running[core].take();
        self.busy -= usize::from(item.is_some());
        item
    }

    /// `true` when `core` can accept new work.
    #[must_use]
    pub fn core_is_free(&self, soc: &SkxSoc, core: usize) -> bool {
        self.running[core].is_none()
            && self.pending_start[core].is_none()
            && soc.cores().core(apc_soc::core::CoreId(core)).activity() != CoreActivity::Busy
    }

    /// Number of cores currently executing work. O(1): the state maintains
    /// the count.
    #[must_use]
    pub fn busy_cores(&self) -> usize {
        debug_assert_eq!(
            self.busy,
            self.running.iter().filter(|w| w.is_some()).count()
        );
        self.busy
    }

    /// `true` when any core is running or about to run work.
    #[must_use]
    fn any_work_in_flight(&self) -> bool {
        self.running.iter().any(Option::is_some) || self.pending_start.iter().any(Option::is_some)
    }
}

/// All measurement state: energy, latency, residencies, idle periods and
/// run counters.
#[derive(Debug)]
pub struct TelemetryState {
    /// Energy accumulation (power attribution over elapsed intervals).
    pub energy: EnergyMeter,
    /// Client-visible request latency in nanoseconds: one sample per
    /// completed request.
    pub latency: QuantileSketch,
    /// Per-core C-state residency.
    pub core_residency: CoreResidencySet,
    /// Package C-state residency.
    pub package_residency: PackageResidency,
    /// Fully-idle period statistics (SoCWatch floor applied).
    pub idle_tracker: IdlePeriodTracker,
    /// Total busy core-time accumulated.
    pub busy_core_time: SimDuration,
    /// Optional time-series telemetry, filled by the time-series sampler
    /// component when [`crate::config::ServerConfig::timeseries_interval`]
    /// is set.
    pub timeseries: Option<TimeSeries>,
}

impl TelemetryState {
    /// Fresh telemetry for `cores` cores starting at t = 0.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        TelemetryState {
            energy: EnergyMeter::new(SimTime::ZERO),
            latency: QuantileSketch::new(),
            core_residency: CoreResidencySet::new(cores, SimTime::ZERO),
            package_residency: PackageResidency::new(PackageCState::PC0, SimTime::ZERO),
            idle_tracker: IdlePeriodTracker::new(cores, SimTime::ZERO),
            busy_core_time: SimDuration::ZERO,
            timeseries: None,
        }
    }
}

/// The state of one complete simulated server: its node reads and writes
/// this as its entry in [`ClusterState::nodes`], indexed by the node's
/// number.
#[derive(Debug)]
pub struct ServerState {
    /// The run configuration (platform, noise, horizon, seed).
    pub config: ServerConfig,
    /// The SoC structural model.
    pub soc: SkxSoc,
    /// NIC arrival buffering (coalescing window).
    pub nic: NicState,
    /// Work queues and per-core occupancy.
    pub sched: SchedState,
    /// The package controller: the one package FSM the platform uses. The
    /// NIC, the cores, the scheduler and [`ServerState::settle`] ask it;
    /// only its own event handlers move it.
    pub package: PackageController,
    /// Measurements.
    pub telemetry: TelemetryState,
    /// Workload name (for the run result).
    pub workload_name: &'static str,
    /// Offered request rate (for the run result).
    pub offered_rate: f64,
    /// Client network round-trip added to server-side latency.
    pub network_rtt: SimDuration,
    /// The calibrated power model quantised for this node's SoC.
    power_table: PowerTable,
    /// The uncore part of the power level, and the
    /// [`SkxSoc::uncore_change_epoch`] it was computed at.
    uncore_level: (u64, UncoreLevel),
}

impl ServerState {
    /// Builds the shared state for `config`; the SoC is constructed from the
    /// configured topology.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        let soc = config.soc.build();
        let cores = soc.cores().len();
        let mut telemetry = TelemetryState::new(cores);
        telemetry.timeseries = config
            .timeseries_interval
            .filter(|d| !d.is_zero())
            .map(TimeSeries::new);
        let power_table = PowerTable::new(&PowerModel::skx_calibrated(), &soc);
        let uncore_level = (soc.uncore_change_epoch(), power_table.uncore(&soc));
        ServerState {
            soc,
            nic: NicState::default(),
            sched: SchedState::new(cores),
            package: PackageController::new(config.platform.package_policy),
            telemetry,
            workload_name: "",
            offered_rate: 0.0,
            network_rtt: SimDuration::ZERO,
            power_table,
            uncore_level,
            config,
        }
    }

    /// `true` when any core is active or has work in flight (the package
    /// cannot be considered idle). O(1): both halves read maintained counts.
    #[must_use]
    pub fn any_core_active(&self) -> bool {
        if self.soc.cores().any_active() {
            return true;
        }
        // No core is busy: work is in flight exactly when some core is
        // reserved/occupied, i.e. missing from the free set. (During boot
        // all cores are occupied *and* busy until their initial idle entry,
        // so the short-circuit above covers the window where the free set
        // alone would over-report; see `FreeCoreSet::new_all_occupied`.)
        let occupied = self.sched.free_cores.count() < self.soc.cores().len();
        debug_assert_eq!(occupied, self.sched.any_work_in_flight());
        occupied
    }

    /// The level the energy meter integrates: the node's power in whole
    /// nanowatts, summed from its [`PowerTable`]. Equal to
    /// [`PowerLevel::quantise`] of the float [`PowerModel::snapshot`] for a
    /// model of whole-microwatt constants (see [`apc_power::table`]). The
    /// time-series sampler reports its SoC part.
    ///
    /// [`PowerModel::snapshot`]: apc_power::model::PowerModel::snapshot
    #[must_use]
    pub fn power_level(&self) -> PowerLevel {
        let uncore = self.power_table.uncore(&self.soc);
        self.power_table
            .level(&self.soc, &uncore, self.sched.busy_cores())
    }

    /// Charges the energy meter up to `now` at the level held since the
    /// last charge. Runs before every event of the node (see
    /// [`crate::node::Node`]), so each interval between two node events is
    /// charged at the level that held across it. Events of other
    /// components (a cluster's front, the fabric, other nodes) at most
    /// deposit into this node's NIC buffer, which no power input reads, and
    /// the meter's integer accounting is split-invariant (see
    /// [`apc_power::energy`]): charging at fewer instants meters the same
    /// energy.
    ///
    /// The level is [`ServerState::power_level`] with the uncore part
    /// cached until [`SkxSoc::uncore_change_epoch`] moves: O(1) integer work
    /// per charge (see [`PowerTable::level`]), and none for a zero-length
    /// interval.
    #[inline]
    pub fn charge(&mut self, now: SimTime) {
        if now <= self.telemetry.energy.last() {
            return;
        }
        let epoch = self.soc.uncore_change_epoch();
        if self.uncore_level.0 != epoch {
            self.uncore_level = (epoch, self.power_table.uncore(&self.soc));
        }
        let level =
            self.power_table
                .level(&self.soc, &self.uncore_level.1, self.sched.busy_cores());
        self.telemetry.energy.advance(now, &level);
    }

    /// Records the package C-state at `now` and returns
    /// [`ServerState::any_core_active`], which picks it. Runs after every
    /// event of the node: the state is a pure function of that flag and
    /// the package FSM, which only those events move. A repeated state is a
    /// no-op. The node publishes the flag as its awake bit in
    /// [`ClusterState::routing`].
    #[inline]
    pub fn settle(&mut self, now: SimTime) -> bool {
        let awake = self.any_core_active();
        let state = self.package.package_state(awake);
        self.telemetry.package_residency.transition(now, state);
        awake
    }

    /// Closes every telemetry stream at the end of the measurement window.
    /// Energy is charged up to `end` at the level currently held: nothing
    /// after the node's last event changed its power.
    ///
    /// Debug builds then check that the meter and every residency tracker
    /// cover exactly `[0, end]` in integer nanoseconds.
    pub fn finish_telemetry(&mut self, end: SimTime) {
        self.charge(end);
        self.telemetry.core_residency.finish(end);
        self.telemetry.package_residency.finish(end);
        self.telemetry.idle_tracker.finish(end);
        let horizon = end.saturating_since(SimTime::ZERO);
        debug_assert_eq!(
            self.telemetry.energy.elapsed(),
            horizon,
            "the energy meter must reach the horizon"
        );
        debug_assert_eq!(
            self.telemetry.package_residency.total(),
            horizon,
            "package residency must tile the horizon"
        );
        debug_assert!(
            (0..self.telemetry.core_residency.len()).all(|c| self
                .telemetry
                .core_residency
                .core(CoreId(c))
                .total()
                == horizon),
            "every core's residency must tile the horizon"
        );
    }

    /// The OS's bound on how long `core` will stay idle from `now`: the
    /// sooner of the core's next background timer and the NIC's armed
    /// coalesced-interrupt delivery. Both are events the kernel genuinely
    /// knows about (its own timer wheel, the interrupt it armed); open-loop
    /// client arrivals stay unpredictable. The idle governor uses this one
    /// bound on every idle entry, whichever front deposited the pending
    /// work — the balancer, the chain coordinator and the fabric all arm
    /// delivery through the same helper.
    #[must_use]
    pub fn predicted_idle_bound(&self, core: usize, now: SimTime) -> SimDuration {
        self.sched.next_background_at[core]
            .min(self.nic.next_deliver_at)
            .saturating_since(now)
    }

    /// Number of client requests currently outstanding at this node: buffered
    /// in the NIC, queued for dispatch, reserved on a waking core or in
    /// service, derived by scanning the node's queues and cores. The load
    /// the routing policies read is this count as maintained by
    /// [`RoutingIndex`] (debug builds check that they agree).
    #[must_use]
    pub fn outstanding_requests(&self) -> usize {
        let client = |w: &Option<WorkItem>| matches!(w, Some(WorkItem::Client(_)));
        self.nic.buffer.len()
            + self.sched.client_queue.len()
            + self.sched.running.iter().filter(|w| client(w)).count()
            + self
                .sched
                .pending_start
                .iter()
                .filter(|w| client(w))
                .count()
    }
}

/// The two per-node signals the load-aware routing policies read, kept
/// dense so that a routing decision touches no node's [`ServerState`].
///
/// * **Load:** each node's outstanding client requests, the only copy of
///   that count (equal to what [`ServerState::outstanding_requests`] derives
///   by scanning). Only two stage boundaries change it: the NIC-buffer
///   deposit (+1; every arrival path goes through the shared
///   `buffer_request` helper) and client service completion (−1). Moves
///   between buffer, queue, reservation and service are neutral.
/// * **Awake:** one bit per node, set while
///   [`ServerState::any_core_active`] holds. The node writes it after
///   every one of its events from the flag [`ServerState::settle`]
///   computes anyway. Only node events move the
///   flag, so the bit is exact whenever a front routes. Every bit starts
///   set, because cores boot busy.
#[derive(Debug, Clone)]
pub struct RoutingIndex {
    load: Vec<usize>,
    awake: Vec<u64>,
}

impl RoutingIndex {
    /// The index of `nodes` booting nodes: no load, every node awake.
    pub(crate) fn new(nodes: usize) -> Self {
        let mut awake = vec![u64::MAX; nodes.div_ceil(64)];
        if nodes % 64 != 0 {
            awake[nodes / 64] = (1 << (nodes % 64)) - 1;
        }
        RoutingIndex {
            load: vec![0; nodes],
            awake,
        }
    }

    /// Node `node`'s outstanding client requests.
    #[must_use]
    pub fn load(&self, node: usize) -> usize {
        self.load[node]
    }

    /// The lowest-index node with the least load.
    pub(crate) fn least_loaded(&self) -> usize {
        (0..self.load.len())
            .min_by_key(|&node| self.load[node])
            .expect("cluster has at least one node")
    }

    /// The lowest-index awake node with the least load, if any node is
    /// awake. Visits the set bits only.
    pub(crate) fn least_loaded_awake(&self) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (word_idx, &word) in self.awake.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let node = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let load = self.load[node];
                // Nodes come in index order: keeping the first of equal
                // loads keeps the lowest index.
                match best {
                    Some((least, _)) if least <= load => {}
                    _ => best = Some((load, node)),
                }
            }
        }
        best.map(|(_, node)| node)
    }

    /// Counts a request deposited into node `node`'s NIC buffer.
    pub(crate) fn add_request(&mut self, node: usize) {
        self.load[node] += 1;
    }

    /// Counts a client request node `node` finished serving.
    pub(crate) fn finish_request(&mut self, node: usize) {
        self.load[node] -= 1;
    }

    /// Publishes node `node`'s awake flag.
    #[inline]
    pub(crate) fn set_awake(&mut self, node: usize, awake: bool) {
        let word = &mut self.awake[node / 64];
        let bit = 1 << (node % 64);
        *word = (*word & !bit) | if awake { bit } else { 0 };
    }
}

/// The state shared by every component of a simulation: one complete
/// [`ServerState`] per node, hosted in a single event loop (a single server
/// is the 1-node case). A node reaches its own as `nodes[index]`.
#[derive(Debug)]
pub struct ClusterState {
    /// Per-node server state, indexed by node number.
    pub nodes: Vec<ServerState>,
    /// The per-node load and awake signals the routing policies read.
    pub routing: RoutingIndex,
    /// The network fabric every routed RPC and leaf report crosses; `None`
    /// keeps the instantaneous-deposit behaviour.
    pub fabric: Option<super::fabric::FabricState>,
    /// Cluster-wide request tracing: one sampler and one span log shared by
    /// every node, because a routed request's span tree crosses nodes.
    /// `None` when tracing is off.
    pub trace: Option<TraceState>,
}

impl ClusterState {
    /// Builds the cluster state for one [`ServerConfig`] per node, without a
    /// network fabric (instantaneous deposits).
    #[must_use]
    pub fn new(configs: Vec<ServerConfig>) -> Self {
        let nodes: Vec<ServerState> = configs.into_iter().map(ServerState::new).collect();
        ClusterState {
            routing: RoutingIndex::new(nodes.len()),
            nodes,
            fabric: None,
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use apc_power::energy::EnergyMeter;
    use apc_power::model::memory_utilization;
    use apc_sim::rng::SimRng;
    use apc_soc::cstate::CoreCState;
    use apc_soc::io::IoId;
    use apc_soc::topology::SocConfig;

    const IDLE: [CoreCState; 3] = [CoreCState::CC1, CoreCState::CC1E, CoreCState::CC6];

    /// One legal transition of a drawn core.
    fn step_core(node: &mut ServerState, rng: &mut SimRng) {
        let cores = node.soc.cores_mut();
        let id = CoreId(rng.index(cores.len()));
        match cores.core(id).activity() {
            CoreActivity::Busy => {
                cores.begin_idle(id, IDLE[rng.index(3)]);
            }
            CoreActivity::Idle => {
                cores.begin_wakeup(id);
            }
            CoreActivity::Transitioning => cores.complete_transition(id),
        }
    }

    /// Starts or finishes work on a drawn core.
    fn step_busy(node: &mut ServerState, running: &mut [bool], rng: &mut SimRng) {
        let core = rng.index(running.len());
        if running[core] {
            assert!(node.sched.take_running(core).is_some());
        } else {
            let work = SimDuration::from_micros(1);
            node.sched
                .start_running(core, WorkItem::Background { work });
        }
        running[core] = !running[core];
    }

    /// One drawn uncore change, including mutable accesses that change
    /// nothing.
    fn step_uncore(node: &mut ServerState, rng: &mut SimRng, now: SimTime) {
        let soc = &mut node.soc;
        match rng.index(10) {
            0 => {
                soc.clm_mut().clock_gate();
            }
            1 => {
                soc.clm_mut().clock_ungate();
            }
            2 => {
                let clm = soc.clm_mut();
                if rng.chance(0.5) {
                    clm.assert_retention(now);
                } else {
                    clm.deassert_retention(now);
                }
                clm.complete_voltage_transition(now);
            }
            3 => {
                soc.ios_mut().set_allow_shallow_all(rng.chance(0.5));
            }
            4 => {
                let io = soc.ios_mut().controller_mut(IoId(rng.index(2)));
                io.begin_traffic();
                io.end_traffic(now);
                io.try_enter_shallow(now + SimDuration::from_millis(1));
            }
            5 => {
                soc.memory_mut().set_allow_cke_off(rng.chance(0.5));
            }
            6 => {
                let memory = soc.memory_mut();
                memory.set_allow_self_refresh(true);
                memory.enter_self_refresh();
            }
            7 => {
                soc.memory_mut().wake();
            }
            8 => {
                let plls = soc.plls_mut();
                if rng.chance(0.5) {
                    plls.power_off_uncore();
                } else {
                    plls.begin_relock_uncore();
                    plls.complete_relock_uncore();
                }
            }
            _ => {
                let _ = soc.clm_mut();
            }
        }
    }

    /// The node's power from the float [`PowerModel::snapshot`], quantised:
    /// the reference the table level is checked against.
    ///
    /// [`PowerModel::snapshot`]: apc_power::model::PowerModel::snapshot
    fn float_level(node: &ServerState) -> PowerLevel {
        let busy = node.sched.busy_cores();
        let utilization = memory_utilization(busy, node.soc.cores().len());
        PowerLevel::quantise(&PowerModel::skx_calibrated().snapshot(&node.soc, utilization))
    }

    /// Drives drawn core, busy and uncore changes through a node at
    /// non-decreasing instants and checks the power accounting against the
    /// float model. Before every step the table level must equal the
    /// quantised float snapshot. And a meter charged through
    /// [`ServerState::charge`] only at a random subset of the instants —
    /// the node's own events, each charged before it changes the node, as
    /// the node's handler does — must equal, bit for bit, a
    /// reference meter advanced at every instant with a freshly computed
    /// level.
    fn check_power_accounting(soc: SocConfig, steps: usize, seed: u64) {
        let mut config = ServerConfig::c_pc1a();
        config.soc = soc;
        let mut node = ServerState::new(config);
        let mut running = vec![false; node.soc.cores().len()];
        let mut reference = EnergyMeter::new(SimTime::ZERO);
        let mut rng = SimRng::from_seed(seed);
        let mut now = SimTime::ZERO;
        for step in 0..steps {
            let fresh = float_level(&node);
            assert_eq!(node.power_level(), fresh, "step {step} (seed {seed})");
            // Several instants between two reads, some of them equal; at
            // each, a node event changing one domain, or another
            // component's event, which leaves the node alone.
            for _ in 0..1 + rng.index(4) {
                now += SimDuration::from_nanos(rng.index(5_000) as u64);
                reference.advance(now, &float_level(&node));
                if rng.chance(0.4) {
                    continue;
                }
                node.charge(now);
                assert_eq!(
                    node.telemetry.energy.energy(),
                    reference.energy(),
                    "step {step} (seed {seed})"
                );
                match rng.index(3) {
                    0 => step_core(&mut node, &mut rng),
                    1 => step_busy(&mut node, &mut running, &mut rng),
                    _ => step_uncore(&mut node, &mut rng, now),
                }
            }
        }
        now += SimDuration::from_micros(1);
        reference.advance(now, &float_level(&node));
        node.charge(now);
        assert_eq!(node.telemetry.energy.energy(), reference.energy());
        assert_eq!(node.telemetry.energy.elapsed(), reference.elapsed());
    }

    #[test]
    fn power_accounting_matches_the_float_model_on_10_cores() {
        for seed in 0..10 {
            check_power_accounting(SocConfig::xeon_silver_4114(), 2_000, seed);
        }
    }

    #[test]
    fn power_accounting_matches_the_float_model_on_48_cores() {
        for seed in 0..5 {
            check_power_accounting(SocConfig::small_test(48), 2_000, seed);
        }
    }

    #[test]
    fn power_accounting_matches_the_float_model_on_7_cores() {
        // Seven cores do not divide the DRAM utilisation term evenly.
        for seed in 0..5 {
            check_power_accounting(SocConfig::small_test(7), 2_000, seed);
        }
    }

    #[test]
    fn free_core_set_basic_operations() {
        let mut set = FreeCoreSet::new_all_occupied(10);
        assert_eq!(set.lowest(), None);
        assert_eq!(set.count(), 0);
        set.insert(7);
        set.insert(3);
        assert!(set.contains(3) && set.contains(7) && !set.contains(4));
        assert_eq!(set.lowest(), Some(3));
        assert_eq!(set.lowest_at_or_after(4), Some(7));
        assert_eq!(set.lowest_at_or_after(8), None);
        set.remove(3);
        assert_eq!(set.lowest(), Some(7));
        assert_eq!(set.count(), 1);
    }

    #[test]
    fn free_core_set_crosses_word_boundaries() {
        let mut set = FreeCoreSet::new_all_occupied(130);
        set.insert(129);
        set.insert(64);
        assert_eq!(set.lowest(), Some(64));
        assert_eq!(set.lowest_at_or_after(65), Some(129));
        assert_eq!(set.lowest_at_or_after(130), None);
        set.remove(64);
        assert_eq!(set.lowest(), Some(129));
        assert_eq!(set.count(), 1);
    }

    #[test]
    fn free_core_set_mirrors_core_is_free() {
        // Freeing/occupying through the SchedState helpers keeps the bitset
        // in lock-step with the slow predicate it replaces.
        let config = ServerConfig::c_pc1a();
        let mut state = ServerState::new(config);
        let cores = state.soc.cores().len();
        assert!(cores >= 10, "reference topology has 10+ cores");
        // Boot state: every core busy, nothing free either way.
        for c in 0..cores {
            assert!(!state.sched.core_is_free(&state.soc, c));
            assert!(!state.sched.free_cores.contains(c));
        }
        // Idle the even cores the way the core component does.
        for c in (0..cores).step_by(2) {
            state
                .soc
                .cores_mut()
                .begin_idle(apc_soc::core::CoreId(c), apc_soc::cstate::CoreCState::CC1);
            state.sched.mark_free(c);
        }
        for c in 0..cores {
            assert_eq!(
                state.sched.core_is_free(&state.soc, c),
                state.sched.free_cores.contains(c),
                "bitset out of sync for core {c}"
            );
        }
        assert_eq!(state.sched.free_cores.lowest(), Some(0));
        // Reserving a core (scheduler assign path) re-occupies it.
        state.sched.pending_start[0] = Some(WorkItem::Background {
            work: SimDuration::from_micros(5),
        });
        state.sched.mark_occupied(0);
        assert!(!state.sched.core_is_free(&state.soc, 0));
        assert_eq!(state.sched.free_cores.lowest(), Some(2));
    }

    #[test]
    fn outstanding_requests_counts_every_stage() {
        let mut state = ServerState::new(ServerConfig::c_pc1a());
        assert_eq!(state.outstanding_requests(), 0);
        let request = || {
            apc_workloads::request::Request::new(
                apc_workloads::request::RequestId(0),
                apc_workloads::request::RequestClass::KvGet,
                apc_sim::SimTime::ZERO,
                SimDuration::from_micros(10),
            )
        };
        state.nic.buffer.push_back(request());
        state.sched.client_queue.push_back(request());
        state.sched.start_running(0, WorkItem::Client(request()));
        state.sched.pending_start[1] = Some(WorkItem::Client(request()));
        // Background work never counts.
        state.sched.start_running(
            2,
            WorkItem::Background {
                work: SimDuration::from_micros(5),
            },
        );
        assert_eq!(state.outstanding_requests(), 4);
    }
}
