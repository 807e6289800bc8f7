//! The worker pool for independent simulations, and the multi-server fleet.
//!
//! A [`Pool`] executes N independent simulations — its members — and
//! returns their results in member order. Three member kinds share it, one
//! alias each:
//!
//! * [`Fleet`] — single servers ([`FleetMember`]), typically the same
//!   platform configuration under distinct seeds, aggregated into a
//!   [`FleetResult`]: the entry point for scenario sweeps that need
//!   fleet-level statistics (aggregate throughput, mean power, worst-case
//!   tail latency) rather than a single server's view;
//! * [`ClusterFleet`](crate::cluster::ClusterFleet) — load-balanced
//!   clusters, e.g. one cluster under every routing policy;
//! * [`ChainFleet`](crate::chain::ChainFleet) — fan-out chain clusters.
//!
//! # Parallelism
//!
//! Members are pairwise independent (no simulated cross-member traffic and
//! no shared RNG state), so [`Pool::run`] fans them out over a pool of OS
//! threads pulling from a shared work queue; each member's simulation runs
//! on one thread. Results are written back into member-order slots, which
//! makes a parallel run **bit-identical** to a sequential one
//! (`with_parallelism(1)`) for the same members: thread scheduling can
//! change only *when* a member executes, never what it computes or where
//! its result lands. Use [`Pool::with_parallelism`] to pin the worker count
//! (`1` forces the sequential path).
//!
//! # Determinism
//!
//! Member seeds are derived from the fleet seed with the canonical
//! label-fork scheme (see [`apc_sim::rng::SimRng::fork`]) under labels
//! `"server 0"`, `"server 1"`, …, so a fleet is exactly reproducible
//! run-to-run while its members remain pairwise independent.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use apc_sim::rng::SimRng;
use apc_sim::SimDuration;
use apc_telemetry::latency::LatencySummary;
use apc_telemetry::sketch::QuantileSketch;
use apc_workloads::arrival::ArrivalProcess;
use apc_workloads::loadgen::LoadGenerator;
use apc_workloads::spec::WorkloadSpec;

use crate::balancer::{Balancer, RoutingPolicyKind};
use crate::cluster::{ClusterResult, ClusterSimulation};
use crate::config::ServerConfig;
use crate::result::RunResult;

/// One independent simulation a [`Pool`] can run.
///
/// # Examples
///
/// Any `Send` job can be a member; results come back in member order.
///
/// ```
/// use apc_server::fleet::{Pool, PoolMember};
///
/// struct Square(u64);
///
/// impl PoolMember for Square {
///     type Output = u64;
///     type Results = Vec<u64>;
///
///     fn run(self) -> u64 {
///         self.0 * self.0
///     }
/// }
///
/// let mut pool = Pool::new();
/// for n in 1..=4 {
///     pool.push(Square(n));
/// }
/// assert_eq!(pool.with_parallelism(2).run(), [1, 4, 9, 16]);
/// ```
pub trait PoolMember: Send {
    /// The result of running one member.
    type Output: Send;
    /// What a whole pool run returns, built from the members' outputs in
    /// member order.
    type Results: From<Vec<Self::Output>>;

    /// Runs the member's simulation to completion.
    fn run(self) -> Self::Output;

    /// A relative estimate of the member's run time. A parallel pool's
    /// workers claim members in descending cost (ties in member order), so
    /// the longest ones do not start last; results keep member order. The
    /// default, 0 for every member, claims in member order.
    fn cost(&self) -> f64 {
        0.0
    }
}

/// A set of independent simulations run as one experiment on a
/// deterministic worker pool (see the [module docs](self)).
#[derive(Debug)]
pub struct Pool<M> {
    members: Vec<M>,
    parallelism: Option<usize>,
}

/// A set of independent server simulations run as one experiment.
pub type Fleet = Pool<FleetMember>;

impl<M> Default for Pool<M> {
    fn default() -> Self {
        Pool {
            members: Vec::new(),
            parallelism: None,
        }
    }
}

impl<M: PoolMember> Pool<M> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Pool::default()
    }

    /// Adds one member.
    pub fn push(&mut self, member: M) -> &mut Self {
        self.members.push(member);
        self
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the pool has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Pins the number of worker threads [`Pool::run`] may use.
    ///
    /// `1` forces the sequential path; values are clamped to at least 1.
    /// Without this, `run` sizes the pool to the host's available
    /// parallelism. Either way the pool never runs more workers than it has
    /// members, and the result is bit-identical — the knob only trades
    /// wall-clock time against CPU occupancy.
    #[must_use]
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Runs every member to completion — in parallel when the host and the
    /// [`Pool::with_parallelism`] knob allow it — and collects the results
    /// in member order, bit-identical whatever the worker count.
    #[must_use]
    pub fn run(self) -> M::Results {
        match self.run_streamed(|_, _| Ok::<(), Infallible>(())) {
            Ok(results) => results,
            Err(never) => match never {},
        }
    }

    /// Like [`Pool::run`], but invokes `emit(i, &result)` once per member,
    /// in member order, as soon as member `i` and all its predecessors have
    /// finished — while later members may still be running. This is the
    /// hook behind the CLI's `--out`, which writes each result as it
    /// finishes; the returned results are bit-identical to [`Pool::run`]'s,
    /// and every one of them is kept until the pool finishes.
    ///
    /// `emit` runs on the calling thread.
    ///
    /// ```
    /// use apc_server::fleet::{Pool, PoolMember};
    /// # struct Double(u32);
    /// # impl PoolMember for Double {
    /// #     type Output = u32;
    /// #     type Results = Vec<u32>;
    /// #     fn run(self) -> u32 {
    /// #         2 * self.0
    /// #     }
    /// # }
    ///
    /// let mut pool = Pool::new();
    /// pool.push(Double(1)).push(Double(2)).push(Double(3));
    /// let mut seen = Vec::new();
    /// let results = pool
    ///     .with_parallelism(3)
    ///     .run_streamed(|i, out: &u32| {
    ///         seen.push((i, *out));
    ///         Ok::<(), std::convert::Infallible>(())
    ///     })
    ///     .unwrap();
    /// assert_eq!(seen, [(0, 2), (1, 4), (2, 6)]);
    /// assert_eq!(results, [2, 4, 6]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns `emit`'s first error. No member is claimed after it: the
    /// sequential path returns at once, and the parallel pool joins as soon
    /// as the members already running finish. Nothing further is emitted,
    /// and the computed results are dropped.
    pub fn run_streamed<E>(
        self,
        emit: impl FnMut(usize, &M::Output) -> Result<(), E>,
    ) -> Result<M::Results, E> {
        let workers = self
            .parallelism
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .min(self.members.len().max(1));
        run_pool(self.members, workers, emit).map(M::Results::from)
    }
}

/// The deterministic worker pool behind [`Pool::run_streamed`]: `workers` OS
/// threads claim jobs from an atomic cursor over the jobs in descending
/// [`PoolMember::cost`], the calling thread collects each result into its
/// job-order slot and emits the in-order frontier, so the output is
/// independent of thread scheduling — bit-identical to running
/// `jobs.into_iter().map(PoolMember::run).collect()`. A failed `emit` ends
/// the claiming: the cursor moves past the last job and the collector
/// stops, so workers exit after the job in hand.
fn run_pool<M: PoolMember, E>(
    jobs: Vec<M>,
    workers: usize,
    mut emit: impl FnMut(usize, &M::Output) -> Result<(), E>,
) -> Result<Vec<M::Output>, E> {
    if workers <= 1 {
        let mut results = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.into_iter().enumerate() {
            let result = job.run();
            emit(i, &result)?;
            results.push(result);
        }
        return Ok(results);
    }

    // Claim order: the costliest job first, ties in job order (a stable
    // sort).
    let mut claims: Vec<usize> = (0..jobs.len()).collect();
    claims.sort_by(|&a, &b| jobs[b].cost().total_cmp(&jobs[a].cost()));
    // Work queue: jobs wait in `Mutex<Option<_>>` slots so any worker can
    // claim ownership of job `i`.
    let job_slots: Vec<Mutex<Option<M>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let total = job_slots.len();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, M::Output)>();

    let (results, failure) = std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let job_slots = &job_slots;
            let claims = &claims;
            let cursor = &cursor;
            scope.spawn(move || {
                while let Some(&i) = claims.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let job = job_slots[i]
                        .lock()
                        .expect("pool job slot poisoned")
                        .take()
                        .expect("pool job claimed twice");
                    if tx.send((i, job.run())).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // The calling thread plays collector: results arrive in completion
        // order, land in their job-order slot, and are emitted as the
        // in-order frontier advances. Leaving the loop drops the receiver,
        // so a worker's next send fails and it exits.
        let mut slots: Vec<Option<M::Output>> = (0..total).map(|_| None).collect();
        let mut next = 0;
        let mut failure = None;
        'collect: for (i, result) in rx {
            slots[i] = Some(result);
            while let Some(Some(result)) = slots.get(next) {
                if let Err(e) = emit(next, result) {
                    cursor.fetch_max(total, Ordering::Relaxed);
                    failure = Some(e);
                    break 'collect;
                }
                next += 1;
            }
        }
        (slots, failure)
    });

    if let Some(e) = failure {
        return Err(e);
    }
    Ok(results
        .into_iter()
        .map(|slot| slot.expect("pool worker exited without storing a result"))
        .collect())
}

/// One server instance within a fleet.
#[derive(Debug)]
pub struct FleetMember {
    /// The server's configuration (carries its own seed).
    pub config: ServerConfig,
    /// The workload it serves.
    pub spec: WorkloadSpec,
    /// Nominal offered request rate (requests per second): the rate the
    /// spec's default arrival process runs at, and the `offered_rate`
    /// recorded in the member's [`RunResult`]. When an arrival override is
    /// installed, set this to the pattern's long-run average over the run
    /// (as `apc-cli` does for its diurnal and flash-crowd patterns) — the
    /// override itself only knows its schedule, not the run horizon.
    pub rate_per_sec: f64,
    /// Optional arrival-process override. `None` uses the spec's default
    /// stationary process at [`FleetMember::rate_per_sec`]; time-varying
    /// traffic patterns install their processes here.
    pub arrivals: Option<Box<dyn ArrivalProcess>>,
}

impl FleetMember {
    /// A member serving `spec` at a constant offered rate.
    #[must_use]
    pub fn new(config: ServerConfig, spec: WorkloadSpec, rate_per_sec: f64) -> Self {
        FleetMember {
            config,
            spec,
            rate_per_sec,
            arrivals: None,
        }
    }

    /// Replaces the member's arrival process (e.g. with a time-varying one).
    ///
    /// [`FleetMember::rate_per_sec`] is left untouched: it stays the nominal
    /// rate recorded in results, which for a non-repeating schedule (whose
    /// tail rate holds beyond the schedule's end) the process itself cannot
    /// compute.
    #[must_use]
    pub fn with_arrival_process(mut self, arrivals: Box<dyn ArrivalProcess>) -> Self {
        self.arrivals = Some(arrivals);
        self
    }
}

impl PoolMember for FleetMember {
    type Output = RunResult;
    type Results = FleetResult;

    /// Runs the server as a 1-node cluster (with one node every routing
    /// policy routes alike) seeded by the config's seed, and moves the
    /// loop-level dispatch count, span log and profile into the node's
    /// result.
    fn run(self) -> RunResult {
        let seed = self.config.seed;
        let loadgen = match self.arrivals {
            Some(arrivals) => {
                LoadGenerator::with_arrival_process(self.spec, arrivals, self.rate_per_sec, seed)
            }
            None => LoadGenerator::new(self.spec, self.rate_per_sec, seed),
        };
        let balancer = Balancer::new(loadgen, RoutingPolicyKind::RoundRobin, 1);
        let ClusterResult {
            events_dispatched,
            trace,
            profile,
            nodes,
            ..
        } = ClusterSimulation::new(seed, vec![self.config], balancer, None).run();
        let [mut run] = <[RunResult; 1]>::try_from(nodes.runs).expect("a 1-node cluster");
        run.events_dispatched = events_dispatched;
        run.trace = trace;
        run.profile = profile;
        run
    }

    /// The requests the member is offered: its rate times its horizon.
    fn cost(&self) -> f64 {
        self.rate_per_sec * self.config.duration.as_secs_f64()
    }
}

impl Fleet {
    /// A fleet of `n` servers sharing one configuration and workload but
    /// running under distinct, deterministically derived seeds (see the
    /// [module docs](self) for the derivation scheme).
    ///
    /// `spec_fn` builds one [`WorkloadSpec`] per member (specs own boxed
    /// distributions and cannot be cloned).
    #[must_use]
    pub fn homogeneous(
        config: &ServerConfig,
        spec_fn: impl Fn() -> WorkloadSpec,
        rate_per_sec: f64,
        n: usize,
    ) -> Self {
        let mut fleet = Fleet::new();
        for i in 0..n {
            fleet.push(FleetMember::new(
                config.clone().with_seed(Fleet::member_seed(config.seed, i)),
                spec_fn(),
                rate_per_sec,
            ));
        }
        fleet
    }

    /// The canonical seed of fleet member `index` under root seed
    /// `root_seed`: the root forked by label `"server {index}"` (see
    /// [`SimRng::fork`] for the full derivation scheme). Both
    /// [`Fleet::homogeneous`] and `apc-cli`'s fleet specs derive member
    /// seeds through this single function, so fleets built either way agree.
    #[must_use]
    pub fn member_seed(root_seed: u64, index: usize) -> u64 {
        SimRng::from_seed(root_seed)
            .fork(&format!("server {index}"))
            .seed()
    }
}

/// The aggregated outcome of a fleet run.
///
/// Equality is exact per-member equality (see [`RunResult`]'s `PartialEq`
/// note); a parallel and a sequential run of the same fleet compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Per-server results, in member order.
    pub runs: Vec<RunResult>,
}

impl From<Vec<RunResult>> for FleetResult {
    fn from(runs: Vec<RunResult>) -> Self {
        FleetResult { runs }
    }
}

impl FleetResult {
    /// Number of servers that ran.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.runs.len()
    }

    /// Total client-visible requests completed across the fleet.
    #[must_use]
    pub fn total_completed_requests(&self) -> u64 {
        self.runs.iter().map(|r| r.completed_requests).sum()
    }

    /// Total events dispatched across the fleet's event loops. Zero for the
    /// node sub-results of a multi-node cluster/chain run, whose single
    /// shared loop reports its census on the cluster-level result instead.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        self.runs.iter().map(|r| r.events_dispatched).sum()
    }

    /// Aggregate achieved throughput (requests per second) across the fleet.
    #[must_use]
    pub fn aggregate_throughput(&self) -> f64 {
        self.runs.iter().map(RunResult::throughput).sum()
    }

    /// Mean average SoC power per server, in watts.
    #[must_use]
    pub fn mean_soc_power_w(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .map(|r| r.avg_soc_power.as_f64())
            .sum::<f64>()
            / self.runs.len() as f64
    }

    /// Total average power (SoC + DRAM) summed over the fleet, in watts.
    #[must_use]
    pub fn total_power_w(&self) -> f64 {
        self.runs.iter().map(|r| r.avg_total_power().as_f64()).sum()
    }

    /// Mean PC1A residency fraction across the fleet.
    #[must_use]
    pub fn mean_pc1a_residency(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.pc1a_residency).sum::<f64>() / self.runs.len() as f64
    }

    /// The worst p99 latency any server observed.
    #[must_use]
    pub fn worst_p99(&self) -> SimDuration {
        self.runs
            .iter()
            .map(|r| r.latency.p99)
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// The worst p999 latency any server observed (the paper's tail-latency
    /// SLO metric).
    #[must_use]
    pub fn worst_p999(&self) -> SimDuration {
        self.runs
            .iter()
            .map(|r| r.latency.p999)
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// Mean request latency across the fleet, weighted by completed
    /// requests.
    #[must_use]
    pub fn mean_latency(&self) -> SimDuration {
        let total: u64 = self.total_completed_requests();
        if total == 0 {
            return SimDuration::ZERO;
        }
        let weighted: f64 = self
            .runs
            .iter()
            .map(|r| r.latency.mean.as_secs_f64() * r.completed_requests as f64)
            .sum();
        SimDuration::from_secs_f64(weighted / total as f64)
    }

    /// The fleet-wide latency distribution: every member's sketch merged
    /// (exact counts/sums/extremes — see [`QuantileSketch::merge`]), in
    /// member order for determinism.
    #[must_use]
    fn combined_sketch(&self) -> QuantileSketch {
        let mut merged = QuantileSketch::new();
        for r in &self.runs {
            merged.merge(&r.latency_sketch);
        }
        merged
    }

    /// Summary of the fleet-wide latency distribution (all members' samples
    /// pooled), as opposed to the per-member worst/mean aggregates: the
    /// cross-fleet p99 of a 100-node experiment is this summary's `p99`,
    /// not [`FleetResult::worst_p99`].
    #[must_use]
    pub fn combined_latency(&self) -> LatencySummary {
        LatencySummary::of(&self.combined_sketch())
    }

    /// Fleet-level power saving relative to a baseline fleet (positive when
    /// this fleet uses less total power).
    #[must_use]
    pub fn power_saving_vs(&self, baseline: &FleetResult) -> f64 {
        let base = baseline.total_power_w();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.total_power_w() / base
    }
}

/// One line per server (config, workload, throughput, power, p99/p999),
/// then the fleet totals — the format the scenario tables embed.
impl std::fmt::Display for FleetResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, r) in self.runs.iter().enumerate() {
            writeln!(
                f,
                "server {i:>3}: {:<9} {:<10} {:>10.0} rps {:>7.1} W p99 {} p999 {}",
                r.config_name,
                r.workload,
                r.throughput(),
                r.avg_total_power().as_f64(),
                r.latency.p99,
                r.latency.p999,
            )?;
        }
        write!(
            f,
            "fleet     : {} servers {:>10.0} rps {:>7.1} W worst p99 {} p999 {}",
            self.servers(),
            self.aggregate_throughput(),
            self.total_power_w(),
            self.worst_p99(),
            self.worst_p999(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, RwLock};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Sleeps for `.1` ms, counts its run in `.2`, and reports its index
    /// `.0` and the thread it ran on.
    struct Probe(usize, u64, Arc<AtomicUsize>);

    impl PoolMember for Probe {
        type Output = (usize, ThreadId);
        type Results = Vec<(usize, ThreadId)>;

        fn run(self) -> Self::Output {
            thread::sleep(Duration::from_millis(self.1));
            self.2.fetch_add(1, Ordering::Relaxed);
            (self.0, thread::current().id())
        }
    }

    /// A probe that first waits until the gate it shares is open.
    struct Gated(Probe, Arc<RwLock<()>>);

    impl PoolMember for Gated {
        type Output = (usize, ThreadId);
        type Results = Vec<(usize, ThreadId)>;

        fn run(self) -> Self::Output {
            drop(self.1.read().expect("gate poisoned"));
            self.0.run()
        }
    }

    /// `n` probes whose sleeps shrink with the index, so on a parallel pool
    /// later members tend to finish first, and their shared run counter.
    fn probes(n: usize) -> (Pool<Probe>, Arc<AtomicUsize>) {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut pool = Pool::new();
        for i in 0..n {
            pool.push(Probe(i, 2 * (n - i) as u64, Arc::clone(&runs)));
        }
        (pool, runs)
    }

    fn indices(results: &[(usize, ThreadId)]) -> Vec<usize> {
        results.iter().map(|&(i, _)| i).collect()
    }

    #[test]
    fn results_keep_member_order_whatever_finishes_first() {
        for workers in 1..=4 {
            let (pool, runs) = probes(6);
            let results = pool.with_parallelism(workers).run();
            assert_eq!(indices(&results), [0, 1, 2, 3, 4, 5], "{workers} workers");
            assert_eq!(runs.load(Ordering::Relaxed), 6, "{workers} workers");
        }
    }

    #[test]
    fn run_streamed_emits_each_member_once_in_member_order() {
        for workers in [1, 3] {
            let mut emitted = Vec::new();
            let results = probes(5)
                .0
                .with_parallelism(workers)
                .run_streamed(|i, out| {
                    assert_eq!(i, out.0, "slot {i} emitted another member's result");
                    emitted.push(i);
                    Ok::<(), Infallible>(())
                });
            assert_eq!(emitted, [0, 1, 2, 3, 4], "{workers} workers");
            assert_eq!(indices(&results.unwrap()), emitted, "{workers} workers");
        }
    }

    #[test]
    fn an_emit_error_stops_emission() {
        for workers in [1, 3] {
            let (pool, _) = probes(5);
            let mut emitted = Vec::new();
            let outcome = pool.with_parallelism(workers).run_streamed(|i, _| {
                emitted.push(i);
                if i == 2 {
                    Err(format!("sink full at {i}"))
                } else {
                    Ok(())
                }
            });
            assert_eq!(outcome.unwrap_err(), "sink full at 2", "{workers} workers");
            assert_eq!(emitted, [0, 1, 2], "{workers} workers");
        }
    }

    #[test]
    fn an_emit_error_stops_claiming_members() {
        // One worker: the failing member is the last to run.
        let runs = Arc::new(AtomicUsize::new(0));
        let mut pool = Pool::new();
        for i in 0..6 {
            pool.push(Probe(i, 0, Arc::clone(&runs)));
        }
        let outcome = pool
            .with_parallelism(1)
            .run_streamed(|i, _| if i == 1 { Err(i) } else { Ok(()) });
        assert_eq!(outcome.unwrap_err(), 1);
        assert_eq!(runs.load(Ordering::Relaxed), 2);

        // Four workers: every member but the first waits at a gate that only
        // the failing emit of member 0 opens, so only the members claimed
        // before the error lands can run (in practice one per worker, and
        // the one claimed after member 0).
        let n = 32;
        let runs = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(RwLock::new(()));
        let mut shut = Some(gate.write().expect("gate poisoned"));
        let mut pool = Pool::new();
        pool.push(Gated(Probe(0, 0, Arc::clone(&runs)), Arc::default()));
        for i in 1..n {
            pool.push(Gated(Probe(i, 20, Arc::clone(&runs)), Arc::clone(&gate)));
        }
        let outcome = pool.with_parallelism(4).run_streamed(|i, _| {
            shut.take();
            Err::<(), _>(i)
        });
        assert_eq!(outcome.unwrap_err(), 0);
        let ran = runs.load(Ordering::Relaxed);
        assert!(
            ran < n / 2,
            "{ran} of {n} members ran after the first emit failed"
        );
    }

    /// Reports its index on `started` when a worker runs it, then finishes
    /// once it takes a turn from `turns`.
    struct Costed {
        index: usize,
        cost: f64,
        started: mpsc::Sender<usize>,
        turns: Arc<Mutex<mpsc::Receiver<()>>>,
    }

    impl PoolMember for Costed {
        type Output = usize;
        type Results = Vec<usize>;

        fn run(self) -> usize {
            self.started.send(self.index).expect("the test listens");
            let turns = self.turns.lock().expect("turns poisoned");
            turns
                .recv_timeout(Duration::from_secs(30))
                .expect("the test hands out a turn");
            self.index
        }

        fn cost(&self) -> f64 {
            self.cost
        }
    }

    #[test]
    fn workers_claim_the_costliest_member_first_and_results_keep_member_order() {
        // Claim order by descending cost, the tie at 2.0 in member order:
        // 1, 4, 3, 0, 2.
        let costs = [2.0, 9.0, 2.0, 5.0, 7.0];
        let (started_tx, started) = mpsc::channel();
        let (turn, turns) = mpsc::channel();
        let turns = Arc::new(Mutex::new(turns));
        let mut pool = Pool::new();
        for (index, &cost) in costs.iter().enumerate() {
            pool.push(Costed {
                index,
                cost,
                started: started_tx.clone(),
                turns: Arc::clone(&turns),
            });
        }
        let next_start = || {
            started
                .recv_timeout(Duration::from_secs(30))
                .expect("a member starts")
        };
        let (claimed, results) = thread::scope(|s| {
            let run = s.spawn(|| pool.with_parallelism(2).run());
            // The two workers claim the first two members together; after
            // that, each turn frees one worker, which claims the next.
            let mut first = [next_start(), next_start()];
            first.sort_unstable();
            let mut claimed = vec![first[0], first[1]];
            for _ in 2..costs.len() {
                turn.send(()).expect("a member waits for its turn");
                claimed.push(next_start());
            }
            for _ in 0..2 {
                turn.send(()).expect("a member waits for its turn");
            }
            (claimed, run.join().expect("the pool run finishes"))
        });
        assert_eq!(claimed, [1, 4, 3, 0, 2]);
        assert_eq!(results, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn one_worker_runs_every_member_on_the_calling_thread() {
        let caller = thread::current().id();
        // `0` clamps to one worker, like `1`.
        for results in [
            probes(3).0.with_parallelism(0).run(),
            probes(3).0.with_parallelism(1).run(),
        ] {
            assert_eq!(results, [(0, caller), (1, caller), (2, caller)]);
        }
    }

    #[test]
    fn a_single_member_never_leaves_the_calling_thread() {
        // The worker count never exceeds the member count, so a lone member
        // takes the sequential path whatever the knob says.
        let results = probes(1).0.with_parallelism(8).run();
        assert_eq!(results, [(0, thread::current().id())]);
    }

    #[test]
    fn parallel_members_run_on_workers_while_emit_runs_on_the_caller() {
        let caller = thread::current().id();
        let mut emit_threads = Vec::new();
        let results = probes(4).0.with_parallelism(2).run_streamed(|_, _| {
            emit_threads.push(thread::current().id());
            Ok::<(), Infallible>(())
        });
        assert!(results.unwrap().iter().all(|&(_, t)| t != caller));
        assert_eq!(emit_threads, [caller; 4]);
    }

    #[test]
    fn empty_pools_run_nothing_and_pushes_chain() {
        let empty = Pool::<Probe>::new().with_parallelism(4);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.run_streamed(|_, _| Err("emitted")), Ok(Vec::new()));

        let (mut pool, runs) = probes(0);
        pool.push(Probe(0, 0, Arc::clone(&runs)))
            .push(Probe(1, 0, Arc::clone(&runs)));
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
        assert_eq!(indices(&pool.run()), [0, 1]);
    }

    #[test]
    fn homogeneous_fleets_fork_member_seeds_by_server_label() {
        let config = ServerConfig::c_pc1a().with_seed(42);
        let fleet = Fleet::homogeneous(&config, WorkloadSpec::memcached_etc, 10_000.0, 3);
        let seeds: Vec<u64> = fleet.members.iter().map(|m| m.config.seed).collect();
        let forked = |i| SimRng::from_seed(42).fork(&format!("server {i}")).seed();
        assert_eq!(seeds, [forked(0), forked(1), forked(2)]);
        assert_eq!(Fleet::member_seed(42, 1), forked(1));
        assert!(seeds[0] != seeds[1] && seeds[1] != seeds[2] && seeds[0] != seeds[2]);
    }
}
