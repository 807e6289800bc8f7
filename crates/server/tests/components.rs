//! Tests of a node's event handling: stale-epoch handling, PC1A
//! entry/abort event ordering, uncore gating, one package FSM per platform
//! and seed determinism.

use apc_server::config::ServerConfig;
use apc_server::fleet::Fleet;
use apc_server::result::RunResult;
use apc_server::sim::run_experiment;
use apc_sim::SimDuration;
use apc_workloads::spec::WorkloadSpec;

fn run_seeded(seed: u64, rate: f64) -> RunResult {
    run_experiment(
        ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(100))
            .with_seed(seed),
        WorkloadSpec::memcached_etc(),
        rate,
    )
}

/// Two runs with the same seed must agree bit-for-bit on every metric the
/// simulation produces — every stream is forked from a seed by label, so
/// no consumer's draws can bleed into another's stream.
#[test]
fn identical_seeds_are_bit_identical() {
    let a = run_seeded(9, 10_000.0);
    let b = run_seeded(9, 10_000.0);
    assert_eq!(a.completed_requests, b.completed_requests);
    assert_eq!(a.pc1a_transitions, b.pc1a_transitions);
    assert_eq!(a.pc1a_aborted, b.pc1a_aborted);
    assert_eq!(a.idle_periods, b.idle_periods);
    assert_eq!(a.latency.mean, b.latency.mean);
    assert_eq!(a.latency.p99, b.latency.p99);
    assert!((a.avg_soc_power.as_f64() - b.avg_soc_power.as_f64()).abs() == 0.0);
    assert!((a.cpu_utilization - b.cpu_utilization).abs() == 0.0);
    assert!((a.pc1a_residency - b.pc1a_residency).abs() == 0.0);
}

#[test]
fn different_seeds_diverge() {
    let a = run_seeded(1, 10_000.0);
    let b = run_seeded(2, 10_000.0);
    // Statistically impossible to collide on all of these at once.
    assert!(
        a.completed_requests != b.completed_requests
            || a.latency.mean != b.latency.mean
            || a.pc1a_transitions != b.pc1a_transitions,
        "two different seeds produced identical runs"
    );
}

/// Stale-epoch events must be dropped: a core whose idle entry is superseded
/// by a wake assignment (and vice versa) sees the superseded completion
/// event arrive and must ignore it. If stale events were applied, the core
/// would double-complete transitions and the run would either panic (work
/// accounting) or corrupt residency; a busy run at high load exercises
/// thousands of such races.
#[test]
fn stale_transition_events_are_ignored_under_churn() {
    // High load + bursty arrivals + background noise maximises
    // idle-entry/wake races per core.
    let r = run_seeded(7, 150_000.0);
    assert!(
        r.completed_requests > 10_000,
        "completed {}",
        r.completed_requests
    );
    // Residency fractions stay normalised: a double-applied transition would
    // corrupt the per-core residency clocks.
    let total = r.cc0_fraction + r.cc1_fraction + r.cc6_fraction;
    assert!(
        (total - 1.0).abs() < 1e-6,
        "core residency fractions sum to {total}"
    );
    assert!(r.cpu_utilization <= 1.0);
}

/// PC1A entry/abort ordering: every abort is triggered by a wake racing the
/// entry flow, so aborts can never exceed the number of entry attempts
/// (completed entries + aborts), and completed entries match what the
/// package residency observed.
#[test]
fn pc1a_entry_abort_ordering_is_consistent() {
    for seed in [3, 5, 8, 13] {
        let r = run_seeded(seed, 60_000.0);
        let attempts = r.pc1a_transitions + r.pc1a_aborted;
        assert!(attempts > 0, "seed {seed}: no PC1A attempts at 60K QPS");
        assert!(r.pc1a_transitions > 0, "seed {seed}: every attempt aborted");
        if r.pc1a_residency > 0.0 {
            assert!(
                r.pc1a_transitions > 0,
                "seed {seed}: residency without a completed entry"
            );
        }
        // An aborted entry never counts as a transition into residency.
        assert!(
            r.pc1a_residency < 1.0,
            "seed {seed}: residency {}",
            r.pc1a_residency
        );
    }
}

/// The uncore gate: while a PC1A/PC6 exit flow is in flight, no request may
/// start executing. Observable as latency: every request delivered into a
/// resident package pays the exit before service, so the minimum end-to-end
/// latency stays above network RTT + service floor.
#[test]
fn dispatch_waits_for_uncore_exit() {
    let r = run_experiment(
        ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(100))
            .with_seed(11),
        WorkloadSpec::memcached_etc(),
        2_000.0,
    );
    // At 2K QPS the package is resident most of the time, so nearly every
    // request wakes it; none may undercut the 117 us network RTT.
    assert!(r.completed_requests > 50);
    assert!(r.latency.p50 >= SimDuration::from_micros(117));
}

/// A fleet over >= 4 servers with distinct seeds: deterministic, aggregated
/// results (the acceptance scenario for the fleet runner).
#[test]
fn fleet_of_four_is_deterministic_and_aggregates() {
    let config = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(50));
    let build = || Fleet::homogeneous(&config, WorkloadSpec::memcached_etc, 15_000.0, 4).run();
    let a = build();
    let b = build();
    assert_eq!(a.servers(), 4);

    // Distinct seeds: members genuinely differ.
    let requests: Vec<u64> = a.runs.iter().map(|r| r.completed_requests).collect();
    assert!(
        requests.windows(2).any(|w| w[0] != w[1]),
        "all fleet members produced identical request counts {requests:?}"
    );

    // Deterministic: the same fleet built twice agrees exactly.
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.completed_requests, y.completed_requests);
        assert_eq!(x.pc1a_transitions, y.pc1a_transitions);
        assert_eq!(x.latency.mean, y.latency.mean);
        assert!((x.avg_soc_power.as_f64() - y.avg_soc_power.as_f64()).abs() == 0.0);
    }

    // Aggregates are consistent with the members.
    assert_eq!(a.total_completed_requests(), requests.iter().sum::<u64>());
    assert!(a.aggregate_throughput() > 0.0);
    assert!(a.mean_soc_power_w() > 0.0);
    assert!(a.total_power_w() > a.mean_soc_power_w());
    assert!(a.mean_pc1a_residency() > 0.0);
    assert!(a.worst_p99() >= a.mean_latency());
}

/// Each platform runs only its own package FSM: `Cshallow` records no
/// PC1A or PC6 transition or residency, `CPC1A` no PC6 and `Cdeep` no
/// PC1A, while the two with a package C-state do reach it at low load.
#[test]
fn each_platform_runs_only_its_package_fsm() {
    let run = |config: ServerConfig| {
        run_experiment(
            config
                .with_duration(SimDuration::from_millis(50))
                .with_seed(4),
            WorkloadSpec::memcached_etc(),
            2_000.0,
        )
    };
    let no_pc1a =
        |r: &RunResult| r.pc1a_transitions == 0 && r.pc1a_aborted == 0 && r.pc1a_residency == 0.0;
    let no_pc6 = |r: &RunResult| r.pc6_transitions == 0 && r.pc6_residency == 0.0;

    let shallow = run(ServerConfig::c_shallow());
    assert!(no_pc1a(&shallow) && no_pc6(&shallow), "Cshallow");
    let pc1a = run(ServerConfig::c_pc1a());
    assert!(no_pc6(&pc1a), "CPC1A");
    assert!(pc1a.pc1a_transitions > 0 && pc1a.pc1a_residency > 0.0);
    let deep = run(ServerConfig::c_deep());
    assert!(no_pc1a(&deep), "Cdeep");
    assert!(deep.pc6_transitions > 0 && deep.pc6_residency > 0.0);
}
