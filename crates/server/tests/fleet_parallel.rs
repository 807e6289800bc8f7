//! Parallel fleet execution must be indistinguishable — result-wise — from
//! the sequential path.

use apc_server::config::ServerConfig;
use apc_server::fleet::{Fleet, FleetMember};
use apc_sim::SimDuration;
use apc_workloads::arrival::{PiecewiseRateArrivals, RateSegment};
use apc_workloads::spec::WorkloadSpec;

fn homogeneous_fleet(n: usize) -> Fleet {
    let config = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(30));
    Fleet::homogeneous(&config, WorkloadSpec::memcached_etc, 25_000.0, n)
}

#[test]
fn parallel_run_is_bit_identical_to_sequential() {
    let sequential = homogeneous_fleet(6).with_parallelism(1).run();
    let parallel = homogeneous_fleet(6).with_parallelism(4).run();
    assert_eq!(sequential, parallel);
}

#[test]
fn auto_parallelism_matches_sequential() {
    // No knob: `run` picks the host's available parallelism.
    let auto = homogeneous_fleet(4).run();
    let sequential = homogeneous_fleet(4).with_parallelism(1).run();
    assert_eq!(auto, sequential);
}

#[test]
fn oversubscribed_worker_pool_is_harmless() {
    // More workers than members: the extra workers find the queue drained.
    let wide = homogeneous_fleet(3).with_parallelism(16).run();
    let narrow = homogeneous_fleet(3).with_parallelism(2).run();
    assert_eq!(wide, narrow);
    assert_eq!(wide.servers(), 3);
}

#[test]
fn heterogeneous_members_keep_insertion_order() {
    let build = || {
        let duration = SimDuration::from_millis(20);
        let mut fleet = Fleet::new();
        fleet.push(FleetMember::new(
            ServerConfig::c_pc1a().with_duration(duration).with_seed(11),
            WorkloadSpec::memcached_etc(),
            40_000.0,
        ));
        fleet.push(FleetMember::new(
            ServerConfig::c_deep().with_duration(duration).with_seed(22),
            WorkloadSpec::kafka(),
            8_000.0,
        ));
        fleet.push(
            FleetMember::new(
                ServerConfig::c_shallow()
                    .with_duration(duration)
                    .with_seed(33),
                WorkloadSpec::mysql_oltp(),
                800.0,
            )
            .with_arrival_process(Box::new(PiecewiseRateArrivals::new(
                vec![
                    RateSegment::new(SimDuration::from_millis(5), 400.0),
                    RateSegment::new(SimDuration::from_millis(5), 1_200.0),
                ],
                true,
            ))),
        );
        fleet
    };
    let parallel = build().with_parallelism(3).run();
    let sequential = build().with_parallelism(1).run();
    assert_eq!(parallel, sequential);
    // Per-slot identity: the scheduler may finish members in any order, but
    // slot i always holds member i.
    let workloads: Vec<&str> = parallel.runs.iter().map(|r| r.workload).collect();
    assert_eq!(workloads, ["memcached", "kafka", "mysql"]);
    let configs: Vec<&str> = parallel.runs.iter().map(|r| r.config_name).collect();
    assert_eq!(configs, ["CPC1A", "Cdeep", "Cshallow"]);
}

#[test]
fn fleet_display_summarises_members_and_totals() {
    let result = homogeneous_fleet(2).run();
    let rendered = format!("{result}");
    assert!(rendered.contains("server   0"), "{rendered}");
    assert!(rendered.contains("server   1"), "{rendered}");
    assert!(rendered.contains("fleet     : 2 servers"), "{rendered}");
}
