//! Criterion micro-benchmarks of the simulator itself: event-queue
//! throughput, a full PC1A entry/exit cycle on the APMU FSM, and
//! full-system simulated-time throughput. These quantify the cost of the
//! reproduction's machinery, not any paper result.

#![allow(missing_docs)] // criterion's macros generate undocumented items

use criterion::{criterion_group, criterion_main, Criterion};

use apc_core::apmu::{Apmu, WakeCause, WakeOutcome};
use apc_server::components::state::SchedState;
use apc_server::components::WorkItem;
use apc_server::config::ServerConfig;
use apc_server::sim::run_experiment;
use apc_sim::engine::EventQueue;
use apc_sim::{SimDuration, SimTime};
use apc_soc::cstate::CoreCState;
use apc_soc::topology::{SkxSoc, SocConfig};
use apc_workloads::spec::WorkloadSpec;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            sum
        });
    });
}

fn bench_event_queue_cancel(c: &mut Criterion) {
    // Timer-heavy pattern: every scheduled event is re-armed (cancel + new
    // schedule) against a standing population of pending events, the worst
    // case for a cancel implementation that scans the heap.
    c.bench_function("event_queue_cancel_rearm_4k_pending", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut ids = Vec::with_capacity(4_096);
            for i in 0..4_096u64 {
                ids.push(q.schedule(SimTime::from_nanos(1_000_000 + i), i));
            }
            let mut cancelled = 0u64;
            for (round, slot) in ids.iter_mut().enumerate() {
                if q.cancel(*slot) {
                    cancelled += 1;
                }
                *slot = q.schedule(SimTime::from_nanos(2_000_000 + round as u64), round as u64);
            }
            cancelled
        });
    });
}

fn bench_apmu_cycle(c: &mut Criterion) {
    c.bench_function("apmu_pc1a_entry_exit_cycle", |b| {
        let mut soc = SkxSoc::xeon_silver_4114();
        let mut apmu = Apmu::new();
        let mut now = SimTime::from_micros(1);
        b.iter(|| {
            soc.force_all_cores(now, CoreCState::CC1);
            for link in soc.ios_mut().iter_mut() {
                link.end_traffic(now);
            }
            if let Some(deadline) = apmu.on_all_cores_idle(&mut soc, now) {
                if let Some(resident) = apmu.on_standby_deadline(&mut soc, deadline) {
                    apmu.on_entry_complete(resident);
                    let wake = resident + SimDuration::from_micros(30);
                    if let WakeOutcome::Exiting { done_at, .. } =
                        apmu.wakeup(&mut soc, wake, WakeCause::IoTraffic)
                    {
                        apmu.on_exit_complete(&mut soc, done_at);
                        apmu.on_core_active(&mut soc, done_at);
                        now = done_at + SimDuration::from_micros(10);
                    }
                }
            }
            apmu.stats().pc1a_entries
        });
    });
}

fn bench_scheduler_free_core(c: &mut Criterion) {
    // The dispatch scheduler's per-assignment core lookup, in the worst case
    // for the O(cores) scan the free-core bitset replaced: a 48-core node
    // where only the highest core is free. At 10+ cores the bitset's single
    // `trailing_zeros` wins by an order of magnitude; the gap grows linearly
    // with the core count.
    let cores = 48;
    let mut soc = SocConfig::small_test(cores).build();
    let mut sched = SchedState::new(cores);
    for i in 0..cores - 1 {
        sched.start_running(
            i,
            WorkItem::Background {
                work: SimDuration::from_micros(10),
            },
        );
    }
    soc.cores_mut().force_state(
        apc_soc::core::CoreId(cores - 1),
        SimTime::ZERO,
        CoreCState::CC1,
    );
    sched.mark_free(cores - 1);
    c.bench_function("dispatch_lookup_scan_48_cores", |b| {
        b.iter(|| (0..cores).find(|&i| sched.core_is_free(&soc, i)));
    });
    c.bench_function("dispatch_lookup_bitset_48_cores", |b| {
        b.iter(|| sched.free_cores.lowest());
    });
}

fn bench_full_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_system");
    group.sample_size(10);
    group.bench_function("memcached_cpc1a_50ms_sim", |b| {
        b.iter(|| {
            let cfg = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(50));
            run_experiment(cfg, WorkloadSpec::memcached_etc(), 25_000.0).completed_requests
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_cancel,
    bench_apmu_cycle,
    bench_scheduler_free_core,
    bench_full_system
);
criterion_main!(benches);
