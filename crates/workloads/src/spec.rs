//! Workload specifications for the paper's three services.
//!
//! Each specification bundles a request-class mix, per-class service-time
//! distributions, the burstiness of the arrival process and the network round
//! trip, plus the operating points (request rates) at which the paper
//! evaluates the service. The parameters are calibrated so that the
//! *processor utilisation* and *full-system idleness* land in the ranges the
//! paper reports (Figs. 6, 8 and 9; docs/REPRODUCING.md lists the
//! reproduced values), not to reproduce the services' micro-architectural
//! behaviour.

use apc_sim::dist::{Distribution, LogNormal};
use apc_sim::rng::SimRng;
use apc_sim::{SimDuration, SimTime};

use crate::arrival::{ArrivalProcess, MmppArrivals, PoissonArrivals};
use crate::request::{Request, RequestClass, RequestId};

/// One request class within a workload mix.
#[derive(Debug)]
pub struct ClassMix {
    /// The request class.
    pub class: RequestClass,
    /// Relative weight of this class in the mix.
    pub weight: f64,
    /// CPU service-time distribution, in nanoseconds.
    pub service_ns: Box<dyn Distribution>,
}

/// Burstiness parameters of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burstiness {
    /// Rate multiplier during bursts (1.0 = plain Poisson).
    pub multiplier: f64,
    /// Long-run fraction of time in the burst state.
    pub fraction: f64,
    /// Mean burst episode duration.
    pub mean_burst: SimDuration,
}

/// A named operating point (label + request rate) used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Human-readable label ("low", "50K QPS", ...).
    pub label: &'static str,
    /// Request rate in requests per second.
    pub rate_per_sec: f64,
}

/// A complete workload specification.
#[derive(Debug)]
pub struct WorkloadSpec {
    /// Service name ("memcached", "kafka", "mysql").
    pub name: &'static str,
    /// Request class mix.
    pub mix: Vec<ClassMix>,
    /// Arrival burstiness.
    pub burstiness: Burstiness,
    /// Client-observed network round-trip time added to every request's
    /// end-to-end latency (the paper's testbed measures ≈ 117 µs).
    pub network_rtt: SimDuration,
    /// The operating points the paper evaluates for this service.
    pub operating_points: Vec<OperatingPoint>,
}

impl WorkloadSpec {
    /// Memcached running the Facebook ETC workload via a Mutilate-like
    /// client (paper Sec. 6): ~20 µs mean service time, GET-dominated, very
    /// bursty arrivals, evaluated from 4 K to 600 K QPS with the low-load
    /// region at 4 K–100 K QPS.
    #[must_use]
    pub fn memcached_etc() -> Self {
        WorkloadSpec {
            name: "memcached",
            mix: vec![
                ClassMix {
                    class: RequestClass::KvGet,
                    weight: 0.95,
                    service_ns: Box::new(LogNormal::from_mean_cv(19_000.0, 0.8)),
                },
                ClassMix {
                    class: RequestClass::KvSet,
                    weight: 0.05,
                    service_ns: Box::new(LogNormal::from_mean_cv(38_000.0, 0.8)),
                },
            ],
            burstiness: Burstiness {
                multiplier: 3.0,
                fraction: 0.25,
                mean_burst: SimDuration::from_micros(500),
            },
            network_rtt: SimDuration::from_micros(117),
            operating_points: vec![
                OperatingPoint {
                    label: "4K",
                    rate_per_sec: 4_000.0,
                },
                OperatingPoint {
                    label: "10K",
                    rate_per_sec: 10_000.0,
                },
                OperatingPoint {
                    label: "25K",
                    rate_per_sec: 25_000.0,
                },
                OperatingPoint {
                    label: "50K",
                    rate_per_sec: 50_000.0,
                },
                OperatingPoint {
                    label: "100K",
                    rate_per_sec: 100_000.0,
                },
                OperatingPoint {
                    label: "200K",
                    rate_per_sec: 200_000.0,
                },
                OperatingPoint {
                    label: "300K",
                    rate_per_sec: 300_000.0,
                },
                OperatingPoint {
                    label: "400K",
                    rate_per_sec: 400_000.0,
                },
            ],
        }
    }

    /// Kafka producer/consumer streaming (paper Sec. 7.4): ~100 µs mean
    /// per-message broker work, evaluated at 8 % and 16 % processor load.
    #[must_use]
    pub fn kafka() -> Self {
        WorkloadSpec {
            name: "kafka",
            mix: vec![
                ClassMix {
                    class: RequestClass::Produce,
                    weight: 0.5,
                    service_ns: Box::new(LogNormal::from_mean_cv(110_000.0, 0.7)),
                },
                ClassMix {
                    class: RequestClass::Consume,
                    weight: 0.5,
                    service_ns: Box::new(LogNormal::from_mean_cv(90_000.0, 0.7)),
                },
            ],
            burstiness: Burstiness {
                multiplier: 4.0,
                fraction: 0.2,
                mean_burst: SimDuration::from_millis(2),
            },
            network_rtt: SimDuration::from_micros(117),
            operating_points: vec![
                OperatingPoint {
                    label: "low",
                    rate_per_sec: 8_000.0,
                },
                OperatingPoint {
                    label: "high",
                    rate_per_sec: 16_000.0,
                },
            ],
        }
    }

    /// MySQL running a sysbench-OLTP-like transaction mix (paper Sec. 7.4):
    /// ~1 ms mean transaction service time, evaluated at 8 %, 16 % and 42 %
    /// processor load.
    #[must_use]
    pub fn mysql_oltp() -> Self {
        WorkloadSpec {
            name: "mysql",
            mix: vec![ClassMix {
                class: RequestClass::OltpTransaction,
                weight: 1.0,
                service_ns: Box::new(LogNormal::from_mean_cv(1_000_000.0, 0.6)),
            }],
            burstiness: Burstiness {
                multiplier: 2.5,
                fraction: 0.3,
                mean_burst: SimDuration::from_millis(5),
            },
            network_rtt: SimDuration::from_micros(117),
            operating_points: vec![
                OperatingPoint {
                    label: "low",
                    rate_per_sec: 800.0,
                },
                OperatingPoint {
                    label: "mid",
                    rate_per_sec: 1_600.0,
                },
                OperatingPoint {
                    label: "high",
                    rate_per_sec: 4_200.0,
                },
            ],
        }
    }

    /// Mean CPU service time across the class mix.
    #[must_use]
    fn mean_service(&self) -> SimDuration {
        let total_weight: f64 = self.mix.iter().map(|c| c.weight).sum();
        if total_weight <= 0.0 {
            return SimDuration::ZERO;
        }
        let mean_ns: f64 = self
            .mix
            .iter()
            .map(|c| c.service_ns.mean() * c.weight / total_weight)
            .sum();
        SimDuration::from_nanos_f64(mean_ns)
    }

    /// Expected processor utilisation at a given request rate on `cores`
    /// cores.
    #[must_use]
    pub fn utilization(&self, rate_per_sec: f64, cores: usize) -> f64 {
        rate_per_sec * self.mean_service().as_secs_f64() / cores.max(1) as f64
    }

    /// Draws a request of this workload.
    pub fn sample_request(&self, rng: &mut SimRng, id: RequestId, arrival: SimTime) -> Request {
        let total_weight: f64 = self.mix.iter().map(|c| c.weight).sum();
        let mut pick = rng.uniform() * total_weight;
        let mut chosen = &self.mix[0];
        for entry in &self.mix {
            if pick <= entry.weight {
                chosen = entry;
                break;
            }
            pick -= entry.weight;
        }
        let service_ns = chosen.service_ns.sample(rng).max(100.0);
        Request::new(
            id,
            chosen.class,
            arrival,
            SimDuration::from_nanos_f64(service_ns),
        )
    }

    /// Builds the arrival process for a given request rate.
    #[must_use]
    pub fn arrival_process(&self, rate_per_sec: f64) -> Box<dyn ArrivalProcess> {
        if self.burstiness.multiplier <= 1.0 {
            Box::new(PoissonArrivals::new(rate_per_sec))
        } else {
            Box::new(MmppArrivals::new(
                rate_per_sec,
                self.burstiness.multiplier,
                self.burstiness.fraction,
                self.burstiness.mean_burst,
            ))
        }
    }
}

/// OS background activity: periodic timer ticks and housekeeping daemons that
/// briefly wake individual cores even when no client requests are present.
///
/// This is what limits the all-cores-idle residency to well below 100 % even
/// on an otherwise idle server (the paper measures ≈ 77 % all-idle residency
/// at 4 K QPS).
#[derive(Debug, Clone)]
pub struct BackgroundNoise {
    /// Mean interval between background wakeups on each core.
    pub tick_period: SimDuration,
    /// CPU time consumed per background wakeup, in nanoseconds.
    work_ns: LogNormal,
}

impl BackgroundNoise {
    /// The default calibration: a 1 ms tick per core with ~18 µs of work
    /// (coefficient of variation 0.5), which bounds all-idle residency at
    /// roughly 80 % on 10 cores.
    #[must_use]
    pub fn default_server() -> Self {
        BackgroundNoise {
            tick_period: SimDuration::from_millis(1),
            work_ns: LogNormal::from_mean_cv(SimDuration::from_micros(18).as_nanos() as f64, 0.5),
        }
    }

    /// Draws the CPU time of one background wakeup.
    pub fn sample_work(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_nanos_f64(self.work_ns.sample(rng).max(500.0))
    }

    /// Draws the interval until a core's next background wakeup.
    pub fn sample_interval(&self, rng: &mut SimRng) -> SimDuration {
        // Jittered around the tick period (±25 %) so cores do not tick in
        // lockstep.
        let base = self.tick_period.as_nanos() as f64;
        SimDuration::from_nanos_f64(rng.uniform_range(base * 0.75, base * 1.25))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcached_calibration_targets() {
        let w = WorkloadSpec::memcached_etc();
        let mean = w.mean_service();
        assert!(
            mean >= SimDuration::from_micros(18) && mean <= SimDuration::from_micros(23),
            "mean service {mean}"
        );
        // 100 K QPS on 10 cores ≈ 20 % utilisation (the top of the paper's
        // low-load region).
        let util = w.utilization(100_000.0, 10);
        assert!(util > 0.15 && util < 0.25, "util {util}");
        assert_eq!(w.network_rtt, SimDuration::from_micros(117));
        assert!(w.operating_points.len() >= 6);
    }

    #[test]
    fn mysql_and_kafka_operating_points_match_paper_loads() {
        let mysql = WorkloadSpec::mysql_oltp();
        let low = mysql.utilization(mysql.operating_points[0].rate_per_sec, 10);
        let high = mysql.utilization(mysql.operating_points[2].rate_per_sec, 10);
        assert!((low - 0.08).abs() < 0.02, "mysql low {low}");
        assert!((high - 0.42).abs() < 0.05, "mysql high {high}");

        let kafka = WorkloadSpec::kafka();
        let klow = kafka.utilization(kafka.operating_points[0].rate_per_sec, 10);
        let khigh = kafka.utilization(kafka.operating_points[1].rate_per_sec, 10);
        assert!((klow - 0.08).abs() < 0.02, "kafka low {klow}");
        assert!((khigh - 0.16).abs() < 0.04, "kafka high {khigh}");
    }

    #[test]
    fn sample_request_respects_mix() {
        let w = WorkloadSpec::memcached_etc();
        let mut rng = SimRng::from_seed(11);
        let mut gets = 0u64;
        let n = 20_000u64;
        for i in 0..n {
            let r = w.sample_request(&mut rng, RequestId(i), SimTime::ZERO);
            if r.class == RequestClass::KvGet {
                gets += 1;
            }
            assert!(r.service >= SimDuration::from_nanos(100));
        }
        let frac = gets as f64 / n as f64;
        assert!((frac - 0.95).abs() < 0.01, "GET fraction {frac}");
    }

    #[test]
    fn arrival_process_kind_follows_burstiness() {
        let w = WorkloadSpec::memcached_etc();
        let a = w.arrival_process(10_000.0);
        assert_eq!(a.rate_per_sec(), 10_000.0);
        let mut plain = WorkloadSpec::mysql_oltp();
        plain.burstiness.multiplier = 1.0;
        let p = plain.arrival_process(500.0);
        assert_eq!(p.rate_per_sec(), 500.0);
    }

    #[test]
    fn background_work_draws_match_a_per_draw_distribution_bit_for_bit() {
        let noise = BackgroundNoise::default_server();
        let (mut once, mut per_draw) = (SimRng::from_seed(29), SimRng::from_seed(29));
        for _ in 0..10_000 {
            let rebuilt = LogNormal::from_mean_cv(18_000.0, 0.5);
            assert_eq!(
                noise.work_ns.sample(&mut once).to_bits(),
                rebuilt.sample(&mut per_draw).to_bits()
            );
        }
    }

    #[test]
    fn background_noise_calibration() {
        let n = BackgroundNoise::default_server();
        let mut rng = SimRng::from_seed(5);
        for _ in 0..100 {
            let w = n.sample_work(&mut rng);
            assert!(w >= SimDuration::from_nanos(500));
            let i = n.sample_interval(&mut rng);
            assert!(i >= SimDuration::from_micros(750));
            assert!(i <= SimDuration::from_micros(1_250));
        }
    }
}
