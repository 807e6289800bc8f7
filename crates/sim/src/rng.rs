//! Deterministic random number generation.
//!
//! Every stochastic component of the reproduction (arrival processes, service
//! time draws, key popularity) pulls randomness from a [`SimRng`] seeded from
//! an experiment-level seed, so that every table and figure is exactly
//! reproducible run-to-run.
//!
//! The generator is a self-contained xoshiro256++ implementation (the same
//! algorithm `rand::rngs::SmallRng` uses on 64-bit targets), so the crate has
//! no external dependencies and builds in fully offline environments.

/// A small, fast, deterministic RNG used throughout the simulator.
///
/// Implements xoshiro256++ seeded through a SplitMix64 expansion of a 64-bit
/// seed, plus the handful of draw helpers the simulator needs. Independent
/// sub-streams for different components are derived with [`SimRng::fork`],
/// which hashes a label into the parent seed so that adding a new consumer
/// does not perturb existing streams.
///
/// # Examples
///
/// ```
/// use apc_sim::rng::SimRng;
///
/// let mut a = SimRng::from_seed(42);
/// let mut b = SimRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut arrivals = a.fork("arrivals");
/// let mut service = a.fork("service");
/// // Forked streams are independent of each other and of the parent.
/// assert_ne!(arrivals.next_u64(), service.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 step, used to expand a 64-bit seed into the xoshiro state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed;
        let state = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        SimRng { state, seed }
    }

    /// The seed this generator was created from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a named sub-component.
    ///
    /// The derivation depends only on the parent seed and the label, not on
    /// how much randomness the parent has already consumed: the label is
    /// FNV-1a-hashed and mixed into the parent seed, and the result seeds a
    /// fresh generator. Adding a new consumer therefore never perturbs
    /// existing streams.
    ///
    /// # Seed-derivation scheme (canonical reference)
    ///
    /// Every deterministic stream in the simulator is derived from an
    /// experiment-level seed through this method, under the following label
    /// conventions (new consumers should follow the same shape):
    ///
    /// | consumer | label | forked from |
    /// |---|---|---|
    /// | a server node's core `i` | `"core i"` | the node's seed (for a single server, also its cluster seed) |
    /// | node bootstrap draws | `"bootstrap"` | the node's seed |
    /// | load generator | `"loadgen"` | the server's (or cluster's) seed |
    /// | fleet / scenario member `i` | `"server i"` | the fleet or scenario seed |
    /// | cluster node `i` | `"server i"` | the cluster seed |
    /// | cluster balancer | `"balancer"` | the cluster seed (its simulation root) |
    ///
    /// A node registers as one component named after its index
    /// (`"node 3"`), but its cores' streams are forked from the *node
    /// seed*, not from that name, so a node embedded in a cluster draws
    /// exactly what a single server (a 1-node cluster) with the same seed
    /// would.
    ///
    /// Because each member/component seed is a pure function of
    /// `(parent seed, label)`, fleets are exactly reproducible run-to-run,
    /// members are pairwise independent, and running members in parallel
    /// cannot change any stream — the property the parallel fleet runner's
    /// bit-identical guarantee rests on.
    #[must_use]
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the parent seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::from_seed(self.seed ^ h.rotate_left(17))
    }

    /// The next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value in `[lo, hi)`. Returns `lo` when the range is empty or
    /// degenerate.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        // NaN bounds compare as "not greater" and fall back to `lo`.
        if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return lo;
        }
        lo + self.uniform() * (hi - lo)
    }

    /// A uniform integer in `[0, n)` (unbiased, via rejection sampling).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        let n = n as u64;
        // Widening-multiply trick (Lemire); reject the biased zone.
        let zone = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            if (m as u64) >= zone {
                return (m >> 64) as usize;
            }
        }
    }

    /// A Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// A standard normal (mean 0, unit variance) draw using Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// An exponentially distributed draw with the given mean.
    ///
    /// Returns `f64::INFINITY` for an infinite mean (a gap that never ends,
    /// e.g. the inter-arrival time of a rate that underflows to zero) and
    /// `0.0` for non-positive or NaN means. Neither consumes a draw.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean == f64::INFINITY {
            return f64::INFINITY;
        }
        if !mean.is_finite() || mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_stable_and_label_sensitive() {
        let parent = SimRng::from_seed(99);
        let f1 = parent.fork("arrivals");
        let f2 = parent.fork("arrivals");
        let f3 = parent.fork("service");
        assert_eq!(f1.seed(), f2.seed());
        assert_ne!(f1.seed(), f3.seed());
        assert_ne!(f1.seed(), parent.seed());
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = SimRng::from_seed(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_is_unbiased_and_in_range() {
        let mut rng = SimRng::from_seed(11);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.index(7)] += 1;
        }
        for &c in &counts {
            let rate = f64::from(c) / 70_000.0;
            assert!((rate - 1.0 / 7.0).abs() < 0.01, "rate {rate}");
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::from_seed(4);
        let n = 50_000;
        let mean = 25.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / f64::from(n);
        assert!(
            (observed - mean).abs() / mean < 0.05,
            "observed mean {observed} too far from {mean}"
        );
        assert_eq!(rng.exponential(-1.0), 0.0);
        assert_eq!(rng.exponential(f64::NAN), 0.0);
        // An infinite mean saturates to a gap that never ends.
        assert_eq!(rng.exponential(1e9 / 1e-300), f64::INFINITY);
    }

    #[test]
    fn chance_respects_probability() {
        let mut rng = SimRng::from_seed(6);
        let hits = (0..20_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02);
        assert!(!rng.chance(-1.0)); // clamped to 0.0 => never true
        assert!(rng.chance(2.0)); // clamped to 1.0 => always true
    }

    #[test]
    fn standard_normal_has_zero_mean_unit_variance() {
        let mut rng = SimRng::from_seed(8);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
