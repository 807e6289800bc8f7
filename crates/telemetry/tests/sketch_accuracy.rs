//! The sketch accuracy contract, enforced on adversarial distributions.
//!
//! [`QuantileSketch`] promises: for every queried quantile, the estimate is
//! within `alpha` relative error of the **lower nearest-rank** exact value
//! `sorted[floor(q * (n - 1))]` of the recorded multiset (clamped to the
//! observed `[min, max]`), and `count`/`sum`/`min`/`max` are exact. This
//! suite drives the sketch (`alpha = 1 %`, its one configuration) with fixed-seed
//! streams chosen to stress different failure modes — flat mass (uniform),
//! heavy tail (lognormal), a sparse far mode that midpoint interpolation
//! would misplace (bimodal spike), and the degenerate constant and
//! single-sample streams where the contract sharpens to exactness — and
//! checks every promise against a sorted copy of the stream.
//!
//! Merge gets the same treatment: associativity and commutativity must hold
//! *exactly* (identical [`QuantileSketch::parts`]), and resharding a stream
//! `k` ways then merging must be indistinguishable from never sharding —
//! the property the sweep-shard checkpoint path rests on.

use apc_sim::SimRng;
use apc_telemetry::sketch::{QuantileSketch, ALPHA};

const QUANTILES: [f64; 4] = [0.5, 0.95, 0.99, 0.999];

/// Lower nearest-rank quantile: `sorted[floor(q * (n - 1))]`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    sorted[(q * (sorted.len() - 1) as f64).floor() as usize]
}

/// Records `values` into a fresh sketch.
fn sketch_of(values: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.record(v);
    }
    s
}

/// Asserts the full accuracy contract of `sketch` against its stream.
fn assert_contract(name: &str, values: &[u64]) {
    let sketch = sketch_of(values);
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    assert_eq!(sketch.count(), values.len() as u64, "{name}: count");
    assert_eq!(
        sketch.sum(),
        values.iter().map(|&v| u128::from(v)).sum::<u128>(),
        "{name}: sum"
    );
    assert_eq!(sketch.min(), sorted.first().copied(), "{name}: min");
    assert_eq!(sketch.max(), sorted.last().copied(), "{name}: max");
    for q in QUANTILES {
        let exact = exact_quantile(&sorted, q);
        let est = sketch.quantile(q).expect("non-empty sketch");
        let delta = est.abs_diff(exact) as f64;
        // `+ 1.0` absorbs the rounding of the bucket midpoint to u64.
        assert!(
            delta <= ALPHA * exact as f64 + 1.0,
            "{name}: q={q} exact={exact} est={est} (delta {delta})"
        );
    }
}

fn uniform_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::from_seed(seed);
    (0..n)
        .map(|_| rng.uniform_range(1_000.0, 1_000_000.0) as u64)
        .collect()
}

fn lognormal_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::from_seed(seed);
    (0..n)
        .map(|_| {
            let ln = rng.standard_normal() * 1.5 + (100_000.0f64).ln();
            (ln.exp() as u64).max(1)
        })
        .collect()
}

/// 99 % of mass near 10 us, 1 % near 5 ms: a sparse far mode whose gap a
/// midpoint-interpolating estimator would bridge with impossible values.
fn bimodal_spike_stream(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::from_seed(seed);
    (0..n)
        .map(|_| {
            if rng.chance(0.01) {
                5_000_000 + rng.next_u64() % 50_000
            } else {
                10_000 + rng.next_u64() % 500
            }
        })
        .collect()
}

#[test]
fn uniform_meets_the_contract() {
    assert_contract("uniform", &uniform_stream(100_000, 11));
}

#[test]
fn lognormal_meets_the_contract() {
    assert_contract("lognormal", &lognormal_stream(100_000, 12));
}

#[test]
fn bimodal_spike_meets_the_contract() {
    assert_contract("bimodal", &bimodal_spike_stream(100_000, 13));
}

#[test]
fn constant_stream_is_exact() {
    let values = vec![42_000u64; 10_000];
    assert_contract("constant", &values);
    let sketch = sketch_of(&values);
    for q in QUANTILES {
        assert_eq!(sketch.quantile(q), Some(42_000), "q={q}");
    }
}

#[test]
fn single_sample_is_exact() {
    let values = [123_456u64];
    assert_contract("single", &values);
    let sketch = sketch_of(&values);
    for q in QUANTILES {
        assert_eq!(sketch.quantile(q), Some(123_456), "q={q}");
    }
}

#[test]
fn zero_values_are_representable_and_exact_at_the_bottom() {
    let mut values = vec![0u64; 500];
    values.extend(uniform_stream(1_500, 14));
    assert_contract("zero-mixed", &values);
    let sketch = sketch_of(&values);
    // A quarter of the mass is zero, so the low quantiles are exactly zero.
    assert_eq!(sketch.quantile(0.1), Some(0));
}

#[test]
fn merge_is_exactly_associative_and_commutative() {
    let stream = lognormal_stream(30_000, 15);
    let (a, rest) = stream.split_at(7_000);
    let (b, c) = rest.split_at(11_000);
    let (sa, sb, sc) = (sketch_of(a), sketch_of(b), sketch_of(c));

    // (a ∪ b) ∪ c == a ∪ (b ∪ c), exactly.
    let mut left = sa.clone();
    left.merge(&sb);
    left.merge(&sc);
    let mut bc = sb.clone();
    bc.merge(&sc);
    let mut right = sa.clone();
    right.merge(&bc);
    assert_eq!(left.parts(), right.parts());

    // a ∪ b == b ∪ a, exactly.
    let mut ab = sa.clone();
    ab.merge(&sb);
    let mut ba = sb.clone();
    ba.merge(&sa);
    assert_eq!(ab.parts(), ba.parts());

    // And the merged sketch is the whole stream's sketch, exactly.
    assert_eq!(left.parts(), sketch_of(&stream).parts());
}

#[test]
fn shard_split_merge_equals_unsharded_exactly() {
    let stream = bimodal_spike_stream(50_000, 16);
    let whole = sketch_of(&stream);
    for shards in [2usize, 3, 7] {
        let mut parts: Vec<QuantileSketch> = (0..shards)
            .map(|s| {
                sketch_of(
                    &stream
                        .iter()
                        .copied()
                        .enumerate()
                        .filter(|(i, _)| i % shards == s)
                        .map(|(_, v)| v)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.parts(), whole.parts(), "{shards} shards");
    }
}
