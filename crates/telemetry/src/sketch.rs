//! Bounded-memory relative-error quantile sketch for latency telemetry.
//!
//! The paper's headline metrics are tail latencies (p99/p999) under
//! killer-microsecond traffic. Retaining every per-request sample makes an
//! hour-long, 100-node, million-RPS experiment memory-bound before it is
//! CPU-bound, so the result path summarises latencies with a DDSketch-style
//! log-bucketed histogram instead: bounded memory per recorder with a
//! *contractual* relative-error bound on every reported quantile.
//!
//! # Error contract
//!
//! The sketch has one configuration: relative accuracy [`ALPHA`] = 1 %.
//! Every non-zero recorded value `x` lands in bucket
//! `i = ceil(ln(x) / ln(gamma))` with `gamma = (1 + alpha)/(1 - alpha)`;
//! bucket `i` covers `(gamma^(i-1), gamma^i]` and is reported as its
//! relative midpoint `2·gamma^i / (gamma + 1)`, which is within `alpha` of
//! every value in the bucket. [`QuantileSketch::quantile`] rounds that
//! midpoint to an integer, which adds at most half a unit, so it returns an
//! estimate `e` with
//!
//! ```text
//! |e − exact_q| ≤ alpha · exact_q + 0.5
//! ```
//!
//! The half unit matters only for small values near a bucket edge: a
//! sample of 22 479, just above the lower edge (22 478.94) of bucket 502,
//! reads back as 22 704, 1.0009 % off.
//!
//! Here `exact_q` is the **lower nearest-rank** quantile of the recorded
//! multiset: `sorted[floor(q · (n − 1))]`. (Interpolated quantiles carry no
//! such bound — the midpoint of a sparse bimodal gap is arbitrarily far from
//! both modes — so the contract, and the accuracy suite that enforces it,
//! use the nearest-rank convention.) Estimates are additionally clamped to
//! the exact observed `[min, max]`, which makes constant and single-sample
//! distributions exact.
//!
//! # The domain bounds the buckets
//!
//! Values are recorded as `u64` (the result path records nanoseconds), so
//! every non-zero value lands in a bucket of `0..=2218`: 1 maps to bucket
//! 0 and `u64::MAX` to bucket 2218. A sketch therefore holds at most
//! 2,219 bucket counts whatever it records, so it needs none of the
//! low-end bucket collapse DDSketch uses to bound memory over an unbounded
//! domain, and [`QuantileSketch::from_parts`] refuses any other index.
//!
//! # Exactness and determinism
//!
//! The sketch keeps `count`, `min`, `max` exactly plus the *exact* integer
//! `sum` in a `u128` — so `mean()` is exact to f64 precision of the total,
//! and [`QuantileSketch::merge`] is **exactly** associative and commutative
//! (bucket counts and integer sums, no float accumulation order to worry
//! about).
//!
//! # Serialization
//!
//! The sketch exposes its complete logical state ([`QuantileSketch::parts`])
//! and rebuilds from it ([`QuantileSketch::from_parts`]); the analysis crate
//! renders that state as JSON so a sharded sweep can checkpoint per-point
//! sketches and a later `merge` process can re-derive byte-identical
//! summaries.

/// The relative accuracy every sketch guarantees: 1 %.
pub const ALPHA: f64 = 0.01;

/// `(1 + alpha) / (1 - alpha)` — the bucket growth factor.
const GAMMA: f64 = (1.0 + ALPHA) / (1.0 - ALPHA);

/// `1 / ln(gamma)`, as the bits `1.0 / GAMMA.ln()` gives at run time (a
/// test pins them): `ln` is not a `const fn`.
const INV_LN_GAMMA: f64 = 49.99833328888678;

/// The bucket `u64::MAX` lands in: the highest index any sketch holds.
const MAX_INDEX: i32 = 2218;

/// The complete logical state of a sketch, for (de)serialization.
///
/// `buckets` holds `(index, count)` pairs for every non-empty log bucket, in
/// ascending index order; all other fields mirror the accessors of the same
/// name on [`QuantileSketch`].
#[derive(Debug, Clone, PartialEq)]
pub struct SketchParts {
    /// Number of recorded zeros.
    pub zero_count: u64,
    /// Exact sum of all recorded values.
    pub sum: u128,
    /// Smallest recorded value (`0` when empty).
    pub min: u64,
    /// Largest recorded value (`0` when empty).
    pub max: u64,
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(i32, u64)>,
}

/// DDSketch-style bounded-memory quantile sketch over `u64` values.
///
/// See the [module docs](self) for the error contract. Two sketches compare
/// equal when their logical contents (counts, extremes, sums and non-empty
/// buckets) are equal — the internal storage layout is canonical for a
/// given recording history, so parallel and sequential executions that
/// record the same values in the same order produce `==` sketches.
///
/// ```
/// use apc_telemetry::QuantileSketch;
///
/// let mut latency_ns = QuantileSketch::new();
/// for us in 1..=1_000 {
///     latency_ns.record(us * 1_000);
/// }
/// assert_eq!(latency_ns.count(), 1_000);
/// assert_eq!(latency_ns.max(), Some(1_000_000));
/// // Within 1 % of the lower nearest-rank p99, the 990th smallest sample.
/// let p99 = latency_ns.quantile(0.99).unwrap();
/// assert!(p99.abs_diff(990_000) <= 9_900, "{p99}");
/// ```
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Log-bucket index of `counts[0]`.
    base_index: i32,
    /// Per-bucket counts for indices `base_index ..`; never has an empty
    /// first or last slot (the range is exactly the observed index span).
    counts: Vec<u64>,
    /// Number of recorded zeros (a log bucket cannot hold them).
    zero_count: u64,
    /// Total recorded values, including zeros.
    count: u64,
    /// Exact integer sum of every recorded value.
    sum: u128,
    /// Exact extremes; `min > max` encodes "empty".
    min: u64,
    max: u64,
}

/// The log-bucket index a non-zero value maps to, in `0..=MAX_INDEX`.
#[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
fn index_of(value: u64) -> i32 {
    debug_assert!(value > 0);
    // value = 1 maps to ln(1) = 0 -> bucket 0, covering (gamma^-1, 1].
    ((value as f64).ln() * INV_LN_GAMMA).ceil() as i32
}

/// The representative value of bucket `index`: the point within
/// `(gamma^(index-1), gamma^index]` whose relative distance to both ends is
/// `alpha`.
fn estimate_of(index: i32) -> f64 {
    2.0 * GAMMA.powi(index) / (GAMMA + 1.0)
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        QuantileSketch {
            base_index: 0,
            counts: Vec::new(),
            zero_count: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Total recorded values (including zeros).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of every recorded value.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest recorded value; `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest recorded value; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean (to f64 precision of the total); `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Number of non-empty log buckets currently held (plus, logically, the
    /// zero bucket) — the memory footprint is `O(bucket_len)` regardless of
    /// how many values were recorded.
    #[must_use]
    pub fn bucket_len(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value == 0 {
            self.zero_count += 1;
            return;
        }
        self.bump(index_of(value), 1);
    }

    /// Adds `by` to the bucket at `index`, growing the contiguous range as
    /// needed.
    fn bump(&mut self, index: i32, by: u64) {
        if self.counts.is_empty() {
            self.base_index = index;
            self.counts.push(by);
            return;
        }
        if index < self.base_index {
            let grow = (self.base_index - index) as usize;
            self.counts.splice(0..0, std::iter::repeat(0).take(grow));
            self.base_index = index;
        }
        let slot = (index - self.base_index) as usize;
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        self.counts[slot] += by;
    }

    /// Merges `other` into `self`.
    ///
    /// Counts, sums and extremes combine exactly, so merge is associative
    /// and commutative, and splitting one value stream across sketches then
    /// merging yields a sketch `==` to recording the stream into one sketch.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.count += other.count;
        self.sum += other.sum;
        self.zero_count += other.zero_count;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (index, count) in other.entries() {
            self.bump(index, count);
        }
    }

    /// The quantile estimate for `q ∈ [0, 1]`; `None` when empty.
    ///
    /// The estimate targets the **lower nearest-rank** exact quantile
    /// `sorted[floor(q · (n − 1))]` and is within relative error `alpha` of
    /// it, plus half a unit for rounding to an integer (see the
    /// [module docs](self)), clamped to the exact observed `[min, max]`.
    #[must_use]
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        if rank < self.zero_count {
            return Some(0);
        }
        let mut seen = self.zero_count;
        for (index, count) in self.entries() {
            seen += count;
            if rank < seen {
                let estimate = estimate_of(index).round();
                let estimate = if estimate >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    estimate as u64
                };
                return Some(estimate.clamp(self.min, self.max));
            }
        }
        // Unreachable when the invariant `count == zero_count + Σ buckets`
        // holds; fall back to the exact maximum.
        Some(self.max)
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    fn entries(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(slot, &count)| {
                (
                    self.base_index + i32::try_from(slot).expect("bucket span fits in i32"),
                    count,
                )
            })
    }

    /// The complete logical state, for serialization.
    #[must_use]
    pub fn parts(&self) -> SketchParts {
        SketchParts {
            zero_count: self.zero_count,
            sum: self.sum,
            min: if self.count > 0 { self.min } else { 0 },
            max: self.max,
            buckets: self.entries().collect(),
        }
    }

    /// Rebuilds a sketch from serialized [`SketchParts`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found (buckets out
    /// of order, a bucket index outside `0..=2218`, which no `u64` maps to,
    /// an empty bucket, counts that overflow `u64`, `min` above `max`). The
    /// index check also bounds what rebuilding allocates: at most 2,219
    /// counts.
    pub fn from_parts(parts: &SketchParts) -> Result<QuantileSketch, String> {
        for window in parts.buckets.windows(2) {
            if window[0].0 >= window[1].0 {
                return Err(format!(
                    "sketch buckets out of order: index {} then {}",
                    window[0].0, window[1].0
                ));
            }
        }
        let mut sketch = QuantileSketch::new();
        let mut count = parts.zero_count;
        for &(index, by) in &parts.buckets {
            if !(0..=MAX_INDEX).contains(&index) {
                return Err(format!(
                    "sketch bucket index {index} lies outside the u64 domain 0..={MAX_INDEX}"
                ));
            }
            if by == 0 {
                return Err(format!("sketch bucket {index} has zero count"));
            }
            count = count
                .checked_add(by)
                .ok_or("sketch counts overflow a 64-bit total")?;
            sketch.bump(index, by);
        }
        sketch.zero_count = parts.zero_count;
        sketch.count = count;
        sketch.sum = parts.sum;
        if sketch.count > 0 {
            if parts.min > parts.max {
                return Err(format!(
                    "sketch min {} exceeds max {}",
                    parts.min, parts.max
                ));
            }
            sketch.min = parts.min;
            sketch.max = parts.max;
        }
        Ok(sketch)
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl PartialEq for QuantileSketch {
    /// Logical equality: totals, extremes and the non-empty bucket contents.
    fn eq(&self, other: &QuantileSketch) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.zero_count == other.zero_count
            && (self.count == 0 || (self.min == other.min && self.max == other.max))
            && self.entries().eq(other.entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// The exact lower nearest-rank quantile the contract targets.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
        sorted[rank]
    }

    fn assert_within_contract(sketch: &QuantileSketch, sorted: &[u64], q: f64) {
        let exact = exact_quantile(sorted, q);
        let got = sketch.quantile(q).expect("non-empty sketch");
        #[allow(clippy::cast_precision_loss)]
        let rel = if exact == 0 {
            got as f64
        } else {
            (got as f64 - exact as f64).abs() / exact as f64
        };
        assert!(
            rel <= ALPHA,
            "q={q}: sketch {got} vs exact {exact} (relative error {rel})"
        );
    }

    #[test]
    fn empty_sketch_reports_nothing() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut s = QuantileSketch::new();
        s.record(123_456);
        for q in [0.0, 0.5, 0.95, 0.999, 1.0] {
            assert_eq!(s.quantile(q), Some(123_456));
        }
        assert_eq!(s.mean(), Some(123_456.0));
    }

    #[test]
    fn out_of_range_quantiles_clamp_to_the_extremes() {
        let sorted = [5, 700, 1_234, 90_000];
        let mut s = QuantileSketch::new();
        for v in [700, 5, 90_000, 1_234] {
            s.record(v);
        }
        for q in [-0.5, f64::NEG_INFINITY] {
            assert_eq!(s.quantile(q), s.quantile(0.0), "q={q}");
        }
        for q in [1.5, f64::INFINITY] {
            assert_eq!(s.quantile(q), s.quantile(1.0), "q={q}");
        }
        assert_within_contract(&s, &sorted, 0.0);
        assert_within_contract(&s, &sorted, 1.0);
    }

    #[test]
    fn constant_stream_is_exact() {
        let mut s = QuantileSketch::new();
        for _ in 0..10_000 {
            s.record(777);
        }
        assert_eq!(s.quantile(0.5), Some(777));
        assert_eq!(s.quantile(0.999), Some(777));
        assert_eq!(s.mean(), Some(777.0));
    }

    #[test]
    fn zeros_live_in_the_zero_bucket() {
        let mut s = QuantileSketch::new();
        for _ in 0..90 {
            s.record(0);
        }
        for _ in 0..10 {
            s.record(1_000);
        }
        assert_eq!(s.quantile(0.5), Some(0));
        assert_eq!(s.quantile(0.99), Some(1_000));
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(1_000));
    }

    #[test]
    fn geometric_ramp_stays_within_contract() {
        let mut s = QuantileSketch::new();
        let mut values: Vec<u64> = (0..2_000).map(|i| 100 + 17 * i * i).collect();
        for &v in &values {
            s.record(v);
        }
        values.sort_unstable();
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_within_contract(&s, &values, q);
        }
    }

    #[test]
    fn mean_and_sum_are_exact_integers() {
        let mut s = QuantileSketch::new();
        for v in 1..=1_000_u64 {
            s.record(v * 1_000_003);
        }
        assert_eq!(s.sum(), 1_000_003 * 500_500);
        assert_eq!(s.count(), 1_000);
        assert_eq!(s.mean(), Some(1_000_003.0 * 500.5));
    }

    #[test]
    fn merge_equals_recording_the_concatenation() {
        let mut whole = QuantileSketch::new();
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for i in 0..5_000_u64 {
            let v = (i * 2_654_435_761) % 1_000_000;
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, whole);

        // Commutativity: the opposite order produces the same sketch.
        let mut swapped = right.clone();
        swapped.merge(&left);
        assert_eq!(swapped, merged);
    }

    #[test]
    fn merging_an_empty_sketch_is_identity() {
        let mut s = QuantileSketch::new();
        s.record(42);
        let before = s.clone();
        s.merge(&QuantileSketch::new());
        assert_eq!(s, before);

        let mut empty = QuantileSketch::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn parts_round_trip_is_identity() {
        let mut s = QuantileSketch::new();
        for i in 0..1_000_u64 {
            s.record(i * i % 700_000);
        }
        let rebuilt = QuantileSketch::from_parts(&s.parts()).expect("valid parts");
        assert_eq!(rebuilt, s);
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(rebuilt.quantile(q), s.quantile(q));
        }
    }

    #[test]
    fn from_parts_rejects_inconsistencies() {
        let good = {
            let mut s = QuantileSketch::new();
            s.record(10);
            s.record(1_000);
            s.parts()
        };

        let mut shuffled = good.clone();
        shuffled.buckets.reverse();
        assert!(QuantileSketch::from_parts(&shuffled)
            .unwrap_err()
            .contains("out of order"));

        let mut inverted = good.clone();
        inverted.min = inverted.max + 1;
        assert!(QuantileSketch::from_parts(&inverted)
            .unwrap_err()
            .contains("exceeds max"));

        let mut overflowing = good;
        overflowing.buckets = vec![(100, u64::MAX), (101, 1)];
        assert!(QuantileSketch::from_parts(&overflowing)
            .unwrap_err()
            .contains("overflow"));
        overflowing.buckets = vec![(100, u64::MAX)];
        overflowing.zero_count = 1;
        assert!(QuantileSketch::from_parts(&overflowing)
            .unwrap_err()
            .contains("overflow"));
    }

    #[test]
    fn from_parts_bounds_the_bucket_span_before_allocating() {
        let parts = |buckets: Vec<(i32, u64)>| SketchParts {
            zero_count: 0,
            sum: 2,
            min: 1,
            max: 1,
            buckets,
        };
        // The widest i32 span: a dense rebuild would zero-fill 32 GiB.
        let err =
            QuantileSketch::from_parts(&parts(vec![(i32::MIN, 1), (i32::MAX, 1)])).unwrap_err();
        assert!(err.contains("index -2147483648 lies outside"), "{err}");
        // Two buckets far apart are few in number, but not in span.
        let err = QuantileSketch::from_parts(&parts(vec![(0, 1), (20_000_000, 1)])).unwrap_err();
        assert!(err.contains("index 20000000 lies outside"), "{err}");
        // The domain's two ends are buckets `record` fills (1 and u64::MAX);
        // one step past either is not.
        let edge = QuantileSketch::from_parts(&parts(vec![(0, 1), (MAX_INDEX, 1)])).unwrap();
        assert_eq!(edge.count(), 2);
        assert_eq!(edge.counts.len(), 2_219);
        for outside in [-1, MAX_INDEX + 1] {
            let err = QuantileSketch::from_parts(&parts(vec![(outside, 1)])).unwrap_err();
            assert!(err.contains("outside the u64 domain 0..=2218"), "{err}");
        }
    }

    /// 1, 2, every power of two and `u64::MAX` land in `0..=MAX_INDEX`, in
    /// order, with `u64::MAX` on the last bucket; and the constants are the
    /// bits the run-time expressions give. (`black_box` keeps each argument
    /// opaque, so what is checked is what the simulator computes at run
    /// time, not a value the compiler folded.)
    #[test]
    fn every_u64_lands_in_the_index_domain() {
        assert_eq!(MAX_INDEX, 2218);
        assert_eq!(index_of(black_box(1)), 0);
        assert_eq!(index_of(black_box(u64::MAX)), MAX_INDEX);
        let alpha = black_box(ALPHA);
        assert_eq!(GAMMA.to_bits(), ((1.0 + alpha) / (1.0 - alpha)).to_bits());
        let gamma = black_box(GAMMA);
        assert_eq!(INV_LN_GAMMA.to_bits(), (1.0 / gamma.ln()).to_bits());
        let mut previous = 0;
        for value in (1..64).map(|e| 1_u64 << e).chain([u64::MAX]) {
            let index = index_of(black_box(value));
            assert!((0..=MAX_INDEX).contains(&index), "{value}: {index}");
            assert!(index >= previous, "{value}: {index} < {previous}");
            previous = index;
        }
        // So no recording history holds more than 2,219 counts.
        let mut s = QuantileSketch::new();
        for value in [1, u64::MAX, 2, u64::MAX / 3] {
            s.record(value);
        }
        assert_eq!(s.counts.len(), 2_219);
    }

    /// One value per bucket, 1 ns to `u64::MAX` growing by half each step:
    /// every bucket count stays within the domain and the tail within the
    /// contract.
    #[test]
    fn the_whole_u64_range_fits_in_the_bucket_bound() {
        let mut s = QuantileSketch::new();
        let mut values = Vec::new();
        let mut v = 1_u64;
        while let Some(next) = v.checked_mul(3).map(|x| (x / 2).max(v + 1)) {
            values.push(v);
            v = next;
        }
        values.push(u64::MAX);
        for &v in &values {
            s.record(v);
        }
        assert!(s.counts.len() <= 2_219);
        assert_eq!(s.bucket_len(), values.len());
        assert_within_contract(&s, &values, 1.0);
        assert_within_contract(&s, &values, 0.5);
    }

    /// Bucket indices and reported estimates, bit for bit, for values from
    /// 1 ns to `u64::MAX`: what the goldens were written with.
    #[test]
    fn bucket_indices_and_estimates_are_pinned() {
        let pinned: [(u64, i32, u64); 10] = [
            (1, 0, 0x3fef_ae14_7ae1_47af),
            (2, 35, 0x3fff_e609_cfee_00ce),
            (3, 55, 0x4007_cb3a_e4a4_0526),
            (999, 346, 0x408f_536c_8fbb_66fb),
            (1_000, 346, 0x408f_536c_8fbb_66fb),
            (22_479, 502, 0x40d6_2bee_7e32_2375),
            (1_000_000, 691, 0x412e_5cc1_91a0_3315),
            (123_456_789, 932, 0x419d_68f2_809f_c1b7),
            (1_000_000_000_000, 1382, 0x426d_1976_6e77_be2d),
            (u64::MAX, 2218, 0x43ef_ae8f_6481_81a7),
        ];
        // Opaque arguments, as in the simulator: given a constant index,
        // release builds fold `powi` at compile time, and the folded γ^35
        // is 16 ulp off the run-time one.
        for (value, index, estimate) in pinned {
            assert_eq!(index_of(black_box(value)), index, "{value}");
            assert_eq!(estimate_of(black_box(index)).to_bits(), estimate, "{value}");
        }
        // The documented half-unit case: 22 479 reads back as 22 704.
        let mut s = QuantileSketch::new();
        s.record(22_479);
        s.record(30_000);
        assert_eq!(s.quantile(0.0), Some(22_704));
    }
}
