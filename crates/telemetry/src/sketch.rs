//! Bounded-memory relative-error quantile sketch for latency telemetry.
//!
//! The paper's headline metrics are tail latencies (p99/p999) under
//! killer-microsecond traffic. Retaining every per-request sample makes an
//! hour-long, 100-node, million-RPS experiment memory-bound before it is
//! CPU-bound, so the result path summarises latencies with a DDSketch-style
//! log-bucketed histogram instead: O(buckets) memory per recorder with a
//! *contractual* relative-error bound on every reported quantile.
//!
//! # Error contract
//!
//! For a sketch built with relative accuracy `alpha` (the latency default is
//! `alpha = 0.01`, i.e. 1 %), every non-zero recorded value `x` lands in
//! bucket `i = ceil(ln(x) / ln(gamma))` with `gamma = (1 + alpha)/(1 -
//! alpha)`; bucket `i` covers `(gamma^(i-1), gamma^i]` and is reported as its
//! relative midpoint `2·gamma^i / (gamma + 1)`, which is within `alpha` of
//! every value in the bucket. [`QuantileSketch::quantile`] rounds that
//! midpoint to an integer, which adds at most half a unit, so it returns an
//! estimate `e` with
//!
//! ```text
//! |e − exact_q| ≤ alpha · exact_q + 0.5
//! ```
//!
//! The half unit matters only for small values near a bucket edge: at
//! `alpha` = 1 % a sample of 22 479, just above the lower edge (22 478.94)
//! of bucket 502, reads back as 22 704, 1.0009 % off.
//!
//! Here `exact_q` is the **lower nearest-rank** quantile of the recorded
//! multiset: `sorted[floor(q · (n − 1))]`. (Interpolated quantiles carry no
//! such bound — the midpoint of a sparse bimodal gap is arbitrarily far from
//! both modes — so the contract, and the accuracy suite that enforces it,
//! use the nearest-rank convention.) Estimates are additionally clamped to
//! the exact observed `[min, max]`, which makes constant and single-sample
//! distributions exact.
//!
//! # Exactness and determinism
//!
//! Values are recorded as `u64` (the result path records nanoseconds) and
//! the sketch keeps `count`, `min`, `max` exactly plus the *exact* integer
//! `sum` in a `u128` — so `mean()` is exact to f64 precision of the total,
//! and [`QuantileSketch::merge`] is **exactly** associative and commutative
//! (bucket counts and integer sums, no float accumulation order to worry
//! about) as long as no bucket collapse triggers. Collapse folds the lowest
//! buckets together once `max_buckets` is exceeded — it degrades only
//! *low* quantiles of pathologically wide distributions (the latency default
//! of 2048 buckets spans 1 ns to beyond 10^9 s at 1 % accuracy, so a
//! simulated latency never collapses) and is itself pinned by tests.
//!
//! # Serialization
//!
//! The sketch exposes its complete logical state ([`QuantileSketch::parts`])
//! and rebuilds from it ([`QuantileSketch::from_parts`]); the analysis crate
//! renders that state as JSON so a sharded sweep can checkpoint per-point
//! sketches and a later `merge` process can re-derive byte-identical
//! summaries.

/// The complete logical state of a sketch, for (de)serialization.
///
/// `buckets` holds `(index, count)` pairs for every non-empty log bucket, in
/// ascending index order; all other fields mirror the accessors of the same
/// name on [`QuantileSketch`].
#[derive(Debug, Clone, PartialEq)]
pub struct SketchParts {
    /// Relative accuracy `alpha` of the source sketch.
    pub relative_error: f64,
    /// Bucket-count bound of the source sketch.
    pub max_buckets: usize,
    /// Collapse floor, when a collapse has occurred.
    pub floor_index: Option<i32>,
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
/// equal when their logical contents (parameters, counts, extremes, sums and
/// non-empty buckets) are equal — the internal storage layout is canonical
/// for a given recording history, so parallel and sequential executions that
/// record the same values in the same order produce `==` sketches.
///
/// ```
/// use apc_telemetry::QuantileSketch;
///
/// let mut latency_ns = QuantileSketch::latency_default();
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
    /// Relative accuracy `alpha`.
    relative_error: f64,
    /// `(1 + alpha) / (1 - alpha)` — the bucket growth factor.
    gamma: f64,
    /// `1 / ln(gamma)`, cached for the per-record index computation.
    inv_ln_gamma: f64,
    /// Bound on `counts.len()`; exceeding it collapses the lowest buckets.
    max_buckets: usize,
    /// Log-bucket index of `counts[0]`.
    base_index: i32,
    /// Per-bucket counts for indices `base_index ..`; never has an empty
    /// first or last slot (the range is exactly the observed index span).
    counts: Vec<u64>,
    /// Once a collapse has happened, the index every lower value folds into
    /// (always equal to `base_index` afterwards).
    floor_index: Option<i32>,
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

impl QuantileSketch {
    /// A sketch with relative accuracy `alpha` and at most `max_buckets`
    /// log buckets.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1` and `max_buckets >= 2`.
    #[must_use]
    pub fn new(alpha: f64, max_buckets: usize) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "relative accuracy must be in (0, 1), got {alpha}"
        );
        assert!(
            max_buckets >= 2,
            "a sketch needs at least 2 buckets, got {max_buckets}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            relative_error: alpha,
            gamma,
            inv_ln_gamma: 1.0 / gamma.ln(),
            max_buckets,
            base_index: 0,
            counts: Vec::new(),
            floor_index: None,
            zero_count: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The latency-path default: 1 % relative error, 2048 buckets (spans
    /// 1 ns to beyond 10^9 s without ever collapsing).
    #[must_use]
    pub fn latency_default() -> Self {
        QuantileSketch::new(0.01, 2048)
    }

    /// The relative accuracy `alpha` this sketch guarantees.
    #[must_use]
    pub fn relative_error(&self) -> f64 {
        self.relative_error
    }

    /// The bucket-count bound.
    #[must_use]
    pub fn max_buckets(&self) -> usize {
        self.max_buckets
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

    /// The log-bucket index a non-zero value maps to.
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    fn index_of(&self, value: u64) -> i32 {
        debug_assert!(value > 0);
        // value = 1 maps to ln(1) = 0 -> bucket 0, covering (gamma^-1, 1].
        ((value as f64).ln() * self.inv_ln_gamma).ceil() as i32
    }

    /// The representative value of bucket `index`: the point within
    /// `(gamma^(index-1), gamma^index]` whose relative distance to both ends
    /// is `alpha`.
    fn estimate_of(&self, index: i32) -> f64 {
        2.0 * self.gamma.powi(index) / (self.gamma + 1.0)
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
        let index = self
            .index_of(value)
            .max(self.floor_index.unwrap_or(i32::MIN));
        self.bump(index, 1);
        self.enforce_bound();
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

    /// Collapses the lowest buckets into one until the bound holds again.
    ///
    /// Collapse trades accuracy for memory at the *low* end only: every
    /// value below the new floor is thereafter attributed to the floor
    /// bucket, so low quantiles of a collapsed sketch may exceed the error
    /// contract while the tail stays within it.
    fn enforce_bound(&mut self) {
        if self.counts.len() <= self.max_buckets {
            return;
        }
        let excess = self.counts.len() - self.max_buckets;
        let folded: u64 = self.counts.drain(..excess).sum();
        self.base_index += i32::try_from(excess).expect("bucket span fits in i32");
        self.counts[0] += folded;
        self.floor_index = Some(self.base_index);
    }

    /// Merges `other` into `self`.
    ///
    /// Counts, sums and extremes combine exactly, so (absent collapse) merge
    /// is associative and commutative and splitting one value stream across
    /// sketches then merging yields a sketch `==` to recording the stream
    /// into one sketch. Merge order still matters only for collapse, which
    /// the latency default never triggers.
    ///
    /// # Panics
    ///
    /// Panics if the sketches were built with different parameters —
    /// bucket indices are only comparable at equal `alpha`.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.relative_error == other.relative_error && self.max_buckets == other.max_buckets,
            "cannot merge sketches with different parameters \
             ({} @ {} vs {} @ {})",
            self.relative_error,
            self.max_buckets,
            other.relative_error,
            other.max_buckets,
        );
        self.count += other.count;
        self.sum += other.sum;
        self.zero_count += other.zero_count;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        // The merged floor is the higher of the two: either side's collapse
        // already folded its low buckets, so the result cannot resolve
        // below it.
        let floor = match (self.floor_index, other.floor_index) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        if let Some(floor) = floor {
            self.raise_floor(floor);
        }
        for (index, count) in other.entries() {
            self.bump(index.max(floor.unwrap_or(i32::MIN)), count);
        }
        self.floor_index = floor;
        self.enforce_bound();
    }

    /// Folds every bucket below `floor` into the `floor` bucket.
    fn raise_floor(&mut self, floor: i32) {
        if self.counts.is_empty() || floor <= self.base_index {
            return;
        }
        let cut = ((floor - self.base_index) as usize).min(self.counts.len() - 1);
        if cut == 0 {
            return;
        }
        let folded: u64 = self.counts.drain(..cut).sum();
        self.base_index += i32::try_from(cut).expect("bucket span fits in i32");
        self.counts[0] += folded;
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
                let estimate = self.estimate_of(index).round();
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
            relative_error: self.relative_error,
            max_buckets: self.max_buckets,
            floor_index: self.floor_index,
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
    /// Returns a description of the first inconsistency found (parameters
    /// out of range, buckets out of order, a bucket-index span wider than
    /// the bound, counts that overflow `u64`).
    pub fn from_parts(parts: &SketchParts) -> Result<QuantileSketch, String> {
        if !(parts.relative_error > 0.0 && parts.relative_error < 1.0) {
            return Err(format!(
                "sketch relative error must be in (0, 1), got {}",
                parts.relative_error
            ));
        }
        if parts.max_buckets < 2 {
            return Err(format!(
                "sketch needs at least 2 buckets, got {}",
                parts.max_buckets
            ));
        }
        for window in parts.buckets.windows(2) {
            if window[0].0 >= window[1].0 {
                return Err(format!(
                    "sketch buckets out of order: index {} then {}",
                    window[0].0, window[1].0
                ));
            }
        }
        // Counts are stored densely from the lowest index to the highest,
        // and no sketch ever spans more than `max_buckets` indices: a wider
        // span is corrupt, and rebuilding it could zero-fill gigabytes.
        if let (Some(&(low, _)), Some(&(high, _))) = (parts.buckets.first(), parts.buckets.last()) {
            let span = i64::from(high) - i64::from(low) + 1;
            if usize::try_from(span).map_or(true, |span| span > parts.max_buckets) {
                return Err(format!(
                    "sketch buckets span {span} indices, above its bound {}",
                    parts.max_buckets
                ));
            }
        }
        let mut sketch = QuantileSketch::new(parts.relative_error, parts.max_buckets);
        let mut count = parts.zero_count;
        for &(index, by) in &parts.buckets {
            if by == 0 {
                return Err(format!("sketch bucket {index} has zero count"));
            }
            if let Some(floor) = parts.floor_index {
                if index < floor {
                    return Err(format!(
                        "sketch bucket {index} lies below its collapse floor {floor}"
                    ));
                }
            }
            count = count
                .checked_add(by)
                .ok_or("sketch counts overflow a 64-bit total")?;
            sketch.bump(index, by);
        }
        sketch.floor_index = parts.floor_index;
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

impl PartialEq for QuantileSketch {
    /// Logical equality: parameters, totals, extremes, collapse floor and
    /// the non-empty bucket contents.
    fn eq(&self, other: &QuantileSketch) -> bool {
        self.relative_error == other.relative_error
            && self.max_buckets == other.max_buckets
            && self.count == other.count
            && self.sum == other.sum
            && self.zero_count == other.zero_count
            && self.floor_index == other.floor_index
            && (self.count == 0 || (self.min == other.min && self.max == other.max))
            && self.entries().eq(other.entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            rel <= sketch.relative_error(),
            "q={q}: sketch {got} vs exact {exact} (relative error {rel})"
        );
    }

    #[test]
    fn empty_sketch_reports_nothing() {
        let s = QuantileSketch::latency_default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut s = QuantileSketch::latency_default();
        s.record(123_456);
        for q in [0.0, 0.5, 0.95, 0.999, 1.0] {
            assert_eq!(s.quantile(q), Some(123_456));
        }
        assert_eq!(s.mean(), Some(123_456.0));
    }

    #[test]
    fn out_of_range_quantiles_clamp_to_the_extremes() {
        let sorted = [5, 700, 1_234, 90_000];
        let mut s = QuantileSketch::latency_default();
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
        let mut s = QuantileSketch::latency_default();
        for _ in 0..10_000 {
            s.record(777);
        }
        assert_eq!(s.quantile(0.5), Some(777));
        assert_eq!(s.quantile(0.999), Some(777));
        assert_eq!(s.mean(), Some(777.0));
    }

    #[test]
    fn zeros_live_in_the_zero_bucket() {
        let mut s = QuantileSketch::latency_default();
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
        let mut s = QuantileSketch::latency_default();
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
        let mut s = QuantileSketch::latency_default();
        for v in 1..=1_000_u64 {
            s.record(v * 1_000_003);
        }
        assert_eq!(s.sum(), 1_000_003 * 500_500);
        assert_eq!(s.count(), 1_000);
        assert_eq!(s.mean(), Some(1_000_003.0 * 500.5));
    }

    #[test]
    fn merge_equals_recording_the_concatenation() {
        let mut whole = QuantileSketch::latency_default();
        let mut left = QuantileSketch::latency_default();
        let mut right = QuantileSketch::latency_default();
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
        let mut s = QuantileSketch::latency_default();
        s.record(42);
        let before = s.clone();
        s.merge(&QuantileSketch::latency_default());
        assert_eq!(s, before);

        let mut empty = QuantileSketch::latency_default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "different parameters")]
    fn merging_mismatched_parameters_panics() {
        let mut a = QuantileSketch::new(0.01, 2048);
        let b = QuantileSketch::new(0.02, 2048);
        a.merge(&b);
    }

    #[test]
    fn collapse_bounds_memory_and_keeps_the_tail() {
        // 8 buckets force collapse on a stream spanning many decades.
        let mut s = QuantileSketch::new(0.01, 8);
        let mut values: Vec<u64> = (0..14).map(|e| 1_u64 << e).collect();
        for &v in &values {
            s.record(v);
        }
        values.sort_unstable();
        assert!(s.bucket_len() <= 8, "collapse must bound the bucket count");
        // The tail is still within contract; low quantiles may not be.
        assert_within_contract(&s, &values, 1.0);
        assert_eq!(s.count(), 14);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(1 << 13));
        assert!(s.floor_index.is_some());
    }

    #[test]
    fn latency_default_never_collapses_over_nine_decades() {
        let mut s = QuantileSketch::latency_default();
        let mut v = 1_u64;
        while v < 1_000_000_000_000 {
            s.record(v);
            v = (v * 3 / 2).max(v + 1);
        }
        assert!(
            s.floor_index.is_none(),
            "1 ns .. 1000 s must fit uncollapsed"
        );
        assert!(s.bucket_len() <= 2048);
    }

    #[test]
    fn parts_round_trip_is_identity() {
        let mut s = QuantileSketch::latency_default();
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
            let mut s = QuantileSketch::latency_default();
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

        let mut bad_alpha = good.clone();
        bad_alpha.relative_error = 1.5;
        assert!(QuantileSketch::from_parts(&bad_alpha)
            .unwrap_err()
            .contains("relative error"));

        let mut below_floor = good.clone();
        below_floor.floor_index = Some(i32::MAX);
        assert!(QuantileSketch::from_parts(&below_floor)
            .unwrap_err()
            .contains("collapse floor"));

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
        let parts = |max_buckets: usize, buckets: Vec<(i32, u64)>| SketchParts {
            relative_error: 0.01,
            max_buckets,
            floor_index: None,
            zero_count: 0,
            sum: 2,
            min: 1,
            max: 1,
            buckets,
        };
        // The widest i32 span: its width overflows i32 arithmetic, and a
        // dense rebuild would zero-fill 32 GiB.
        let err = QuantileSketch::from_parts(&parts(2048, vec![(i32::MIN, 1), (i32::MAX, 1)]))
            .unwrap_err();
        assert!(err.contains("span 4294967296 indices"), "{err}");
        // Two buckets far apart are few in number, but not in span.
        let err =
            QuantileSketch::from_parts(&parts(2048, vec![(0, 1), (20_000_000, 1)])).unwrap_err();
        assert!(err.contains("above its bound 2048"), "{err}");
        // A span of exactly the bound is a sketch `record` can build.
        let edge = QuantileSketch::from_parts(&parts(2048, vec![(0, 1), (2047, 1)])).unwrap();
        assert_eq!(edge.count(), 2);
        assert!(QuantileSketch::from_parts(&parts(2048, vec![(0, 1), (2048, 1)])).is_err());
    }
}
