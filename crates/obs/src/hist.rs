//! Log-bucketed (HDR-style) latency/size histograms.
//!
//! [`LogHistogram`] needs no caller-chosen bounds: it uses a *fixed*
//! logarithmic layout —
//! [`SUB_BUCKETS`] buckets per power of two across [`OCTAVES`] octaves
//! starting at [`MIN_TRACKABLE`] — so every instance shares one layout and
//! any two histograms can be merged bucket-by-bucket. Recording is
//! lock-free (relaxed atomics plus CAS loops for the f64 moments), and
//! snapshots report count/sum/mean plus exact min/max and approximate
//! p50/p90/p99 quantiles.
//!
//! ## Quantile semantics (and why merges are sound)
//!
//! `quantile(q)` returns the **upper bound** of the bucket containing the
//! rank-`ceil(q·count)` observation. The returned value is a pure,
//! monotone function of the bucket index, so the classic mixture-quantile
//! bracket holds *exactly*: for any histograms `A` and `B` with the same
//! layout (always true here),
//!
//! ```text
//! min(A.quantile(q), B.quantile(q)) <= merge(A,B).quantile(q)
//!                                   <= max(A.quantile(q), B.quantile(q))
//! ```
//!
//! This is property-tested in `crates/obs/tests/hist_prop.rs`. The price
//! is quantization: a reported quantile overestimates the true value by at
//! most one sub-bucket (`2^(1/16) - 1 ≈ 4.4%`). Values below
//! [`MIN_TRACKABLE`] saturate to it; values above the top bucket saturate
//! to `MIN_TRACKABLE · 2^OCTAVES` (≈ 1.8e10). Exact extremes are always
//! available via `min()`/`max()`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two (relative quantile error ≈ 4.4%).
pub const SUB_BUCKETS: u32 = 16;
/// Powers of two covered above [`MIN_TRACKABLE`].
pub const OCTAVES: u32 = 64;
/// Lower edge of the first log bucket. With seconds as the unit this is
/// 1 ns; with bytes it is simply "1e-9 units" and the underflow bucket
/// catches everything at or below it.
pub const MIN_TRACKABLE: f64 = 1e-9;

/// Total bucket count: underflow + OCTAVES*SUB_BUCKETS + overflow.
const N_BUCKETS: usize = (OCTAVES * SUB_BUCKETS) as usize + 2;

/// Saturation value reported for the overflow bucket.
fn max_trackable() -> f64 {
    MIN_TRACKABLE * f64::from(OCTAVES).exp2()
}

/// A point-in-time summary of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Unit of the recorded values (e.g. `"s"`, `"B"`).
    pub unit: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Mean observation (0 when empty).
    pub mean: f64,
    /// Exact minimum observation (0 when empty).
    pub min: f64,
    /// Exact maximum observation (0 when empty).
    pub max: f64,
    /// Median (bucket upper bound; 0 when empty).
    pub p50: f64,
    /// 90th percentile (bucket upper bound; 0 when empty).
    pub p90: f64,
    /// 99th percentile (bucket upper bound; 0 when empty).
    pub p99: f64,
}

/// A lock-free, mergeable log-bucketed histogram with a typed unit.
#[derive(Debug)]
pub struct LogHistogram {
    unit: String,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// CAS-accumulate `f(current, candidate)` into an f64-bits atomic.
fn cas_f64(cell: &AtomicU64, candidate: f64, f: impl Fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur), candidate).to_bits();
        if next == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

impl LogHistogram {
    /// A fresh histogram whose values carry `unit`.
    #[must_use]
    pub fn new(unit: &str) -> Self {
        Self {
            unit: unit.to_string(),
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Unit of the recorded values.
    #[must_use]
    pub fn unit(&self) -> &str {
        &self.unit
    }

    /// Zero every bucket and moment **in place**, back to the
    /// [`LogHistogram::new`] state.
    ///
    /// In place matters: call sites cache their `Arc<LogHistogram>` handle
    /// in a `OnceLock` (the sweep's eval-latency histogram, the pool's
    /// task-latency histograms), so dropping and re-registering the entry
    /// (`Registry::clear`) would orphan those handles — they would keep
    /// recording into a histogram no snapshot reads. Resetting the shared
    /// cells keeps every cached handle live.
    ///
    /// The reset is not atomic as a whole (each cell is cleared with a
    /// relaxed store): quiesce recorders first, or a concurrent `record`
    /// may be partially kept.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }

    /// Bucket index for a value (non-finite values are rejected earlier).
    fn bucket_index(value: f64) -> usize {
        if value <= MIN_TRACKABLE {
            return 0;
        }
        if value >= max_trackable() {
            return N_BUCKETS - 1;
        }
        let octaves = (value / MIN_TRACKABLE).log2();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = 1 + (octaves * f64::from(SUB_BUCKETS)).floor() as usize;
        idx.clamp(1, N_BUCKETS - 2)
    }

    /// Upper bound represented by a bucket (pure function of the index,
    /// which is what makes merged quantiles bracket per-shard quantiles).
    fn bucket_upper(idx: usize) -> f64 {
        if idx == 0 {
            return MIN_TRACKABLE;
        }
        if idx >= N_BUCKETS - 1 {
            return max_trackable();
        }
        #[allow(clippy::cast_precision_loss)]
        {
            MIN_TRACKABLE * (idx as f64 / f64::from(SUB_BUCKETS)).exp2()
        }
    }

    /// Record one observation. Non-finite values are dropped; negative
    /// values saturate into the underflow bucket.
    pub fn record(&self, value: f64) {
        self.record_n(value, 1);
    }

    /// Record `n` observations of `value` in one shot.
    ///
    /// This is the amortization hook for hot loops: time a whole chunk of
    /// work, then `record_n(elapsed / n, n)` so per-item timer overhead
    /// stays out of the measured path.
    pub fn record_n(&self, value: f64, n: u64) {
        if !value.is_finite() || n == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        cas_f64(&self.sum_bits, value * n as f64, |cur, add| cur + add);
        cas_f64(&self.min_bits, value, f64::min);
        cas_f64(&self.max_bits, value, f64::max);
    }

    /// Fold another histogram's contents into this one. Both sides share
    /// the fixed layout, so this is an exact bucket-wise sum; count and
    /// sum are preserved exactly (sum up to f64 addition).
    pub fn merge_from(&self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let add = theirs.load(Ordering::Relaxed);
            if add > 0 {
                mine.fetch_add(add, Ordering::Relaxed);
            }
        }
        let add_count = other.count.load(Ordering::Relaxed);
        if add_count > 0 {
            self.count.fetch_add(add_count, Ordering::Relaxed);
            cas_f64(&self.sum_bits, other.sum(), |cur, add| cur + add);
            cas_f64(&self.min_bits, other.min_raw(), f64::min);
            cas_f64(&self.max_bits, other.max_raw(), f64::max);
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum() / n as f64
            }
        }
    }

    fn min_raw(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    fn max_raw(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Exact minimum observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.min_raw()
        }
    }

    /// Exact maximum observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.max_raw()
        }
    }

    /// Approximate `q`-quantile for `q` in `(0, 1]`: the upper bound of
    /// the bucket containing the rank-`ceil(q·count)` observation.
    /// Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(idx);
            }
        }
        // Unreachable when count() agrees with the bucket totals, but a
        // racing reader can observe count ahead of the bucket write.
        Self::bucket_upper(N_BUCKETS - 1)
    }

    /// Current summary (count/sum/mean, exact min/max, p50/p90/p99).
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            unit: self.unit.clone(),
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_zeroed() {
        let h = LogHistogram::new("s");
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.p99, 0.0);
        assert_eq!(s.unit, "s");
    }

    #[test]
    fn quantiles_bracket_true_values_within_one_subbucket() {
        let h = LogHistogram::new("s");
        for i in 1..=1000u32 {
            h.record(f64::from(i) * 1e-6); // 1µs .. 1ms
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!((s.min - 1e-6).abs() < 1e-18);
        assert!((s.max - 1e-3).abs() < 1e-15);
        // Reported quantile is >= the true value and within ~4.4% + one
        // value step above it.
        let tol = 1.0 + 2.0_f64.powf(1.0 / f64::from(SUB_BUCKETS)) - 1.0 + 0.01;
        assert!(
            s.p50 >= 500e-6 * 0.999 && s.p50 <= 501e-6 * tol,
            "p50={}",
            s.p50
        );
        assert!(
            s.p99 >= 990e-6 * 0.999 && s.p99 <= 991e-6 * tol,
            "p99={}",
            s.p99
        );
        assert!(s.p90 >= s.p50 && s.p99 >= s.p90);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a = LogHistogram::new("s");
        let b = LogHistogram::new("s");
        for _ in 0..64 {
            a.record(3.5e-4);
        }
        b.record_n(3.5e-4, 64);
        assert_eq!(a.count(), b.count());
        assert!((a.sum() - b.sum()).abs() < 1e-12);
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }

    #[test]
    fn saturation_and_garbage_values() {
        let h = LogHistogram::new("B");
        h.record(f64::NAN); // dropped
        h.record(f64::INFINITY); // dropped
        h.record(-5.0); // underflow bucket
        h.record(0.0); // underflow bucket
        h.record(1e30); // overflow bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.01), MIN_TRACKABLE);
        assert_eq!(h.quantile(1.0), max_trackable());
        assert_eq!(h.max(), 1e30); // exact max survives saturation
    }

    #[test]
    fn merge_is_exact_on_counts_and_monotone_on_quantiles() {
        let a = LogHistogram::new("s");
        let b = LogHistogram::new("s");
        for i in 1..=100u32 {
            a.record(f64::from(i) * 1e-6);
            b.record(f64::from(i) * 1e-3);
        }
        let m = LogHistogram::new("s");
        m.merge_from(&a);
        m.merge_from(&b);
        assert_eq!(m.count(), 200);
        assert!((m.sum() - (a.sum() + b.sum())).abs() < 1e-9);
        assert_eq!(m.min(), a.min());
        assert_eq!(m.max(), b.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            let lo = a.quantile(q).min(b.quantile(q));
            let hi = a.quantile(q).max(b.quantile(q));
            let mq = m.quantile(q);
            assert!(mq >= lo && mq <= hi, "q={q} merged={mq} not in [{lo},{hi}]");
        }
    }

    #[test]
    fn concurrent_records_do_not_lose_updates() {
        let h = LogHistogram::new("s");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000u32 {
                        h.record(f64::from(t * 1000 + i + 1) * 1e-9);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert!(h.max() <= 4000.0 * 1e-9 + 1e-15);
    }
}
