//! Statistical primitives: ECDFs, quantiles and summaries.
//!
//! Everything the paper plots is either an empirical CDF (Figs. 5, 6)
//! or an order statistic of one; these are the only tools the pipeline
//! needs, so they are implemented exactly rather than approximately.

use shears_geo::rng::splitmix64;

/// An empirical cumulative distribution function over f64 samples.
///
/// Construction sorts once; evaluation is a binary search. Non-finite
/// inputs are rejected at construction so every query is total.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF, dropping non-finite samples. Takes ownership of
    /// the buffer: retain + sort happen in place, and the unstable sort
    /// allocates no scratch (under `total_cmp`, equal means bit-equal,
    /// so stability cannot change the sorted sequence).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| v.is_finite());
        samples.sort_unstable_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of (finite) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`; 0 for an empty ECDF.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (nearest-rank, `q` clamped to `[0, 1]`), or
    /// `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Evaluates the CDF on a fixed grid — the series the figure
    /// binaries print: `(x, P(X <= x))` pairs.
    pub fn curve(&self, grid: &[f64]) -> Vec<(f64, f64)> {
        grid.iter()
            .map(|&x| (x, self.fraction_at_or_below(x)))
            .collect()
    }

    /// The sorted samples (read-only).
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Five-number-plus summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Mean.
    pub mean: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarises samples (non-finite values dropped); `None` if none
    /// remain. One buffer copy, sorted in place — callers that already
    /// hold an [`Ecdf`] should use [`Summary::of_ecdf`], which copies
    /// nothing.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut owned = samples.to_vec();
        owned.retain(|v| v.is_finite());
        owned.sort_unstable_by(f64::total_cmp);
        Self::of_sorted(&owned)
    }

    /// Summarises an already-built ECDF without copying its samples.
    pub fn of_ecdf(ecdf: &Ecdf) -> Option<Summary> {
        Self::of_sorted(ecdf.samples())
    }

    /// Core: all eight statistics off one ascending `total_cmp`-sorted
    /// slice. The mean is a sequential left-to-right sum over that
    /// order — the accumulation order is part of the bit contract.
    fn of_sorted(sorted: &[f64]) -> Option<Summary> {
        if sorted.is_empty() {
            return None;
        }
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        // Nearest rank, exactly `Ecdf::quantile`'s formula.
        let q = |q: f64| {
            sorted[((q * n as f64).ceil() as usize)
                .saturating_sub(1)
                .min(n - 1)]
        };
        Some(Summary {
            n,
            min: sorted[0],
            p25: q(0.25),
            median: q(0.5),
            mean,
            p75: q(0.75),
            p95: q(0.95),
            max: sorted[n - 1],
        })
    }
}

/// A bootstrap confidence interval for a median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MedianCi {
    /// Point estimate (sample median).
    pub median: f64,
    /// Lower bound of the interval.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Nominal coverage (e.g. 0.95).
    pub level: f64,
}

/// Seeded bootstrap confidence interval for the median: `resamples`
/// with-replacement resamples, percentile method. Deterministic given
/// the seed, like everything else in the reproduction — figure outputs
/// can carry intervals without losing bit-reproducibility.
///
/// Returns `None` for empty input (after dropping non-finite values).
pub fn bootstrap_median_ci(
    samples: &[f64],
    resamples: u32,
    level: f64,
    seed: u64,
) -> Option<MedianCi> {
    let base = Ecdf::new(samples.to_vec());
    if base.is_empty() {
        return None;
    }
    let level = level.clamp(0.5, 0.999);
    let data = base.samples();
    let n = data.len();
    let mut state = seed;
    // The base is already sorted, and index → data[index] is monotone
    // under `total_cmp`, so the resample's median is the value at the
    // (n/2)-th smallest *index*: selection over integers, no per-
    // resample sort, no per-resample allocation. The generator is
    // drawn exactly as before (n draws per resample, in order), so
    // seeded results are bit-identical to the sort-based path.
    let mut idxs = vec![0usize; n];
    let mut medians: Vec<f64> = (0..resamples.max(1))
        .map(|_| {
            for slot in idxs.iter_mut() {
                *slot = (splitmix64(&mut state) % n as u64) as usize;
            }
            let (_, mid, _) = idxs.select_nth_unstable(n / 2);
            data[*mid]
        })
        .collect();
    medians.sort_unstable_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let idx = |q: f64| ((q * medians.len() as f64).floor() as usize).min(medians.len() - 1);
    Some(MedianCi {
        median: base.median()?,
        lo: medians[idx(alpha)],
        hi: medians[idx(1.0 - alpha)],
        level,
    })
}

/// Kolmogorov–Smirnov distance between two ECDFs: the maximum vertical
/// gap. Used by tests to compare distributions and by the expansion
/// study to quantify how much the 2010→2020 build-out moved latency.
///
/// A single two-pointer merge over the two sorted sample arrays —
/// O(n + m) instead of a binary search per sample. The gap only changes
/// at sample values, and advancing each pointer past every sample
/// `<= x` computes exactly `fraction_at_or_below(x)`'s numerator, so
/// the result matches the per-sample evaluation bit for bit.
pub fn ks_distance(a: &Ecdf, b: &Ecdf) -> f64 {
    let (xs, ys) = (a.samples(), b.samples());
    match (xs.is_empty(), ys.is_empty()) {
        (true, true) => return 0.0,
        (true, false) | (false, true) => return 1.0,
        _ => {}
    }
    let (na, nb) = (xs.len() as f64, ys.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < xs.len() || j < ys.len() {
        let x = match (xs.get(i), ys.get(j)) {
            (Some(&u), Some(&v)) => u.min(v),
            (Some(&u), None) => u,
            (None, Some(&v)) => v,
            (None, None) => unreachable!(),
        };
        // Numeric `<=`, the same predicate `fraction_at_or_below`
        // binary-searches (it also merges -0.0 with +0.0).
        while i < xs.len() && xs[i] <= x {
            i += 1;
        }
        while j < ys.len() && ys[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basic_evaluation() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.fraction_at_or_below(0.5), 0.0);
        assert_eq!(e.fraction_at_or_below(1.0), 0.25);
        assert_eq!(e.fraction_at_or_below(2.5), 0.5);
        assert_eq!(e.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn ecdf_drops_non_finite() {
        let e = Ecdf::new(vec![1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.max(), Some(2.0));
    }

    #[test]
    fn quantiles_nearest_rank() {
        let e = Ecdf::new((1..=100).map(f64::from).collect());
        assert_eq!(e.quantile(0.25), Some(25.0));
        assert_eq!(e.median(), Some(50.0));
        assert_eq!(e.quantile(0.95), Some(95.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(100.0));
        assert_eq!(e.quantile(2.0), Some(100.0), "clamped");
    }

    #[test]
    fn empty_ecdf_is_total() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.fraction_at_or_below(10.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.min(), None);
    }

    #[test]
    fn curve_is_monotone() {
        let e = Ecdf::new(vec![5.0, 1.0, 9.0, 3.0, 3.0]);
        let grid: Vec<f64> = (0..12).map(f64::from).collect();
        let curve = e.curve(&grid);
        assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn summary_of_known_set() {
        let s = Summary::of(&(1..=100).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 50.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn summary_of_empty_or_nan_is_none() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[f64::NAN]).is_none());
    }

    #[test]
    fn bootstrap_ci_brackets_the_median() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        let ci = bootstrap_median_ci(&samples, 400, 0.95, 7).unwrap();
        assert_eq!(ci.median, 50.0);
        assert!(ci.lo <= ci.median && ci.median <= ci.hi);
        // For n=99 uniform-ish data the 95% CI is comfortably inside
        // [35, 65].
        assert!(ci.lo > 35.0 && ci.hi < 65.0, "{ci:?}");
        assert_eq!(ci.level, 0.95);
    }

    #[test]
    fn bootstrap_ci_is_deterministic_and_narrows_with_n() {
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        let large: Vec<f64> = (1..=2000).map(|i| f64::from(i) / 20.0).collect();
        let a = bootstrap_median_ci(&small, 300, 0.95, 1).unwrap();
        let b = bootstrap_median_ci(&small, 300, 0.95, 1).unwrap();
        assert_eq!(a, b, "same seed, same interval");
        let big = bootstrap_median_ci(&large, 300, 0.95, 1).unwrap();
        let rel = |ci: &MedianCi| (ci.hi - ci.lo) / ci.median;
        assert!(rel(&big) < rel(&a), "more data, tighter interval");
    }

    #[test]
    fn bootstrap_ci_handles_degenerate_input() {
        assert!(bootstrap_median_ci(&[], 100, 0.95, 1).is_none());
        assert!(bootstrap_median_ci(&[f64::NAN], 100, 0.95, 1).is_none());
        let one = bootstrap_median_ci(&[5.0], 100, 0.95, 1).unwrap();
        assert_eq!((one.lo, one.median, one.hi), (5.0, 5.0, 5.0));
    }

    fn random_samples(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..len)
            .map(|_| match splitmix64(&mut s) % 8 {
                0 => 25.0, // duplicates across both sides
                1 => 0.0,
                2 => -0.0,
                _ => (splitmix64(&mut s) % 2000) as f64 / 16.0,
            })
            .collect()
    }

    /// The pre-merge implementation: one binary search per sample.
    fn ks_distance_reference(a: &Ecdf, b: &Ecdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in a.samples().iter().chain(b.samples()) {
            d = d.max((a.fraction_at_or_below(x) - b.fraction_at_or_below(x)).abs());
        }
        d
    }

    #[test]
    fn ks_two_pointer_matches_the_per_sample_reference() {
        for (la, lb) in [
            (0, 5),
            (5, 0),
            (1, 1),
            (7, 31),
            (64, 64),
            (100, 3),
            (257, 199),
        ] {
            for seed in 0..10u64 {
                let a = Ecdf::new(random_samples(la, seed));
                let b = Ecdf::new(random_samples(lb, seed.wrapping_mul(31) + 5));
                let want = ks_distance_reference(&a, &b);
                let got = ks_distance(&a, &b);
                assert_eq!(got.to_bits(), want.to_bits(), "{la}x{lb} seed {seed}");
            }
        }
    }

    #[test]
    fn summary_of_ecdf_matches_of_without_copying() {
        for seed in 0..6u64 {
            let mut samples = random_samples(153, seed);
            samples.push(f64::NAN);
            samples.push(f64::INFINITY);
            let via_slice = Summary::of(&samples);
            let via_ecdf = Summary::of_ecdf(&Ecdf::new(samples.clone()));
            assert_eq!(via_slice, via_ecdf, "seed {seed}");
        }
        assert_eq!(Summary::of_ecdf(&Ecdf::new(vec![])), None);
    }

    /// The pre-selection bootstrap: full sort per resample. The new
    /// path must reproduce it bit for bit on every seed.
    fn bootstrap_reference(
        samples: &[f64],
        resamples: u32,
        level: f64,
        seed: u64,
    ) -> Option<MedianCi> {
        let base = Ecdf::new(samples.to_vec());
        if base.is_empty() {
            return None;
        }
        let level = level.clamp(0.5, 0.999);
        let data = base.samples();
        let n = data.len();
        let mut state = seed;
        let mut medians: Vec<f64> = (0..resamples.max(1))
            .map(|_| {
                let mut resample: Vec<f64> = (0..n)
                    .map(|_| data[(splitmix64(&mut state) % n as u64) as usize])
                    .collect();
                resample.sort_by(f64::total_cmp);
                resample[n / 2]
            })
            .collect();
        medians.sort_by(f64::total_cmp);
        let alpha = (1.0 - level) / 2.0;
        let idx = |q: f64| ((q * medians.len() as f64).floor() as usize).min(medians.len() - 1);
        Some(MedianCi {
            median: base.median()?,
            lo: medians[idx(alpha)],
            hi: medians[idx(1.0 - alpha)],
            level,
        })
    }

    #[test]
    fn bootstrap_selection_path_is_bit_identical_to_the_sorting_path() {
        for seed in [0u64, 1, 7, 42, 1234567] {
            for len in [1usize, 2, 9, 100] {
                let samples = random_samples(len, seed + 99);
                let want = bootstrap_reference(&samples, 200, 0.95, seed);
                let got = bootstrap_median_ci(&samples, 200, 0.95, seed);
                assert_eq!(got, want, "len {len} seed {seed}");
            }
        }
    }

    #[test]
    fn ks_distance_properties() {
        let a = Ecdf::new(vec![1.0, 2.0, 3.0]);
        let b = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(ks_distance(&a, &b), 0.0);
        let c = Ecdf::new(vec![11.0, 12.0, 13.0]);
        assert_eq!(ks_distance(&a, &c), 1.0);
        let d = Ecdf::new(vec![1.0, 2.0, 13.0]);
        let ks = ks_distance(&a, &d);
        assert!(ks > 0.3 && ks < 0.4, "{ks}");
    }
}
