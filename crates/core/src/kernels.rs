//! Vectorisation-friendly scan kernels over the columnar store.
//!
//! PR 6 turned `ResultStore` into seven bare parallel columns precisely
//! so that hot scans could become data-parallel; this module is where
//! those scans live: the grouped `(probe, region)` minima scan that
//! `CampaignFrame` builds and appends run, and the order statistics the
//! figure pipeline reads. Both are written as chunked loops shaped so
//! LLVM's autovectoriser turns their counting passes into SIMD without
//! any unstable features. A test-only `scalar` module keeps the
//! reference: plain per-element loops, written to be obviously correct,
//! against which the tests pin every kernel bit for bit.
//!
//! ## Masking convention
//!
//! Lost rounds are stored with `min_ms`/`avg_ms` = `f32::INFINITY`
//! (never `NaN`) and `received == 0`. [`percentile`] treats **every
//! non-finite value as masked** and excludes it from its population —
//! exactly the filter `Ecdf::new` applies, so kernel order statistics
//! are interchangeable with ECDF ones. [`region_min_scan`] masks rows
//! by `received == 0`: they count towards their probe but can never
//! become a minimum.
//!
//! ## Tie-break contract
//!
//! [`region_min_scan`] reproduces the sequential strict-`<` update
//! rule: among all rows achieving a `(probe, region)` minimum, the
//! **lowest index wins**. Chunks whose rows are all lost skip only the
//! minima update, never a row's bookkeeping. `CampaignFrame`'s append
//! invariants are built on this contract — see DESIGN.md §7g.
//!
//! ## Bucketed percentiles
//!
//! [`percentile`] is selection by fixed-width histogram: one pass for
//! the finite count and numeric min/max, one pass of bucket counts, and
//! a gather of the single bucket containing the requested rank, then an
//! exact `select_nth_unstable_by(total_cmp)` inside it. Because the
//! bucket map is monotone (subtraction and division by a positive
//! width are monotone under IEEE rounding) the k-th order statistic of
//! the population is the k'-th order statistic of its bucket, so the
//! result is the **exact** nearest-rank value — the error bound versus
//! a full sort is 0, not "one bucket width". Degenerate ranges (all
//! values equal, or a span too wide for a finite bucket width) fall
//! back to selecting over the whole population, which is still O(n).

use std::collections::HashMap;

use shears_atlas::ProbeId;

/// The columns [`region_min_scan`] reads, bundled so the scan has one
/// argument instead of four parallel slices callers could mis-zip.
/// All slices must be the same length (they are sub-slices of one
/// store's columns).
#[derive(Clone, Copy)]
pub struct ScanCols<'a> {
    /// Originating probe per row.
    pub probes: &'a [ProbeId],
    /// Target region per row.
    pub regions: &'a [u16],
    /// Minimum RTT per row (ms, `INFINITY` = lost round).
    pub min_ms: &'a [f32],
    /// Replies received per row (`0` = lost round).
    pub received: &'a [u8],
}

impl ScanCols<'_> {
    /// Number of rows in the (sub-)scan.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the scan covers no rows.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

/// Output of [`region_min_scan`]: the grouped minima and counters one
/// `CampaignFrame` indexing step (a build, or one append) produces.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedMinima {
    /// Sample count per probe (all samples, privileged included).
    pub counts: Vec<u32>,
    /// `(probe, region)` → `(min RTT, first store index achieving it)`
    /// over unprivileged responded samples.
    pub region_min: HashMap<(u32, u16), (f64, u32)>,
    /// Unprivileged samples seen.
    pub filtered: usize,
    /// Unprivileged responded samples seen.
    pub responded: usize,
}

impl GroupedMinima {
    fn new(n_probes: usize) -> Self {
        Self {
            counts: vec![0; n_probes],
            region_min: HashMap::new(),
            filtered: 0,
            responded: 0,
        }
    }
}

/// One row of the grouped scan — the sequential update rule every
/// variant must reproduce exactly.
#[inline(always)]
fn scan_row(
    cols: &ScanCols<'_>,
    privileged: &[bool],
    base: u32,
    i: usize,
    out: &mut GroupedMinima,
) {
    let p = cols.probes[i].index();
    out.counts[p] += 1;
    if privileged[p] {
        return;
    }
    out.filtered += 1;
    if cols.received[i] == 0 {
        return;
    }
    out.responded += 1;
    let v = f64::from(cols.min_ms[i]);
    let idx = base + i as u32;
    out.region_min
        .entry((cols.probes[i].0, cols.regions[i]))
        .and_modify(|e| {
            // Strict `<` keeps the first index achieving the min.
            if v < e.0 {
                *e = (v, idx);
            }
        })
        .or_insert((v, idx));
}

/// One bookkeeping-only row (chunks proven reply-free skip the rest).
#[inline(always)]
fn scan_row_lost(cols: &ScanCols<'_>, privileged: &[bool], i: usize, out: &mut GroupedMinima) {
    let p = cols.probes[i].index();
    out.counts[p] += 1;
    if !privileged[p] {
        out.filtered += 1;
    }
}

/// Number of histogram buckets for a population of `n` finite values.
/// Any count gives the same (exact) answer; this just balances the
/// counting pass against the candidate-bucket gather.
fn bucket_count(n: usize) -> usize {
    (n / 4).next_power_of_two().clamp(64, 4096)
}

/// Maps a value into its histogram bucket. Monotone in `v` (IEEE
/// subtraction and division by a positive finite width are monotone),
/// which is what makes bucketed selection exact.
#[inline(always)]
fn bucket_of(v: f64, min: f64, inv_width_b: f64, buckets: usize) -> usize {
    (((v - min) * inv_width_b) as usize).min(buckets - 1)
}

/// Shared tail of the bucketed selection: gather the candidate bucket
/// and select the exact rank inside it. `counts` is the bucket
/// histogram, `k` the global rank among finite values.
fn select_in_bucket(values: &[f64], counts: &[u32], k: usize, min: f64, inv_width_b: f64) -> f64 {
    let buckets = counts.len();
    let mut before = 0usize;
    let mut target = buckets - 1;
    for (b, &c) in counts.iter().enumerate() {
        let c = c as usize;
        if k < before + c {
            target = b;
            break;
        }
        before += c;
    }
    let mut candidates: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && bucket_of(*v, min, inv_width_b, buckets) == target)
        .collect();
    let k_in = k - before;
    let (_, v, _) = candidates.select_nth_unstable_by(k_in, f64::total_cmp);
    *v
}

/// Selection over the whole finite population — the degenerate-range
/// fallback (all values equal, or `max - min` not finite).
fn select_flat(values: &[f64], k: usize) -> f64 {
    let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (_, v, _) = finite.select_nth_unstable_by(k, f64::total_cmp);
    *v
}

/// Nearest-rank index for quantile `q` over `n` samples — the exact
/// formula `Ecdf::quantile` uses.
#[inline]
fn nearest_rank(q: f64, n: usize) -> usize {
    let q = q.clamp(0.0, 1.0);
    ((q * n as f64).ceil() as usize)
        .saturating_sub(1)
        .min(n - 1)
}

/// Elements per chunk in the counting passes (64 `u8`s fill one or two
/// vector registers).
const BYTES: usize = 64;

/// Exact nearest-rank quantile of the finite values by bucketed
/// selection — bit-identical to `Ecdf::new(values.to_vec()).quantile(q)`
/// without the copy or the full sort. `None` when no value is finite.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut n = 0usize;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for chunk in values.chunks(BYTES) {
        let mut c = 0u32;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in chunk {
            let finite = v.is_finite();
            c += u32::from(finite);
            if finite && v < lo {
                lo = v;
            }
            if finite && v > hi {
                hi = v;
            }
        }
        n += c as usize;
        if lo < min {
            min = lo;
        }
        if hi > max {
            max = hi;
        }
    }
    if n == 0 {
        return None;
    }
    let k = nearest_rank(q, n);
    let buckets = bucket_count(n);
    let width = (max - min) / buckets as f64;
    if !width.is_finite() || width <= 0.0 {
        return Some(select_flat(values, k));
    }
    let inv_width_b = 1.0 / width;
    let mut counts = vec![0u32; buckets];
    let mut idx_scratch = [0usize; BYTES];
    for chunk in values.chunks(BYTES) {
        // Bucket indices vectorise; the scatter below does not, but
        // it touches a 4–32 KiB table that stays cache-hot.
        for (s, &v) in idx_scratch.iter_mut().zip(chunk) {
            *s = if v.is_finite() {
                bucket_of(v, min, inv_width_b, buckets)
            } else {
                usize::MAX
            };
        }
        for &b in &idx_scratch[..chunk.len()] {
            if b != usize::MAX {
                counts[b] += 1;
            }
        }
    }
    Some(select_in_bucket(values, &counts, k, min, inv_width_b))
}

/// Exact median by selection (see [`percentile`]).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The grouped `(probe, region)` minima scan `CampaignFrame` builds
/// and appends run: per-probe sample counts, privileged filtering,
/// and first-index-wins minima over responded rows. A per-chunk
/// responded count (one vectorisable compare-sum) lets chunks that are
/// entirely lost rounds — blackout windows, chaos campaigns — skip the
/// hash/update machinery per row.
pub fn region_min_scan(
    cols: &ScanCols<'_>,
    privileged: &[bool],
    base: u32,
    n_probes: usize,
) -> GroupedMinima {
    let mut out = GroupedMinima::new(n_probes);
    let n = cols.len();
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + BYTES).min(n);
        let mut responded = 0u32;
        for &r in &cols.received[lo..hi] {
            responded += u32::from(r != 0);
        }
        if responded == 0 {
            for i in lo..hi {
                scan_row_lost(cols, privileged, i, &mut out);
            }
        } else {
            for i in lo..hi {
                scan_row(cols, privileged, base, i, &mut out);
            }
        }
        lo = hi;
    }
    out
}

/// Plain per-element loops — the semantics every kernel must match
/// bit for bit.
#[cfg(test)]
mod scalar {
    use super::*;

    /// Exact nearest-rank quantile over the finite values; `None` when
    /// none are finite. Identical to `Ecdf::new(values).quantile(q)`.
    pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
        let mut n = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            if v.is_finite() {
                n += 1;
                if v < min {
                    min = v;
                }
                if v > max {
                    max = v;
                }
            }
        }
        if n == 0 {
            return None;
        }
        let k = nearest_rank(q, n);
        let width = (max - min) / bucket_count(n) as f64;
        if !width.is_finite() || width <= 0.0 {
            return Some(select_flat(values, k));
        }
        let buckets = bucket_count(n);
        let inv_width_b = 1.0 / width;
        let mut counts = vec![0u32; buckets];
        for &v in values {
            if v.is_finite() {
                counts[bucket_of(v, min, inv_width_b, buckets)] += 1;
            }
        }
        Some(select_in_bucket(values, &counts, k, min, inv_width_b))
    }

    /// The grouped `(probe, region)` minima scan behind the frame.
    pub fn region_min_scan(
        cols: &ScanCols<'_>,
        privileged: &[bool],
        base: u32,
        n_probes: usize,
    ) -> GroupedMinima {
        let mut out = GroupedMinima::new(n_probes);
        for i in 0..cols.len() {
            scan_row(cols, privileged, base, i, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Ecdf;
    use shears_atlas::{
        Campaign, CampaignConfig, FleetConfig, Platform, PlatformConfig, ResultStore, RetryPolicy,
        RttSample,
    };
    use shears_geo::rng::splitmix64;
    use shears_netsim::{FaultConfig, SimTime};

    /// RTT-ish column with loss markers, NaN, ties and both zeros.
    fn adversarial_f32(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| match splitmix64(&mut s) % 16 {
                0 => f32::INFINITY,
                1 => f32::NAN,
                2 => 42.5, // frequent exact tie
                3 => 0.0,
                4 => -0.0,
                r => (r as f32) * 7.25 + ((splitmix64(&mut s) % 1000) as f32) / 64.0,
            })
            .collect()
    }

    fn adversarial_f64(len: usize, seed: u64) -> Vec<f64> {
        adversarial_f32(len, seed)
            .iter()
            .map(|&v| f64::from(v))
            .collect()
    }

    /// Lengths around the chunk boundaries, plus empty.
    const LENGTHS: [usize; 12] = [0, 1, 2, 7, 8, 9, 31, 63, 64, 65, 200, 1023];

    #[test]
    fn percentile_is_bit_identical_to_the_ecdf_path() {
        for len in LENGTHS {
            for seed in 0..6u64 {
                let col = adversarial_f64(len, seed);
                let e = Ecdf::new(col.clone());
                for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0, 2.0] {
                    let want = e.quantile(q);
                    for (name, got) in [
                        ("scalar", scalar::percentile(&col, q)),
                        ("kernel", percentile(&col, q)),
                    ] {
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "{name} len {len} seed {seed} q {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn percentile_handles_degenerate_populations() {
        // All equal: width 0 falls back to flat selection.
        let flat = vec![13.5f64; 100];
        assert_eq!(percentile(&flat, 0.5), Some(13.5));
        // Mixed zeros: total_cmp ordering must hold at the boundary.
        let zeros: Vec<f64> = (0..50)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        let e = Ecdf::new(zeros.clone());
        for q in [0.0, 0.3, 0.5, 0.9, 1.0] {
            assert_eq!(
                percentile(&zeros, q).map(f64::to_bits),
                e.quantile(q).map(f64::to_bits)
            );
        }
        // A span too wide for a finite bucket width.
        let wide = vec![f64::MIN / 2.0, 0.0, f64::MAX / 2.0, f64::MAX];
        let e = Ecdf::new(wide.clone());
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(percentile(&wide, q), e.quantile(q));
        }
        // Nothing finite.
        assert_eq!(percentile(&[f64::NAN, f64::INFINITY], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_shortcut_matches_percentile() {
        let col = adversarial_f64(333, 9);
        assert_eq!(
            median(&col).map(f64::to_bits),
            percentile(&col, 0.5).map(f64::to_bits)
        );
    }

    /// Owned columns of a synthetic grouped scan.
    struct ScanData {
        probes: Vec<ProbeId>,
        regions: Vec<u16>,
        min_ms: Vec<f32>,
        received: Vec<u8>,
        privileged: Vec<bool>,
    }

    impl ScanData {
        fn cols(&self) -> ScanCols<'_> {
            ScanCols {
                probes: &self.probes,
                regions: &self.regions,
                min_ms: &self.min_ms,
                received: &self.received,
            }
        }
    }

    fn adversarial_scan(len: usize, n_probes: usize, seed: u64) -> ScanData {
        let mut s = seed;
        let probes: Vec<ProbeId> = (0..len)
            .map(|_| ProbeId((splitmix64(&mut s) % n_probes as u64) as u32))
            .collect();
        let regions: Vec<u16> = (0..len).map(|_| (splitmix64(&mut s) % 5) as u16).collect();
        let received: Vec<u8> = (0..len)
            .map(|_| u8::from(!splitmix64(&mut s).is_multiple_of(3)) * 3)
            .collect();
        let min_ms: Vec<f32> = received
            .iter()
            .map(|&r| {
                if r == 0 {
                    f32::INFINITY
                } else {
                    // Coarse quantisation forces plenty of exact ties.
                    ((splitmix64(&mut s) % 8) as f32) * 10.0
                }
            })
            .collect();
        let privileged: Vec<bool> = (0..n_probes).map(|p| p % 7 == 0).collect();
        ScanData {
            probes,
            regions,
            min_ms,
            received,
            privileged,
        }
    }

    #[test]
    fn region_min_scan_variants_agree_with_the_scalar_reference() {
        for len in [0usize, 1, 63, 64, 65, 200, 777] {
            for seed in 0..4u64 {
                let data = adversarial_scan(len, 11, seed);
                let (cols, privileged) = (data.cols(), &data.privileged);
                let want = scalar::region_min_scan(&cols, privileged, 1000, 11);
                assert_eq!(
                    region_min_scan(&cols, privileged, 1000, 11),
                    want,
                    "len {len} seed {seed}"
                );
                // Invariants the frame depends on.
                assert_eq!(want.counts.iter().map(|&c| c as usize).sum::<usize>(), len);
                assert!(want.responded <= want.filtered && want.filtered <= len);
                for (&(p, _), &(v, idx)) in &want.region_min {
                    assert!(!privileged[p as usize]);
                    assert!(v.is_finite());
                    assert!(idx >= 1000 && idx < 1000 + len as u32, "global index");
                }
            }
        }
    }

    #[test]
    fn region_min_scan_skips_all_lost_chunks_without_losing_bookkeeping() {
        // 3 chunks of entirely lost rounds: counts and filtered still
        // accumulate, no minima appear.
        let n = 192;
        let probes: Vec<ProbeId> = (0..n).map(|i| ProbeId(i as u32 % 4)).collect();
        let regions = vec![0u16; n];
        let min_ms = vec![f32::INFINITY; n];
        let received = vec![0u8; n];
        let privileged = vec![false, true, false, false];
        let cols = ScanCols {
            probes: &probes,
            regions: &regions,
            min_ms: &min_ms,
            received: &received,
        };
        for scan in [
            scalar::region_min_scan(&cols, &privileged, 0, 4),
            region_min_scan(&cols, &privileged, 0, 4),
        ] {
            assert_eq!(scan.counts, vec![48; 4]);
            assert_eq!(scan.filtered, 144, "privileged probe 1 excluded");
            assert_eq!(scan.responded, 0);
            assert!(scan.region_min.is_empty());
        }
    }

    /// Asserts every column kernel matches the scalar reference — bit
    /// for bit — on one store's real columns.
    fn assert_kernel_variants_agree(p: &Platform, store: &ResultStore, what: &str) {
        let finite: Vec<f64> = store
            .min_ms()
            .iter()
            .filter(|v| v.is_finite())
            .map(|&v| f64::from(v))
            .collect();
        let e = Ecdf::new(finite.clone());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let want = e.quantile(q).map(f64::to_bits);
            assert_eq!(
                scalar::percentile(&finite, q).map(f64::to_bits),
                want,
                "{what}: scalar percentile({q}) vs Ecdf"
            );
            assert_eq!(
                percentile(&finite, q).map(f64::to_bits),
                want,
                "{what}: percentile({q}) vs Ecdf"
            );
        }

        // The grouped scan that frame build/append runs, under the real
        // privileged mask.
        let privileged: Vec<bool> = p.probes().iter().map(|pr| pr.is_privileged()).collect();
        let cols = ScanCols {
            probes: store.probes(),
            regions: store.regions(),
            min_ms: store.min_ms(),
            received: store.received(),
        };
        assert_eq!(
            region_min_scan(&cols, &privileged, 0, privileged.len()),
            scalar::region_min_scan(&cols, &privileged, 0, privileged.len()),
            "{what}: region_min_scan"
        );

        // The store's chunked responded count agrees with the row pass.
        let responded_ref = store.received().iter().filter(|&&r| r != 0).count();
        assert_eq!(
            store.responded_len(),
            responded_ref,
            "{what}: responded_len"
        );
    }

    /// Kernel acceptance grid: over the same 20-seed × 3-profile chaos
    /// campaigns as the root crate's
    /// `chaos_campaigns_are_bit_identical_across_seeds_profiles_and_threads`,
    /// every kernel matches the scalar reference on the real columns.
    #[test]
    fn kernel_variants_are_bit_identical_on_chaos_campaign_columns() {
        let p = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 40,
                seed: 17,
            },
            ..PlatformConfig::default()
        });
        for profile in ["lossy", "blackout", "chaos"] {
            let faults = FaultConfig::profile(profile).expect("known profile");
            for seed in 1..=20u64 {
                let cfg = CampaignConfig {
                    rounds: 2,
                    targets_per_probe: 1,
                    adjacent_targets: 1,
                    seed,
                    faults,
                    recovery: RetryPolicy::atlas_default(),
                    ..CampaignConfig::quick()
                };
                let mut store = Campaign::new(&p, cfg).run().unwrap();
                assert!(!store.is_empty(), "{profile} seed {seed}");
                assert_kernel_variants_agree(&p, &store, &format!("{profile} seed {seed}"));
                // Append an adversarial coda — lost rounds, duplicate
                // minima and an out-of-order timestamp — so the masked
                // paths run on campaign-derived data too.
                let first = store.get(0);
                store.push(RttSample {
                    min_ms: f32::INFINITY,
                    avg_ms: f32::INFINITY,
                    received: 0,
                    ..first
                });
                store.push(first);
                store.push(RttSample {
                    at: SimTime::ZERO,
                    ..first
                });
                assert_kernel_variants_agree(&p, &store, &format!("{profile} seed {seed} +coda"));
            }
        }
    }
}
