//! The indexed view every analysis queries.
//!
//! [`CampaignFrame`] is built from a platform and a result store, then
//! kept current **incrementally**: [`CampaignFrame::append`] folds
//! newly landed store rows into every index in O(new samples) instead
//! of rescanning the campaign. A build is an empty frame over the
//! platform followed by the same indexing step an append runs, so the
//! two cannot disagree. The frame precomputes everything the figure
//! modules used to re-derive with their own O(n) passes:
//!
//! * the §4.1 **privileged mask** (one `bool` per probe, so the filter
//!   is an index instead of a per-sample tag scan);
//! * a **per-probe partition** of sample indices (the indexed
//!   replacement for `ResultStore::by_probe`'s full-store filter);
//! * **per-probe / per-country / per-(probe, region) minima**, the
//!   statistics behind Figs. 4 and 5;
//! * the **closest-datacenter resolution** behind
//!   `CampaignData::samples_to_closest_dc` (Fig. 6's population),
//!   cached as row indices in store order;
//! * a **time-sorted round index** for windowed queries (the indexed
//!   replacement for `ResultStore::in_window`).
//!
//! The frame *owns* its indexes (no borrows), so a long-lived caller
//! can hold a frame next to its growing store and feed it appends;
//! queries that materialise sample data take the store (and platform,
//! where probe records are joined) as arguments. The scan iterates the
//! store's dense columns — probe, region, `min_ms`, received — instead
//! of striding 24-byte records.
//!
//! The contract is build-once / append-many / query-many, and every
//! state is bit-identical to a build over the same rows: minima are
//! plain `f64` mins over the same sample sets, and the best-region
//! tie-break reproduces the sequential first-sample-wins rule exactly
//! by tracking `(value, first store index achieving it)` pairs —
//! appended rows (which always carry larger indices) only ever win by
//! a strict value improvement.

use shears_atlas::{Platform, Probe, ProbeId, ResultStore, RttSample};
use shears_netsim::SimTime;

use crate::kernels::{self, ScanCols};

/// Sentinel for "this probe has no responding region".
const NO_REGION: u16 = u16::MAX;

/// One per-(probe, region) minimum, with the first store index that
/// achieved it — the tie-break witness appends need to stay bit-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RegionMin {
    region: u16,
    min: f64,
    first: u32,
}

/// Merges two runs of row indices, each sorted by `key`, into one;
/// on equal keys the row from `a` comes first.
fn merge_by_key<K: Ord>(
    a: impl Iterator<Item = u32>,
    b: impl Iterator<Item = u32>,
    capacity: usize,
    key: impl Fn(u32) -> K,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(capacity);
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) if key(x) <= key(y) => a.next(),
            (Some(_), None) => a.next(),
            _ => b.next(),
        };
        match next {
            Some(idx) => out.push(idx),
            None => return out,
        }
    }
}

/// The indexed campaign view. See the module docs for the contract.
#[derive(Clone)]
pub struct CampaignFrame {
    /// `privileged[p]` — the §4.1 mask, indexed by probe id.
    privileged: Vec<bool>,
    /// Probe id → slot in [`CampaignFrame::countries`].
    probe_country: Vec<u32>,
    /// Sorted unique country codes of the fleet.
    countries: Vec<String>,
    /// Store indices grouped by probe, ascending within each probe —
    /// per-probe vectors so appends stay O(new samples).
    partition: Vec<Vec<u32>>,
    /// Per-probe `(min RTT, first store index achieving it, region)`;
    /// `(INFINITY, u32::MAX, NO_REGION)` = no responding sample or
    /// privileged.
    best: Vec<(f64, u32, u16)>,
    /// Per-probe per-region minima, sorted by region index.
    region_minima: Vec<Vec<RegionMin>>,
    /// Min RTT per country slot (`INFINITY` = no data yet).
    country_min: Vec<f64>,
    /// Countries whose slot in `country_min` is finite.
    countries_with_data: usize,
    /// Store indices of Fig. 6's population (each probe's responded
    /// rounds towards its closest region), in store order.
    closest_rows: Vec<u32>,
    /// Store indices sorted by round time (stable, so ties keep store
    /// order).
    time_order: Vec<u32>,
    filtered_len: usize,
    responded_len: usize,
    /// Store rows folded into the indexes so far; `append` picks up
    /// from here.
    rows_indexed: usize,
    /// How many `append` calls this frame has absorbed.
    appends: u64,
}

impl CampaignFrame {
    /// Builds the frame over every row of `store`: an empty frame over
    /// the platform, then the indexing step [`CampaignFrame::append`]
    /// runs. [`CampaignFrame::appends`] reads 0 afterwards.
    pub fn build(platform: &Platform, store: &ResultStore) -> Self {
        let mut frame = Self::empty(platform);
        frame.index_new_rows(store);
        frame
    }

    /// A frame over `platform` that has indexed no rows: the privileged
    /// mask and the sorted country slots.
    fn empty(platform: &Platform) -> Self {
        let probes = platform.probes();
        let n_probes = probes.len();
        let mut countries: Vec<String> = probes.iter().map(|p| p.country.clone()).collect();
        countries.sort_unstable();
        countries.dedup();
        let probe_country = probes
            .iter()
            .map(|p| {
                countries
                    .binary_search(&p.country)
                    .expect("every probe's country has a slot") as u32
            })
            .collect();
        Self {
            privileged: probes.iter().map(Probe::is_privileged).collect(),
            probe_country,
            country_min: vec![f64::INFINITY; countries.len()],
            countries,
            partition: vec![Vec::new(); n_probes],
            best: vec![(f64::INFINITY, u32::MAX, NO_REGION); n_probes],
            region_minima: vec![Vec::new(); n_probes],
            countries_with_data: 0,
            closest_rows: Vec::new(),
            time_order: Vec::new(),
            filtered_len: 0,
            responded_len: 0,
            rows_indexed: 0,
            appends: 0,
        }
    }

    /// Folds the store rows that landed since the last
    /// `build`/`append` — `[rows_indexed, store.len())` — into every
    /// index, in O(new samples) (amortised; see below).
    ///
    /// The caller contract is that `store` is the same store the frame
    /// was built from with rows appended at the tail (campaign rounds,
    /// a durable resume that strictly extends the samples). The result
    /// is bit-identical to `build(platform, store)`, because `build`
    /// runs this same step over an empty frame.
    pub fn append(&mut self, store: &ResultStore) {
        self.appends += 1;
        self.index_new_rows(store);
    }

    /// The indexing step behind both [`CampaignFrame::build`] and
    /// [`CampaignFrame::append`]:
    ///
    /// * per-(probe, region) minima only improve by a **strict** `<`
    ///   (new rows carry larger store indices, so a tie never steals a
    ///   first-index witness);
    /// * per-probe bests take the lexicographic `(value, first index)`
    ///   minimum;
    /// * country minima are monotone mins over probe minima;
    /// * the closest-rows cache is extended in store order unless a
    ///   probe's closest region differs from the one it had at the
    ///   start of the call; exactly those probes' rows are re-derived
    ///   from the partition and merged in (the one amortised-not-
    ///   worst-case step: it costs O(those probes' rows + current
    ///   cache)). A build starts from no closest regions, so it never
    ///   re-derives;
    /// * the time index appends in O(new log new) when the new rows'
    ///   times start at or after the indexed maximum (every round-major
    ///   producer in the tree), and falls back to a linear merge for
    ///   interleaved times.
    fn index_new_rows(&mut self, store: &ResultStore) {
        let from = self.rows_indexed;
        let to = store.len();
        assert!(
            to >= from,
            "append requires a store that only grew since the last index"
        );
        assert!(
            to <= u32::MAX as usize,
            "store exceeds the u32 row-index space"
        );
        if to == from {
            return;
        }
        let probes = &store.probes()[from..to];
        let regions = &store.regions()[from..to];
        let received = &store.received()[from..to];

        // 1. The new rows' grouped minima through the column kernel,
        //    then the partition, reserved from the kernel's per-probe
        //    counts. Applying each (probe, region) group's
        //    `(min, first index)` entry once is order-independent and
        //    equal to row-by-row updates: the group entry *is* the
        //    lexicographic `(value, index)` minimum of its rows, and
        //    every final index below is a min over such entries.
        let cols = ScanCols {
            probes,
            regions,
            min_ms: &store.min_ms()[from..to],
            received,
        };
        let scan =
            kernels::region_min_scan(&cols, &self.privileged, from as u32, self.privileged.len());
        for (rows, &n) in self.partition.iter_mut().zip(&scan.counts) {
            rows.reserve(n as usize);
        }
        for (i, p) in probes.iter().enumerate() {
            self.partition[p.index()].push((from + i) as u32);
        }
        self.filtered_len += scan.filtered;
        self.responded_len += scan.responded;
        // `(probe, closest region at the start of the call)` for every
        // probe that had one and whose best improved.
        let mut improved: Vec<(usize, u16)> = Vec::new();
        for (&(probe, region), &(v, idx)) in &scan.region_min {
            let p = probe as usize;
            let rm = &mut self.region_minima[p];
            match rm.binary_search_by_key(&region, |e| e.region) {
                Ok(k) => {
                    // Strict `<`: appended indices are larger, so the
                    // first-index witness survives value ties.
                    if v < rm[k].min {
                        rm[k].min = v;
                        rm[k].first = idx;
                    }
                }
                Err(k) => rm.insert(
                    k,
                    RegionMin {
                        region,
                        min: v,
                        first: idx,
                    },
                ),
            }
            let b = &mut self.best[p];
            if (v, idx) < (b.0, b.1) {
                // A best older than `from` is the one the call started
                // with; once improved here, its index is `from` or more.
                if (b.1 as usize) < from {
                    improved.push((p, b.2));
                }
                *b = (v, idx, region);
                let c = self.probe_country[p] as usize;
                if v < self.country_min[c] {
                    if self.country_min[c].is_infinite() {
                        self.countries_with_data += 1;
                    }
                    self.country_min[c] = v;
                }
            }
        }
        let moved: Vec<usize> = improved
            .into_iter()
            .filter(|&(p, start)| self.best[p].2 != start)
            .map(|(p, _)| p)
            .collect();

        // 2. Closest-rows cache: the new rows towards their probe's
        //    closest region (ascending indices). When no closest region
        //    moved they extend the sorted cache in place.
        let new_closest = (0..probes.len())
            .filter(|&i| {
                let p = probes[i].index();
                !self.privileged[p] && received[i] > 0 && regions[i] == self.best[p].2
            })
            .map(|i| (from + i) as u32);
        if moved.is_empty() {
            self.closest_rows.extend(new_closest);
        } else {
            // Drop the moved probes' rows, re-derive them from the
            // partition (which already holds the new rows), and merge
            // the two sorted sets.
            let mut is_moved = vec![false; self.privileged.len()];
            for &p in &moved {
                is_moved[p] = true;
            }
            let all_probes = store.probes();
            let all_regions = store.regions();
            let all_received = store.received();
            let mut extra: Vec<u32> = new_closest
                .filter(|&idx| !is_moved[all_probes[idx as usize].index()])
                .collect();
            for &p in &moved {
                let best_region = self.best[p].2;
                extra.extend(self.partition[p].iter().copied().filter(|&idx| {
                    let i = idx as usize;
                    all_received[i] > 0 && all_regions[i] == best_region
                }));
            }
            extra.sort_unstable();
            let kept = std::mem::take(&mut self.closest_rows);
            let capacity = kept.len() + extra.len();
            self.closest_rows = merge_by_key(
                kept.into_iter()
                    .filter(|&idx| !is_moved[all_probes[idx as usize].index()]),
                extra.into_iter(),
                capacity,
                |idx| idx,
            );
        }

        // 3. The time index. Both runs are sorted by (at, index); the
        //    old run's indices are all smaller, so a plain key merge
        //    reproduces a stable full sort. Round-major producers
        //    append monotonically, so the extend path is the norm.
        let ats = store.ats();
        let mut new_order: Vec<u32> = (from as u32..to as u32).collect();
        new_order.sort_by_key(|&idx| ats[idx as usize]);
        match self.time_order.last() {
            None => self.time_order = new_order,
            Some(&last) if ats[last as usize] <= ats[new_order[0] as usize] => {
                self.time_order.extend(new_order)
            }
            Some(_) => {
                let old = std::mem::take(&mut self.time_order);
                let capacity = old.len() + new_order.len();
                self.time_order =
                    merge_by_key(old.into_iter(), new_order.into_iter(), capacity, |idx| {
                        (ats[idx as usize], idx)
                    });
            }
        }

        self.rows_indexed = to;
    }

    /// Store rows folded into the indexes so far.
    pub fn rows_indexed(&self) -> usize {
        self.rows_indexed
    }

    /// How many [`CampaignFrame::append`] calls this frame absorbed
    /// since its build.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// The §4.1 mask: whether a probe is excluded as privileged.
    pub fn is_privileged(&self, id: ProbeId) -> bool {
        self.privileged[id.index()]
    }

    /// Samples surviving the privileged filter.
    pub fn filtered_len(&self) -> usize {
        self.filtered_len
    }

    /// Filtered samples that got at least one reply.
    pub fn responded_len(&self) -> usize {
        self.responded_len
    }

    /// One probe's samples via the partition index — the O(k) indexed
    /// replacement for `ResultStore::by_probe`'s full-store filter.
    /// Yields store order, materialised from `store`'s columns.
    pub fn by_probe<'s>(
        &'s self,
        store: &'s ResultStore,
        id: ProbeId,
    ) -> impl Iterator<Item = RttSample> + 's {
        self.partition[id.index()]
            .iter()
            .map(move |&idx| store.get(idx as usize))
    }

    /// A probe's campaign-wide minimum RTT (ms); `None` for privileged
    /// probes and probes whose every round was lost.
    pub fn probe_min(&self, id: ProbeId) -> Option<f64> {
        let v = self.best[id.index()].0;
        v.is_finite().then_some(v)
    }

    /// All per-probe minima (Fig. 5's statistic), in probe-id order.
    pub fn probe_minima(&self) -> impl Iterator<Item = (ProbeId, f64)> + '_ {
        self.best
            .iter()
            .enumerate()
            .filter(|(_, b)| b.0.is_finite())
            .map(|(p, &(v, _, _))| (ProbeId(p as u32), v))
    }

    /// The region a probe reaches fastest — its "closest datacenter".
    pub fn best_region(&self, id: ProbeId) -> Option<u16> {
        let r = self.best[id.index()].2;
        (r != NO_REGION).then_some(r)
    }

    /// A probe's per-region minima, sorted by region index.
    pub fn region_minima(&self, id: ProbeId) -> impl Iterator<Item = (u16, f64)> + '_ {
        self.region_minima[id.index()]
            .iter()
            .map(|e| (e.region, e.min))
    }

    /// Per-country minima (Fig. 4's statistic), in country-code order.
    pub fn country_minima(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.countries
            .iter()
            .zip(&self.country_min)
            .filter(|(_, v)| v.is_finite())
            .map(|(c, &v)| (c.as_str(), v))
    }

    /// Number of countries with at least one responding probe.
    pub fn countries_measured(&self) -> usize {
        self.countries_with_data
    }

    /// Fig. 6's population: each probe's responded rounds towards its
    /// closest region, in store order — the cached resolution behind
    /// `CampaignData::samples_to_closest_dc`.
    pub fn closest_dc<'s, 'p: 's>(
        &'s self,
        platform: &'p Platform,
        store: &'s ResultStore,
    ) -> impl Iterator<Item = (&'p Probe, f64)> + 's {
        let probes = platform.probes();
        let probe_col = store.probes();
        let min_col = store.min_ms();
        self.closest_rows.iter().map(move |&idx| {
            let i = idx as usize;
            (&probes[probe_col[i].index()], f64::from(min_col[i]))
        })
    }

    /// Samples in `[from, to)` via the time index (binary search on the
    /// sorted round times) — the indexed replacement for
    /// `ResultStore::in_window`. Yields time order, ties in store order.
    pub fn in_window<'s>(
        &'s self,
        store: &'s ResultStore,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = RttSample> + 's {
        let ats = store.ats();
        let lo = self
            .time_order
            .partition_point(|&idx| ats[idx as usize] < from);
        let hi = self
            .time_order
            .partition_point(|&idx| ats[idx as usize] < to);
        self.time_order[lo..hi]
            .iter()
            .map(move |&idx| store.get(idx as usize))
    }

    /// First and last round times in the store, `None` when empty.
    pub fn time_span(&self, store: &ResultStore) -> Option<(SimTime, SimTime)> {
        let ats = store.ats();
        let first = *self.time_order.first()?;
        let last = *self.time_order.last()?;
        Some((ats[first as usize], ats[last as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{Campaign, CampaignConfig, FleetConfig, PlatformConfig};
    use std::collections::HashMap;

    fn data() -> (Platform, ResultStore) {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 80,
                seed: 11,
            },
            ..PlatformConfig::default()
        });
        let store = Campaign::new(
            &platform,
            CampaignConfig {
                rounds: 4,
                targets_per_probe: 2,
                adjacent_targets: 1,
                ..CampaignConfig::quick()
            },
        )
        .run()
        .unwrap();
        (platform, store)
    }

    /// The historical sequential algorithms, kept verbatim as the
    /// reference the frame must match bit for bit.
    mod reference {
        use super::*;

        pub fn per_probe_min(platform: &Platform, store: &ResultStore) -> HashMap<ProbeId, f64> {
            let mut min: HashMap<ProbeId, f64> = HashMap::new();
            for s in store.iter() {
                let p = &platform.probes()[s.probe.index()];
                if p.is_privileged() || !s.responded() {
                    continue;
                }
                let v = f64::from(s.min_ms);
                min.entry(p.id).and_modify(|m| *m = m.min(v)).or_insert(v);
            }
            min
        }

        pub fn per_country_min<'a>(
            platform: &'a Platform,
            store: &ResultStore,
        ) -> HashMap<&'a str, f64> {
            let mut min: HashMap<&str, f64> = HashMap::new();
            for s in store.iter() {
                let p = &platform.probes()[s.probe.index()];
                if p.is_privileged() || !s.responded() {
                    continue;
                }
                let v = f64::from(s.min_ms);
                min.entry(p.country.as_str())
                    .and_modify(|m| *m = m.min(v))
                    .or_insert(v);
            }
            min
        }

        pub fn samples_to_closest_dc<'a>(
            platform: &'a Platform,
            store: &ResultStore,
        ) -> Vec<(&'a Probe, f64)> {
            let mut best_region: HashMap<ProbeId, (u16, f64)> = HashMap::new();
            for s in store.iter() {
                let p = &platform.probes()[s.probe.index()];
                if p.is_privileged() || !s.responded() {
                    continue;
                }
                let v = f64::from(s.min_ms);
                best_region
                    .entry(p.id)
                    .and_modify(|(region, m)| {
                        if v < *m {
                            *region = s.region;
                            *m = v;
                        }
                    })
                    .or_insert((s.region, v));
            }
            store
                .iter()
                .filter_map(|s| {
                    let p = &platform.probes()[s.probe.index()];
                    if p.is_privileged() || !s.responded() {
                        return None;
                    }
                    best_region
                        .get(&p.id)
                        .is_some_and(|(region, _)| *region == s.region)
                        .then_some((p, f64::from(s.min_ms)))
                })
                .collect()
        }
    }

    /// Field-by-field equality of two frames (the struct is not
    /// `PartialEq` because it is not part of the public contract).
    fn assert_frames_identical(a: &CampaignFrame, b: &CampaignFrame, what: &str) {
        assert_eq!(a.privileged, b.privileged, "{what}: privileged");
        assert_eq!(a.partition, b.partition, "{what}: partition");
        assert_eq!(a.best, b.best, "{what}: best");
        assert_eq!(a.region_minima, b.region_minima, "{what}: region_minima");
        assert_eq!(a.country_min, b.country_min, "{what}: country_min");
        assert_eq!(
            a.countries_with_data, b.countries_with_data,
            "{what}: countries_with_data"
        );
        assert_eq!(a.closest_rows, b.closest_rows, "{what}: closest_rows");
        assert_eq!(a.time_order, b.time_order, "{what}: time_order");
        assert_eq!(a.filtered_len, b.filtered_len, "{what}: filtered_len");
        assert_eq!(a.responded_len, b.responded_len, "{what}: responded_len");
        assert_eq!(a.rows_indexed, b.rows_indexed, "{what}: rows_indexed");
    }

    #[test]
    fn minima_match_the_sequential_reference_bit_for_bit() {
        let (platform, store) = data();
        let frame = CampaignFrame::build(&platform, &store);
        let probe_ref = reference::per_probe_min(&platform, &store);
        let got: HashMap<ProbeId, f64> = frame.probe_minima().collect();
        assert_eq!(got, probe_ref);
        let country_ref = reference::per_country_min(&platform, &store);
        let got: HashMap<&str, f64> = frame
            .country_minima()
            .map(|(c, v)| {
                (
                    *country_ref
                        .keys()
                        .find(|k| **k == c)
                        .expect("known country"),
                    v,
                )
            })
            .collect();
        assert_eq!(got, country_ref);
        assert_eq!(frame.countries_measured(), country_ref.len());
    }

    #[test]
    fn closest_dc_matches_the_two_pass_reference_in_order() {
        let (platform, store) = data();
        let frame = CampaignFrame::build(&platform, &store);
        let reference: Vec<(ProbeId, f64)> = reference::samples_to_closest_dc(&platform, &store)
            .into_iter()
            .map(|(p, v)| (p.id, v))
            .collect();
        let got: Vec<(ProbeId, f64)> = frame
            .closest_dc(&platform, &store)
            .map(|(p, v)| (p.id, v))
            .collect();
        assert_eq!(got, reference, "rows must match in store order");
        assert!(!got.is_empty());
    }

    #[test]
    fn append_rounds_equals_full_rebuild() {
        let (platform, store) = data();
        // Round boundaries: the sequential runner is round-major, so
        // splitting on time changes gives whole rounds.
        let ats = store.ats();
        let mut cuts = vec![0usize];
        for i in 1..store.len() {
            if ats[i] != ats[i - 1] {
                cuts.push(i);
            }
        }
        cuts.push(store.len());
        assert!(cuts.len() > 3, "campaign has multiple rounds");

        // Build on the first chunk, then append one chunk at a time.
        let mut growing = ResultStore::with_capacity(store.len());
        for i in 0..cuts[1] {
            growing.push(store.get(i));
        }
        let mut frame = CampaignFrame::build(&platform, &growing);
        for w in cuts.windows(2).skip(1) {
            for i in w[0]..w[1] {
                growing.push(store.get(i));
            }
            frame.append(&growing);
            let rebuilt = CampaignFrame::build(&platform, &growing);
            assert_frames_identical(&frame, &rebuilt, &format!("after rows {}..{}", w[0], w[1]));
        }
        assert_eq!(frame.appends(), (cuts.len() - 2) as u64);
        assert_eq!(frame.rows_indexed(), store.len());
    }

    #[test]
    fn append_handles_a_moving_closest_region() {
        let (platform, _) = data();
        let probe = platform
            .probes()
            .iter()
            .find(|p| !p.is_privileged())
            .expect("an unprivileged probe");
        let mk = |region: u16, at_h: u64, min: f32| RttSample {
            probe: probe.id,
            region,
            at: SimTime::from_hours(at_h),
            min_ms: min,
            avg_ms: min + 1.0,
            sent: 3,
            received: 3,
        };
        let mut store = ResultStore::new();
        store.push(mk(1, 0, 20.0));
        store.push(mk(2, 0, 30.0));
        let mut frame = CampaignFrame::build(&platform, &store);
        assert_eq!(frame.best_region(probe.id), Some(1));
        // A later round makes region 2 the closest: the cached rows
        // must swap to region 2's, including the old region-2 row.
        store.push(mk(2, 1, 10.0));
        frame.append(&store);
        assert_eq!(frame.best_region(probe.id), Some(2));
        let rebuilt = CampaignFrame::build(&platform, &store);
        assert_frames_identical(&frame, &rebuilt, "after best flip");
        let rows: Vec<f64> = frame
            .closest_dc(&platform, &store)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(rows, vec![30.0, 10.0], "both region-2 rounds, store order");
    }

    #[test]
    fn append_preserves_the_first_index_tie_break() {
        let (platform, _) = data();
        let probe = platform
            .probes()
            .iter()
            .find(|p| !p.is_privileged())
            .expect("an unprivileged probe");
        let mk = |region: u16, at_h: u64, min: f32| RttSample {
            probe: probe.id,
            region,
            at: SimTime::from_hours(at_h),
            min_ms: min,
            avg_ms: min + 1.0,
            sent: 3,
            received: 3,
        };
        let mut store = ResultStore::new();
        store.push(mk(1, 0, 12.5));
        let mut frame = CampaignFrame::build(&platform, &store);
        // An equal minimum towards another region arrives later: the
        // first-sample-wins rule keeps region 1 closest.
        store.push(mk(2, 1, 12.5));
        frame.append(&store);
        assert_eq!(frame.best_region(probe.id), Some(1));
        let rebuilt = CampaignFrame::build(&platform, &store);
        assert_frames_identical(&frame, &rebuilt, "after equal-min append");
    }

    #[test]
    fn empty_append_is_a_counted_no_op() {
        let (platform, store) = data();
        let mut frame = CampaignFrame::build(&platform, &store);
        let rebuilt = CampaignFrame::build(&platform, &store);
        frame.append(&store);
        assert_eq!(frame.appends(), 1);
        assert_frames_identical(&frame, &rebuilt, "empty append");
    }

    #[test]
    fn partition_agrees_with_store_by_probe() {
        let (platform, store) = data();
        let frame = CampaignFrame::build(&platform, &store);
        for p in platform.probes() {
            let indexed: Vec<RttSample> = frame.by_probe(&store, p.id).collect();
            let filtered: Vec<RttSample> = store.by_probe(p.id).collect();
            assert_eq!(indexed, filtered, "probe {:?}", p.id);
        }
    }

    #[test]
    fn time_index_agrees_with_store_in_window() {
        let (platform, store) = data();
        let frame = CampaignFrame::build(&platform, &store);
        let (first, last) = frame.time_span(&store).unwrap();
        assert!(first <= last);
        let mid = SimTime::from_nanos((first.as_nanos() + last.as_nanos()) / 2);
        for (from, to) in [(first, mid), (mid, last), (first, last)] {
            let mut indexed: Vec<RttSample> = frame.in_window(&store, from, to).collect();
            let mut filtered: Vec<RttSample> = store.in_window(from, to).collect();
            let key = |s: &RttSample| (s.at, s.probe, s.region);
            indexed.sort_by_key(key);
            filtered.sort_by_key(key);
            assert_eq!(indexed, filtered);
        }
        // The window iterator itself is time-ordered.
        let to = SimTime::from_nanos(last.as_nanos() + 1);
        let order: Vec<SimTime> = frame.in_window(&store, first, to).map(|s| s.at).collect();
        assert!(order.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn privileged_probes_are_fully_masked() {
        let (platform, store) = data();
        let frame = CampaignFrame::build(&platform, &store);
        for p in platform.probes() {
            assert_eq!(frame.is_privileged(p.id), p.is_privileged());
            if p.is_privileged() {
                assert_eq!(frame.probe_min(p.id), None);
                assert_eq!(frame.best_region(p.id), None);
                assert_eq!(frame.region_minima(p.id).count(), 0);
            }
        }
        assert!(frame.filtered_len() <= store.len());
        assert!(frame.responded_len() <= frame.filtered_len());
    }

    #[test]
    fn region_minima_are_consistent_with_probe_min() {
        let (platform, store) = data();
        let frame = CampaignFrame::build(&platform, &store);
        for p in platform.probes() {
            let rm: Vec<(u16, f64)> = frame.region_minima(p.id).collect();
            assert!(rm.windows(2).all(|w| w[0].0 < w[1].0), "sorted by region");
            if let Some(min) = frame.probe_min(p.id) {
                let best = rm.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
                assert_eq!(min, best);
                let best_region = frame.best_region(p.id).unwrap();
                assert!(rm.iter().any(|&(r, v)| r == best_region && v == min));
            }
        }
    }

    #[test]
    fn empty_store_builds_an_empty_frame() {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 80,
                seed: 11,
            },
            ..PlatformConfig::default()
        });
        let store = ResultStore::new();
        let frame = CampaignFrame::build(&platform, &store);
        assert_eq!(frame.filtered_len(), 0);
        assert_eq!(frame.responded_len(), 0);
        assert_eq!(frame.probe_minima().count(), 0);
        assert_eq!(frame.country_minima().count(), 0);
        assert_eq!(frame.closest_dc(&platform, &store).count(), 0);
        assert!(frame.time_span(&store).is_none());
        assert_eq!(frame.by_probe(&store, ProbeId(0)).count(), 0);
    }
}
