//! §4.3 "Nature of last-mile access" — Figure 7.
//!
//! The paper compares probes tagged wired against probes tagged
//! wireless, with two hygiene steps reproduced here: the sets are
//! restricted to countries present in *both* (so geography cancels
//! out), and probes whose baseline latency is wildly out of line with
//! their country's average are dropped (mis-tagged or broken hosts).

use std::collections::{BTreeSet, HashMap};

use shears_atlas::ProbeId;
use shears_netsim::SimTime;

use crate::data::CampaignData;
use crate::kernels;

/// Multiple of the country-median baseline beyond which a probe is
/// considered out of line and excluded (the paper's "verify that their
/// baseline latency is in line with their country's average").
const BASELINE_OUTLIER_FACTOR: f64 = 3.0;

/// One time bin of the Fig. 7 series.
#[derive(Debug, Clone, Copy)]
pub struct LastMileBin {
    /// Bin start.
    pub at: SimTime,
    /// Median wired RTT in the bin, ms (`None` if no samples).
    pub wired_ms: Option<f64>,
    /// Median wireless RTT in the bin, ms.
    pub wireless_ms: Option<f64>,
}

/// Which Fig. 7 set a probe belongs to, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selected {
    No,
    Wired,
    Wireless,
}

/// The Fig. 7 comparison.
#[derive(Debug, Clone)]
pub struct LastMileReport {
    /// Time series over the campaign.
    pub bins: Vec<LastMileBin>,
    /// Campaign-wide median RTT of the wired set, ms.
    pub wired_median_ms: f64,
    /// Campaign-wide median RTT of the wireless set, ms.
    pub wireless_median_ms: f64,
    /// Wireless ÷ wired (paper: ≈2.5×).
    pub ratio: f64,
    /// Added latency, wireless − wired medians (paper cites 10–40 ms).
    pub added_ms: f64,
    /// Wired probes that survived matching + baseline checks.
    pub wired_probes: usize,
    /// Wireless probes that survived.
    pub wireless_probes: usize,
    /// Countries contributing to both sets.
    pub matched_countries: usize,
}

/// Runs the Fig. 7 analysis. `bin_width` controls the time-series
/// resolution (e.g. one day).
pub fn last_mile_report(data: &CampaignData<'_>, bin_width: SimTime) -> Option<LastMileReport> {
    assert!(bin_width.as_nanos() > 0, "bin width must be positive");
    let frame = data.frame();
    // 1. Tag-based selection (privileged exclusion via the frame mask).
    let probes = data.platform().probes();
    let wired_set: Vec<_> = probes
        .iter()
        .filter(|p| !frame.is_privileged(p.id) && p.is_wired_tagged())
        .collect();
    let wireless_set: Vec<_> = probes
        .iter()
        .filter(|p| !frame.is_privileged(p.id) && p.is_wireless_tagged())
        .collect();

    // 2. Country matching.
    let wired_countries: BTreeSet<&str> = wired_set.iter().map(|p| p.country.as_str()).collect();
    let wireless_countries: BTreeSet<&str> =
        wireless_set.iter().map(|p| p.country.as_str()).collect();
    let matched: BTreeSet<&str> = wired_countries
        .intersection(&wireless_countries)
        .copied()
        .collect();
    if matched.is_empty() {
        return None;
    }

    // 3. Baseline verification: a probe's baseline (campaign minimum to
    //    its closest DC) must be within BASELINE_OUTLIER_FACTOR of its
    //    country's median baseline among *wired* probes (the reference
    //    for what the country's network can do). Baselines come from
    //    the frame's precomputed per-probe minima.
    let mut wired_baselines_by_country: HashMap<&str, Vec<f64>> = HashMap::new();
    for p in &wired_set {
        if let Some(b) = frame.probe_min(p.id) {
            wired_baselines_by_country
                .entry(p.country.as_str())
                .or_default()
                .push(b);
        }
    }
    let country_median: HashMap<&str, f64> = wired_baselines_by_country
        .into_iter()
        .filter_map(|(c, v)| kernels::median(&v).map(|m| (c, m)))
        .collect();
    let in_line = |id: ProbeId, country: &str| -> bool {
        match (frame.probe_min(id), country_median.get(country)) {
            (Some(b), Some(&m)) => b <= m * BASELINE_OUTLIER_FACTOR,
            _ => false,
        }
    };
    let wired_ids: BTreeSet<ProbeId> = wired_set
        .iter()
        .filter(|p| matched.contains(p.country.as_str()) && in_line(p.id, &p.country))
        .map(|p| p.id)
        .collect();
    // Wireless probes are expected to sit above the wired baseline, so
    // their in-line check is against the factor-scaled wired median too
    // (a wireless probe 3× the wired median is plausible; 30× is not).
    let wireless_ids: BTreeSet<ProbeId> = wireless_set
        .iter()
        .filter(|p| {
            matched.contains(p.country.as_str())
                && match (
                    frame.probe_min(p.id),
                    country_median.get(p.country.as_str()),
                ) {
                    (Some(b), Some(&m)) => b <= m * BASELINE_OUTLIER_FACTOR * 3.0,
                    _ => false,
                }
        })
        .map(|p| p.id)
        .collect();
    if wired_ids.is_empty() || wireless_ids.is_empty() {
        return None;
    }

    // 4. Time-binned medians over every responded sample of a selected
    //    probe, to every one of its targets, in store order. The two sets
    //    become one class per probe, so the pass reads only columns.
    let mut class = vec![Selected::No; probes.len()];
    for &id in &wireless_ids {
        class[id.index()] = Selected::Wireless;
    }
    for &id in &wired_ids {
        class[id.index()] = Selected::Wired;
    }
    let store = data.store();
    let mut wired_all = Vec::new();
    let mut wireless_all = Vec::new();
    let mut bin_samples: HashMap<u64, (Vec<f64>, Vec<f64>)> = HashMap::new();
    let rows = store
        .probes()
        .iter()
        .zip(store.ats())
        .zip(store.min_ms())
        .zip(store.received());
    for (((probe, at), &min_ms), &received) in rows {
        let selected = class[probe.index()];
        if received == 0 || selected == Selected::No {
            continue;
        }
        let v = f64::from(min_ms);
        let bin = bin_samples
            .entry(at.as_nanos() / bin_width.as_nanos())
            .or_default();
        if selected == Selected::Wired {
            wired_all.push(v);
            bin.0.push(v);
        } else {
            wireless_all.push(v);
            bin.1.push(v);
        }
    }
    let mut bins: Vec<LastMileBin> = bin_samples
        .into_iter()
        .map(|(bin, (wired, wireless))| LastMileBin {
            at: SimTime::from_nanos(bin * bin_width.as_nanos()),
            // Selection-kernel medians: exact nearest-rank, no sort.
            wired_ms: kernels::median(&wired),
            wireless_ms: kernels::median(&wireless),
        })
        .collect();
    bins.sort_by_key(|b| b.at);

    let wired_median_ms = kernels::median(&wired_all)?;
    let wireless_median_ms = kernels::median(&wireless_all)?;
    Some(LastMileReport {
        bins,
        wired_median_ms,
        wireless_median_ms,
        ratio: wireless_median_ms / wired_median_ms,
        added_ms: wireless_median_ms - wired_median_ms,
        wired_probes: wired_ids.len(),
        wireless_probes: wireless_ids.len(),
        matched_countries: matched.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{Campaign, CampaignConfig, FleetConfig, Platform, PlatformConfig};

    fn campaign_data() -> (Platform, shears_atlas::ResultStore) {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 500,
                seed: 44,
            },
            ..PlatformConfig::default()
        });
        let store = Campaign::new(
            &platform,
            CampaignConfig {
                rounds: 8,
                targets_per_probe: 3,
                adjacent_targets: 2,
                ..CampaignConfig::quick()
            },
        )
        .run()
        .unwrap();
        (platform, store)
    }

    #[test]
    fn wireless_is_slower_by_the_papers_factor() {
        let (platform, store) = campaign_data();
        let data = CampaignData::new(&platform, &store);
        let report = last_mile_report(&data, SimTime::from_hours(6)).expect("both sets populated");
        assert!(report.ratio > 1.3, "ratio {} too small", report.ratio);
        assert!(
            report.ratio < 6.0,
            "ratio {} implausibly large",
            report.ratio
        );
        // Added latency in the 10–40 ms window the paper cites (we allow
        // some slack on both sides for a small run).
        assert!(
            (5.0..=80.0).contains(&report.added_ms),
            "added {} ms",
            report.added_ms
        );
        assert!(report.matched_countries >= 5);
        assert!(report.wired_probes > report.wireless_probes);
    }

    #[test]
    fn bins_cover_the_campaign_in_order() {
        let (platform, store) = campaign_data();
        let data = CampaignData::new(&platform, &store);
        let report = last_mile_report(&data, SimTime::from_hours(6)).unwrap();
        assert!(!report.bins.is_empty());
        assert!(report.bins.windows(2).all(|w| w[0].at < w[1].at));
        // Per-bin medians mostly preserve the ordering.
        let consistent = report
            .bins
            .iter()
            .filter_map(|b| Some((b.wired_ms?, b.wireless_ms?)))
            .filter(|(wd, wl)| wl > wd)
            .count();
        let total = report
            .bins
            .iter()
            .filter(|b| b.wired_ms.is_some() && b.wireless_ms.is_some())
            .count();
        assert!(
            consistent * 4 >= total * 3,
            "wireless slower in only {consistent}/{total} bins"
        );
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_panics() {
        let (platform, store) = campaign_data();
        let data = CampaignData::new(&platform, &store);
        let _ = last_mile_report(&data, SimTime::ZERO);
    }
}
