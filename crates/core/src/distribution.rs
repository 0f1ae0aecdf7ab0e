//! §4.3 "Where is the Delay?" — Figure 6.
//!
//! Unlike Fig. 5's per-probe minima, Fig. 6 plots *every* measurement
//! round (to each probe's closest datacenter), so congestion, jitter
//! and bufferbloat are all in the picture — "the reality of the cloud".

use shears_geo::Continent;

use crate::data::CampaignData;
use crate::kernels;
use crate::stats::{Ecdf, Summary};

/// Fig. 6: per-continent distributions of all rounds.
#[derive(Debug, Clone)]
pub struct AllSamplesCdfs {
    /// One ECDF per continent over every round's min-of-3-packets RTT.
    pub by_continent: Vec<(Continent, Ecdf)>,
}

impl AllSamplesCdfs {
    /// The ECDF of one continent.
    pub fn continent(&self, c: Continent) -> Option<&Ecdf> {
        self.by_continent
            .iter()
            .find(|(cc, _)| *cc == c)
            .map(|(_, e)| e)
    }

    /// Fraction of a continent's rounds at or below `ms`.
    pub fn fraction_within(&self, c: Continent, ms: f64) -> f64 {
        self.continent(c)
            .map(|e| e.fraction_at_or_below(ms))
            .unwrap_or(0.0)
    }

    /// Distribution summary per continent (for the report tables).
    /// Borrows each ECDF's already-sorted samples — no copy, no re-sort.
    pub fn summaries(&self) -> Vec<(Continent, Option<Summary>)> {
        self.by_continent
            .iter()
            .map(|(c, e)| (*c, Summary::of_ecdf(e)))
            .collect()
    }
}

/// Computes Fig. 6 over each probe's closest-DC rounds, streamed from
/// the frame's cached resolution (the historical path materialized the
/// full per-sample `Vec` on every call — twice per report, once here
/// and once in [`europe_tail_split`]).
pub fn all_samples_cdfs(data: &CampaignData<'_>) -> AllSamplesCdfs {
    // Dense Continent::slot-indexed grouping: no per-sample hashing.
    let mut per_continent: [Vec<f64>; 6] = Default::default();
    for (probe, rtt) in data.frame().closest_dc(data.platform(), data.store()) {
        per_continent[probe.continent.slot()].push(rtt);
    }
    AllSamplesCdfs {
        by_continent: Continent::ALL
            .iter()
            .zip(per_continent)
            .map(|(&c, v)| (c, Ecdf::new(v)))
            .collect(),
    }
}

/// The tail-provenance check of §4.3: within Europe, how much worse is
/// the long tail in low-infrastructure countries? Returns `(p95 of
/// advanced-tier EU probes, p95 of lower-tier EU probes)` — the paper's
/// finding is that "the primary contributors to the tail are probes in
/// eastern EU and countries without local or neighboring datacenters".
pub fn europe_tail_split(data: &CampaignData<'_>) -> Option<(f64, f64)> {
    let atlas = data.platform().countries();
    let mut advanced = Vec::new();
    let mut lower = Vec::new();
    for (probe, rtt) in data.frame().closest_dc(data.platform(), data.store()) {
        if probe.continent != Continent::Europe {
            continue;
        }
        let quality = atlas
            .by_code(&probe.country)
            .map(|c| c.infra_quality)
            .unwrap_or(0.5);
        if quality >= 0.8 {
            advanced.push(rtt);
        } else {
            lower.push(rtt);
        }
    }
    // Selection kernel: the exact nearest-rank p95 without sorting
    // either population (bit-identical to the former Ecdf path).
    let a = kernels::percentile(&advanced, 0.95)?;
    let l = kernels::percentile(&lower, 0.95)?;
    Some((a, l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{Campaign, CampaignConfig, FleetConfig, Platform, PlatformConfig};

    fn campaign_data() -> (Platform, shears_atlas::ResultStore) {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 400,
                seed: 33,
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
    fn fig6_shape_holds() {
        let (platform, store) = campaign_data();
        let data = CampaignData::new(&platform, &store);
        let cdfs = all_samples_cdfs(&data);
        // Paper: >75 % of NA/EU/OC rounds below the PL threshold. At
        // this test scale Oceania is dominated by its forced-minimum
        // Pacific-island probes (AU/NZ dominate only in paper-scale
        // fleets, where the full threshold holds — see EXPERIMENTS.md),
        // so its bound is relaxed here.
        for (c, bound) in [
            (Continent::NorthAmerica, 0.7),
            (Continent::Europe, 0.7),
            (Continent::Oceania, 0.55),
        ] {
            let f = cdfs.fraction_within(c, 100.0);
            assert!(f > bound, "{c}: only {f} below PL");
        }
        // The top quartile of NA/EU supports MTP.
        for c in [Continent::NorthAmerica, Continent::Europe] {
            let q25 = cdfs.continent(c).unwrap().quantile(0.25).unwrap();
            assert!(q25 < 20.0, "{c}: p25 {q25} ms above MTP");
        }
        // Africa is the worst continent.
        let af_med = cdfs.continent(Continent::Africa).unwrap().median().unwrap();
        for c in [
            Continent::NorthAmerica,
            Continent::Europe,
            Continent::Oceania,
        ] {
            let med = cdfs.continent(c).unwrap().median().unwrap();
            assert!(af_med > med, "{c} median {med} >= Africa {af_med}");
        }
    }

    #[test]
    fn full_distribution_is_slower_than_minima() {
        let (platform, store) = campaign_data();
        let data = CampaignData::new(&platform, &store);
        let all = all_samples_cdfs(&data);
        let mins = crate::proximity::probe_min_cdfs(&data);
        for c in Continent::ALL {
            let med_all = all.continent(c).and_then(Ecdf::median);
            let med_min = mins.continent(c).and_then(Ecdf::median);
            if let (Some(a), Some(m)) = (med_all, med_min) {
                assert!(a >= m, "{c}: all-rounds median {a} < minima median {m}");
            }
        }
    }

    #[test]
    fn europe_tail_comes_from_low_infra_countries() {
        let (platform, store) = campaign_data();
        let data = CampaignData::new(&platform, &store);
        let (advanced_p95, lower_p95) = europe_tail_split(&data).unwrap();
        assert!(
            lower_p95 > advanced_p95,
            "lower-tier EU p95 {lower_p95} should exceed advanced {advanced_p95}"
        );
    }

    #[test]
    fn summaries_cover_all_continents() {
        let (platform, store) = campaign_data();
        let data = CampaignData::new(&platform, &store);
        let summaries = all_samples_cdfs(&data).summaries();
        assert_eq!(summaries.len(), 6);
        assert!(summaries.iter().all(|(_, s)| s.is_some()));
    }
}
