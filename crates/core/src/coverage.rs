//! TEXT4: the abstract's population claim, computed.
//!
//! "We … show that latency reduction as motivation for edge is not as
//! persuasive as once believed; for most applications the cloud is
//! already 'close enough' for majority of the world's population."
//!
//! This analysis combines the campaign's per-country minima (Fig. 4)
//! with country populations and each application's latency envelope:
//! for every driving application, what share of the world's population
//! lives in a country whose cloud latency meets the application's
//! requirement?

use shears_apps::Application;

use crate::data::CampaignData;

/// Population coverage of one application.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Application name.
    pub name: &'static str,
    /// The latency the application needs (envelope centre), ms.
    pub required_ms: f64,
    /// Fraction of covered population whose country's best-case cloud
    /// RTT meets the requirement.
    pub population_covered: f64,
    /// Fraction of countries meeting it.
    pub countries_covered: f64,
}

/// The TEXT4 report.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// One row per application, sorted most-covered first.
    pub rows: Vec<CoverageRow>,
    /// Total population accounted for (millions) — countries with no
    /// responding probes are excluded from the denominator.
    pub population_measured_m: f64,
}

impl CoverageReport {
    /// Row lookup.
    pub fn application(&self, name: &str) -> Option<&CoverageRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Fraction of applications that are cloud-feasible for more than
    /// half the measured population — the abstract's "most
    /// applications" quantifier.
    pub fn majority_covered_fraction(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .filter(|r| r.population_covered > 0.5)
            .count() as f64
            / self.rows.len() as f64
    }
}

/// Computes population coverage from campaign data.
///
/// Coverage uses each country's best-case (minimum) RTT — the paper's
/// own optimistic framing in §4.2 — so it reads as "could the cloud
/// serve this country's population", not "does every household get it".
/// Minima come straight from the frame index (no Fig. 4 report build,
/// no string allocation per country).
pub fn population_coverage(data: &CampaignData<'_>, apps: &[Application]) -> CoverageReport {
    let atlas = data.platform().countries();
    let measured: Vec<(&str, f64, f64)> = data
        .frame()
        .country_minima()
        .filter_map(|(code, rtt)| atlas.by_code(code).map(|c| (c.code, c.population_m, rtt)))
        .collect();
    let total_pop: f64 = measured.iter().map(|(_, p, _)| p).sum();
    let n_countries = measured.len() as f64;
    let mut rows: Vec<CoverageRow> = apps
        .iter()
        .map(|app| {
            let need = app.latency_ms.center();
            let covered_pop: f64 = measured
                .iter()
                .filter(|(_, _, rtt)| *rtt <= need)
                .map(|(_, p, _)| p)
                .sum();
            let covered_countries = measured.iter().filter(|(_, _, rtt)| *rtt <= need).count();
            CoverageRow {
                name: app.name,
                required_ms: need,
                population_covered: if total_pop > 0.0 {
                    covered_pop / total_pop
                } else {
                    0.0
                },
                countries_covered: if n_countries > 0.0 {
                    covered_countries as f64 / n_countries
                } else {
                    0.0
                },
            }
        })
        .collect();
    rows.sort_by(|a, b| b.population_covered.total_cmp(&a.population_covered));
    CoverageReport {
        rows,
        population_measured_m: total_pop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_apps::catalog::driving_applications;
    use shears_atlas::{Campaign, CampaignConfig, FleetConfig, Platform, PlatformConfig};

    fn report() -> CoverageReport {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 500,
                seed: 101,
            },
            ..PlatformConfig::default()
        });
        let store = Campaign::new(
            &platform,
            CampaignConfig {
                rounds: 6,
                targets_per_probe: 3,
                adjacent_targets: 2,
                ..CampaignConfig::quick()
            },
        )
        .run_parallel(4)
        .unwrap();
        let data = crate::data::CampaignData::new(&platform, &store);
        population_coverage(&data, &driving_applications())
    }

    #[test]
    fn most_applications_are_cloud_covered_for_the_majority() {
        // The abstract's claim, as a number.
        let r = report();
        assert!(
            r.majority_covered_fraction() > 0.6,
            "only {} of apps cover a majority",
            r.majority_covered_fraction()
        );
        assert!(r.population_measured_m > 5000.0, "world mostly measured");
    }

    #[test]
    fn relaxed_apps_cover_everyone_strict_apps_almost_no_one() {
        let r = report();
        let smart_home = r.application("Smart home").unwrap();
        assert!(
            smart_home.population_covered > 0.95,
            "{}",
            smart_home.population_covered
        );
        let av = r.application("Autonomous vehicles").unwrap();
        assert!(av.population_covered < 0.3, "{}", av.population_covered);
        // Coverage is monotone in the requirement.
        for pair in r.rows.windows(2) {
            assert!(pair[0].population_covered >= pair[1].population_covered);
        }
    }

    #[test]
    fn country_and_population_coverage_diverge() {
        // Population concentrates in well-connected countries, so
        // population coverage should generally exceed country coverage
        // for mid-range requirements — the paper's framing depends on
        // this (people, not land area).
        let r = report();
        let gaming = r.application("Cloud gaming").unwrap();
        assert!(
            gaming.population_covered >= gaming.countries_covered - 0.05,
            "pop {} vs countries {}",
            gaming.population_covered,
            gaming.countries_covered
        );
    }
}
