//! Probe-fleet synthesis.
//!
//! Reproduces the *composition* of the RIPE Atlas fleet the paper used:
//! 3200+ probes across 166+ countries, strongly biased towards Europe
//! and North America (RIPE is the European registry; §4.2 notes EU+NA
//! hold about half the probes... more precisely, 80 % of EU+NA probes ≈
//! 50 % of all probes), wired-dominant access with a wireless minority,
//! and a small share of probes in privileged locations that the
//! analysis must filter out.

use shears_geo::sample::GeoSampler;
use shears_geo::{Continent, Country, CountryAtlas, InfraTier};
use shears_netsim::access::{AccessLink, AccessTechnology};

use crate::probe::{Probe, ProbeId};
use crate::tags::SYSTEM_TAGS;

/// Fleet synthesis parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Minimum fleet size (every country gets at least one probe, so the
    /// result can slightly exceed this).
    pub target_size: usize,
    /// Seed for placement, access assignment and tagging.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            target_size: 3200,
            seed: 0xA71A5,
        }
    }
}

/// Builds probe fleets.
#[derive(Debug)]
pub struct FleetBuilder {
    cfg: FleetConfig,
}

impl FleetBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(cfg: FleetConfig) -> Self {
        Self { cfg }
    }

    /// Deployment-density bias per continent, mirroring the real fleet.
    fn continent_bias(c: Continent) -> f64 {
        match c {
            Continent::Europe => 2.0,
            Continent::NorthAmerica => 1.5,
            Continent::Oceania => 1.2,
            Continent::Asia => 0.75,
            Continent::LatinAmerica => 0.80,
            Continent::Africa => 0.60,
        }
    }

    /// Relative probe weight of a country: volunteers scale sub-linearly
    /// with population and strongly with Internet development.
    fn country_weight(c: &Country) -> f64 {
        c.population_m.sqrt() * (0.1 + c.infra_quality).powi(3) * Self::continent_bias(c.continent)
    }

    /// Number of probes allocated to each country (same order as
    /// `atlas.countries()`); every country gets at least one.
    pub fn allocate(&self, atlas: &CountryAtlas) -> Vec<usize> {
        let weights: Vec<f64> = atlas.countries().iter().map(Self::country_weight).collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .map(|w| ((w / total * self.cfg.target_size as f64).round() as usize).max(1))
            .collect()
    }

    /// Access-technology mix per infrastructure tier, as cumulative
    /// probability rows over [`AccessTechnology::ALL`] order:
    /// `[Ethernet, Ftth, Cable, Dsl, Wifi, Lte, FiveG, GeoSatellite]`.
    fn access_mix(tier: InfraTier) -> [f64; 8] {
        match tier {
            InfraTier::Advanced => [0.18, 0.24, 0.20, 0.20, 0.08, 0.07, 0.02, 0.01],
            InfraTier::Developed => [0.12, 0.12, 0.18, 0.30, 0.10, 0.15, 0.01, 0.02],
            InfraTier::Emerging => [0.08, 0.06, 0.10, 0.32, 0.12, 0.28, 0.00, 0.04],
            InfraTier::Underserved => [0.05, 0.02, 0.05, 0.30, 0.15, 0.35, 0.00, 0.08],
        }
    }

    fn pick_access(tier: InfraTier, u: f64) -> AccessTechnology {
        let mix = Self::access_mix(tier);
        let mut acc = 0.0;
        for (i, p) in mix.iter().enumerate() {
            acc += p;
            if u < acc {
                return AccessTechnology::ALL[i];
            }
        }
        AccessTechnology::Dsl
    }

    /// Synthesises the fleet.
    pub fn build(&self, atlas: &CountryAtlas) -> Vec<Probe> {
        let counts = self.allocate(atlas);
        let mut sampler = GeoSampler::new(self.cfg.seed);
        let mut probes = Vec::new();
        for (country, &count) in atlas.countries().iter().zip(&counts) {
            let spread_km = (80.0 + country.population_m.sqrt() * 35.0).min(1000.0);
            for _ in 0..count {
                let id = ProbeId(probes.len() as u32);
                let location = sampler.in_disc_clustered(country.centroid, spread_km, 2.0);
                // ~4 % of probes sit in privileged locations (datacenter
                // shells, cloud VMs) — the share the paper filters out.
                let privileged = sampler.uniform() < 0.04;
                let tech = if privileged {
                    AccessTechnology::Ethernet
                } else {
                    Self::pick_access(country.tier(), sampler.uniform())
                };
                // Site quality: 1 (textbook) plus an exponential tail
                // that worsens with poor national infrastructure.
                let site_quality = if privileged {
                    1.0
                } else {
                    1.0 + (-(1.0 - sampler.uniform()).ln())
                        * (0.10 + (1.0 - country.infra_quality) * 0.30)
                };
                let mut tags: Vec<String> = SYSTEM_TAGS.iter().map(|s| s.to_string()).collect();
                if privileged {
                    tags.push("datacentre".into());
                    tags.push("ethernet".into());
                } else {
                    // ~70 % of hosts set a user tag describing their
                    // access; the rest stay untagged (and are invisible
                    // to the Fig. 7 wired/wireless split, as in reality).
                    if sampler.uniform() < 0.70 {
                        tags.push(tech.atlas_tag().to_string());
                        tags.push(if tech.is_wireless() {
                            "wireless".into()
                        } else {
                            "wired".into()
                        });
                    }
                    tags.push(if sampler.uniform() < 0.8 {
                        "home".into()
                    } else {
                        "office".into()
                    });
                }
                let stability = 0.75 + 0.24 * sampler.uniform();
                probes.push(Probe {
                    id,
                    location,
                    country: country.code.to_string(),
                    continent: country.continent,
                    access: AccessLink::new(tech, site_quality),
                    tags,
                    stability,
                });
            }
        }
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> (CountryAtlas, Vec<Probe>) {
        let atlas = CountryAtlas::global();
        let probes = FleetBuilder::new(FleetConfig {
            target_size: n,
            seed: 1,
        })
        .build(&atlas);
        (atlas, probes)
    }

    #[test]
    fn reaches_target_size_and_covers_all_countries() {
        let (atlas, probes) = fleet(3200);
        assert!(probes.len() >= 3200, "{}", probes.len());
        assert!(probes.len() < 3200 + atlas.len(), "{}", probes.len());
        let countries: std::collections::HashSet<&str> =
            probes.iter().map(|p| p.country.as_str()).collect();
        assert!(
            countries.len() >= 166,
            "fleet spans only {} countries",
            countries.len()
        );
    }

    #[test]
    fn eu_na_hold_majority_of_probes() {
        let (_, probes) = fleet(3200);
        let eu_na = probes
            .iter()
            .filter(|p| matches!(p.continent, Continent::Europe | Continent::NorthAmerica))
            .count();
        let share = eu_na as f64 / probes.len() as f64;
        assert!(
            (0.5..0.75).contains(&share),
            "EU+NA share {share} out of the calibration window"
        );
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let (_, probes) = fleet(500);
        for (i, p) in probes.iter().enumerate() {
            assert_eq!(p.id.index(), i);
        }
    }

    #[test]
    fn privileged_share_is_small_but_present() {
        let (_, probes) = fleet(3200);
        let privileged = probes.iter().filter(|p| p.is_privileged()).count();
        let share = privileged as f64 / probes.len() as f64;
        assert!((0.01..0.08).contains(&share), "privileged share {share}");
    }

    #[test]
    fn wireless_minority_exists_everywhere() {
        let (_, probes) = fleet(3200);
        let wireless = probes
            .iter()
            .filter(|p| p.access.tech.is_wireless())
            .count();
        let share = wireless as f64 / probes.len() as f64;
        assert!((0.10..0.40).contains(&share), "wireless share {share}");
    }

    #[test]
    fn tagged_subsets_are_nonempty_and_disjoint() {
        let (_, probes) = fleet(3200);
        let wired = probes.iter().filter(|p| p.is_wired_tagged()).count();
        let wireless = probes.iter().filter(|p| p.is_wireless_tagged()).count();
        assert!(wired > 100, "wired tagged {wired}");
        assert!(wireless > 50, "wireless tagged {wireless}");
        assert!(!probes
            .iter()
            .any(|p| p.is_wired_tagged() && p.is_wireless_tagged()));
    }

    #[test]
    fn deterministic_given_seed() {
        let atlas = CountryAtlas::global();
        let a = FleetBuilder::new(FleetConfig {
            target_size: 300,
            seed: 9,
        })
        .build(&atlas);
        let b = FleetBuilder::new(FleetConfig {
            target_size: 300,
            seed: 9,
        })
        .build(&atlas);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.location, y.location);
            assert_eq!(x.tags, y.tags);
        }
    }

    #[test]
    fn stability_in_range() {
        let (_, probes) = fleet(500);
        for p in &probes {
            assert!((0.75..=0.99).contains(&p.stability), "{}", p.stability);
            assert!(p.access.site_quality >= 1.0);
        }
    }

    #[test]
    fn advanced_tiers_are_more_wired() {
        let mix_adv = FleetBuilder::access_mix(InfraTier::Advanced);
        let mix_und = FleetBuilder::access_mix(InfraTier::Underserved);
        let wired = |m: &[f64; 8]| m[0] + m[1] + m[2] + m[3];
        assert!(wired(&mix_adv) > wired(&mix_und));
        for m in [mix_adv, mix_und] {
            let sum: f64 = m.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "mix sums to {sum}");
        }
    }
}
