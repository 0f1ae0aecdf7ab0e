//! EXT6: per-provider comparison (the CloudCmp angle).
//!
//! §4.1 notes the providers differ structurally — private backbones
//! with wide ISP peering (Amazon, Google, Azure, Alibaba) versus public
//! Internet transit (Digital Ocean, Linode, Vultr) — and cites Li et
//! al.'s decade-old CloudCmp as the last multi-cloud comparison. This
//! study redoes that comparison on the simulated platform: for every
//! probe, the RTT floor to each provider's nearest region, aggregated
//! per provider and continent.

use std::collections::HashMap;

use shears_atlas::Platform;
use shears_cloud::Provider;
use shears_geo::Continent;

#[cfg(test)]
use crate::stats::Ecdf;
use crate::{floor_rtt_ms, kernels};

/// Per-provider, per-continent medians.
#[derive(Debug, Clone)]
pub struct ProviderRow {
    /// The provider.
    pub provider: Provider,
    /// Median floor RTT per continent (paper display order; `None`
    /// where no probe produced a value).
    pub median_ms: Vec<(Continent, Option<f64>)>,
    /// Global median over all probes.
    pub global_median_ms: Option<f64>,
}

impl ProviderRow {
    /// Median for one continent.
    pub fn continent(&self, c: Continent) -> Option<f64> {
        self.median_ms
            .iter()
            .find(|(cc, _)| *cc == c)
            .and_then(|(_, v)| *v)
    }
}

/// The EXT6 report.
#[derive(Debug, Clone)]
pub struct ProviderReport {
    /// One row per provider, in [`Provider::ALL`] order.
    pub rows: Vec<ProviderRow>,
}

impl ProviderReport {
    /// Row lookup.
    pub fn provider(&self, p: Provider) -> Option<&ProviderRow> {
        self.rows.iter().find(|r| r.provider == p)
    }
}

/// Footprint-controlled comparison: median floor RTT from distant
/// probes to each provider's region *in the same city*. Because every
/// provider is measured at the same location, any difference is purely
/// the backbone class (private peering with several hubs vs a single
/// transit attachment). Returns `(provider, median_ms)` for providers
/// present in `city`, sorted fastest first.
///
/// Probes closer than `min_distance_km` to the city are skipped: the
/// backbone difference only materialises on paths that actually cross
/// the core.
pub fn controlled_city_comparison(
    platform: &Platform,
    city: &str,
    min_distance_km: f64,
    max_probes: usize,
) -> Vec<(Provider, f64)> {
    let regions = platform.catalog().regions();
    // Each provider with a region in `city`, and the probes far enough
    // from it.
    let picks: Vec<_> = Provider::ALL
        .iter()
        .filter_map(|&provider| {
            let (idx, region) = regions
                .iter()
                .enumerate()
                .find(|(_, r)| r.provider == provider && r.city == city)?;
            let probes: Vec<_> = platform
                .unprivileged_probes()
                .filter(|p| p.location.distance_km(region.location) >= min_distance_km)
                .take(max_probes)
                .collect();
            Some((provider, platform.dc_node(idx), probes))
        })
        .collect();
    let table = platform.route_table_over(
        picks
            .iter()
            .flat_map(|(_, to, probes)| probes.iter().map(move |p| (p.id, *to))),
    );
    let mut out = Vec::new();
    for (provider, to, probes) in picks {
        let floors: Vec<f64> = probes
            .iter()
            .filter_map(|probe| floor_rtt_ms(platform, &table, probe, to))
            .collect();
        if let Some(median) = kernels::median(&floors) {
            out.push((provider, median));
        }
    }
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
    out
}

/// Computes the comparison over up to `max_probes` unprivileged probes.
pub fn provider_comparison(platform: &Platform, max_probes: usize) -> ProviderReport {
    let regions = platform.catalog().regions();
    // Each probe's nearest region of every provider, by geography.
    let picks: Vec<_> = platform
        .unprivileged_probes()
        .take(max_probes)
        .flat_map(|probe| {
            Provider::ALL.iter().filter_map(move |&provider| {
                let (idx, _) = regions
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.provider == provider)
                    .min_by(|a, b| {
                        probe
                            .location
                            .distance_km(a.1.location)
                            .total_cmp(&probe.location.distance_km(b.1.location))
                    })?;
                Some((probe, provider, platform.dc_node(idx)))
            })
        })
        .collect();
    let table = platform.route_table_over(picks.iter().map(|&(probe, _, to)| (probe.id, to)));
    let mut per_provider: HashMap<Provider, HashMap<Continent, Vec<f64>>> = HashMap::new();
    for (probe, provider, to) in picks {
        let Some(floor) = floor_rtt_ms(platform, &table, probe, to) else {
            continue;
        };
        per_provider
            .entry(provider)
            .or_default()
            .entry(probe.continent)
            .or_default()
            .push(floor);
    }
    let rows = Provider::ALL
        .iter()
        .map(|&provider| {
            let by_continent = per_provider.remove(&provider).unwrap_or_default();
            let mut all = Vec::new();
            let median_ms = Continent::ALL
                .iter()
                .map(|&c| {
                    let v = by_continent.get(&c).cloned().unwrap_or_default();
                    all.extend_from_slice(&v);
                    (c, kernels::median(&v))
                })
                .collect();
            ProviderRow {
                provider,
                median_ms,
                global_median_ms: kernels::median(&all),
            }
        })
        .collect();
    ProviderReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{FleetConfig, PlatformConfig};

    fn report() -> ProviderReport {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 300,
                seed: 83,
            },
            ..PlatformConfig::default()
        });
        provider_comparison(&platform, 150)
    }

    #[test]
    fn all_seven_providers_reported() {
        let r = report();
        assert_eq!(r.rows.len(), 7);
        for row in &r.rows {
            assert!(
                row.global_median_ms.is_some(),
                "{} has no data",
                row.provider
            );
        }
    }

    #[test]
    fn private_backbones_beat_public_transit_footprint_controlled() {
        // Frankfurt hosts regions of six providers, so comparing the
        // same city isolates the backbone class from footprint effects
        // (raw nearest-region medians are footprint-confounded: Vultr's
        // sixteen well-placed regions can beat Alibaba's private but
        // China-centric network).
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 300,
                seed: 83,
            },
            ..PlatformConfig::default()
        });
        let rows = controlled_city_comparison(&platform, "Frankfurt", 1500.0, 150);
        assert!(rows.len() >= 5, "Frankfurt is multi-provider: {rows:?}");
        let median_of = |private: bool| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|(p, _)| p.has_private_backbone() == private)
                .map(|(_, m)| *m)
                .collect();
            Ecdf::new(v).median().unwrap()
        };
        let private = median_of(true);
        let public = median_of(false);
        assert!(
            private < public,
            "same-city private {private} should beat public {public}"
        );
    }

    #[test]
    fn dense_providers_beat_sparse_ones_in_europe() {
        // Amazon/Google/Azure have many EU regions; Digital Ocean has
        // three cities. The EU median must reflect footprint density.
        let r = report();
        let amazon = r
            .provider(Provider::Amazon)
            .unwrap()
            .continent(Continent::Europe)
            .unwrap();
        let digital_ocean = r
            .provider(Provider::DigitalOcean)
            .unwrap()
            .continent(Continent::Europe)
            .unwrap();
        assert!(
            amazon <= digital_ocean + 5.0,
            "Amazon EU {amazon} vs Digital Ocean EU {digital_ocean}"
        );
    }

    #[test]
    fn africa_is_slowest_for_every_provider() {
        let r = report();
        for row in &r.rows {
            let af = row.continent(Continent::Africa);
            let eu = row.continent(Continent::Europe);
            if let (Some(af), Some(eu)) = (af, eu) {
                assert!(af > eu, "{}: Africa {af} <= EU {eu}", row.provider);
            }
        }
    }
}
