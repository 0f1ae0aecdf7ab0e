//! Catalogue queries over the embedded region table.

use std::collections::BTreeSet;

use shears_geo::{Continent, CountryAtlas, GeoPoint};

use crate::catalog_data::REGION_TABLE;
use crate::{Provider, Region};

/// The region catalogue: the study's 101 measurement end-points.
#[derive(Debug, Clone)]
pub struct Catalog {
    regions: Vec<Region>,
}

impl Catalog {
    /// The full 2019/2020-era catalogue (101 regions).
    pub fn global() -> Self {
        let regions = REGION_TABLE
            .iter()
            .map(
                |&(provider, code, city, country, lat, lon, launched)| Region {
                    provider,
                    code,
                    city,
                    country,
                    location: GeoPoint::new(lat, lon),
                    launched,
                },
            )
            .collect();
        Self { regions }
    }

    /// All regions, in table order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Regions operated by `provider`.
    pub fn by_provider(&self, provider: Provider) -> impl Iterator<Item = &Region> {
        self.regions.iter().filter(move |r| r.provider == provider)
    }

    /// Regions on the given continent (country membership resolved
    /// through the country atlas).
    pub fn on_continent<'a>(
        &'a self,
        continent: Continent,
        atlas: &'a CountryAtlas,
    ) -> impl Iterator<Item = &'a Region> {
        self.regions.iter().filter(move |r| {
            atlas
                .by_code(r.country)
                .map(|c| c.continent == continent)
                .unwrap_or(false)
        })
    }

    /// The set of countries hosting at least one region.
    pub fn countries(&self) -> BTreeSet<&'static str> {
        self.regions.iter().map(|r| r.country).collect()
    }

    /// A new catalogue restricted to regions launched in or before
    /// `year`, optionally restricted to one provider. This is the
    /// expansion-timeline query behind the EXT3 ablation ("Amazon's
    /// cloud has increased from 3 to 22 datacenter locations").
    pub fn snapshot(&self, year: u16, provider: Option<Provider>) -> Catalog {
        Catalog {
            regions: self
                .regions
                .iter()
                .filter(|r| r.launched <= year && provider.is_none_or(|p| r.provider == p))
                .cloned()
                .collect(),
        }
    }

    /// The `n` regions nearest to `point`, closest first.
    pub fn nearest(&self, point: GeoPoint, n: usize) -> Vec<&Region> {
        let mut v: Vec<&Region> = self.regions.iter().collect();
        v.sort_by(|a, b| {
            point
                .distance_km(a.location)
                .total_cmp(&point.distance_km(b.location))
        });
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_101_regions_in_21_countries() {
        let c = Catalog::global();
        assert_eq!(c.regions().len(), 101, "paper: 101 cloud regions");
        assert_eq!(c.countries().len(), 21, "paper: 21 countries");
    }

    #[test]
    fn per_provider_counts_are_plausible() {
        let c = Catalog::global();
        let count = |p| c.by_provider(p).count();
        assert_eq!(count(Provider::Amazon), 20);
        assert_eq!(count(Provider::Google), 18);
        assert_eq!(count(Provider::Azure), 15);
        assert_eq!(count(Provider::DigitalOcean), 8);
        assert_eq!(count(Provider::Linode), 10);
        assert_eq!(count(Provider::Alibaba), 14);
        assert_eq!(count(Provider::Vultr), 16);
        let total: usize = Provider::ALL.iter().map(|&p| count(p)).sum();
        assert_eq!(total, 101);
    }

    #[test]
    fn region_codes_unique_per_provider() {
        let c = Catalog::global();
        let mut seen = std::collections::HashSet::new();
        for r in c.regions() {
            assert!(
                seen.insert((r.provider, r.code)),
                "duplicate {} {}",
                r.provider,
                r.code
            );
        }
    }

    #[test]
    fn all_region_countries_exist_in_atlas() {
        let atlas = CountryAtlas::global();
        let c = Catalog::global();
        for r in c.regions() {
            assert!(
                atlas.by_code(r.country).is_some(),
                "unknown country {} for {}",
                r.country,
                r.label()
            );
        }
    }

    #[test]
    fn exactly_one_african_region() {
        // §4.3: Africa "severely under-served … only one operating region".
        let atlas = CountryAtlas::global();
        let c = Catalog::global();
        let african: Vec<_> = c.on_continent(Continent::Africa, &atlas).collect();
        assert_eq!(african.len(), 1, "{african:?}");
        assert_eq!(african[0].country, "ZA");
    }

    #[test]
    fn aws_expansion_3_in_2010_to_20_plus_by_2020() {
        // §4: "Amazon's cloud has increased from 3 to 22 datacenter
        // locations" — our catalogue carries compute regions only, so
        // 2010 holds the three pre-2010 launches plus Singapore (Apr
        // 2010) and 2020 holds all twenty.
        let c = Catalog::global();
        let aws_2009 = c.snapshot(2009, Some(Provider::Amazon));
        assert_eq!(aws_2009.regions().len(), 3);
        let aws_2020 = c.snapshot(2020, Some(Provider::Amazon));
        assert_eq!(aws_2020.regions().len(), 20);
    }

    #[test]
    fn snapshot_is_monotone_in_year() {
        let c = Catalog::global();
        let mut prev = 0;
        for year in 2003..=2020 {
            let n = c.snapshot(year, None).regions().len();
            assert!(n >= prev, "{year}: {n} < {prev}");
            prev = n;
        }
        assert_eq!(prev, 101);
    }

    #[test]
    fn nearest_returns_sorted_prefix() {
        let c = Catalog::global();
        let munich = GeoPoint::new(48.1, 11.6);
        let top3 = c.nearest(munich, 3);
        assert_eq!(top3.len(), 3);
        // Frankfurt hosts multiple providers; all three nearest should be
        // Frankfurt datacenters (~300 km from Munich).
        for r in &top3 {
            assert_eq!(r.city, "Frankfurt", "{}", r.label());
        }
    }

    #[test]
    fn continental_filters_cover_all_regions() {
        let atlas = CountryAtlas::global();
        let c = Catalog::global();
        let total: usize = Continent::ALL
            .iter()
            .map(|&cont| c.on_continent(cont, &atlas).count())
            .sum();
        assert_eq!(total, 101);
    }
}
