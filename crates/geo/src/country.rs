//! Country and continent model.
//!
//! Every RTT sample in the paper is grouped by the probe's country or
//! continent, and the headline results (Fig. 4) are per-country minima.
//! The [`CountryAtlas`] is the single source of truth for that grouping.

use std::collections::HashMap;
use std::fmt;

use crate::atlas_data::COUNTRY_TABLE;
use crate::GeoPoint;

/// The continent grouping used throughout the paper's figures.
///
/// The paper groups Latin America (South + Central America and the
/// Caribbean) separately from North America (US/Canada), so we follow
/// that convention rather than the plain seven-continent model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    /// United States and Canada ("NA" in the figures).
    NorthAmerica,
    /// Mexico, Central & South America and the Caribbean ("LatAm").
    LatinAmerica,
    /// Europe, including Russia west of the Urals.
    Europe,
    /// Asia, including the Middle East.
    Asia,
    /// Africa.
    Africa,
    /// Australia, New Zealand and the Pacific islands.
    Oceania,
}

impl Continent {
    /// All continents in the display order used by the paper's figures.
    pub const ALL: [Continent; 6] = [
        Continent::NorthAmerica,
        Continent::Europe,
        Continent::Oceania,
        Continent::Asia,
        Continent::LatinAmerica,
        Continent::Africa,
    ];

    /// Position of this continent in [`Continent::ALL`] — a dense
    /// array index for per-continent accumulators, so grouping passes
    /// can use a fixed-size table instead of a hash map.
    pub fn slot(self) -> usize {
        match self {
            Continent::NorthAmerica => 0,
            Continent::Europe => 1,
            Continent::Oceania => 2,
            Continent::Asia => 3,
            Continent::LatinAmerica => 4,
            Continent::Africa => 5,
        }
    }

    /// Short label as used in the figures ("NA", "EU", ...).
    pub fn short(self) -> &'static str {
        match self {
            Continent::NorthAmerica => "NA",
            Continent::LatinAmerica => "LatAm",
            Continent::Europe => "EU",
            Continent::Asia => "Asia",
            Continent::Africa => "Africa",
            Continent::Oceania => "Oceania",
        }
    }

    /// The continents whose probes are additionally measured against
    /// datacenters on *this* continent, per the paper's methodology:
    /// "For probes in continents with low datacenter density, e.g.,
    /// Africa and South America, we also measured latencies to
    /// datacenters in adjacent continents, i.e., Europe and North
    /// America."
    pub fn adjacent_measurement_targets(self) -> &'static [Continent] {
        match self {
            Continent::Africa => &[Continent::Europe],
            Continent::LatinAmerica => &[Continent::NorthAmerica],
            _ => &[],
        }
    }
}

impl fmt::Display for Continent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short())
    }
}

/// Coarse infrastructure tier derived from the infrastructure-quality
/// index; used for reporting and for selecting model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InfraTier {
    /// Dense fibre, many IXPs, local cloud onramps (quality ≥ 0.75).
    Advanced,
    /// Good national backbone, some direct peering (0.5 ≤ q < 0.75).
    Developed,
    /// Sparse backbone, transit through regional hubs (0.3 ≤ q < 0.5).
    Emerging,
    /// Limited infrastructure, often satellite/one submarine landing (q < 0.3).
    Underserved,
}

impl InfraTier {
    /// Classify a quality index in `[0, 1]`.
    pub fn from_quality(q: f64) -> Self {
        if q >= 0.75 {
            InfraTier::Advanced
        } else if q >= 0.5 {
            InfraTier::Developed
        } else if q >= 0.3 {
            InfraTier::Emerging
        } else {
            InfraTier::Underserved
        }
    }
}

/// A country record in the atlas.
#[derive(Debug, Clone)]
pub struct Country {
    /// ISO 3166-1 alpha-2 code, upper case.
    pub code: &'static str,
    /// English short name.
    pub name: &'static str,
    /// Continent grouping used by the paper.
    pub continent: Continent,
    /// Population-weighted centroid (approximate).
    pub centroid: GeoPoint,
    /// Population in millions (2019-era estimates).
    pub population_m: f64,
    /// Infrastructure-quality index in `[0, 1]`: drives path inflation,
    /// access-network quality and probe density in the synthesiser.
    pub infra_quality: f64,
    /// Whether the country has a direct submarine-cable landing or is a
    /// well-connected landlocked country; countries without one pay an
    /// extra transit penalty to reach their regional hub.
    pub submarine_landing: bool,
}

impl Country {
    /// Coarse infrastructure tier for this country.
    pub fn tier(&self) -> InfraTier {
        InfraTier::from_quality(self.infra_quality)
    }
}

/// The global country atlas: an immutable table of ~170 countries with a
/// code index.
///
/// Construction is cheap (one allocation for the index); callers usually
/// build it once with [`CountryAtlas::global`] and share a reference.
#[derive(Debug, Clone)]
pub struct CountryAtlas {
    countries: Vec<Country>,
    by_code: HashMap<&'static str, usize>,
}

impl CountryAtlas {
    /// Builds the full global atlas from the embedded table.
    pub fn global() -> Self {
        let countries: Vec<Country> = COUNTRY_TABLE
            .iter()
            .map(|row| Country {
                code: row.0,
                name: row.1,
                continent: row.2,
                centroid: GeoPoint::new(row.3, row.4),
                population_m: row.5,
                infra_quality: row.6,
                submarine_landing: row.7,
            })
            .collect();
        let by_code = countries
            .iter()
            .enumerate()
            .map(|(i, c)| (c.code, i))
            .collect();
        Self { countries, by_code }
    }

    /// All countries, in table order (stable across runs).
    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    /// Looks up a country by ISO alpha-2 code (case-sensitive, upper case).
    pub fn by_code(&self, code: &str) -> Option<&Country> {
        self.by_code.get(code).map(|&i| &self.countries[i])
    }

    /// All countries on the given continent.
    pub fn on_continent(&self, continent: Continent) -> impl Iterator<Item = &Country> {
        self.countries
            .iter()
            .filter(move |c| c.continent == continent)
    }

    /// Number of countries in the atlas.
    pub fn len(&self) -> usize {
        self.countries.len()
    }

    /// Whether the atlas is empty (never true for [`CountryAtlas::global`]).
    pub fn is_empty(&self) -> bool {
        self.countries.is_empty()
    }

    /// Total world population covered, in millions.
    pub fn total_population_m(&self) -> f64 {
        self.countries.iter().map(|c| c.population_m).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atlas_covers_at_least_166_countries() {
        // The paper's probes span 166 countries; our atlas must cover at
        // least that many so the fleet synthesiser can match the spread.
        let atlas = CountryAtlas::global();
        assert!(atlas.len() >= 166, "only {} countries", atlas.len());
    }

    #[test]
    fn codes_are_unique_and_upper() {
        let atlas = CountryAtlas::global();
        let mut seen = std::collections::HashSet::new();
        for c in atlas.countries() {
            assert_eq!(c.code.len(), 2, "{}", c.code);
            assert_eq!(c.code, c.code.to_uppercase(), "{}", c.code);
            assert!(seen.insert(c.code), "duplicate code {}", c.code);
        }
    }

    #[test]
    fn quality_and_population_in_range() {
        let atlas = CountryAtlas::global();
        for c in atlas.countries() {
            assert!(
                (0.0..=1.0).contains(&c.infra_quality),
                "{}: quality {}",
                c.code,
                c.infra_quality
            );
            assert!(c.population_m > 0.0, "{}: population", c.code);
            assert!(c.centroid.lat.abs() <= 90.0);
        }
    }

    #[test]
    fn every_continent_represented() {
        let atlas = CountryAtlas::global();
        for cont in Continent::ALL {
            assert!(
                atlas.on_continent(cont).count() > 0,
                "no countries on {cont}"
            );
        }
    }

    #[test]
    fn world_population_is_plausible() {
        let atlas = CountryAtlas::global();
        let pop = atlas.total_population_m();
        assert!(pop > 6500.0 && pop < 8200.0, "world population {pop} M");
    }

    #[test]
    fn lookup_by_code_round_trips() {
        let atlas = CountryAtlas::global();
        for c in atlas.countries() {
            assert_eq!(atlas.by_code(c.code).unwrap().name, c.name);
        }
        assert!(atlas.by_code("XX").is_none());
    }

    #[test]
    fn tier_classification_boundaries() {
        assert_eq!(InfraTier::from_quality(0.9), InfraTier::Advanced);
        assert_eq!(InfraTier::from_quality(0.75), InfraTier::Advanced);
        assert_eq!(InfraTier::from_quality(0.6), InfraTier::Developed);
        assert_eq!(InfraTier::from_quality(0.4), InfraTier::Emerging);
        assert_eq!(InfraTier::from_quality(0.1), InfraTier::Underserved);
    }

    #[test]
    fn africa_mostly_lower_tier_than_europe() {
        // Sanity check on calibration data: the paper's Fig. 6 depends on
        // Africa being under-served relative to Europe.
        let atlas = CountryAtlas::global();
        let avg = |cont| {
            let v: Vec<f64> = atlas.on_continent(cont).map(|c| c.infra_quality).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg(Continent::Europe) > avg(Continent::Africa) + 0.2);
    }

    #[test]
    fn adjacency_follows_methodology() {
        assert_eq!(
            Continent::Africa.adjacent_measurement_targets(),
            &[Continent::Europe]
        );
        assert_eq!(
            Continent::LatinAmerica.adjacent_measurement_targets(),
            &[Continent::NorthAmerica]
        );
        assert!(Continent::Europe.adjacent_measurement_targets().is_empty());
    }
}
