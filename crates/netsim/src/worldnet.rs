//! Global topology synthesis.
//!
//! Builds the simulated Internet the measurement campaign runs over:
//!
//! 1. a fixed backbone of ~30 interconnection hubs (the major IXP /
//!    cable-landing cities) wired with terrestrial and submarine links,
//! 2. one national backbone PoP per country, attached to its nearest
//!    hubs with inflation derived from the country's infrastructure
//!    quality (poor infrastructure ⇒ longer, more congested detours),
//! 3. one or more metro PoPs per country (population-scaled),
//! 4. attachment points for probes, datacenters and edge sites.
//!
//! The structure — not per-pair magic numbers — is what reproduces the
//! paper's findings: a probe in a country without a datacenter can only
//! reach the cloud through its national PoP and regional hub, so its
//! RTT automatically reflects the geography and quality of that detour.

use std::collections::HashMap;

use shears_geo::sample::GeoSampler;
use shears_geo::{Country, CountryAtlas, GeoPoint, SpatialGrid};

use crate::access::AccessLink;
use crate::topology::{LinkClass, NodeId, NodeKind, Topology};

/// A backbone hub city.
struct Hub {
    name: &'static str,
    country: &'static str,
    lat: f64,
    lon: f64,
}

/// The interconnection hubs. Indices are referenced by `HUB_LINKS`.
const HUBS: &[Hub] = &[
    // North America (0-6)
    Hub {
        name: "Ashburn",
        country: "US",
        lat: 39.0,
        lon: -77.5,
    },
    Hub {
        name: "New York",
        country: "US",
        lat: 40.7,
        lon: -74.0,
    },
    Hub {
        name: "Chicago",
        country: "US",
        lat: 41.9,
        lon: -87.6,
    },
    Hub {
        name: "Dallas",
        country: "US",
        lat: 32.8,
        lon: -96.8,
    },
    Hub {
        name: "Los Angeles",
        country: "US",
        lat: 34.1,
        lon: -118.2,
    },
    Hub {
        name: "Seattle",
        country: "US",
        lat: 47.6,
        lon: -122.3,
    },
    Hub {
        name: "Miami",
        country: "US",
        lat: 25.8,
        lon: -80.2,
    },
    // Latin America (7-10)
    Hub {
        name: "Mexico City",
        country: "MX",
        lat: 19.4,
        lon: -99.1,
    },
    Hub {
        name: "Sao Paulo",
        country: "BR",
        lat: -23.5,
        lon: -46.6,
    },
    Hub {
        name: "Buenos Aires",
        country: "AR",
        lat: -34.6,
        lon: -58.4,
    },
    Hub {
        name: "Santiago",
        country: "CL",
        lat: -33.4,
        lon: -70.6,
    },
    // Europe (11-18)
    Hub {
        name: "London",
        country: "GB",
        lat: 51.5,
        lon: -0.1,
    },
    Hub {
        name: "Amsterdam",
        country: "NL",
        lat: 52.4,
        lon: 4.9,
    },
    Hub {
        name: "Frankfurt",
        country: "DE",
        lat: 50.1,
        lon: 8.7,
    },
    Hub {
        name: "Paris",
        country: "FR",
        lat: 48.9,
        lon: 2.4,
    },
    Hub {
        name: "Madrid",
        country: "ES",
        lat: 40.4,
        lon: -3.7,
    },
    Hub {
        name: "Marseille",
        country: "FR",
        lat: 43.3,
        lon: 5.4,
    },
    Hub {
        name: "Stockholm",
        country: "SE",
        lat: 59.3,
        lon: 18.1,
    },
    Hub {
        name: "Warsaw",
        country: "PL",
        lat: 52.2,
        lon: 21.0,
    },
    // Middle East / Africa (19-23)
    Hub {
        name: "Dubai",
        country: "AE",
        lat: 25.2,
        lon: 55.3,
    },
    Hub {
        name: "Cairo",
        country: "EG",
        lat: 30.0,
        lon: 31.2,
    },
    Hub {
        name: "Johannesburg",
        country: "ZA",
        lat: -26.2,
        lon: 28.0,
    },
    Hub {
        name: "Nairobi",
        country: "KE",
        lat: -1.3,
        lon: 36.8,
    },
    Hub {
        name: "Lagos",
        country: "NG",
        lat: 6.5,
        lon: 3.4,
    },
    // Asia (24-30)
    Hub {
        name: "Mumbai",
        country: "IN",
        lat: 19.1,
        lon: 72.9,
    },
    Hub {
        name: "Singapore",
        country: "SG",
        lat: 1.35,
        lon: 103.8,
    },
    Hub {
        name: "Hong Kong",
        country: "HK",
        lat: 22.3,
        lon: 114.2,
    },
    Hub {
        name: "Tokyo",
        country: "JP",
        lat: 35.7,
        lon: 139.7,
    },
    Hub {
        name: "Seoul",
        country: "KR",
        lat: 37.6,
        lon: 127.0,
    },
    Hub {
        name: "Moscow",
        country: "RU",
        lat: 55.8,
        lon: 37.6,
    },
    Hub {
        name: "Chennai",
        country: "IN",
        lat: 13.1,
        lon: 80.3,
    },
    // Oceania (31-32)
    Hub {
        name: "Sydney",
        country: "AU",
        lat: -33.9,
        lon: 151.2,
    },
    Hub {
        name: "Auckland",
        country: "NZ",
        lat: -36.8,
        lon: 174.8,
    },
    // Additional European IXP hubs (33-34): MIX Milan and VIX Vienna,
    // both top-ten European exchanges; without them Italy and central
    // Europe detour via Marseille/Warsaw, which real paths do not.
    Hub {
        name: "Milan",
        country: "IT",
        lat: 45.5,
        lon: 9.2,
    },
    Hub {
        name: "Vienna",
        country: "AT",
        lat: 48.2,
        lon: 16.4,
    },
];

/// Hub adjacency: (a, b, submarine?, inflation). Terrestrial links model
/// long-haul fibre; submarine entries follow the major cable systems
/// (transatlantic, transpacific, Europe–Asia via Suez, SAm–NAm, etc.).
const HUB_LINKS: &[(usize, usize, bool, f64)] = &[
    // US mesh
    (0, 1, false, 1.15),
    (0, 2, false, 1.2),
    (0, 6, false, 1.2),
    (1, 2, false, 1.15),
    (2, 3, false, 1.15),
    (2, 5, false, 1.25),
    (3, 4, false, 1.2),
    (3, 6, false, 1.2),
    (4, 5, false, 1.15),
    // Canada rides the US mesh via country attachment.
    // Mexico / LatAm
    (3, 7, false, 1.25),
    (6, 8, true, 1.25),
    (6, 7, false, 1.3),
    (8, 9, false, 1.25),
    (9, 10, false, 1.3),
    (10, 8, false, 1.4),
    (6, 10, true, 1.35),
    // Transatlantic
    (1, 11, true, 1.1),
    (0, 14, true, 1.15),
    (1, 12, true, 1.12),
    // Europe mesh
    (11, 12, false, 1.1),
    (11, 14, false, 1.1),
    (12, 13, false, 1.1),
    (13, 14, false, 1.1),
    (14, 15, false, 1.15),
    (15, 16, false, 1.2),
    (14, 16, false, 1.15),
    (13, 17, false, 1.2),
    (13, 18, false, 1.15),
    (17, 18, false, 1.25),
    (18, 29, false, 1.3),
    (17, 29, false, 1.35),
    // Europe–Middle East–Asia (Suez route)
    (16, 20, true, 1.2),
    (20, 19, true, 1.25),
    (19, 24, true, 1.2),
    (24, 30, false, 1.3),
    (30, 25, true, 1.2),
    (24, 25, true, 1.25),
    (25, 26, true, 1.15),
    (26, 27, true, 1.2),
    (26, 28, true, 1.25),
    (27, 28, true, 1.15),
    (27, 4, true, 1.15),
    (27, 5, true, 1.15),
    (26, 25, true, 1.15),
    (29, 27, false, 1.6),
    // Africa: coastal cables + thin inland
    (16, 23, true, 1.35),
    (20, 22, true, 1.4),
    (22, 21, true, 1.35),
    (23, 21, true, 1.45),
    (19, 22, true, 1.35),
    (21, 31, true, 1.5),
    // South Atlantic: the SACS/SAIL systems (Fortaleza-side reached via
    // the Sao Paulo hub) give South America its only non-NA corridor.
    (8, 23, true, 1.5),
    // Oceania
    (25, 31, true, 1.25),
    (31, 32, true, 1.15),
    (4, 31, true, 1.2),
    (32, 4, true, 1.25),
    // Milan / Vienna meshing into the European core
    (33, 16, false, 1.15),
    (33, 13, false, 1.15),
    (33, 34, false, 1.2),
    (34, 13, false, 1.15),
    (34, 18, false, 1.2),
    (33, 14, false, 1.2),
];

/// Configuration for world synthesis.
#[derive(Debug, Clone)]
pub struct WorldNetConfig {
    /// Seed for metro placement.
    pub seed: u64,
    /// How many hubs each national PoP attaches to (≥ 1; 2 gives path
    /// diversity and is the default).
    pub hub_attachments: usize,
    /// How many hubs a private-backbone datacenter peers with directly.
    pub private_peering_hubs: usize,
}

impl Default for WorldNetConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EA5,
            hub_attachments: 2,
            private_peering_hubs: 4,
        }
    }
}

/// The built world: topology plus attachment indices.
pub struct WorldNet {
    topo: Topology,
    hub_nodes: Vec<NodeId>,
    national_pop: HashMap<String, NodeId>,
    metro_pops: HashMap<String, Vec<NodeId>>,
    metro_grid: SpatialGrid<NodeId>,
}

impl WorldNet {
    /// Builds the hub backbone, national PoPs and metro PoPs for every
    /// country in `atlas`.
    pub fn build(atlas: &CountryAtlas, cfg: &WorldNetConfig) -> Self {
        assert!(cfg.hub_attachments >= 1, "need at least one hub attachment");
        let mut topo = Topology::new();
        let mut sampler = GeoSampler::new(cfg.seed);

        // 1. Hubs.
        let hub_nodes: Vec<NodeId> = HUBS
            .iter()
            .map(|h| topo.add_node(NodeKind::IxpHub, GeoPoint::new(h.lat, h.lon), h.country))
            .collect();
        let mut hub_grid: SpatialGrid<usize> = SpatialGrid::new(10.0);
        for (i, h) in HUBS.iter().enumerate() {
            hub_grid.insert(GeoPoint::new(h.lat, h.lon), i);
        }
        for &(a, b, submarine, inflation) in HUB_LINKS {
            let class = if submarine {
                LinkClass::SubmarineCable
            } else {
                LinkClass::TerrestrialBackbone
            };
            topo.connect(hub_nodes[a], hub_nodes[b], class, inflation);
        }

        // 2. National PoPs + metros.
        let mut national_pop = HashMap::new();
        let mut metro_pops: HashMap<String, Vec<NodeId>> = HashMap::new();
        let mut metro_grid: SpatialGrid<NodeId> = SpatialGrid::new(5.0);
        for country in atlas.countries() {
            let pop_node = topo.add_node(NodeKind::BackbonePop, country.centroid, country.code);
            national_pop.insert(country.code.to_string(), pop_node);

            // Attach to nearest hubs with quality-derived inflation.
            let mut hubs_by_dist = hub_grid.within(country.centroid, 25_000.0);
            hubs_by_dist.truncate(cfg.hub_attachments);
            for (dist_km, entry) in hubs_by_dist {
                let class = if dist_km > 3000.0 && country.submarine_landing {
                    LinkClass::SubmarineCable
                } else {
                    LinkClass::TerrestrialBackbone
                };
                let inflation = Self::national_inflation(country);
                topo.connect(pop_node, hub_nodes[entry.id], class, inflation);
            }

            // Metro PoPs around the population centre.
            let n_metros = Self::metro_count(country);
            let spread_km = Self::metro_spread_km(country);
            let metros = metro_pops.entry(country.code.to_string()).or_default();
            for m in 0..n_metros {
                let loc = if m == 0 {
                    country.centroid // the primary metro sits at the centroid
                } else {
                    sampler.in_disc_clustered(country.centroid, spread_km, 1.5)
                };
                let metro = topo.add_node(NodeKind::MetroPop, loc, country.code);
                topo.connect(
                    metro,
                    pop_node,
                    LinkClass::MetroAggregation,
                    1.1 + (1.0 - country.infra_quality) * 0.6,
                );
                metros.push(metro);
                metro_grid.insert(loc, metro);
            }
        }

        Self {
            topo,
            hub_nodes,
            national_pop,
            metro_pops,
            metro_grid,
        }
    }

    /// Inflation of a country's uplink to its hubs: good infrastructure
    /// routes nearly straight (1.15), poor infrastructure detours badly
    /// (up to ~2.5, worse without a submarine landing). These two
    /// coefficients are the main calibration knobs for Fig. 4/6 tails.
    fn national_inflation(country: &Country) -> f64 {
        let mut inflation = 1.15 + (1.0 - country.infra_quality) * 1.1;
        if !country.submarine_landing {
            inflation += 0.35; // transit through a neighbour first
        }
        inflation
    }

    fn metro_count(country: &Country) -> usize {
        if country.population_m > 100.0 {
            4
        } else if country.population_m > 30.0 {
            3
        } else if country.population_m > 8.0 {
            2
        } else {
            1
        }
    }

    fn metro_spread_km(country: &Country) -> f64 {
        // Rough landmass proxy: population and tier correlate with how
        // far secondary metros sit from the primary one.
        (150.0 + country.population_m.sqrt() * 40.0).min(1200.0)
    }

    /// Read-only view of the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The hub node ids, in the fixed hub-table order.
    pub fn hubs(&self) -> &[NodeId] {
        &self.hub_nodes
    }

    /// Hub descriptions: `(city name, country code, node id)`, in hub
    /// table order. Useful for reports and path pretty-printing.
    pub fn hub_info(&self) -> Vec<(&'static str, &'static str, NodeId)> {
        HUBS.iter()
            .zip(&self.hub_nodes)
            .map(|(h, &id)| (h.name, h.country, id))
            .collect()
    }

    /// Metro PoPs of a country (empty slice if the code is unknown).
    pub fn metros(&self, country_code: &str) -> &[NodeId] {
        self.metro_pops
            .get(country_code)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The national backbone PoP of a country.
    pub fn national_pop(&self, country_code: &str) -> Option<NodeId> {
        self.national_pop.get(country_code).copied()
    }

    /// The metro PoP nearest to a location (any country).
    pub fn nearest_metro(&self, location: GeoPoint) -> Option<NodeId> {
        self.metro_grid.nearest(location).map(|e| e.id)
    }

    /// Attaches a probe host at `location`: probe → access router →
    /// nearest metro PoP *of the probe's own country* (falling back to
    /// the nearest metro anywhere for countries missing from the atlas).
    /// Returns the probe's node id.
    pub fn attach_probe(
        &mut self,
        location: GeoPoint,
        country_code: &str,
        access: AccessLink,
    ) -> NodeId {
        let probe = self
            .topo
            .add_node(NodeKind::ProbeHost, location, country_code);
        let router = self
            .topo
            .add_node(NodeKind::AccessRouter, location, country_code);
        self.topo
            .connect_with_delay(probe, router, LinkClass::Access, access.floor_one_way_ms());
        let metro = self
            .metro_pops
            .get(country_code)
            .and_then(|metros| {
                metros.iter().copied().min_by(|&a, &b| {
                    location
                        .distance_km(self.topo.node(a).location)
                        .total_cmp(&location.distance_km(self.topo.node(b).location))
                })
            })
            .or_else(|| self.nearest_metro(location))
            .expect("world has at least one metro PoP");
        // Middle-mile: metro aggregation with mild quality-independent
        // inflation (intra-city paths are short anyway).
        self.topo
            .connect(router, metro, LinkClass::MetroAggregation, 1.2);
        probe
    }

    /// Attaches a datacenter at `location`. Private-backbone providers
    /// additionally peer directly with the nearest
    /// [`WorldNetConfig::private_peering_hubs`] hubs over
    /// [`LinkClass::PrivateBackbone`] links — the modelling of §4.1's
    /// "private, large bandwidth, low latency network backbones with
    /// wide-scale ISP peering".
    pub fn attach_datacenter(
        &mut self,
        location: GeoPoint,
        country_code: &str,
        private_backbone: bool,
        cfg: &WorldNetConfig,
    ) -> NodeId {
        let dc = self
            .topo
            .add_node(NodeKind::Datacenter, location, country_code);
        let metro = self
            .metro_pops
            .get(country_code)
            .and_then(|metros| {
                metros.iter().copied().min_by(|&a, &b| {
                    location
                        .distance_km(self.topo.node(a).location)
                        .total_cmp(&location.distance_km(self.topo.node(b).location))
                })
            })
            .or_else(|| self.nearest_metro(location));
        if let Some(metro) = metro {
            self.topo
                .connect(dc, metro, LinkClass::DatacenterFabric, 1.1);
        }
        // Sort hubs by distance from the DC.
        let mut hubs: Vec<(f64, usize, NodeId)> = self
            .hub_nodes
            .iter()
            .enumerate()
            .map(|(i, &h)| (location.distance_km(self.topo.node(h).location), i, h))
            .collect();
        hubs.sort_by(|a, b| a.0.total_cmp(&b.0));
        if private_backbone {
            // §4.1: "private, large bandwidth, low latency network
            // backbones with wide-scale ISP peering": the provider's
            // network is entered at the major hub nearest the *user*
            // and rides the private backbone from there, which a link
            // from every hub to the DC models exactly (stub routing
            // keeps the DC from becoming public transit). The nearest
            // `private_peering_hubs` get the densest, straightest fibre;
            // long-haul private spans still beat public transit but
            // carry slightly more inflation.
            for (rank, &(_, _, hub)) in hubs.iter().enumerate() {
                let inflation = if rank < cfg.private_peering_hubs {
                    1.1
                } else {
                    1.18
                };
                self.topo
                    .connect(dc, hub, LinkClass::PrivateBackbone, inflation);
            }
        } else {
            // Public-transit providers attach at the single nearest hub.
            let (_, _, hub) = hubs[0];
            self.topo
                .connect(dc, hub, LinkClass::TerrestrialBackbone, 1.25);
        }
        dc
    }

    /// Attaches an edge-computing site co-located with the given metro
    /// PoP (extension experiment EXT1: edge at the basestation/metro).
    pub fn attach_edge_site(&mut self, metro: NodeId) -> NodeId {
        let (loc, country) = {
            let n = self.topo.node(metro);
            (n.location, n.country.clone())
        };
        let edge = self.topo.add_node(NodeKind::EdgeSite, loc, &country);
        self.topo
            .connect_with_delay(edge, metro, LinkClass::DatacenterFabric, 0.2);
        edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessTechnology;
    use crate::ping::{PingConfig, PingProber};
    use crate::queue::DiurnalLoad;
    use crate::routing::{RouteTable, Router};
    use crate::stochastic::SimRng;
    use crate::time::SimTime;

    fn world() -> (CountryAtlas, WorldNet) {
        let atlas = CountryAtlas::global();
        let net = WorldNet::build(&atlas, &WorldNetConfig::default());
        (atlas, net)
    }

    #[test]
    fn hub_indices_are_in_bounds() {
        for &(a, b, _, infl) in HUB_LINKS {
            assert!(a < HUBS.len() && b < HUBS.len(), "({a},{b})");
            assert!(a != b);
            assert!(infl >= 1.0);
        }
    }

    #[test]
    fn every_country_has_pop_and_metro() {
        let (atlas, net) = world();
        for c in atlas.countries() {
            assert!(net.national_pop(c.code).is_some(), "{}", c.code);
            assert!(!net.metros(c.code).is_empty(), "{}", c.code);
        }
    }

    #[test]
    fn backbone_is_fully_connected() {
        let (atlas, net) = world();
        let mut router = Router::new(net.topology());
        let de = net.national_pop("DE").unwrap();
        for c in atlas.countries() {
            let pop = net.national_pop(c.code).unwrap();
            assert!(router.path(de, pop).is_some(), "no path DE -> {}", c.code);
        }
    }

    #[test]
    fn populous_countries_get_more_metros() {
        let (_, net) = world();
        assert!(net.metros("US").len() >= 4);
        assert!(net.metros("IS").len() == 1);
        assert!(net.metros("US").len() > net.metros("EE").len());
    }

    #[test]
    fn probe_attach_and_ping_local_dc() {
        let (atlas, mut net) = world();
        let de = atlas.by_code("DE").unwrap();
        let cfg = WorldNetConfig::default();
        let dc = net.attach_datacenter(GeoPoint::new(50.1, 8.7), "DE", true, &cfg);
        let probe = net.attach_probe(
            GeoPoint::new(48.1, 11.6),
            "DE",
            AccessLink::new(AccessTechnology::Ftth, 1.0),
        );
        let _ = de;
        let table = RouteTable::for_pair(net.topology(), probe, dc);
        let mut prober = PingProber::with_table(net.topology(), &table);
        let mut rng = SimRng::new(9);
        let out = prober
            .ping(
                probe,
                dc,
                Some(AccessLink::new(AccessTechnology::Ftth, 1.0)),
                DiurnalLoad::residential(),
                SimTime::from_hours(2),
                &PingConfig::default(),
                &mut rng,
            )
            .expect("connected");
        let min = out.min_ms().expect("some replies");
        // Munich to Frankfurt over FTTH: single-digit to low-teens ms.
        assert!(min > 2.0 && min < 40.0, "min RTT {min}");
    }

    #[test]
    fn under_served_country_sees_higher_rtt_to_europe() {
        let (_, mut net) = world();
        let cfg = WorldNetConfig::default();
        let dc = net.attach_datacenter(GeoPoint::new(50.1, 8.7), "DE", true, &cfg);
        let probe_de = net.attach_probe(
            GeoPoint::new(52.5, 13.4),
            "DE",
            AccessLink::new(AccessTechnology::Ftth, 1.0),
        );
        let probe_td = net.attach_probe(
            GeoPoint::new(12.1, 15.0),
            "TD",
            AccessLink::new(AccessTechnology::Ftth, 1.0),
        );
        let wants = [(probe_de, vec![dc]), (probe_td, vec![dc])];
        let table = RouteTable::build(net.topology(), &wants, 1);
        let mut prober = PingProber::with_table(net.topology(), &table);
        let mut rng = SimRng::new(13);
        let rtt = |prober: &mut PingProber, p, rng: &mut SimRng| {
            prober
                .ping(
                    p,
                    dc,
                    Some(AccessLink::new(AccessTechnology::Ftth, 1.0)),
                    DiurnalLoad::residential(),
                    SimTime::from_hours(4),
                    &PingConfig {
                        packets: 5,
                        ..Default::default()
                    },
                    rng,
                )
                .unwrap()
                .min_ms()
                .unwrap()
        };
        let de = rtt(&mut prober, probe_de, &mut rng);
        let td = rtt(&mut prober, probe_td, &mut rng);
        assert!(
            td > de * 3.0,
            "Chad ({td} ms) should be far slower than Berlin ({de} ms)"
        );
        assert!(td > 80.0, "Chad to Frankfurt should exceed 80 ms, got {td}");
    }

    #[test]
    fn private_backbone_beats_public_transit_from_afar() {
        // Two DCs in the same city; the private-backbone one should be
        // reachable at equal-or-lower latency from another continent.
        let (_, mut net) = world();
        let cfg = WorldNetConfig::default();
        let dc_priv = net.attach_datacenter(GeoPoint::new(1.35, 103.8), "SG", true, &cfg);
        let dc_pub = net.attach_datacenter(GeoPoint::new(1.35, 103.8), "SG", false, &cfg);
        let probe = net.attach_probe(
            GeoPoint::new(35.7, 139.7),
            "JP",
            AccessLink::new(AccessTechnology::Ftth, 1.0),
        );
        let mut router = Router::new(net.topology());
        let d_priv = router.path(probe, dc_priv).unwrap().base_one_way_ms;
        let d_pub = router.path(probe, dc_pub).unwrap().base_one_way_ms;
        assert!(
            d_priv <= d_pub,
            "private {d_priv} ms should not exceed public {d_pub} ms"
        );
    }

    #[test]
    fn edge_site_is_closer_than_remote_dc() {
        let (_, mut net) = world();
        let cfg = WorldNetConfig::default();
        let dc = net.attach_datacenter(GeoPoint::new(50.1, 8.7), "DE", true, &cfg);
        let metro = net.metros("PL")[0];
        let edge = net.attach_edge_site(metro);
        let probe = net.attach_probe(
            GeoPoint::new(52.2, 21.0),
            "PL",
            AccessLink::new(AccessTechnology::Ftth, 1.0),
        );
        let mut router = Router::new(net.topology());
        let to_edge = router.path(probe, edge).unwrap().base_one_way_ms;
        let to_dc = router.path(probe, dc).unwrap().base_one_way_ms;
        assert!(to_edge < to_dc, "edge {to_edge} vs dc {to_dc}");
    }

    #[test]
    fn hub_info_names_every_hub() {
        let (_, net) = world();
        let info = net.hub_info();
        assert_eq!(info.len(), net.hubs().len());
        assert!(info
            .iter()
            .any(|(name, cc, _)| *name == "Frankfurt" && *cc == "DE"));
        assert!(info.iter().any(|(name, _, _)| *name == "Milan"));
        // Ids line up with the node table.
        for (_, cc, id) in info {
            assert_eq!(net.topology().node(id).country, cc);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let atlas = CountryAtlas::global();
        let a = WorldNet::build(&atlas, &WorldNetConfig::default());
        let b = WorldNet::build(&atlas, &WorldNetConfig::default());
        assert_eq!(a.topology().node_count(), b.topology().node_count());
        assert_eq!(a.topology().link_count(), b.topology().link_count());
        for ((_, na), (_, nb)) in a.topology().nodes().zip(b.topology().nodes()) {
            assert_eq!(na.location, nb.location);
            assert_eq!(na.kind, nb.kind);
        }
    }
}
