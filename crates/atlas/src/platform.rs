//! Platform assembly: world topology + cloud datacenters + probe fleet.
//!
//! [`Platform::build`] wires the three substrates together exactly as
//! §4.1 describes the real setup: a VM ("end-point") in every selected
//! cloud region, probes ("vantage points") attached to their national
//! access infrastructure, and a target list per probe that covers the
//! same-continent datacenters plus the adjacent-continent rule for
//! Africa and Latin America.

use shears_cloud::{Catalog, Provider, Region};
use shears_geo::{Continent, CountryAtlas};
use shears_netsim::{NodeId, RouteTable, Topology, WorldNet, WorldNetConfig};

use crate::fleet::{FleetBuilder, FleetConfig};
use crate::probe::{Probe, ProbeId};

/// Platform construction parameters.
#[derive(Debug, Clone, Default)]
pub struct PlatformConfig {
    /// Fleet synthesis parameters.
    pub fleet: FleetConfig,
    /// World topology parameters.
    pub world: WorldNetConfig,
    /// Restrict the catalogue to regions launched in or before this
    /// year (`None` = full 2020 catalogue). Drives the EXT3 ablation.
    pub catalog_year: Option<u16>,
    /// Restrict to a single provider (`None` = all seven).
    pub provider: Option<Provider>,
}

impl PlatformConfig {
    /// A small configuration for tests and examples: a few hundred
    /// probes, full catalogue.
    pub fn quick(seed: u64) -> Self {
        Self {
            fleet: FleetConfig {
                target_size: 300,
                seed,
            },
            ..Self::default()
        }
    }
}

/// The assembled measurement platform.
pub struct Platform {
    countries: CountryAtlas,
    catalog: Catalog,
    probes: Vec<Probe>,
    world: WorldNet,
    probe_nodes: Vec<NodeId>,
    dc_nodes: Vec<NodeId>,
    region_continents: Vec<Continent>,
}

impl Platform {
    /// Builds the platform: world backbone, datacenter attachments for
    /// every catalogue region, then the probe fleet.
    pub fn build(cfg: &PlatformConfig) -> Self {
        let countries = CountryAtlas::global();
        let mut catalog = Catalog::global();
        if cfg.catalog_year.is_some() || cfg.provider.is_some() {
            catalog = catalog.snapshot(cfg.catalog_year.unwrap_or(u16::MAX), cfg.provider);
        }
        let mut world = WorldNet::build(&countries, &cfg.world);

        let dc_nodes: Vec<NodeId> = catalog
            .regions()
            .iter()
            .map(|r| {
                world.attach_datacenter(
                    r.location,
                    r.country,
                    r.provider.has_private_backbone(),
                    &cfg.world,
                )
            })
            .collect();
        let region_continents: Vec<Continent> = catalog
            .regions()
            .iter()
            .map(|r| {
                countries
                    .by_code(r.country)
                    .expect("catalogue countries exist in the atlas")
                    .continent
            })
            .collect();

        let probes = FleetBuilder::new(cfg.fleet).build(&countries);
        let probe_nodes: Vec<NodeId> = probes
            .iter()
            .map(|p| world.attach_probe(p.location, &p.country, p.access))
            .collect();

        Self {
            countries,
            catalog,
            probes,
            world,
            probe_nodes,
            dc_nodes,
            region_continents,
        }
    }

    /// The country atlas the platform was built from.
    pub fn countries(&self) -> &CountryAtlas {
        &self.countries
    }

    /// The (possibly snapshot-restricted) cloud catalogue.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The probe fleet.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }

    /// The fleet minus §4.1 privileged probes — the starting point of
    /// every analysis and of on-demand measurement selection.
    pub fn unprivileged_probes(&self) -> impl Iterator<Item = &Probe> {
        self.probes.iter().filter(|p| !p.is_privileged())
    }

    /// The underlying world (for attaching extension nodes such as edge
    /// sites).
    pub fn world_mut(&mut self) -> &mut WorldNet {
        &mut self.world
    }

    /// Read access to the world.
    pub fn world(&self) -> &WorldNet {
        &self.world
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        self.world.topology()
    }

    /// The topology node of a probe.
    pub fn probe_node(&self, id: ProbeId) -> NodeId {
        self.probe_nodes[id.index()]
    }

    /// The topology node of a catalogue region.
    pub fn dc_node(&self, region_index: usize) -> NodeId {
        self.dc_nodes[region_index]
    }

    /// The catalogue region record by index.
    pub fn region(&self, region_index: usize) -> &Region {
        &self.catalog.regions()[region_index]
    }

    /// The continent a region sits on.
    pub fn region_continent(&self, region_index: usize) -> Continent {
        self.region_continents[region_index]
    }

    /// The measurement targets of a probe, as catalogue indices:
    /// the `same_continent` nearest regions on the probe's continent,
    /// plus — for probes on continents with low datacenter density
    /// (Africa, Latin America) — the `adjacent` nearest regions on the
    /// paper's designated adjacent continent.
    pub fn targets_for(&self, probe: &Probe, same_continent: usize, adjacent: usize) -> Vec<u16> {
        let by_continent = |continent: Continent, n: usize, out: &mut Vec<u16>| {
            let mut candidates: Vec<(f64, u16)> = self
                .catalog
                .regions()
                .iter()
                .enumerate()
                .filter(|(i, _)| self.region_continents[*i] == continent)
                .map(|(i, r)| (probe.location.distance_km(r.location), i as u16))
                .collect();
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            out.extend(candidates.into_iter().take(n).map(|(_, i)| i));
        };
        let mut targets = Vec::with_capacity(same_continent + adjacent);
        by_continent(probe.continent, same_continent, &mut targets);
        for &adj in probe.continent.adjacent_measurement_targets() {
            by_continent(adj, adjacent, &mut targets);
        }
        targets
    }

    /// Precomputes the routes from every probe to its measurement
    /// targets (per [`Platform::targets_for`]) into a frozen
    /// [`RouteTable`], fanning the route searches over `threads`
    /// workers. The table is thread-count invariant and can be shared
    /// read-only by any number of probers.
    pub fn route_table(
        &self,
        same_continent: usize,
        adjacent: usize,
        threads: usize,
    ) -> RouteTable {
        let targets: Vec<Vec<u16>> = self
            .probes
            .iter()
            .map(|p| self.targets_for(p, same_continent, adjacent))
            .collect();
        self.route_table_for(&self.probes, &targets, threads)
    }

    /// The routes from each of `probes` to its targets, where
    /// `targets[id]` holds the catalogue indices probe `id` measures
    /// (as [`Platform::targets_for`] resolves them). A subset of the
    /// fleet gets a table that answers exactly its own lookups.
    pub fn route_table_for(
        &self,
        probes: &[Probe],
        targets: &[Vec<u16>],
        threads: usize,
    ) -> RouteTable {
        let wants: Vec<(NodeId, Vec<NodeId>)> = probes
            .iter()
            .map(|p| {
                (
                    self.probe_node(p.id),
                    targets[p.id.index()]
                        .iter()
                        .map(|&region| self.dc_node(region as usize))
                        .collect(),
                )
            })
            .collect();
        RouteTable::build(self.topology(), &wants, threads)
    }

    /// The routes of exactly the given (probe, target node) pairs, built
    /// on one thread: what a study or an API request reads instead of
    /// searching pair by pair.
    pub fn route_table_over(
        &self,
        pairs: impl IntoIterator<Item = (ProbeId, NodeId)>,
    ) -> RouteTable {
        let wants: Vec<(NodeId, Vec<NodeId>)> = pairs
            .into_iter()
            .map(|(probe, to)| (self.probe_node(probe), vec![to]))
            .collect();
        RouteTable::build(self.topology(), &wants, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_platform() -> Platform {
        Platform::build(&PlatformConfig::quick(3))
    }

    #[test]
    fn builds_with_all_regions_attached() {
        let p = quick_platform();
        assert_eq!(p.dc_nodes.len(), 101);
        assert_eq!(p.probe_nodes.len(), p.probes().len());
        assert!(p.probes().len() >= 300);
    }

    #[test]
    fn targets_are_same_continent() {
        let p = quick_platform();
        let eu_probe = p
            .probes()
            .iter()
            .find(|pr| pr.continent == Continent::Europe)
            .unwrap();
        let targets = p.targets_for(eu_probe, 5, 3);
        assert_eq!(targets.len(), 5, "no adjacency rule for Europe");
        for &t in &targets {
            assert_eq!(p.region_continent(t as usize), Continent::Europe);
        }
    }

    #[test]
    fn african_probes_also_target_europe() {
        let p = quick_platform();
        let af_probe = p
            .probes()
            .iter()
            .find(|pr| pr.continent == Continent::Africa)
            .unwrap();
        let targets = p.targets_for(af_probe, 5, 3);
        // Africa has exactly one region, so 1 + 3 adjacent.
        assert_eq!(targets.len(), 1 + 3);
        assert_eq!(p.region_continent(targets[0] as usize), Continent::Africa);
        for &t in &targets[1..] {
            assert_eq!(p.region_continent(t as usize), Continent::Europe);
        }
    }

    #[test]
    fn latam_probes_also_target_north_america() {
        let p = quick_platform();
        let la = p
            .probes()
            .iter()
            .find(|pr| pr.continent == Continent::LatinAmerica)
            .unwrap();
        let targets = p.targets_for(la, 4, 2);
        assert!(targets.len() > 4, "adjacency targets missing");
        assert!(targets[4..]
            .iter()
            .all(|&t| p.region_continent(t as usize) == Continent::NorthAmerica));
    }

    #[test]
    fn targets_sorted_by_distance() {
        let p = quick_platform();
        let probe = &p.probes()[0];
        let targets = p.targets_for(probe, 5, 0);
        let dists: Vec<f64> = targets
            .iter()
            .map(|&t| probe.location.distance_km(p.region(t as usize).location))
            .collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]), "{dists:?}");
    }

    #[test]
    fn snapshot_platform_has_fewer_regions() {
        let cfg = PlatformConfig {
            catalog_year: Some(2010),
            ..PlatformConfig::quick(3)
        };
        let p = Platform::build(&cfg);
        assert!(p.catalog().regions().len() < 20, "2010 cloud was tiny");
        assert!(!p.catalog().regions().is_empty());
    }

    #[test]
    fn pair_tables_hold_the_fleet_table_routes() {
        let p = quick_platform();
        let fleet = p.route_table(2, 1, 2);
        let pairs: Vec<(ProbeId, NodeId)> = p
            .probes()
            .iter()
            .rev()
            .step_by(7)
            .flat_map(|probe| {
                p.targets_for(probe, 2, 1)
                    .into_iter()
                    .map(|t| (probe.id, p.dc_node(t as usize)))
            })
            .collect();
        let table = p.route_table_over(pairs.iter().copied());
        assert_eq!(table.route_count(), pairs.len());
        for (probe, to) in pairs {
            let from = p.probe_node(probe);
            assert_eq!(table.path(from, to), fleet.path(from, to));
        }
    }

    #[test]
    fn route_table_resolves_probe_targets() {
        let p = quick_platform();
        let table = p.route_table(2, 1, 4);
        assert!(!table.is_empty());
        let probe = &p.probes()[0];
        let from = p.probe_node(probe.id);
        for &t in &p.targets_for(probe, 2, 1) {
            let to = p.dc_node(t as usize);
            let path = table.path(from, to).expect("platform graph is connected");
            assert_eq!(path.source(), from);
            assert_eq!(path.dest(), to);
        }
    }

    #[test]
    fn provider_restriction() {
        let cfg = PlatformConfig {
            provider: Some(Provider::Linode),
            ..PlatformConfig::quick(3)
        };
        let p = Platform::build(&cfg);
        assert_eq!(p.catalog().regions().len(), 10);
        assert!(p
            .catalog()
            .regions()
            .iter()
            .all(|r| r.provider == Provider::Linode));
    }
}
