//! EXT1: how much would an edge server actually save?
//!
//! §5 cites Hadzic et al. and Cartas et al.: "latency gains for
//! accessing edge server colocated with an LTE basestation is minimal
//! compared to accessing a datacenter located ≈1000 km away". This
//! study quantifies that claim on our platform: co-locate an edge site
//! with every metro PoP, then compare each probe's latency floor to its
//! nearest edge site against its floor to the nearest cloud datacenter.
//!
//! Floors (propagation + access medians, no congestion) are the right
//! statistic here: the edge-vs-cloud gap is a *structural* quantity,
//! and both paths share the same last mile and congestion climate.

use std::collections::HashMap;

use shears_geo::Continent;
use shears_netsim::NodeId;

use shears_atlas::Platform;

use crate::stats::Summary;
use crate::{floor_rtt_ms, kernels};

/// Per-continent edge-gain numbers.
#[derive(Debug, Clone)]
pub struct EdgeGainRow {
    /// Continent.
    pub continent: Continent,
    /// Probes analysed.
    pub probes: usize,
    /// Median RTT floor to the nearest cloud DC, ms.
    pub cloud_median_ms: f64,
    /// Median RTT floor to the nearest edge site, ms.
    pub edge_median_ms: f64,
    /// Median of per-probe gains (cloud − edge), ms.
    pub median_gain_ms: f64,
    /// Fraction of probes whose gain is under 10 ms — probes for which
    /// edge deployment buys essentially nothing.
    pub small_gain_fraction: f64,
}

/// The EXT1 report.
#[derive(Debug, Clone)]
pub struct EdgeGainReport {
    /// One row per continent (paper display order).
    pub rows: Vec<EdgeGainRow>,
}

impl EdgeGainReport {
    /// Row lookup.
    pub fn continent(&self, c: Continent) -> Option<&EdgeGainRow> {
        self.rows.iter().find(|r| r.continent == c)
    }
}

/// Runs the study. Mutates the platform by attaching one edge site per
/// metro PoP (idempotent per call: call once per platform).
///
/// `max_probes_per_continent` caps the work (probes are taken in fleet
/// order, which is country-interleaved enough for a floor study).
pub fn edge_gain_study(platform: &mut Platform, max_probes_per_continent: usize) -> EdgeGainReport {
    // 1. Deploy edge everywhere: one site per metro PoP.
    let metro_codes: Vec<String> = platform
        .countries()
        .countries()
        .iter()
        .map(|c| c.code.to_string())
        .collect();
    let mut edge_site_of: HashMap<NodeId, NodeId> = HashMap::new();
    for code in &metro_codes {
        let metros: Vec<NodeId> = platform.world().metros(code).to_vec();
        for m in metros {
            edge_site_of.insert(m, platform.world_mut().attach_edge_site(m));
        }
    }

    // 2. Each probe's candidate targets. Nearest edge: the sites of its
    // own country's metros (geographic pruning would be overkill — its
    // country's metros always dominate). Nearest cloud DC: evaluating
    // all 101 would be exact but slow; the nearest 8 by geography always
    // contain the latency-nearest DC in practice.
    let mut counted: HashMap<Continent, usize> = HashMap::new();
    let dc_count = platform.catalog().regions().len();
    let mut picks = Vec::new();
    for probe in platform.unprivileged_probes() {
        let slot = counted.entry(probe.continent).or_default();
        if *slot >= max_probes_per_continent {
            continue;
        }
        *slot += 1;
        let edges: Vec<NodeId> = platform
            .world()
            .metros(&probe.country)
            .iter()
            .filter_map(|m| edge_site_of.get(m).copied())
            .collect();
        let mut candidates: Vec<(f64, usize)> = (0..dc_count)
            .map(|i| (probe.location.distance_km(platform.region(i).location), i))
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let clouds: Vec<NodeId> = candidates
            .iter()
            .take(8)
            .map(|&(_, i)| platform.dc_node(i))
            .collect();
        picks.push((probe, edges, clouds));
    }
    let table =
        platform.route_table_over(picks.iter().flat_map(|(probe, edges, clouds)| {
            edges.iter().chain(clouds).map(|&to| (probe.id, to))
        }));

    // 3. Per-probe floors.
    // Per continent: (cloud floors, edge floors, per-probe gains).
    type FloorTriple = (Vec<f64>, Vec<f64>, Vec<f64>);
    let mut per_continent: HashMap<Continent, FloorTriple> = HashMap::new();
    for (probe, edges, clouds) in &picks {
        let floor_to = |&to: &NodeId| floor_rtt_ms(platform, &table, probe, to);
        let edge_floor = edges
            .iter()
            .filter_map(floor_to)
            .fold(f64::INFINITY, f64::min);
        let cloud_floor = clouds
            .iter()
            .filter_map(floor_to)
            .fold(f64::INFINITY, f64::min);
        if edge_floor.is_finite() && cloud_floor.is_finite() {
            let entry = per_continent.entry(probe.continent).or_default();
            entry.0.push(cloud_floor);
            entry.1.push(edge_floor);
            entry.2.push(cloud_floor - edge_floor);
        }
    }

    let rows = Continent::ALL
        .iter()
        .filter_map(|&c| {
            let (cloud, edge, gains) = per_continent.remove(&c)?;
            let n = gains.len();
            let small = gains.iter().filter(|&&g| g < 10.0).count();
            Some(EdgeGainRow {
                continent: c,
                probes: n,
                cloud_median_ms: kernels::median(&cloud)?,
                edge_median_ms: kernels::median(&edge)?,
                median_gain_ms: kernels::median(&gains)?,
                small_gain_fraction: small as f64 / n as f64,
            })
        })
        .collect();
    EdgeGainReport { rows }
}

/// Convenience: overall summary of per-probe gains across continents.
pub fn gain_summary(report: &EdgeGainReport) -> Option<Summary> {
    let medians: Vec<f64> = report.rows.iter().map(|r| r.median_gain_ms).collect();
    Summary::of(&medians)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{FleetConfig, PlatformConfig};

    #[test]
    fn edge_gain_is_small_in_eu_large_in_africa() {
        let mut platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 350,
                seed: 55,
            },
            ..PlatformConfig::default()
        });
        let report = edge_gain_study(&mut platform, 60);
        let eu = report.continent(Continent::Europe).expect("EU row");
        let af = report.continent(Continent::Africa).expect("Africa row");
        assert!(
            eu.median_gain_ms < 15.0,
            "EU median edge gain {} ms should be small",
            eu.median_gain_ms
        );
        assert!(
            af.median_gain_ms > eu.median_gain_ms,
            "Africa gain {} should exceed EU gain {}",
            af.median_gain_ms,
            eu.median_gain_ms
        );
        // In the EU, most probes gain little.
        assert!(
            eu.small_gain_fraction > 0.5,
            "EU small-gain fraction {}",
            eu.small_gain_fraction
        );
    }

    #[test]
    fn edge_floor_never_exceeds_cloud_floor_by_much() {
        // The edge site shares the probe's metro; it can only be slower
        // than the cloud if a DC is co-located even closer. Medians must
        // therefore satisfy edge <= cloud.
        let mut platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 200,
                seed: 56,
            },
            ..PlatformConfig::default()
        });
        let report = edge_gain_study(&mut platform, 40);
        for row in &report.rows {
            assert!(
                row.edge_median_ms <= row.cloud_median_ms + 1e-9,
                "{}: edge {} > cloud {}",
                row.continent,
                row.edge_median_ms,
                row.cloud_median_ms
            );
            assert!(row.probes > 0);
        }
    }

    #[test]
    fn summary_over_rows() {
        let mut platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 150,
                seed: 57,
            },
            ..PlatformConfig::default()
        });
        let report = edge_gain_study(&mut platform, 25);
        let s = gain_summary(&report).unwrap();
        assert!(s.n >= 4, "rows {}", s.n);
        // A DC co-located in the probe's own metro sits one fabric hop
        // (~0.2 ms) closer than the edge site, so continents dominated
        // by DC-hosting metros can show a marginally negative median.
        assert!(s.min >= -1.0, "median gain {} below plausibility", s.min);
    }
}
