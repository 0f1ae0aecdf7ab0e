//! TEXT2: "Where is the Delay?" made quantitative.
//!
//! §4.3 asks the question; the paper answers it qualitatively
//! (insufficient infrastructure deployment + last-mile access). This
//! study answers it with traceroute-style hop attribution: for each
//! probe, the RTT to its nearest datacenter is decomposed into the
//! access, metro-aggregation, national-backbone, interconnection-hub
//! and datacenter segments, then aggregated per continent.
//!
//! The paper's two claims become directly checkable: in well-connected
//! regions the last mile dominates (so edge servers past the access
//! segment cannot help much), while in under-served regions the
//! backbone/interconnect share dominates (so infrastructure — not edge
//! — is the fix).

use std::collections::HashMap;

use shears_atlas::Platform;
use shears_geo::Continent;
use shears_netsim::queue::DiurnalLoad;
use shears_netsim::stochastic::SimRng;
use shears_netsim::topology::NodeKind;
use shears_netsim::{SimTime, TracerouteProber};

use crate::kernels;

/// The delay segments a hop can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Probe's last mile up to and including the access router.
    Access,
    /// Metro aggregation.
    Metro,
    /// National backbone PoPs.
    NationalBackbone,
    /// Interconnection hubs (IXPs, cable landings).
    Interconnect,
    /// The provider's own network plus the datacenter front door: for
    /// private-backbone providers the final traceroute delta includes
    /// the (possibly transcontinental) private span from the entry hub,
    /// so this segment reads as "inside the provider's network".
    Datacenter,
}

impl Segment {
    /// All segments in path order.
    pub const ALL: [Segment; 5] = [
        Segment::Access,
        Segment::Metro,
        Segment::NationalBackbone,
        Segment::Interconnect,
        Segment::Datacenter,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Segment::Access => "access",
            Segment::Metro => "metro",
            Segment::NationalBackbone => "national",
            Segment::Interconnect => "interconnect",
            Segment::Datacenter => "provider-net+dc",
        }
    }

    fn of(kind: NodeKind) -> Option<Segment> {
        match kind {
            NodeKind::AccessRouter => Some(Segment::Access),
            NodeKind::MetroPop => Some(Segment::Metro),
            NodeKind::BackbonePop => Some(Segment::NationalBackbone),
            NodeKind::IxpHub => Some(Segment::Interconnect),
            NodeKind::Datacenter | NodeKind::EdgeSite => Some(Segment::Datacenter),
            NodeKind::ProbeHost => None,
        }
    }
}

/// Per-continent delay decomposition.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Continent.
    pub continent: Continent,
    /// Probes traced.
    pub probes: usize,
    /// Median destination RTT, ms.
    pub median_rtt_ms: f64,
    /// Median absolute contribution per segment, ms (path order).
    pub segment_ms: [f64; 5],
}

impl BreakdownRow {
    /// Fraction of the (segment-sum) RTT spent in `segment`.
    pub fn share(&self, segment: Segment) -> f64 {
        let total: f64 = self.segment_ms.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let idx = Segment::ALL.iter().position(|&s| s == segment).unwrap();
        self.segment_ms[idx] / total
    }
}

/// The TEXT2 report.
#[derive(Debug, Clone)]
pub struct BreakdownReport {
    /// One row per continent with traced probes.
    pub rows: Vec<BreakdownRow>,
}

impl BreakdownReport {
    /// Row lookup.
    pub fn continent(&self, c: Continent) -> Option<&BreakdownRow> {
        self.rows.iter().find(|r| r.continent == c)
    }
}

/// Traces up to `max_probes_per_continent` unprivileged probes to their
/// geographically nearest datacenter, `repetitions` times each, and
/// aggregates median segment contributions.
pub fn delay_breakdown(
    platform: &Platform,
    max_probes_per_continent: usize,
    repetitions: u32,
    seed: u64,
) -> BreakdownReport {
    let mut counted: HashMap<Continent, usize> = HashMap::new();
    let mut picks = Vec::new();
    for probe in platform.unprivileged_probes() {
        let slot = counted.entry(probe.continent).or_default();
        if *slot >= max_probes_per_continent {
            continue;
        }
        let Some(&target) = platform.targets_for(probe, 1, 1).first() else {
            continue;
        };
        *slot += 1;
        picks.push((probe, platform.dc_node(target as usize)));
    }
    let table = platform.route_table_over(picks.iter().map(|&(probe, to)| (probe.id, to)));
    let mut prober = TracerouteProber::with_table(platform.topology(), &table);
    let master = SimRng::new(seed);
    let mut acc: HashMap<Continent, (Vec<f64>, [Vec<f64>; 5])> = HashMap::new();
    for (probe, to) in picks {
        let mut rng = master.fork_keyed(u64::from(probe.id.0), 0);
        for rep in 0..repetitions {
            let at = SimTime::from_hours(u64::from(rep) * 5);
            let Some(out) = prober.trace(
                platform.probe_node(probe.id),
                to,
                Some(probe.access),
                DiurnalLoad::residential(),
                at,
                &mut rng,
            ) else {
                break;
            };
            let Some(rtt) = out.destination_rtt_ms() else {
                continue;
            };
            let entry = acc
                .entry(probe.continent)
                .or_insert_with(|| (Vec::new(), Default::default()));
            entry.0.push(rtt);
            let mut per_segment = [0.0f64; 5];
            for (kind, delta) in out.segment_deltas() {
                if let Some(seg) = Segment::of(kind) {
                    let idx = Segment::ALL.iter().position(|&s| s == seg).unwrap();
                    per_segment[idx] += delta;
                }
            }
            for (i, v) in per_segment.iter().enumerate() {
                entry.1[i].push(*v);
            }
        }
    }
    let rows = Continent::ALL
        .iter()
        .filter_map(|&c| {
            let (rtts, segments) = acc.remove(&c)?;
            let probes = counted.get(&c).copied().unwrap_or(0);
            let median_rtt_ms = kernels::median(&rtts)?;
            let mut segment_ms = [0.0f64; 5];
            for (i, v) in segments.into_iter().enumerate() {
                segment_ms[i] = kernels::median(&v).unwrap_or(0.0);
            }
            Some(BreakdownRow {
                continent: c,
                probes,
                median_rtt_ms,
                segment_ms,
            })
        })
        .collect();
    BreakdownReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{FleetConfig, PlatformConfig};

    fn report() -> BreakdownReport {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 300,
                seed: 61,
            },
            ..PlatformConfig::default()
        });
        delay_breakdown(&platform, 40, 3, 0xB12)
    }

    #[test]
    fn covers_all_continents_with_positive_rtts() {
        let r = report();
        assert_eq!(r.rows.len(), 6);
        for row in &r.rows {
            assert!(row.probes > 0);
            assert!(row.median_rtt_ms > 0.0, "{}", row.continent);
        }
    }

    #[test]
    fn access_dominates_in_well_connected_regions() {
        // The paper's core §4.3 finding: in EU/NA the last mile is the
        // bottleneck, so the access share leads the decomposition.
        let r = report();
        for c in [Continent::Europe, Continent::NorthAmerica] {
            let row = r.continent(c).unwrap();
            let access = row.share(Segment::Access);
            for seg in [
                Segment::Metro,
                Segment::NationalBackbone,
                Segment::Datacenter,
            ] {
                assert!(
                    access >= row.share(seg),
                    "{c}: access {access} < {seg:?} {}",
                    row.share(seg)
                );
            }
        }
    }

    #[test]
    fn under_served_regions_spend_more_in_the_core() {
        // In Africa the interconnect/national share beats what EU pays:
        // the delay is infrastructure, not the last mile.
        let r = report();
        let eu = r.continent(Continent::Europe).unwrap();
        let af = r.continent(Continent::Africa).unwrap();
        let core = |row: &BreakdownRow| {
            row.share(Segment::Interconnect) + row.share(Segment::NationalBackbone)
        };
        assert!(
            core(af) > core(eu),
            "Africa core share {} should exceed EU {}",
            core(af),
            core(eu)
        );
        assert!(af.median_rtt_ms > eu.median_rtt_ms);
    }

    #[test]
    fn shares_sum_to_one() {
        let r = report();
        for row in &r.rows {
            let sum: f64 = Segment::ALL.iter().map(|&s| row.share(s)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", row.continent);
        }
    }
}
