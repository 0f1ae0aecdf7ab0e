//! EXT5: the 5G what-if study.
//!
//! §5: "new wireless standards promise to improve the situation, e.g.
//! … 1 ms latency with 5G … the reality may differ from claims", and
//! "considering supporting strict MTP thresholds, even with edge
//! servers located at basestations, seems uncertain". This study makes
//! the argument computable: for every wireless probe it asks what
//! fraction could meet MTP (and the 7 ms compute budget) against the
//! *cloud* and against a basestation edge, under three last-mile
//! assumptions:
//!
//! * `lte` — the probe's current access as deployed;
//! * `early 5G` — the measured early-deployment reality (≈7 ms one way,
//!   per the Narayanan et al. WWW'20 measurements the paper cites);
//! * `ITU 5G` — the IMT-2020 1 ms user-plane promise.

use shears_apps::thresholds::{MTP_COMPUTE_BUDGET_MS, MTP_MS};
use shears_atlas::Platform;

use crate::floor_rtt_ms;

/// A last-mile assumption: label + one-way access delay in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessAssumption {
    /// Display label.
    pub label: &'static str,
    /// One-way last-mile delay, ms.
    pub one_way_ms: f64,
}

/// The three assumptions of the study.
pub const ASSUMPTIONS: [AccessAssumption; 3] = [
    AccessAssumption {
        label: "LTE as deployed",
        one_way_ms: 20.0,
    },
    AccessAssumption {
        label: "early 5G (measured)",
        one_way_ms: 7.0,
    },
    AccessAssumption {
        label: "ITU 5G promise",
        one_way_ms: 1.0,
    },
];

/// Results for one access assumption.
#[derive(Debug, Clone)]
pub struct WhatIfRow {
    /// The assumption.
    pub assumption: AccessAssumption,
    /// Wireless probes analysed.
    pub probes: usize,
    /// Fraction meeting MTP (20 ms RTT) against the nearest cloud DC.
    pub cloud_mtp: f64,
    /// Fraction meeting MTP against a basestation-co-located edge
    /// (RTT = 2 × access + 1 ms of radio-site processing).
    pub edge_mtp: f64,
    /// Fraction meeting the 7 ms MTP *compute budget* against the edge —
    /// the paper's truly strict bar (display pipeline already ate 13 ms).
    pub edge_compute_budget: f64,
}

/// The EXT5 report.
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// One row per assumption, in [`ASSUMPTIONS`] order.
    pub rows: Vec<WhatIfRow>,
}

/// Runs the study over the platform's wireless probes (capped at
/// `max_probes` for tractability).
pub fn fiveg_whatif(platform: &Platform, max_probes: usize) -> WhatIfReport {
    // Each wireless probe's nearest DC.
    let picks: Vec<_> = platform
        .unprivileged_probes()
        .filter(|p| p.access.tech.is_wireless())
        .take(max_probes)
        .filter_map(|probe| {
            let &target = platform.targets_for(probe, 1, 1).first()?;
            Some((probe, platform.dc_node(target as usize)))
        })
        .collect();
    let table = platform.route_table_over(picks.iter().map(|&(probe, to)| (probe.id, to)));
    // Per-probe: (cloud floor minus its access contribution, i.e. the
    // pure network part) for the nearest DC.
    let mut network_parts: Vec<f64> = Vec::new();
    for (probe, to) in picks {
        let Some(floor) = floor_rtt_ms(platform, &table, probe, to) else {
            continue;
        };
        // Strip this probe's current access RTT to isolate the network.
        let network = floor - 2.0 * probe.access.floor_one_way_ms();
        network_parts.push(network.max(0.0));
    }
    let n = network_parts.len();
    let rows = ASSUMPTIONS
        .iter()
        .map(|&assumption| {
            let access_rtt = 2.0 * assumption.one_way_ms;
            let cloud_mtp = network_parts
                .iter()
                .filter(|&&net| net + access_rtt <= MTP_MS)
                .count() as f64
                / n.max(1) as f64;
            // Basestation edge: only the access segment plus ~1 ms of
            // radio-site processing remains.
            let edge_rtt = access_rtt + 1.0;
            let edge_mtp = if edge_rtt <= MTP_MS { 1.0 } else { 0.0 };
            let edge_compute_budget = if edge_rtt <= MTP_COMPUTE_BUDGET_MS {
                1.0
            } else {
                0.0
            };
            WhatIfRow {
                assumption,
                probes: n,
                cloud_mtp,
                edge_mtp,
                edge_compute_budget,
            }
        })
        .collect();
    WhatIfReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{FleetConfig, PlatformConfig};

    fn report() -> WhatIfReport {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 400,
                seed: 71,
            },
            ..PlatformConfig::default()
        });
        fiveg_whatif(&platform, 200)
    }

    #[test]
    fn lte_cannot_meet_mtp_even_with_edge() {
        // §5's core claim: with 20 ms one-way LTE access, a basestation
        // edge is already past the MTP budget.
        let r = report();
        let lte = &r.rows[0];
        assert!(lte.probes > 20);
        assert_eq!(lte.edge_mtp, 0.0, "LTE RTT alone exceeds MTP");
        assert_eq!(lte.cloud_mtp, 0.0);
    }

    #[test]
    fn early_5g_helps_edge_but_not_the_compute_budget() {
        let r = report();
        let early = &r.rows[1];
        assert_eq!(early.edge_mtp, 1.0, "15 ms RTT is within MTP");
        assert_eq!(
            early.edge_compute_budget, 0.0,
            "but not within the 7 ms compute budget"
        );
    }

    #[test]
    fn itu_promise_finally_meets_the_budget() {
        let r = report();
        let itu = &r.rows[2];
        assert_eq!(itu.edge_mtp, 1.0);
        assert_eq!(itu.edge_compute_budget, 1.0);
        // And the *cloud* also becomes MTP-viable for a solid share of
        // wireless probes — the paper's "even the cloud benefits from
        // better last miles" implication.
        assert!(itu.cloud_mtp > 0.3, "cloud MTP share {}", itu.cloud_mtp);
    }

    #[test]
    fn cloud_mtp_share_is_monotone_in_access_quality() {
        let r = report();
        assert!(r.rows[0].cloud_mtp <= r.rows[1].cloud_mtp);
        assert!(r.rows[1].cloud_mtp <= r.rows[2].cloud_mtp);
    }
}
