//! Last-mile access models.
//!
//! §4.3 of the paper ("Nature of last-mile access") shows probes tagged
//! `wireless` take ≈2.5× longer to reach the nearest cloud region than
//! wired probes, with 10–40 ms added latency — consistent with the home
//! broadband and LTE literature it cites. This module encodes those
//! per-technology characteristics: a base one-way delay, a log-normal
//! jitter body, heavy-tailed bufferbloat episodes (wireless only, per
//! Jiang et al.'s 3G/4G bufferbloat findings) and an access-loss rate.

use crate::stochastic::SimRng;

/// The access technologies the RIPE Atlas tag vocabulary distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessTechnology {
    /// Office/datacenter-grade ethernet drop.
    Ethernet,
    /// Fibre to the home.
    Ftth,
    /// DOCSIS cable.
    Cable,
    /// DSL family (ADSL/VDSL).
    Dsl,
    /// Home WiFi behind a wired uplink (the WiFi hop dominates jitter).
    Wifi,
    /// Cellular LTE.
    Lte,
    /// Early 5G NSA deployment (paper §5: promised 1 ms, measured far
    /// from it — modelled as better than LTE but not MTP-grade).
    FiveG,
    /// Geostationary satellite (rare; a handful of Atlas probes).
    GeoSatellite,
}

impl AccessTechnology {
    /// All technologies (fleet synthesis iterates this).
    pub const ALL: [AccessTechnology; 8] = [
        AccessTechnology::Ethernet,
        AccessTechnology::Ftth,
        AccessTechnology::Cable,
        AccessTechnology::Dsl,
        AccessTechnology::Wifi,
        AccessTechnology::Lte,
        AccessTechnology::FiveG,
        AccessTechnology::GeoSatellite,
    ];

    /// Whether the Atlas tag vocabulary would call this wireless
    /// (`wifi`, `wlan`, `lte`, `5g`); drives the Fig. 7 split.
    pub fn is_wireless(self) -> bool {
        matches!(
            self,
            AccessTechnology::Wifi
                | AccessTechnology::Lte
                | AccessTechnology::FiveG
                | AccessTechnology::GeoSatellite
        )
    }

    /// The user tag string a probe host would set on RIPE Atlas.
    pub fn atlas_tag(self) -> &'static str {
        match self {
            AccessTechnology::Ethernet => "ethernet",
            AccessTechnology::Ftth => "fibre",
            AccessTechnology::Cable => "cable",
            AccessTechnology::Dsl => "dsl",
            AccessTechnology::Wifi => "wifi",
            AccessTechnology::Lte => "lte",
            AccessTechnology::FiveG => "5g",
            AccessTechnology::GeoSatellite => "satellite",
        }
    }

    /// Median one-way first-hop delay in ms.
    pub fn base_one_way_ms(self) -> f64 {
        match self {
            AccessTechnology::Ethernet => 0.3,
            AccessTechnology::Ftth => 1.5,
            AccessTechnology::Cable => 2.5,
            AccessTechnology::Dsl => 4.0,
            AccessTechnology::Wifi => 7.0,
            AccessTechnology::Lte => 20.0,
            AccessTechnology::FiveG => 8.0,
            AccessTechnology::GeoSatellite => 280.0,
        }
    }

    /// Sigma of the log-normal jitter body (dimensionless, applied to
    /// the base delay).
    pub fn jitter_sigma(self) -> f64 {
        match self {
            AccessTechnology::Ethernet => 0.08,
            AccessTechnology::Ftth => 0.10,
            AccessTechnology::Cable => 0.25,
            AccessTechnology::Dsl => 0.20,
            AccessTechnology::Wifi => 0.45,
            AccessTechnology::Lte => 0.50,
            AccessTechnology::FiveG => 0.40,
            AccessTechnology::GeoSatellite => 0.05,
        }
    }

    /// Per-ping probability of hitting a bufferbloat/handover episode.
    pub fn bloat_probability(self) -> f64 {
        match self {
            AccessTechnology::Ethernet | AccessTechnology::Ftth => 0.001,
            AccessTechnology::Cable => 0.004,
            AccessTechnology::Dsl => 0.004,
            AccessTechnology::Wifi => 0.03,
            AccessTechnology::Lte => 0.05,
            AccessTechnology::FiveG => 0.03,
            AccessTechnology::GeoSatellite => 0.02,
        }
    }

    /// Packet-loss probability on the access segment (per direction).
    pub fn loss_probability(self) -> f64 {
        match self {
            AccessTechnology::Ethernet | AccessTechnology::Ftth => 0.0005,
            AccessTechnology::Cable | AccessTechnology::Dsl => 0.002,
            AccessTechnology::Wifi => 0.008,
            AccessTechnology::Lte => 0.012,
            AccessTechnology::FiveG => 0.008,
            AccessTechnology::GeoSatellite => 0.01,
        }
    }
}

/// A probe's concrete access link: a technology plus a per-site quality
/// multiplier (poor in-home wiring, distance from DSLAM, cell-edge
/// radio) drawn once at fleet-synthesis time.
#[derive(Debug, Clone, Copy)]
pub struct AccessLink {
    /// Technology of the last mile.
    pub tech: AccessTechnology,
    /// Per-site multiplier on the base delay, ≥ 1 (1 = textbook install).
    pub site_quality: f64,
}

impl AccessLink {
    /// Creates a link; `site_quality` is clamped to ≥ 1.
    pub fn new(tech: AccessTechnology, site_quality: f64) -> Self {
        Self {
            tech,
            site_quality: site_quality.max(1.0),
        }
    }

    /// The deterministic one-way floor of this site's access segment.
    pub fn floor_one_way_ms(&self) -> f64 {
        self.tech.base_one_way_ms() * self.site_quality
    }

    /// Samples the one-way access delay for a single packet at the given
    /// moment: jittered base plus a possible bufferbloat episode.
    ///
    /// Always inlined: `PathSampler::sample_one_way_ms`, the per-hop loop
    /// of every ping, calls it for the access hop, and the inliner's size
    /// heuristics otherwise leave it out of line there depending on
    /// unrelated code elsewhere in the crate, which slows a campaign.
    #[inline(always)]
    pub fn sample_one_way_ms(&self, rng: &mut SimRng) -> f64 {
        let base = self.floor_one_way_ms();
        let body = rng.lognormal(base, self.tech.jitter_sigma());
        let bloat = if rng.chance(self.tech.bloat_probability()) {
            // Bounded Pareto: rare episodes of tens to thousands of ms,
            // "delays lasting several seconds due to queue build-ups".
            rng.bounded_pareto(30.0, 3000.0, 1.15)
        } else {
            0.0
        };
        body + bloat
    }

    /// Whether a packet is lost on this segment (single direction).
    pub fn drops_packet(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.tech.loss_probability())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wireless_classification_matches_paper_tags() {
        assert!(AccessTechnology::Wifi.is_wireless());
        assert!(AccessTechnology::Lte.is_wireless());
        assert!(!AccessTechnology::Ethernet.is_wireless());
        assert!(!AccessTechnology::Dsl.is_wireless());
        assert!(!AccessTechnology::Cable.is_wireless());
    }

    #[test]
    fn tags_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for t in AccessTechnology::ALL {
            assert!(seen.insert(t.atlas_tag()));
        }
    }

    #[test]
    fn lte_adds_10_to_40ms_rtt_over_ethernet() {
        // The paper cites 10–40 ms added latency for wireless last miles.
        let added_rtt = 2.0
            * (AccessTechnology::Lte.base_one_way_ms()
                - AccessTechnology::Ethernet.base_one_way_ms());
        assert!(
            (10.0..=40.0).contains(&added_rtt),
            "LTE adds {added_rtt} ms RTT"
        );
    }

    #[test]
    fn site_quality_clamps_to_one() {
        let l = AccessLink::new(AccessTechnology::Dsl, 0.2);
        assert_eq!(l.site_quality, 1.0);
        assert_eq!(l.floor_one_way_ms(), 4.0);
    }

    #[test]
    fn sampled_delay_centres_on_floor() {
        let l = AccessLink::new(AccessTechnology::Cable, 1.0);
        let mut rng = SimRng::new(3);
        let n = 5000;
        let mut v: Vec<f64> = (0..n).map(|_| l.sample_one_way_ms(&mut rng)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[n / 2];
        assert!(
            (median - 2.5).abs() < 0.5,
            "median {median} vs floor {}",
            l.floor_one_way_ms()
        );
    }

    #[test]
    fn wireless_has_heavier_tail_than_wired() {
        let wired = AccessLink::new(AccessTechnology::Ethernet, 1.0);
        let wifi = AccessLink::new(AccessTechnology::Wifi, 1.0);
        let mut rng = SimRng::new(5);
        let p99 = |l: &AccessLink, rng: &mut SimRng| {
            let mut v: Vec<f64> = (0..4000).map(|_| l.sample_one_way_ms(rng)).collect();
            v.sort_by(f64::total_cmp);
            v[(v.len() as f64 * 0.99) as usize]
        };
        let wired99 = p99(&wired, &mut rng);
        let wifi99 = p99(&wifi, &mut rng);
        assert!(
            wifi99 > 10.0 * wired99,
            "wifi p99 {wifi99} vs wired p99 {wired99}"
        );
    }

    #[test]
    fn loss_rates_ordered() {
        assert!(
            AccessTechnology::Lte.loss_probability()
                > AccessTechnology::Ethernet.loss_probability()
        );
    }

    #[test]
    fn packet_drops_track_loss_probability() {
        let l = AccessLink::new(AccessTechnology::Lte, 1.0);
        let mut rng = SimRng::new(31);
        let n = 50_000;
        let drops = (0..n).filter(|_| l.drops_packet(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        let want = AccessTechnology::Lte.loss_probability();
        assert!(
            (rate - want).abs() < want * 0.3,
            "drop rate {rate} vs configured {want}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let l = AccessLink::new(AccessTechnology::Lte, 1.2);
        let a: Vec<f64> = {
            let mut rng = SimRng::new(42);
            (0..50).map(|_| l.sample_one_way_ms(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = SimRng::new(42);
            (0..50).map(|_| l.sample_one_way_ms(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
