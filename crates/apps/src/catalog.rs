//! The driving-application catalogue (paper Figure 2).
//!
//! Requirement envelopes are drawn from the same published estimates
//! the paper cites (Bailey et al. for HUD latency, Kämäräinen et al.
//! for cloud gaming, Mangiante et al. for 360° VR, Sun et al. for
//! multi-tier streaming, Raaen et al. for perceivable delay), rounded
//! to order-of-magnitude envelopes exactly as the figure's ellipses do.
//! Market sizes are 2025 forecasts in billions of USD (Statista-era
//! numbers; they only drive the relative "market share" comparison).

/// A log-space interval `[lo, hi]`; the geometric mean is the envelope's
/// centre (the ellipse midpoint in the figure's log-log plane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Lower edge (inclusive).
    pub lo: f64,
    /// Upper edge (inclusive).
    pub hi: f64,
}

impl Envelope {
    /// Creates an envelope.
    ///
    /// # Panics
    /// Panics unless `0 < lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && lo <= hi, "invalid envelope [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Geometric centre (log-space midpoint).
    pub fn center(&self) -> f64 {
        (self.lo * self.hi).sqrt()
    }

    /// Width in decades (log10 hi − log10 lo); the figure's ellipse
    /// width, i.e. how *unstrict* the requirement is.
    pub fn decades(&self) -> f64 {
        (self.hi / self.lo).log10()
    }

    /// Whether the envelope intersects `[lo, hi]`.
    pub fn intersects(&self, lo: f64, hi: f64) -> bool {
        self.lo <= hi && lo <= self.hi
    }
}

/// A driving application of edge computing.
#[derive(Debug, Clone)]
pub struct Application {
    /// Display name.
    pub name: &'static str,
    /// End-to-end latency requirement envelope, ms. The centre is what
    /// the application *needs*; the width is how negotiable that is.
    pub latency_ms: Envelope,
    /// Data generated per entity (camera, car, sensor, headset…) per
    /// day, in GB.
    pub data_gb_per_day: Envelope,
    /// Forecast 2025 market size, billions of USD.
    pub market_2025_busd: f64,
    /// Whether the application is human-centric (takes user input and
    /// feeds back to human senses) — most of Figure 2 is.
    pub human_centric: bool,
    /// Fraction of raw per-entity data that still has to travel to the
    /// cloud after edge pre-processing/aggregation (1.0 = edge cannot
    /// reduce the stream, e.g. interactive rendering; 0.01 = edge
    /// forwards only events/metadata). Drives the bandwidth-savings
    /// study behind Figure 8's blue zone.
    pub edge_reduction: f64,
    /// Entities of this kind attached to one metro's aggregation uplink
    /// in a realistic dense deployment (cameras per city, households per
    /// metro, vehicles in motion, …). Sets the aggregate load in the
    /// bandwidth study.
    pub entities_per_metro: f64,
}

/// Row type of the embedded application table: name, latency lo..hi
/// (ms), data lo..hi (GB/day), market (B$), human-centric, edge
/// reduction factor, entities per metro.
type AppRow = (&'static str, f64, f64, f64, f64, f64, bool, f64, f64);

/// The catalogue behind Figure 2.
pub fn driving_applications() -> Vec<Application> {
    let rows: &[AppRow] = &[
        ("AR/VR", 2.5, 20.0, 5.0, 50.0, 160.0, true, 0.9, 5e4),
        (
            "360-degree streaming",
            10.0,
            50.0,
            10.0,
            100.0,
            25.0,
            true,
            0.3,
            5e4,
        ),
        ("Cloud gaming", 40.0, 100.0, 2.0, 20.0, 8.0, true, 1.0, 1e5),
        (
            "Autonomous vehicles",
            1.0,
            10.0,
            100.0,
            5000.0,
            60.0,
            false,
            0.01,
            2e5,
        ),
        (
            "Teleoperated driving",
            10.0,
            100.0,
            5.0,
            50.0,
            30.0,
            true,
            0.8,
            5e3,
        ),
        (
            "Remote surgery",
            100.0,
            250.0,
            0.2,
            2.0,
            5.0,
            true,
            1.0,
            1e2,
        ),
        (
            "Industrial automation",
            1.0,
            10.0,
            0.1,
            1.0,
            100.0,
            false,
            0.05,
            5e4,
        ),
        (
            "Traffic camera monitoring",
            50.0,
            250.0,
            20.0,
            500.0,
            30.0,
            false,
            0.02,
            2e4,
        ),
        (
            "Drone control",
            10.0,
            100.0,
            1.0,
            10.0,
            30.0,
            true,
            0.2,
            2e3,
        ),
        ("Smart city", 1e3, 3.6e6, 1.0, 100.0, 90.0, false, 0.05, 2e5),
        (
            "Smart parking",
            6e4,
            3.6e6,
            0.001,
            0.1,
            5.0,
            false,
            0.1,
            5e4,
        ),
        ("Smart home", 1e3, 6e4, 0.01, 1.0, 80.0, true, 0.2, 5e5),
        ("Smart grid", 100.0, 1e4, 0.1, 1.0, 60.0, false, 0.1, 5e5),
        ("Wearables", 20.0, 100.0, 0.001, 0.1, 70.0, true, 0.5, 1e6),
        (
            "Health monitoring",
            40.0,
            200.0,
            0.01,
            0.5,
            30.0,
            true,
            0.3,
            2e5,
        ),
        (
            "Weather monitoring",
            6e4,
            3.6e6,
            0.001,
            0.01,
            3.0,
            false,
            0.2,
            1e3,
        ),
    ];
    rows.iter()
        .map(
            |&(name, l_lo, l_hi, d_lo, d_hi, market, human, edge_reduction, entities)| {
                Application {
                    name,
                    latency_ms: Envelope::new(l_lo, l_hi),
                    data_gb_per_day: Envelope::new(d_lo, d_hi),
                    market_2025_busd: market,
                    human_centric: human,
                    edge_reduction,
                    entities_per_metro: entities,
                }
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::{HRT_MS, MTP_MS, PL_MS};

    #[test]
    fn catalogue_has_the_papers_spread() {
        let apps = driving_applications();
        assert!(apps.len() >= 14, "{}", apps.len());
        // Names unique.
        let names: std::collections::HashSet<_> = apps.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), apps.len());
        // Latency scale spans ms to an hour, as the figure's y-axis does.
        let min = apps
            .iter()
            .map(|a| a.latency_ms.lo)
            .fold(f64::MAX, f64::min);
        let max = apps.iter().map(|a| a.latency_ms.hi).fold(0.0, f64::max);
        assert!(min <= 2.5 && max >= 3.6e6, "span {min}..{max}");
    }

    #[test]
    fn majority_is_human_centric() {
        // §3: "Majority applications in Figure 2 are human-centric".
        let apps = driving_applications();
        let human = apps.iter().filter(|a| a.human_centric).count();
        assert!(human * 2 > apps.len());
    }

    #[test]
    fn immersive_apps_sit_at_or_below_mtp() {
        let apps = driving_applications();
        let arvr = apps.iter().find(|a| a.name == "AR/VR").unwrap();
        assert!(arvr.latency_ms.hi <= MTP_MS);
        assert!(arvr.latency_ms.lo <= 2.5, "NASA HUD bound included");
    }

    #[test]
    fn gaming_is_within_pl_and_surgery_within_hrt() {
        let apps = driving_applications();
        let gaming = apps.iter().find(|a| a.name == "Cloud gaming").unwrap();
        assert!(gaming.latency_ms.hi <= PL_MS);
        let surgery = apps.iter().find(|a| a.name == "Remote surgery").unwrap();
        assert!(surgery.latency_ms.hi <= HRT_MS);
    }

    #[test]
    fn envelope_math() {
        let e = Envelope::new(10.0, 1000.0);
        assert!((e.center() - 100.0).abs() < 1e-9);
        assert!((e.decades() - 2.0).abs() < 1e-12);
        assert!(e.intersects(500.0, 2000.0));
        assert!(!e.intersects(2000.0, 3000.0));
        assert!(e.intersects(1000.0, 1000.0), "boundary touch counts");
    }

    #[test]
    #[should_panic(expected = "invalid envelope")]
    fn envelope_rejects_inverted_bounds() {
        let _ = Envelope::new(5.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid envelope")]
    fn envelope_rejects_nonpositive() {
        let _ = Envelope::new(0.0, 1.0);
    }
}
