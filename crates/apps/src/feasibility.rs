//! The feasibility-zone analysis of §5 / Figure 8.
//!
//! Figure 8 overlays two measured "reality boundaries" on Figure 2:
//!
//! * **latency gain zone** — edge can only help applications whose
//!   requirement sits *between* the wireless last-mile floor (≈10 ms —
//!   below that not even an edge server at the basestation can deliver)
//!   and the human reaction time (above that the cloud already
//!   delivers, almost globally);
//! * **bandwidth gain zone** — aggregation at the edge only pays for
//!   entities generating at least ~1 GB/day.
//!
//! The intersection is the feasibility zone (FZ). The paper's punchline
//! is that the hyped drivers (AR/VR, autonomous vehicles, wearables,
//! smart city) all fall *outside* it, each for a different reason —
//! which is exactly what [`FeasibilityVerdict`] distinguishes.

use crate::catalog::Application;
use crate::quadrant::BANDWIDTH_BOUNDARY_GB_PER_DAY;
use crate::thresholds::HRT_MS;

/// Why an application is (not) in the feasibility zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeasibilityVerdict {
    /// In the zone: edge offers both latency and bandwidth gains.
    InZone,
    /// Latency requirement below the wireless floor: "too stringent" —
    /// needs onboard processing (autonomous vehicles, AR/VR render
    /// loops).
    TooStringentLatency,
    /// Latency requirement above the cloud-served bound: "too relaxed" —
    /// the cloud already suffices (smart city).
    TooRelaxedLatency,
    /// Entity data volume too small for aggregation gains (wearables).
    InsufficientBandwidth,
}

impl FeasibilityVerdict {
    /// Whether the verdict is [`FeasibilityVerdict::InZone`].
    pub fn in_zone(self) -> bool {
        self == FeasibilityVerdict::InZone
    }

    /// The figure's annotation for the verdict.
    pub fn reason(self) -> &'static str {
        match self {
            FeasibilityVerdict::InZone => "in feasibility zone",
            FeasibilityVerdict::TooStringentLatency => {
                "latency too stringent (below wireless floor)"
            }
            FeasibilityVerdict::TooRelaxedLatency => "latency too relaxed (cloud suffices)",
            FeasibilityVerdict::InsufficientBandwidth => "too little data for aggregation gains",
        }
    }
}

/// The measured zone boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeasibilityZone {
    /// Lower latency bound, ms: the wireless last-mile floor.
    pub latency_floor_ms: f64,
    /// Upper latency bound, ms: what the cloud serves almost globally.
    pub latency_ceiling_ms: f64,
    /// Minimum per-entity daily data volume for bandwidth gains, GB.
    pub bandwidth_gain_gb_per_day: f64,
}

impl FeasibilityZone {
    /// The boundaries the paper states: 10 ms wireless floor, HRT
    /// ceiling, 1 GB/entity/day.
    pub fn paper_defaults() -> Self {
        Self {
            latency_floor_ms: 10.0,
            latency_ceiling_ms: HRT_MS,
            bandwidth_gain_gb_per_day: BANDWIDTH_BOUNDARY_GB_PER_DAY,
        }
    }

    /// Builds a zone from *measured* quantities: the observed wireless
    /// access floor (Fig. 7 analysis) and the RTT the cloud delivers to
    /// most of the world (Fig. 5/6 analysis; the paper uses HRT because
    /// the cloud meets it almost globally). Both inputs come out of the
    /// campaign's indexed frame via `headline_numbers`, so deriving the
    /// zone adds no extra store scan.
    pub fn from_measurements(wireless_floor_ms: f64, cloud_served_ms: f64) -> Self {
        Self {
            latency_floor_ms: wireless_floor_ms,
            latency_ceiling_ms: cloud_served_ms.min(HRT_MS),
            bandwidth_gain_gb_per_day: BANDWIDTH_BOUNDARY_GB_PER_DAY,
        }
    }

    /// Classifies an application by its envelope centre, in priority
    /// order: stringency first (nothing can fix physics), then
    /// relaxedness, then bandwidth.
    pub fn classify(&self, app: &Application) -> FeasibilityVerdict {
        let need = app.latency_ms.center();
        if need < self.latency_floor_ms {
            FeasibilityVerdict::TooStringentLatency
        } else if need > self.latency_ceiling_ms {
            FeasibilityVerdict::TooRelaxedLatency
        } else if app.data_gb_per_day.center() < self.bandwidth_gain_gb_per_day {
            FeasibilityVerdict::InsufficientBandwidth
        } else {
            FeasibilityVerdict::InZone
        }
    }

    /// Total 2025 market (B$) inside and outside the zone — the paper's
    /// "the predicted market share of applications within the edge FZ
    /// pales compared to those for which edge does not provide much
    /// benefit".
    pub fn market_split(&self, apps: &[Application]) -> (f64, f64) {
        apps.iter().fold((0.0, 0.0), |(inside, outside), a| {
            if self.classify(a).in_zone() {
                (inside + a.market_2025_busd, outside)
            } else {
                (inside, outside + a.market_2025_busd)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::driving_applications;

    fn verdict(name: &str) -> FeasibilityVerdict {
        let apps = driving_applications();
        FeasibilityZone::paper_defaults().classify(apps.iter().find(|a| a.name == name).unwrap())
    }

    #[test]
    fn papers_fz_members() {
        // §5: "Applications in this zone, e.g., traffic camera
        // monitoring, cloud gaming, etc., clearly benefit".
        assert!(verdict("Traffic camera monitoring").in_zone());
        assert!(verdict("Cloud gaming").in_zone());
    }

    #[test]
    fn papers_exclusions_with_reasons() {
        assert_eq!(
            verdict("Autonomous vehicles"),
            FeasibilityVerdict::TooStringentLatency
        );
        assert_eq!(verdict("AR/VR"), FeasibilityVerdict::TooStringentLatency);
        assert_eq!(verdict("Smart city"), FeasibilityVerdict::TooRelaxedLatency);
        assert_eq!(
            verdict("Wearables"),
            FeasibilityVerdict::InsufficientBandwidth
        );
        assert_eq!(verdict("Smart home"), FeasibilityVerdict::TooRelaxedLatency);
    }

    #[test]
    fn fz_market_pales_against_outside() {
        let apps = driving_applications();
        let (inside, outside) = FeasibilityZone::paper_defaults().market_split(&apps);
        assert!(inside > 0.0);
        assert!(
            outside > 3.0 * inside,
            "inside {inside} B$, outside {outside} B$"
        );
    }

    #[test]
    fn widening_the_floor_admits_stringent_apps() {
        // With an edge delivering 2 ms access (the 5G promise), AR/VR's
        // envelope centre (~7 ms) enters the zone.
        let zone = FeasibilityZone {
            latency_floor_ms: 2.0,
            ..FeasibilityZone::paper_defaults()
        };
        let apps = driving_applications();
        let arvr = apps.iter().find(|a| a.name == "AR/VR").unwrap();
        assert!(zone.classify(arvr).in_zone());
    }

    #[test]
    fn from_measurements_caps_ceiling_at_hrt() {
        let z = FeasibilityZone::from_measurements(12.0, 400.0);
        assert_eq!(z.latency_ceiling_ms, HRT_MS);
        assert_eq!(z.latency_floor_ms, 12.0);
    }

    #[test]
    fn verdict_reasons_are_informative() {
        for v in [
            FeasibilityVerdict::InZone,
            FeasibilityVerdict::TooStringentLatency,
            FeasibilityVerdict::TooRelaxedLatency,
            FeasibilityVerdict::InsufficientBandwidth,
        ] {
            assert!(!v.reason().is_empty());
        }
    }
}
