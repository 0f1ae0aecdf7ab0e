//! The quadrant grouping of §3.
//!
//! The paper divides Figure 2's plane into four quadrants at a latency
//! strictness boundary (the Perceivable Latency threshold — "the core
//! aim of applications in Q1 is … to operate within the PL threshold")
//! and a data-volume boundary of one GB per entity per day (the level
//! at which aggregation at the edge starts saving meaningful backhaul
//! bandwidth, §5).

use crate::catalog::Application;
use crate::thresholds::PL_MS;

/// Data-volume boundary between "low" and "high" bandwidth demand,
/// GB per entity per day (§5: "we estimate 1GB/entity data generation
/// to be a fitting threshold").
pub const BANDWIDTH_BOUNDARY_GB_PER_DAY: f64 = 1.0;

/// The four quadrants of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// Strict latency, little data (wearables, health monitoring).
    Q1LowLatencyLowBandwidth,
    /// Strict latency, much data (AR/VR, autonomous vehicles, gaming) —
    /// "popularly heralded as the driving force behind edge computing".
    Q2LowLatencyHighBandwidth,
    /// Relaxed latency, much data (smart city): edge as pre-processor.
    Q3HighLatencyHighBandwidth,
    /// Relaxed latency, little data (smart home, weather monitoring):
    /// "do not offer compelling reasons for deploying edge servers".
    Q4HighLatencyLowBandwidth,
}

impl Quadrant {
    /// All quadrants in numbering order.
    pub const ALL: [Quadrant; 4] = [
        Quadrant::Q1LowLatencyLowBandwidth,
        Quadrant::Q2LowLatencyHighBandwidth,
        Quadrant::Q3HighLatencyHighBandwidth,
        Quadrant::Q4HighLatencyLowBandwidth,
    ];

    /// Short label ("Q1" … "Q4").
    pub fn label(self) -> &'static str {
        match self {
            Quadrant::Q1LowLatencyLowBandwidth => "Q1",
            Quadrant::Q2LowLatencyHighBandwidth => "Q2",
            Quadrant::Q3HighLatencyHighBandwidth => "Q3",
            Quadrant::Q4HighLatencyLowBandwidth => "Q4",
        }
    }

    /// Classifies an application by its envelope centres.
    pub fn classify(app: &Application) -> Quadrant {
        let strict_latency = app.latency_ms.center() <= PL_MS;
        let high_bandwidth = app.data_gb_per_day.center() >= BANDWIDTH_BOUNDARY_GB_PER_DAY;
        match (strict_latency, high_bandwidth) {
            (true, false) => Quadrant::Q1LowLatencyLowBandwidth,
            (true, true) => Quadrant::Q2LowLatencyHighBandwidth,
            (false, true) => Quadrant::Q3HighLatencyHighBandwidth,
            (false, false) => Quadrant::Q4HighLatencyLowBandwidth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::driving_applications;

    fn quadrant_of(name: &str) -> Quadrant {
        let apps = driving_applications();
        Quadrant::classify(apps.iter().find(|a| a.name == name).unwrap())
    }

    #[test]
    fn paper_examples_land_in_their_quadrants() {
        // §3's explicit placements.
        assert_eq!(quadrant_of("Wearables"), Quadrant::Q1LowLatencyLowBandwidth);
        assert_eq!(
            quadrant_of("Health monitoring"),
            Quadrant::Q1LowLatencyLowBandwidth
        );
        assert_eq!(
            quadrant_of("Autonomous vehicles"),
            Quadrant::Q2LowLatencyHighBandwidth
        );
        assert_eq!(quadrant_of("AR/VR"), Quadrant::Q2LowLatencyHighBandwidth);
        assert_eq!(
            quadrant_of("Cloud gaming"),
            Quadrant::Q2LowLatencyHighBandwidth
        );
        assert_eq!(
            quadrant_of("Smart city"),
            Quadrant::Q3HighLatencyHighBandwidth
        );
        assert_eq!(
            quadrant_of("Smart home"),
            Quadrant::Q4HighLatencyLowBandwidth
        );
        assert_eq!(
            quadrant_of("Weather monitoring"),
            Quadrant::Q4HighLatencyLowBandwidth
        );
    }

    #[test]
    fn every_quadrant_is_populated() {
        let apps = driving_applications();
        for q in Quadrant::ALL {
            assert!(
                apps.iter().any(|a| Quadrant::classify(a) == q),
                "{} empty",
                q.label()
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Quadrant::Q1LowLatencyLowBandwidth.label(), "Q1");
        assert_eq!(Quadrant::Q4HighLatencyLowBandwidth.label(), "Q4");
    }
}
