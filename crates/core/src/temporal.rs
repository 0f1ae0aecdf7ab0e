//! TEXT3: temporal structure of the measurements.
//!
//! The campaign spans months of three-hourly rounds, so two temporal
//! questions are answerable that single-shot studies cannot ask:
//!
//! * **diurnal shape** — RTT by *local* hour of day: residential
//!   congestion peaks in the evening (the bufferbloat literature's
//!   load pattern; our simulator models it, this analysis verifies the
//!   data actually shows it);
//! * **longitudinal stability** — per-week medians: the paper's Fig. 7
//!   plots flat lines over the measurement period, implying the wired/
//!   wireless structure is stationary rather than an artefact of one
//!   lucky week.

use shears_netsim::SimTime;

use crate::data::CampaignData;
use crate::kernels;

/// Median RTT per local hour-of-day bucket.
#[derive(Debug, Clone)]
pub struct DiurnalProfile {
    /// `buckets[h]` = median RTT of samples whose probe-local time of
    /// day falls in hour `h` (`None` when the bucket is empty).
    pub buckets: Vec<Option<f64>>,
    /// Samples analysed.
    pub samples: usize,
}

impl DiurnalProfile {
    /// The quietest and busiest hours (by median), when computable.
    pub fn extremes(&self) -> Option<(usize, usize)> {
        let present: Vec<(usize, f64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(h, v)| v.map(|v| (h, v)))
            .collect();
        if present.len() < 12 {
            return None;
        }
        let min = present.iter().min_by(|a, b| a.1.total_cmp(&b.1))?.0;
        let max = present.iter().max_by(|a, b| a.1.total_cmp(&b.1))?.0;
        Some((min, max))
    }

    /// Peak-to-trough ratio of the medians.
    pub fn swing(&self) -> Option<f64> {
        let (lo, hi) = self.extremes()?;
        match (self.buckets[lo], self.buckets[hi]) {
            (Some(l), Some(h)) if l > 0.0 => Some(h / l),
            _ => None,
        }
    }
}

/// Computes the diurnal profile over every responded round (all
/// continents pooled; congestion follows local time by construction,
/// so pooling is sound once hours are localised). This stays on the
/// streaming iterator: it touches every sample exactly once with no
/// aggregate the frame could pre-answer.
pub fn diurnal_profile(data: &CampaignData<'_>) -> DiurnalProfile {
    let mut per_hour: Vec<Vec<f64>> = vec![Vec::new(); 24];
    let mut samples = 0;
    for (probe, s) in data.filtered_responded() {
        let hour = s.at.local_hour_of_day(probe.location.lon) as usize % 24;
        // Use the round's *average* (not min-of-3): congestion is the
        // signal here, and minima are designed to strip it.
        if s.avg_ms.is_finite() {
            per_hour[hour].push(f64::from(s.avg_ms));
            samples += 1;
        }
    }
    DiurnalProfile {
        // Selection-kernel medians: exact nearest-rank per bucket with
        // no per-bucket sort.
        buckets: per_hour.into_iter().map(|v| kernels::median(&v)).collect(),
        samples,
    }
}

/// Per-window medians over the campaign (longitudinal stability view).
#[derive(Debug, Clone)]
pub struct StabilitySeries {
    /// Window width.
    pub window: SimTime,
    /// `(window start, median RTT)` pairs in time order.
    pub points: Vec<(SimTime, f64)>,
}

impl StabilitySeries {
    /// Relative spread of the window medians: (max − min) / overall
    /// median. Small = stationary campaign.
    pub fn relative_spread(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let values: Vec<f64> = self.points.iter().map(|(_, v)| *v).collect();
        let overall = kernels::median(&values)?;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some((max - min) / overall)
    }
}

/// Computes the per-window median series via the frame's time index:
/// each window is a binary-searched slice instead of a full-store
/// bucketing pass. Windows with no surviving samples are skipped, as
/// the bucketing path did.
pub fn stability_series(data: &CampaignData<'_>, window: SimTime) -> StabilitySeries {
    assert!(window.as_nanos() > 0, "window must be positive");
    let frame = data.frame();
    let mut points = Vec::new();
    if let Some((first, last)) = frame.time_span(data.store()) {
        let w = window.as_nanos();
        for k in (first.as_nanos() / w)..=(last.as_nanos() / w) {
            let from = SimTime::from_nanos(k * w);
            let to = SimTime::from_nanos((k + 1) * w);
            let values: Vec<f64> = frame
                .in_window(data.store(), from, to)
                .filter(|s| !frame.is_privileged(s.probe) && s.responded())
                .map(|s| f64::from(s.min_ms))
                .collect();
            if let Some(m) = kernels::median(&values) {
                points.push((from, m));
            }
        }
    }
    StabilitySeries { window, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{Campaign, CampaignConfig, FleetConfig, Platform, PlatformConfig};

    fn data() -> (Platform, shears_atlas::ResultStore) {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 350,
                seed: 111,
            },
            ..PlatformConfig::default()
        });
        let store = Campaign::new(
            &platform,
            CampaignConfig {
                rounds: 32, // four simulated days of 3-hourly rounds
                targets_per_probe: 2,
                adjacent_targets: 1,
                ..CampaignConfig::quick()
            },
        )
        .run_parallel(4)
        .unwrap();
        (platform, store)
    }

    #[test]
    fn evening_is_slower_than_early_morning() {
        let (platform, store) = data();
        let view = CampaignData::new(&platform, &store);
        let profile = diurnal_profile(&view);
        assert!(profile.samples > 1000);
        let (quiet, busy) = profile.extremes().expect("enough hourly coverage");
        // The residential model peaks at 21:00 local, troughs early
        // morning; allow generous windows.
        assert!(
            (18..=23).contains(&busy),
            "busiest hour {busy} not in the evening"
        );
        assert!(
            (2..=11).contains(&quiet),
            "quietest hour {quiet} not in the morning"
        );
        let swing = profile.swing().unwrap();
        assert!(swing > 1.05, "diurnal swing {swing} too flat");
    }

    #[test]
    fn campaign_is_longitudinally_stationary() {
        let (platform, store) = data();
        let view = CampaignData::new(&platform, &store);
        let series = stability_series(&view, SimTime::from_hours(24));
        assert!(series.points.len() >= 3);
        let spread = series.relative_spread().unwrap();
        assert!(
            spread < 0.25,
            "per-day medians vary by {spread} of the median"
        );
        // Points are time-ordered.
        assert!(series.points.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let (platform, store) = data();
        let view = CampaignData::new(&platform, &store);
        let _ = stability_series(&view, SimTime::ZERO);
    }
}
