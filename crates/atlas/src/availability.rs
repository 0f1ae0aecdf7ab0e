//! Probe availability as connect/disconnect episodes.
//!
//! Real Atlas probes do not flip a coin every round: they disappear for
//! hours or days (power cuts, moved hardware, ISP churn) and come back.
//! §4.2 keeps such probes in the analysis ("the result includes probes
//! without a stable Internet connection"), so the campaign needs their
//! outage *pattern*, not just their average availability.
//!
//! The model is an alternating renewal process: exponentially
//! distributed up and down episodes whose means are chosen so the
//! long-run up fraction equals the probe's `stability`. A probe's whole
//! schedule is derived from one keyed seed, so availability at any
//! instant is deterministic and independent of query order.

use shears_netsim::stochastic::SimRng;
use shears_netsim::SimTime;

/// Mean length of an up episode, hours. Down episodes scale to match
/// the probe's stability: `mean_down = mean_up · (1 − s) / s`.
const MEAN_UP_HOURS: f64 = 24.0 * 7.0;

/// A probe's precomputed outage schedule over a campaign window.
#[derive(Debug, Clone)]
pub struct OutageSchedule {
    /// Sorted disjoint `[start, end)` down intervals.
    downtimes: Vec<(SimTime, SimTime)>,
}

impl OutageSchedule {
    /// Builds the schedule for a probe with the given `stability`
    /// (long-run up fraction, clamped to `[0.01, 1.0]`) over
    /// `[0, horizon)`. The caller supplies a per-probe `SimRng` (keyed
    /// fork) so schedules are order-independent.
    pub fn generate(rng: &mut SimRng, stability: f64, horizon: SimTime) -> Self {
        let s = stability.clamp(0.01, 1.0);
        if s >= 1.0 {
            return Self {
                downtimes: Vec::new(),
            };
        }
        let mean_up_ms = MEAN_UP_HOURS * 3_600_000.0;
        let mean_down_ms = mean_up_ms * (1.0 - s) / s;
        let mut downtimes = Vec::new();
        // Start in steady state: with probability (1-s) the probe is
        // down at t=0.
        let mut t_ms = 0.0;
        let mut up = rng.uniform() < s;
        let horizon_ms = horizon.as_millis_f64();
        while t_ms < horizon_ms {
            if up {
                t_ms += rng.exponential(mean_up_ms);
                up = false;
            } else {
                let end = t_ms + rng.exponential(mean_down_ms);
                downtimes.push((
                    SimTime::from_millis_f64(t_ms),
                    SimTime::from_millis_f64(end.min(horizon_ms)),
                ));
                t_ms = end;
                up = true;
            }
        }
        Self { downtimes }
    }

    /// Whether the probe is up at instant `t`.
    pub fn is_up(&self, t: SimTime) -> bool {
        // Binary search over sorted disjoint intervals.
        self.downtimes
            .binary_search_by(|&(start, end)| {
                if t < start {
                    std::cmp::Ordering::Greater
                } else if t >= end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_err()
    }

    /// Number of outage episodes in the window.
    pub fn outages(&self) -> usize {
        self.downtimes.len()
    }

    /// Fraction of the window spent up.
    pub fn up_fraction(&self, horizon: SimTime) -> f64 {
        let h = horizon.as_millis_f64();
        if h <= 0.0 {
            return 1.0;
        }
        let down: f64 = self
            .downtimes
            .iter()
            .map(|&(a, b)| (b.as_millis_f64().min(h) - a.as_millis_f64()).max(0.0))
            .sum();
        (1.0 - down / h).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimTime {
        SimTime::from_days(270) // nine months
    }

    #[test]
    fn perfect_stability_means_no_outages() {
        let mut rng = SimRng::new(1);
        let s = OutageSchedule::generate(&mut rng, 1.0, horizon());
        assert_eq!(s.outages(), 0);
        assert!(s.is_up(SimTime::from_days(100)));
        assert_eq!(s.up_fraction(horizon()), 1.0);
    }

    #[test]
    fn up_fraction_tracks_stability_in_aggregate() {
        // One probe's realisation is noisy; average many.
        let mut rng = SimRng::new(7);
        let target = 0.85;
        let n = 200;
        let mean: f64 = (0..n)
            .map(|_| {
                let mut child = rng.fork();
                OutageSchedule::generate(&mut child, target, horizon()).up_fraction(horizon())
            })
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - target).abs() < 0.05,
            "mean up fraction {mean} vs stability {target}"
        );
    }

    #[test]
    fn outages_are_episodes_not_noise() {
        // At 85 % stability with week-scale episodes, a nine-month
        // window sees a handful of outages — not thousands of flips.
        let mut rng = SimRng::new(13);
        let s = OutageSchedule::generate(&mut rng, 0.85, horizon());
        assert!(s.outages() < 30, "{} outages", s.outages());
    }

    #[test]
    fn is_up_respects_interval_boundaries() {
        let mut rng = SimRng::new(5);
        let s = OutageSchedule::generate(&mut rng, 0.5, horizon());
        if let Some(&(start, end)) = s.downtimes.first() {
            assert!(!s.is_up(start));
            assert!(s.is_up(end), "intervals are half-open");
            if start > SimTime::ZERO {
                assert!(s.is_up(start - SimTime::from_nanos(1)));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let build = |seed| {
            let mut rng = SimRng::new(seed);
            OutageSchedule::generate(&mut rng, 0.8, horizon())
        };
        let a = build(42);
        let b = build(42);
        for h in (0..270 * 24).step_by(13) {
            let t = SimTime::from_hours(h);
            assert_eq!(a.is_up(t), b.is_up(t));
        }
    }

    #[test]
    fn zero_horizon_is_degenerate_but_sane() {
        let mut rng = SimRng::new(3);
        let s = OutageSchedule::generate(&mut rng, 0.5, SimTime::ZERO);
        // No window, so nothing to be down in — and up_fraction must not
        // divide by zero.
        assert_eq!(s.up_fraction(SimTime::ZERO), 1.0);
        assert_eq!(s.up_fraction(SimTime::from_hours(1)), 1.0);
    }

    #[test]
    fn back_to_back_outages_keep_boundaries_half_open() {
        // A schedule whose down intervals touch: [1h,2h) and [2h,3h).
        // Construction draws an up episode between them, but the query
        // logic itself must handle adjacency without gaps or overlap.
        let s = OutageSchedule {
            downtimes: vec![
                (SimTime::from_hours(1), SimTime::from_hours(2)),
                (SimTime::from_hours(2), SimTime::from_hours(3)),
            ],
        };
        assert!(s.is_up(SimTime::ZERO));
        assert!(!s.is_up(SimTime::from_hours(1)));
        assert!(
            !s.is_up(SimTime::from_hours(2)),
            "the shared boundary belongs to the second outage"
        );
        assert!(!s.is_up(SimTime::from_hours(3) - SimTime::from_nanos(1)));
        assert!(s.is_up(SimTime::from_hours(3)));
        assert_eq!(s.outages(), 2);
        // Two of four hours down.
        let got = s.up_fraction(SimTime::from_hours(4));
        assert!((got - 0.5).abs() < 1e-9, "up fraction {got}");
    }

    #[test]
    fn up_fraction_clips_intervals_at_the_queried_horizon() {
        // One outage [1h,3h); query at 2h: only 1 of 2 hours counts.
        let s = OutageSchedule {
            downtimes: vec![(SimTime::from_hours(1), SimTime::from_hours(3))],
        };
        let got = s.up_fraction(SimTime::from_hours(2));
        assert!((got - 0.5).abs() < 1e-9, "up fraction {got}");
        // Query exactly at the outage start: fully up before it.
        assert_eq!(s.up_fraction(SimTime::from_hours(1)), 1.0);
        // Query far past the horizon: 2 of 8 hours down.
        let got = s.up_fraction(SimTime::from_hours(8));
        assert!((got - 0.75).abs() < 1e-9, "up fraction {got}");
    }

    #[test]
    fn stability_is_clamped_at_both_ends() {
        let mut rng = SimRng::new(8);
        // Above 1.0 behaves like 1.0: always up.
        let s = OutageSchedule::generate(&mut rng, 7.5, horizon());
        assert_eq!(s.outages(), 0);
        // Far below the clamp floor behaves like 1%: mostly down, but
        // the schedule is still finite and well-formed.
        let s = OutageSchedule::generate(&mut rng, -3.0, horizon());
        assert!(s.up_fraction(horizon()) < 0.3);
        for w in s.downtimes.windows(2) {
            assert!(w[0].1 <= w[1].0, "intervals sorted and disjoint");
        }
    }

    #[test]
    fn low_stability_probes_are_mostly_down() {
        let mut rng = SimRng::new(99);
        let n = 100;
        let mean: f64 = (0..n)
            .map(|_| {
                let mut child = rng.fork();
                OutageSchedule::generate(&mut child, 0.1, horizon()).up_fraction(horizon())
            })
            .sum::<f64>()
            / n as f64;
        assert!(mean < 0.25, "mean up fraction {mean}");
    }
}
