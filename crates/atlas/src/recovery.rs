//! Measurement recovery policy: bounded retry with exponential backoff and
//! jitter, a per-measurement timeout, and optional credit refunds.
//!
//! The paper's nine-month campaign survived constant probe churn and loss
//! because Atlas retries failed measurements (and refunds the credits of
//! the ones it gives up on). [`RetryPolicy`] reproduces that recovery loop
//! deterministically: backoff jitter draws come from the campaign's
//! per-`(probe, round)` [`SimRng`] stream, and [`RetryPolicy::none`] — the
//! default — performs zero retries and zero extra RNG draws, so fault-free
//! campaigns stay bit-identical with PR 2.
//!
//! [`RetryPolicy::measure`] is the one attempt loop: campaign rounds
//! (ping and TCP) and the API's creates fire, retry and charge every
//! measurement through it.

use shears_netsim::stochastic::SimRng;
use shears_netsim::SimTime;

/// Bounded-retry policy for one measurement slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of retries after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: SimTime,
    /// Cap on a single backoff interval (before jitter).
    pub max_backoff: SimTime,
    /// Jitter factor: each backoff is scaled by `1 + jitter * U[0,1)`.
    /// Zero disables the jitter draw entirely.
    pub jitter: f64,
    /// A retry is abandoned when it would start later than this after the
    /// originally scheduled attempt.
    pub measurement_timeout: SimTime,
    /// Refund the credits of measurements that still fail after the last
    /// retry (Atlas refunds failed one-offs).
    pub refund_failures: bool,
}

impl RetryPolicy {
    /// No retries, no refunds, no extra RNG draws — the default policy,
    /// bit-identical to a campaign without recovery machinery.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: SimTime::ZERO,
            max_backoff: SimTime::ZERO,
            jitter: 0.0,
            measurement_timeout: SimTime::ZERO,
            refund_failures: false,
        }
    }

    /// The recovery loop used for degraded campaigns: two retries at
    /// 30 s / 60 s (+ up to 50% jitter), a 15-minute per-measurement
    /// budget, and refunds for measurements that never respond.
    pub const fn atlas_default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: SimTime::from_secs(30),
            max_backoff: SimTime::from_secs(240),
            jitter: 0.5,
            measurement_timeout: SimTime::from_secs(900),
            refund_failures: true,
        }
    }

    /// Fires one measurement scheduled at `at`. `attempt` runs at each
    /// instant of the retry schedule, drawing from `rng`, until
    /// `succeeded` accepts its outcome or the schedule refuses a retry.
    /// Jitter is drawn only after a failed attempt, and not after the
    /// first refusal.
    pub fn measure<T>(
        &self,
        at: SimTime,
        rng: &mut SimRng,
        mut attempt: impl FnMut(SimTime, &mut SimRng) -> Option<T>,
        succeeded: impl Fn(&T) -> bool,
    ) -> Measured<T> {
        let mut schedule = self.schedule(at);
        let mut kept = None;
        let mut attempts = 0;
        loop {
            attempts += 1;
            let outcome = attempt(schedule.attempt_at(), rng);
            let ok = outcome.as_ref().is_some_and(&succeeded);
            if ok || kept.is_none() {
                kept = outcome;
            }
            if ok || !schedule.next(self, rng) {
                return Measured {
                    outcome: kept,
                    attempts,
                    succeeded: ok,
                };
            }
        }
    }

    /// The credits `measured` is charged at `cost` per attempt, and the
    /// part of them refunded: all of it when no attempt succeeded and the
    /// policy refunds failures.
    pub fn charge<T>(&self, measured: &Measured<T>, cost: u64) -> (u64, u64) {
        let charge = cost.saturating_mul(u64::from(measured.attempts));
        let refunded = !measured.succeeded && self.refund_failures;
        (charge, if refunded { charge } else { 0 })
    }

    /// Starts the retry schedule for a measurement scheduled at `at`.
    pub fn schedule(&self, at: SimTime) -> RetrySchedule {
        RetrySchedule {
            scheduled: at,
            at,
            retries: 0,
            timed_out: false,
        }
    }

    /// Upper bound on the delay the schedule can accumulate past the
    /// scheduled instant: `max_retries` backoffs, each capped at
    /// `max_backoff * (1 + jitter)`, further clipped by the timeout.
    pub fn max_total_delay(&self) -> SimTime {
        if self.max_retries == 0 {
            return SimTime::ZERO;
        }
        let per_retry = self.max_backoff.as_millis_f64() * (1.0 + self.jitter.max(0.0));
        let unclipped = per_retry * f64::from(self.max_retries);
        let clipped = unclipped.min(self.measurement_timeout.as_millis_f64());
        SimTime::from_millis_f64(clipped)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// What [`RetryPolicy::measure`] found for one measurement.
#[derive(Debug)]
pub struct Measured<T> {
    /// The successful attempt's outcome, else the first outcome an
    /// attempt returned (`None`: none did, as for a disconnected pair).
    pub outcome: Option<T>,
    /// Attempts fired, the first included.
    pub attempts: u32,
    /// Whether an attempt succeeded.
    pub succeeded: bool,
}

/// Iterator-like state for one measurement's attempts under a
/// [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySchedule {
    scheduled: SimTime,
    at: SimTime,
    retries: u32,
    /// A retry was refused for starting past the timeout.
    timed_out: bool,
}

impl RetrySchedule {
    /// Instant of the current attempt.
    pub fn attempt_at(&self) -> SimTime {
        self.at
    }

    /// Number of retries performed so far (0 during the first attempt).
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Advances to the next retry. Returns `false` (without drawing any
    /// jitter) when the retry budget is exhausted, and `false` when the
    /// backed-off attempt would start past the measurement timeout.
    /// Once it has returned `false`, it keeps returning `false` without
    /// drawing: a later, smaller jitter draw must not revive a schedule
    /// that already gave up.
    pub fn next(&mut self, policy: &RetryPolicy, rng: &mut SimRng) -> bool {
        if self.timed_out || self.retries >= policy.max_retries {
            return false;
        }
        let exp = policy.base_backoff.as_millis_f64() * 2.0_f64.powi(self.retries as i32);
        let capped = exp.min(policy.max_backoff.as_millis_f64());
        let jittered = if policy.jitter > 0.0 {
            capped * (1.0 + policy.jitter * rng.uniform())
        } else {
            capped
        };
        let next_at = self.at + SimTime::from_millis_f64(jittered);
        if next_at.saturating_since(self.scheduled) > policy.measurement_timeout {
            self.timed_out = true;
            return false;
        }
        self.retries += 1;
        self.at = next_at;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_never_retries_and_never_draws() {
        let policy = RetryPolicy::none();
        let mut rng = SimRng::new(1);
        let mut twin = SimRng::new(1);
        let mut sched = policy.schedule(SimTime::from_hours(2));
        assert!(!sched.next(&policy, &mut rng));
        assert_eq!(sched.attempt_at(), SimTime::from_hours(2));
        assert_eq!(sched.retries(), 0);
        // The refusal consumed no RNG state.
        assert_eq!(rng.next_u64(), twin.next_u64());
        assert_eq!(policy.max_total_delay(), SimTime::ZERO);
    }

    #[test]
    fn measure_keeps_the_success_else_the_first_outcome() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::atlas_default()
        };
        let start = SimTime::from_hours(1);
        // Attempt k (from 1) returns `(k, ok)`, or nothing for `None`.
        let run = |outcomes: [Option<bool>; 3]| {
            let mut fired = Vec::new();
            let attempt = |when, _: &mut SimRng| {
                fired.push(when);
                outcomes[fired.len() - 1].map(|ok| (fired.len(), ok))
            };
            let measured = policy.measure(start, &mut SimRng::new(5), attempt, |o| o.1);
            (measured, fired)
        };
        let (won, fired) = run([None, Some(false), Some(true)]);
        let secs = SimTime::from_secs;
        assert_eq!(fired, [start, start + secs(30), start + secs(90)]);
        assert_eq!((won.outcome, won.attempts), (Some((3, true)), 3));
        assert_eq!(policy.charge(&won, 3), (9, 0), "a success is not refunded");
        let (lost, _) = run([None, Some(false), Some(false)]);
        assert_eq!((lost.outcome, lost.succeeded), (Some((2, false)), false));
        assert_eq!(policy.charge(&lost, 3), (9, 9), "a failure is refunded");
    }

    #[test]
    fn retries_are_bounded_and_backoff_grows() {
        let policy = RetryPolicy {
            jitter: 0.0,
            refund_failures: false,
            ..RetryPolicy::atlas_default()
        };
        let mut rng = SimRng::new(2);
        let start = SimTime::from_hours(1);
        let mut sched = policy.schedule(start);
        assert!(sched.next(&policy, &mut rng));
        assert_eq!(sched.attempt_at(), start + SimTime::from_secs(30));
        assert!(sched.next(&policy, &mut rng));
        assert_eq!(sched.attempt_at(), start + SimTime::from_secs(90));
        assert!(!sched.next(&policy, &mut rng), "third retry exceeds budget");
        assert_eq!(sched.retries(), 2);
    }

    #[test]
    fn timeout_clips_the_schedule() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff: SimTime::from_secs(60),
            max_backoff: SimTime::from_secs(60),
            jitter: 0.0,
            measurement_timeout: SimTime::from_secs(150),
            refund_failures: false,
        };
        let mut rng = SimRng::new(3);
        let mut sched = policy.schedule(SimTime::ZERO);
        let mut granted = 0;
        while sched.next(&policy, &mut rng) {
            granted += 1;
        }
        // 60 s and 120 s fit inside 150 s; 180 s does not.
        assert_eq!(granted, 2);
        assert!(sched.attempt_at() <= policy.measurement_timeout);
    }

    #[test]
    fn a_timed_out_schedule_stays_exhausted() {
        // The sixth retry overruns the timeout on one jitter draw and
        // would fit on the next one.
        let policy = RetryPolicy {
            max_retries: 6,
            base_backoff: SimTime::from_secs(3),
            max_backoff: SimTime::from_secs(558),
            jitter: 0.6455677330870715,
            measurement_timeout: SimTime::from_secs(227),
            refund_failures: true,
        };
        let mut rng = SimRng::new(4978538012169997576);
        let mut sched = policy.schedule(SimTime::from_hours(3));
        while sched.next(&policy, &mut rng) {}
        assert!(
            sched.retries() < policy.max_retries,
            "the timeout, not the budget, ended it"
        );
        assert!(
            !sched.next(&policy, &mut rng),
            "a refused schedule came back"
        );
    }

    #[test]
    fn jitter_stays_within_the_declared_bound() {
        let policy = RetryPolicy::atlas_default();
        for seed in 0..50u64 {
            let mut rng = SimRng::new(seed);
            let start = SimTime::from_hours(3);
            let mut sched = policy.schedule(start);
            while sched.next(&policy, &mut rng) {}
            assert!(sched.retries() <= policy.max_retries);
            assert!(
                sched.attempt_at().saturating_since(start) <= policy.max_total_delay(),
                "seed {seed}"
            );
        }
    }
}
