//! Scheduled fault injection for worker fleets.
//!
//! A [`ChaosProxy`] sits between a worker and its assigned rounds: at
//! the top of each round the worker asks the proxy whether anything
//! bad happens *now*. The schedule is fixed up front (explicitly or
//! drawn from a seed), so a chaos run is exactly reproducible — the
//! property the bit-identical-merge tests lean on: whatever the proxy
//! does to the fleet, the coordinator's final store must not move.

use std::time::Duration;

use shears_geo::rng::splitmix64;

/// One scheduled misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// The worker process dies at the top of the round: nothing is
    /// computed, nothing is journaled, nothing is sent. Its WAL stays
    /// on disk for a restarted incarnation.
    Kill,
    /// The worker dies *after* journaling the round but before
    /// submitting it — the interesting crash: the round exists only
    /// in the local WAL, and a restart must re-frame it from the
    /// journal without recomputing.
    KillAfterJournal,
    /// The worker goes silent for the duration — no heartbeats, no
    /// frames. Long hangs trip the coordinator's failure detector and
    /// get the shard reassigned; the revenant's late frames are then
    /// deduplicated, not double-merged.
    Hang(Duration),
    /// The worker stalls for the duration — alive-but-slow. The
    /// transport-layer heartbeater keeps liveness flowing, so a delay
    /// blows round deadlines (backoff, eventually fencing) without
    /// ever tripping the liveness detector.
    Delay(Duration),
}

/// A worker's chaos schedule: at most one action per round, consumed
/// as the worker reaches that round (a restarted incarnation does not
/// replay already-consumed events).
#[derive(Debug, Clone, Default)]
pub struct ChaosProxy {
    events: Vec<(u32, ChaosAction)>,
}

impl ChaosProxy {
    /// A proxy that never misbehaves.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kill the worker at the top of `round`.
    pub fn kill_at(round: u32) -> Self {
        Self::none().and(round, ChaosAction::Kill)
    }

    /// Kill the worker after journaling `round`, before submitting it.
    pub fn kill_after_journal_at(round: u32) -> Self {
        Self::none().and(round, ChaosAction::KillAfterJournal)
    }

    /// Go silent for `d` at the top of `round`.
    pub fn hang_at(round: u32, d: Duration) -> Self {
        Self::none().and(round, ChaosAction::Hang(d))
    }

    /// Stall (heartbeating) for `d` at the top of `round`.
    pub fn delay_at(round: u32, d: Duration) -> Self {
        Self::none().and(round, ChaosAction::Delay(d))
    }

    /// Adds another scheduled action (builder style). A later action
    /// for the same round is kept — each round fires at most the first
    /// matching event.
    pub fn and(mut self, round: u32, action: ChaosAction) -> Self {
        self.events.push((round, action));
        self
    }

    /// Draws a schedule from a seed: per round, a ~1-in-8 chance of
    /// misbehaving, split between hangs, delays and (at most one, so a
    /// restart-free fleet of two such proxies cannot wipe itself out
    /// twice) a kill. Deterministic in `seed` and `rounds`.
    pub fn generate(seed: u64, rounds: u32) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut events = Vec::new();
        let mut killed = false;
        for round in 0..rounds {
            let draw = splitmix64(&mut state);
            if !draw.is_multiple_of(8) {
                continue;
            }
            let pick = (draw >> 8) % 4;
            let ms = 60 + (draw >> 16) % 240;
            let action = match pick {
                0 if !killed => {
                    killed = true;
                    ChaosAction::Kill
                }
                1 if !killed => {
                    killed = true;
                    ChaosAction::KillAfterJournal
                }
                2 => ChaosAction::Hang(Duration::from_millis(ms)),
                _ => ChaosAction::Delay(Duration::from_millis(ms)),
            };
            events.push((round, action));
        }
        Self { events }
    }

    /// Consumes and returns the action scheduled for `round`, if any.
    pub fn take(&mut self, round: u32) -> Option<ChaosAction> {
        let i = self.events.iter().position(|&(r, _)| r == round)?;
        Some(self.events.remove(i).1)
    }

    /// Actions not yet consumed.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }

    /// Whether no action is left: the proxy never misbehaves from here.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_fire_once_and_in_round_order() {
        assert!(ChaosProxy::none().is_empty());
        let mut p = ChaosProxy::kill_at(3).and(5, ChaosAction::Hang(Duration::from_millis(10)));
        assert!(!p.is_empty());
        assert_eq!(p.take(0), None);
        assert_eq!(p.take(3), Some(ChaosAction::Kill));
        assert_eq!(p.take(3), None, "events are consumed");
        assert_eq!(
            p.take(5),
            Some(ChaosAction::Hang(Duration::from_millis(10)))
        );
        assert_eq!(p.remaining(), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn generated_schedules_are_deterministic_and_kill_at_most_once() {
        let a = ChaosProxy::generate(42, 64);
        let b = ChaosProxy::generate(42, 64);
        assert_eq!(a.events, b.events);
        let kills = a
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ChaosAction::Kill | ChaosAction::KillAfterJournal))
            .count();
        assert!(kills <= 1, "at most one kill per schedule, got {kills}");
        assert_ne!(
            ChaosProxy::generate(43, 64).events,
            a.events,
            "different seeds draw different schedules"
        );
    }
}
