//! Kill-at-any-round recovery harness.
//!
//! The durability contract (DESIGN.md §7d): a campaign killed after any
//! durable round and resumed from its journal must produce a
//! `ResultStore` bit-identical to an uninterrupted run and a conserved
//! credit ledger — for every seed, kill point, worker count and fault
//! profile. These sweeps pin that contract:
//!
//! * 10 seeds × 3 kill rounds × threads {1, 2, 8} × fault profiles
//!   {none, chaos, chaos with retries and refunds}, each crash + resume
//!   diffed bit-for-bit against the clean run (and, fault-free, against
//!   the plain sequential [`Campaign::run`]);
//! * byte-level damage — truncation at arbitrary offsets, single bit
//!   flips — must surface as typed [`JournalError`]s or a safely
//!   discarded torn tail, never a panic and never silently wrong data.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use latency_shears::atlas::journal::{self, JournalError};
use latency_shears::atlas::CreditLedger;
use latency_shears::prelude::*;

const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];
const KILL_ROUNDS: [u32; 3] = [0, 1, 2];
const THREADS: [usize; 3] = [1, 2, 8];
const ROUNDS: u32 = 4;
const CREDITS: u64 = 50_000_000;

/// Whether `prefix` holds the first rows of `store`, row for row (equal
/// length counts): a journal replayed after a crash holds a prefix of
/// the uninterrupted run's rows.
fn is_prefix_of(prefix: &ResultStore, store: &ResultStore) -> bool {
    prefix.len() <= store.len() && prefix.iter().eq(store.iter().take(prefix.len()))
}

fn tiny_platform(seed: u64) -> Platform {
    Platform::build(&PlatformConfig {
        fleet: FleetConfig {
            target_size: 30,
            seed,
        },
        ..PlatformConfig::default()
    })
}

fn sweep_cfg(seed: u64, chaos: bool, recovery: RetryPolicy) -> CampaignConfig {
    CampaignConfig {
        rounds: ROUNDS,
        targets_per_probe: 1,
        adjacent_targets: 1,
        seed,
        credits: CREDITS,
        faults: if chaos {
            FaultConfig::chaos()
        } else {
            FaultConfig::none()
        },
        recovery,
        ..CampaignConfig::quick()
    }
}

fn tmp_journal(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "shears-crash-recovery-{}-{}-{}.wal",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::Relaxed),
    ))
}

fn assert_ledgers_match(clean: &CreditLedger, resumed: &CreditLedger, what: &str) {
    assert_eq!(clean.balance(), resumed.balance(), "balance drift: {what}");
    assert_eq!(clean.spent(), resumed.spent(), "spend drift: {what}");
    assert_eq!(clean.refunded(), resumed.refunded(), "refund drift: {what}");
    assert_eq!(
        resumed.balance() + resumed.spent(),
        CREDITS,
        "credits not conserved: {what}"
    );
}

/// The full sweep for one fault profile and recovery policy. For each
/// seed the clean reference runs once (durable, single-threaded —
/// durable stores are thread-count invariant, which `kill_sweep`
/// re-checks via the crashed runs at 1/2/8 workers). Returns the clean
/// runs' refunds, summed over the seeds.
fn kill_sweep(chaos: bool, recovery: RetryPolicy) -> u64 {
    let mut refunded = 0;
    for seed in SEEDS {
        let platform = tiny_platform(seed);
        let cfg = sweep_cfg(seed, chaos, recovery);

        let clean_path = tmp_journal("clean");
        let clean = Campaign::new(&platform, cfg)
            .run_durable(1, &DurabilityConfig::new(&clean_path))
            .expect("clean durable run");
        std::fs::remove_file(&clean_path).unwrap();
        refunded += clean.ledger.refunded();

        if !chaos {
            // Fault-free, the durable barrier loop must agree with the
            // plain sequential campaign bit-for-bit.
            let plain = Campaign::new(&platform, cfg).run().expect("plain run");
            assert_eq!(
                plain, clean.store,
                "durable vs plain divergence at seed {seed}"
            );
        }

        for kill in KILL_ROUNDS {
            for threads in THREADS {
                let what = format!("seed {seed} kill {kill} threads {threads} chaos {chaos}");
                let path = tmp_journal("kill");
                let crashing = DurabilityConfig {
                    crash_after_round: Some(kill),
                    ..DurabilityConfig::new(&path)
                };
                let err = Campaign::new(&platform, cfg)
                    .run_durable(threads, &crashing)
                    .expect_err("simulated crash must surface");
                assert!(
                    matches!(err, CampaignError::SimulatedCrash { round } if round == kill),
                    "{what}: unexpected error {err}"
                );

                // The journal holds exactly the killed prefix, intact.
                let replay = journal::replay(&path).expect("journal replays");
                assert!(!replay.complete(), "{what}: dead campaign looks complete");
                assert!(!replay.torn_tail, "{what}: clean kill left a torn tail");
                assert_eq!(replay.next_round, kill + 1, "{what}");
                assert!(
                    is_prefix_of(&replay.store, &clean.store),
                    "{what}: journaled prefix diverges from the clean run"
                );

                // Resume finishes the run bit-identically.
                let resumed = Campaign::resume(&platform, &DurabilityConfig::new(&path), threads)
                    .expect("resume");
                assert_eq!(clean.store, resumed.store, "{what}: resumed store diverges");
                assert_ledgers_match(&clean.ledger, &resumed.ledger, &what);

                // The finished journal replays complete and idempotent:
                // a second resume re-runs nothing and returns the same
                // state.
                let again = Campaign::resume(&platform, &DurabilityConfig::new(&path), threads)
                    .expect("second resume");
                assert_eq!(resumed.store, again.store, "{what}");
                assert_ledgers_match(&resumed.ledger, &again.ledger, &what);

                std::fs::remove_file(&path).unwrap();
            }
        }
    }
    refunded
}

#[test]
fn kill_at_any_round_recovers_bit_identically_fault_free() {
    kill_sweep(false, RetryPolicy::none());
}

#[test]
fn kill_at_any_round_recovers_bit_identically_under_chaos() {
    kill_sweep(true, RetryPolicy::none());
}

/// A resume restores the ledger's counters at a round boundary and
/// re-runs only the later rounds, so no refund is paid twice: the
/// resumed ledgers match the clean ones. The sweep pins that only if
/// some clean run refunds.
#[test]
fn kill_at_any_round_recovers_bit_identically_under_chaos_with_refunds() {
    let refunded = kill_sweep(true, RetryPolicy::atlas_default());
    assert!(refunded > 0, "no clean run refunded a credit");
}

/// Byte-level damage never panics and never fabricates data: every
/// truncation either replays a valid shorter prefix or fails typed, and
/// every bit flip is caught by the frame checksum (or safely discarded
/// as a torn tail when it corrupts a trailing length prefix).
#[test]
fn damaged_journals_fail_typed_never_panic() {
    let platform = tiny_platform(7);
    let cfg = sweep_cfg(7, true, RetryPolicy::none());
    let path = tmp_journal("damage");
    let clean = Campaign::new(&platform, cfg)
        .run_durable(2, &DurabilityConfig::new(&path))
        .expect("durable run");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let scratch = tmp_journal("damage-scratch");

    // Truncate at a spread of offsets covering prologue, header, and
    // round frames.
    for cut in (0..bytes.len()).step_by(37).chain([bytes.len() - 1]) {
        std::fs::write(&scratch, &bytes[..cut]).unwrap();
        match journal::replay(&scratch) {
            Ok(replay) => {
                // A replayable prefix must be a true prefix of the run.
                assert!(
                    is_prefix_of(&replay.store, &clean.store),
                    "truncation at {cut} fabricated samples"
                );
                assert!(replay.valid_len <= cut as u64);
            }
            Err(
                JournalError::Truncated { .. }
                | JournalError::MissingHeader
                | JournalError::BadMagic,
            ) => {}
            Err(other) => panic!("truncation at {cut}: unexpected error {other}"),
        }
    }

    // Flip one bit at a spread of positions; CRCs (or prologue checks)
    // must catch every flip that survives parsing.
    for pos in (0..bytes.len()).step_by(53) {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x10;
        std::fs::write(&scratch, &damaged).unwrap();
        // A typed rejection is the expected outcome. Only a flip in a
        // trailing length prefix may survive — as a discarded torn
        // tail, with the data prefix intact.
        if let Ok(replay) = journal::replay(&scratch) {
            assert!(replay.torn_tail, "flip at {pos} silently accepted");
            assert!(
                is_prefix_of(&replay.store, &clean.store),
                "flip at {pos} fabricated samples"
            );
        }
    }
    std::fs::remove_file(&scratch).unwrap();
}
