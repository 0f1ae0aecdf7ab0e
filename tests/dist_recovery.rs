//! Distributed-execution recovery harness.
//!
//! The distribution contract (DESIGN.md §7i): a campaign executed by a
//! coordinator + worker fleet over the work API merges to a
//! `ResultStore` and ledger **bit-identical** to the sequential run —
//! for every worker count, crash schedule, and reassignment history.
//! These sweeps pin that contract:
//!
//! * clean fleets of 1/2/4/8 workers, diffed byte-for-byte against
//!   both the sequential [`Campaign::run`] and the durable barrier
//!   runner;
//! * the kill grid — 5 seeds × kill round {0,1,2} × {2,4} workers ×
//!   {reassign-to-survivor, restart-and-resume-from-WAL} — every cell
//!   bit-identical, ledger conserved;
//! * hangs (silent worker → failure detector → reassignment, late
//!   duplicate frames dropped, never double-merged) and delays
//!   (alive-but-wedged worker → blown round deadlines → fencing);
//! * degraded completion (fleet death → lost rounds attributed in
//!   place, row-for-row aligned with the clean store) vs. strict mode
//!   (fleet death → typed abort).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use latency_shears::dist::{
    run_distributed, ChaosProxy, DistConfig, DistError, DistOutcome, FleetSpec,
};
use latency_shears::prelude::*;

const SEEDS: [u64; 5] = [1, 2, 3, 5, 8];
const KILL_ROUNDS: [u32; 3] = [0, 1, 2];
const WORKER_COUNTS: [usize; 2] = [2, 4];
const ROUNDS: u32 = 4;
const SHARDS: u32 = 4;
const CREDITS: u64 = 50_000_000;

fn tiny_cfg(seed: u64) -> PlatformConfig {
    PlatformConfig {
        fleet: FleetConfig {
            target_size: 30,
            seed,
        },
        ..PlatformConfig::default()
    }
}

fn campaign_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        rounds: ROUNDS,
        targets_per_probe: 1,
        adjacent_targets: 1,
        seed,
        credits: CREDITS,
        ..CampaignConfig::quick()
    }
}

/// Test-speed failure detection: everything resolves in a few hundred
/// milliseconds instead of the human-scale defaults.
fn dist_cfg(shards: u32) -> DistConfig {
    DistConfig {
        heartbeat_interval: Duration::from_millis(15),
        heartbeat_timeout: Duration::from_millis(150),
        round_timeout: Duration::from_millis(2_000),
        retry_base: Duration::from_millis(40),
        retry_cap: Duration::from_millis(200),
        stall_grace: Duration::from_millis(400),
        ..DistConfig::quick(shards)
    }
}

fn tmp_wal_root(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "shears-dist-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::Relaxed),
    ))
}

fn run_fleet(
    seed: u64,
    fleet: FleetSpec,
    dcfg: DistConfig,
    tag: &str,
) -> Result<DistOutcome, DistError> {
    let root = tmp_wal_root(tag);
    let out = run_distributed(&tiny_cfg(seed), campaign_cfg(seed), dcfg, fleet, &root);
    let _ = std::fs::remove_dir_all(&root);
    out
}

fn clean_baseline(seed: u64) -> DurableOutcome {
    let platform = Platform::build(&tiny_cfg(seed));
    let path = tmp_wal_root("baseline").with_extension("wal");
    let clean = Campaign::new(&platform, campaign_cfg(seed))
        .run_durable(1, &DurabilityConfig::new(&path))
        .expect("clean durable run");
    let _ = std::fs::remove_file(&path);
    clean
}

fn assert_bit_identical(clean: &DurableOutcome, out: &DistOutcome, what: &str) {
    assert_eq!(clean.store, out.store, "distributed store diverges: {what}");
    assert_eq!(
        clean.ledger.balance(),
        out.ledger.balance(),
        "balance drift: {what}"
    );
    assert_eq!(
        clean.ledger.spent(),
        out.ledger.spent(),
        "spend drift: {what}"
    );
    assert_eq!(
        clean.ledger.refunded(),
        out.ledger.refunded(),
        "refund drift: {what}"
    );
    assert_eq!(
        out.ledger.balance() + out.ledger.spent(),
        CREDITS,
        "credits not conserved: {what}"
    );
}

#[test]
fn clean_fleets_of_every_size_merge_bit_identically() {
    let seed = 7;
    let clean = clean_baseline(seed);
    // The durable barrier runner is itself pinned against the plain
    // sequential campaign, so one transitive check suffices here.
    let platform = Platform::build(&tiny_cfg(seed));
    let plain = Campaign::new(&platform, campaign_cfg(seed))
        .run()
        .expect("plain run");
    assert_eq!(plain, clean.store, "durable vs plain");

    for workers in [1usize, 2, 4, 8] {
        let fleet = FleetSpec::clean(workers);
        let out = run_fleet(seed, fleet, dist_cfg(SHARDS), "clean").expect("clean fleet");
        assert_bit_identical(&clean, &out, &format!("{workers} workers"));
        assert_eq!(
            out.metrics.frames_accepted,
            u64::from(SHARDS * ROUNDS),
            "every shard-round arrives exactly once at {workers} workers"
        );
        assert_eq!(out.metrics.lost_rounds, 0);
        assert_eq!(
            out.worker_stats.frames_sent,
            u64::from(SHARDS * ROUNDS),
            "no resends on a clean fleet"
        );
    }
}

/// The kill grid, reassignment flavour: the killed worker stays dead
/// and a survivor takes over its shard mid-campaign.
#[test]
fn kill_grid_shards_are_reassigned_to_survivors() {
    for seed in SEEDS {
        let clean = clean_baseline(seed);
        for kill in KILL_ROUNDS {
            for workers in WORKER_COUNTS {
                let what = format!("seed {seed} kill {kill} workers {workers} reassign");
                let fleet = FleetSpec::clean(workers).with_chaos(0, ChaosProxy::kill_at(kill));
                let out = run_fleet(seed, fleet, dist_cfg(SHARDS), "reassign").expect(&what);
                assert_bit_identical(&clean, &out, &what);
                assert!(
                    out.metrics.shards_reassigned >= 1,
                    "{what}: the dead worker's shard was never handed over"
                );
                // The killed worker's stream closes, and that frees its
                // shard at once; no heartbeat timeout has to fire.
                assert!(
                    out.metrics.shards_freed_on_close >= 1,
                    "{what}: death went undetected"
                );
            }
        }
    }
}

/// The kill grid, restart flavour: the worker dies *after journaling*
/// a round (the frame exists only in its WAL) and is respawned with
/// the same WAL directory — the successor must resume the shard from
/// the journal, re-framing the unsubmitted round without recomputing.
#[test]
fn kill_grid_restarted_workers_resume_from_their_wal() {
    for seed in SEEDS {
        let clean = clean_baseline(seed);
        for kill in KILL_ROUNDS {
            for workers in WORKER_COUNTS {
                let what = format!("seed {seed} kill {kill} workers {workers} restart");
                let fleet = FleetSpec::clean(workers)
                    .with_chaos(0, ChaosProxy::kill_after_journal_at(kill))
                    .restart_killed();
                let out = run_fleet(seed, fleet, dist_cfg(SHARDS), "restart").expect(&what);
                assert_bit_identical(&clean, &out, &what);
                assert_eq!(
                    out.metrics.workers_registered,
                    workers as u64 + 1,
                    "{what}: the restarted incarnation must register anew"
                );
            }
        }
    }
}

/// A hung worker goes silent past the heartbeat timeout: its shard is
/// reassigned, the survivor recomputes the round, and when the
/// revenant wakes and submits its stale frame the digest dedup drops
/// it — proving reassignment is idempotent, not double-merged.
#[test]
fn hung_workers_are_detected_and_their_late_frames_deduplicated() {
    let seed = 11;
    let clean = clean_baseline(seed);
    let fleet =
        FleetSpec::clean(2).with_chaos(0, ChaosProxy::hang_at(1, Duration::from_millis(500)));
    let out = run_fleet(seed, fleet, dist_cfg(SHARDS), "hang").expect("hang fleet");
    assert_bit_identical(&clean, &out, "hang");
    assert!(out.metrics.heartbeats_missed >= 1, "hang went undetected");
    assert!(
        out.metrics.shards_reassigned >= 1,
        "hung shard never reassigned"
    );
    assert!(
        out.metrics.duplicate_frames_dropped >= 1,
        "the revenant's late frames must be dropped as duplicates, got {:?}",
        out.metrics
    );
}

/// A delayed worker keeps heartbeating but blows its round deadline:
/// the coordinator backs off with jitter, then fences the assignment
/// and hands the shard to a survivor — without ever declaring the
/// slow worker dead.
#[test]
fn wedged_workers_blow_round_deadlines_and_get_fenced() {
    let seed = 13;
    let clean = clean_baseline(seed);
    let dcfg = DistConfig {
        round_timeout: Duration::from_millis(100),
        max_round_retries: 1,
        ..dist_cfg(SHARDS)
    };
    let fleet =
        FleetSpec::clean(2).with_chaos(0, ChaosProxy::delay_at(1, Duration::from_millis(600)));
    let out = run_fleet(seed, fleet, dcfg, "delay").expect("delay fleet");
    assert_bit_identical(&clean, &out, "delay");
    assert!(
        out.metrics.rounds_retried >= 1,
        "deadline never blew: {:?}",
        out.metrics
    );
    assert!(
        out.metrics.shards_reassigned >= 1,
        "wedged shard never fenced"
    );
}

/// Degraded completion: the whole fleet dies and the campaign still
/// finishes, with every missing `(shard, round)` written off as lost
/// and its samples synthesised in place — same rows, same order, same
/// probes as the clean store, loss attributed rather than absent.
#[test]
fn degraded_mode_attributes_lost_rounds_in_place() {
    let seed = 17;
    let clean = clean_baseline(seed);
    let fleet = FleetSpec::clean(1).with_chaos(0, ChaosProxy::kill_at(1));
    let out = run_fleet(seed, fleet, dist_cfg(SHARDS).degraded(), "degraded")
        .expect("degraded completion");

    // One shard delivered one round before the fleet died.
    assert_eq!(
        out.metrics.lost_rounds,
        u64::from(SHARDS * ROUNDS - 1),
        "exactly the undelivered shard-rounds are lost: {:?}",
        out.metrics
    );
    assert_eq!(
        clean.store.len(),
        out.store.len(),
        "lost rounds must not drop rows"
    );
    let mut delivered = 0usize;
    for (i, (c, d)) in clean.store.iter().zip(out.store.iter()).enumerate() {
        assert_eq!(
            (c.probe, c.region, c.at),
            (d.probe, d.region, d.at),
            "row {i} misaligned"
        );
        if d.sent > 0 {
            assert_eq!(c, d, "delivered row {i} diverges");
            delivered += 1;
        } else {
            assert!(
                d.min_ms.is_infinite() && d.received == 0,
                "row {i} not marked lost"
            );
        }
    }
    assert!(delivered > 0, "the delivered round must survive verbatim");
    assert!(
        out.ledger.spent() < clean.ledger.spent(),
        "lost rounds must not be charged"
    );
    assert_eq!(out.ledger.balance() + out.ledger.spent(), CREDITS);
}

/// Strict mode: the same fleet death aborts the campaign with a typed
/// error naming the stalled round, instead of completing degraded.
#[test]
fn strict_mode_aborts_when_the_fleet_dies() {
    let fleet = FleetSpec::clean(1).with_chaos(0, ChaosProxy::kill_at(1));
    let err = run_fleet(17, fleet, dist_cfg(SHARDS), "strict")
        .expect_err("strict mode must refuse to complete");
    match err {
        DistError::Stalled { round, missing } => {
            assert_eq!(round, 0, "the merge was still waiting on round 0");
            assert!(!missing.is_empty(), "the stalled shards must be named");
        }
        other => panic!("expected Stalled, got {other}"),
    }
}

/// Focused restart-resume: kill a lone worker after it journals a
/// round it never submitted; its successor must deliver that round
/// from the WAL and the campaign must not lose (or duplicate) a thing.
#[test]
fn a_restarted_worker_resends_its_journaled_unsubmitted_round() {
    let seed = 19;
    let clean = clean_baseline(seed);
    let root = tmp_wal_root("resume");
    let fleet = FleetSpec::clean(1)
        .with_chaos(0, ChaosProxy::kill_after_journal_at(2))
        .restart_killed();
    let out = run_distributed(
        &tiny_cfg(seed),
        campaign_cfg(seed),
        dist_cfg(2),
        fleet,
        &root,
    )
    .expect("restart-resume");
    assert_bit_identical(&clean, &out, "restart-resume");
    assert_eq!(out.metrics.workers_registered, 2, "one restart expected");
    assert!(
        root.join("worker-0").join("shard-0.wal").exists(),
        "the worker's WAL must survive the crash"
    );
    // The crashed incarnation journaled round 2 but never sent it;
    // the successor ships it from the WAL — so every shard-round
    // still goes out exactly once, none recomputed, none lost.
    assert_eq!(
        out.worker_stats.frames_sent,
        u64::from(2 * ROUNDS),
        "journaled round sent exactly once"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression: a slow round used to starve
/// heartbeats into a false fence, because the worker heartbeated
/// through the same blocking session it measured with. Heartbeats now
/// come from the transport layer (a piggyback-gated heartbeater
/// thread), so a round that outlives the heartbeat timeout must *not*
/// get the worker declared dead, fenced, or retried.
#[test]
fn slow_rounds_do_not_starve_heartbeats_into_a_false_fence() {
    let seed = 23;
    let clean = clean_baseline(seed);
    let what = "slow round";
    // The round delay (250ms) dwarfs the heartbeat timeout (80ms):
    // only transport-level heartbeats keep the worker alive.
    let dcfg = DistConfig {
        heartbeat_interval: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(80),
        round_timeout: Duration::from_millis(2_000),
        ..dist_cfg(SHARDS)
    };
    let fleet =
        FleetSpec::clean(1).with_chaos(0, ChaosProxy::delay_at(1, Duration::from_millis(250)));
    let out = run_fleet(seed, fleet, dcfg, "slowround").expect(what);
    assert_bit_identical(&clean, &out, what);
    assert_eq!(
        out.metrics.heartbeats_missed, 0,
        "{what}: the slow worker went silent mid-round"
    );
    assert_eq!(out.metrics.shards_reassigned, 0, "{what}: false fence");
    assert_eq!(out.metrics.rounds_retried, 0, "{what}: false deadline blow");
    assert_eq!(
        out.metrics.workers_registered, 1,
        "{what}: phantom incarnation"
    );
}

/// The pipelining win, visible without a stopwatch: a worker streaming
/// an 8-round shard blocks on the coordinator a handful of times — the
/// handshake, each poll answer, one end-of-shard drain — not once per
/// frame. The `dist_fleet` benchmark workload reports the same
/// counter per fleet as `dist.clean.blocking_waits` and
/// `dist.kill.blocking_waits`.
#[test]
fn pipelined_streaming_pays_a_fraction_of_a_blocking_wait_per_frame() {
    let seed = 29;
    let cfg = CampaignConfig {
        rounds: 8, // one full default window per shard
        targets_per_probe: 1,
        adjacent_targets: 1,
        seed,
        credits: CREDITS,
        ..CampaignConfig::quick()
    };
    let platform = Platform::build(&tiny_cfg(seed));
    let plain = Campaign::new(&platform, cfg).run().expect("plain run");
    let root = tmp_wal_root("pipeline");
    let out = run_distributed(
        &tiny_cfg(seed),
        cfg,
        dist_cfg(2),
        FleetSpec::clean(1),
        &root,
    )
    .expect("pipelining fleet");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(plain, out.store, "pipelining changed the bytes");
    let stats = out.worker_stats;
    assert_eq!(stats.frames_sent, 16, "2 shards x 8 rounds, each sent once");
    assert!(
        stats.blocking_waits * 3 <= stats.frames_sent,
        "pipelining should shed blocking waits: {} waits for {} frames",
        stats.blocking_waits,
        stats.frames_sent
    );
}
