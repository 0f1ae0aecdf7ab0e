//! Distributed campaign runner: one coordinator, any number of worker
//! processes, localhost or LAN.
//!
//! ```sh
//! # terminal 1 — the coordinator (plans shards, serves the work
//! # stream, merges):
//! cargo run --release -p shears-dist --bin shears-dist -- \
//!     coordinator --listen 127.0.0.1:4790 --rounds 10 --shards 4
//!
//! # terminals 2..n — workers (same --platform-seed, or the digest
//! # handshake refuses them):
//! cargo run --release -p shears-dist --bin shears-dist -- \
//!     worker --connect 127.0.0.1:4790 --wal /tmp/shears-w1
//! ```
//!
//! Workers stream completed rounds over one pipelined binary
//! connection, with up to 8 frames in flight.
//!
//! The coordinator exits when every round is merged (bit-identical to
//! a sequential run) and prints the robustness counters; workers exit
//! when told `Done` or `Abort`. Kill a worker mid-campaign and restart
//! it with the same `--wal` directory to watch it resume its shard
//! from its journal.

use std::net::SocketAddr;
use std::time::Duration;

use shears_api::server::{ApiServer, ServerConfig};
use shears_api::service::AtlasService;
use shears_atlas::{CampaignConfig, Platform, PlatformConfig};
use shears_dist::{
    run_worker, ChaosProxy, Coordinator, DistConfig, WorkerConfig, WorkerExit, WorkerStats,
};

struct Args {
    listen: String,
    connect: SocketAddr,
    platform_seed: u64,
    campaign_seed: u64,
    rounds: u32,
    shards: u32,
    degraded: bool,
    wal: String,
    restart: bool,
}

fn parse_args(it: &mut std::env::Args) -> Args {
    let mut args = Args {
        listen: "127.0.0.1:4790".into(),
        connect: "127.0.0.1:4790".parse().unwrap(),
        platform_seed: 7,
        campaign_seed: CampaignConfig::quick().seed,
        rounds: 10,
        shards: 4,
        degraded: false,
        wal: "shears-dist-wal".into(),
        restart: false,
    };
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--listen" => args.listen = val("--listen"),
            "--connect" => args.connect = val("--connect").parse().expect("--connect: addr"),
            "--platform-seed" => {
                args.platform_seed = val("--platform-seed")
                    .parse()
                    .expect("--platform-seed: u64")
            }
            "--campaign-seed" => {
                args.campaign_seed = val("--campaign-seed")
                    .parse()
                    .expect("--campaign-seed: u64")
            }
            "--rounds" => args.rounds = val("--rounds").parse().expect("--rounds: u32"),
            "--shards" => args.shards = val("--shards").parse().expect("--shards: u32"),
            "--degraded" => args.degraded = true,
            "--wal" => args.wal = val("--wal"),
            "--restart" => args.restart = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let mut it = std::env::args();
    let _bin = it.next();
    let mode = it.next().unwrap_or_default();
    let args = parse_args(&mut it);

    match mode.as_str() {
        "coordinator" => coordinator(args),
        "worker" => worker(args),
        other => {
            eprintln!("usage: shears-dist <coordinator|worker> [flags]  (got {other:?})");
            std::process::exit(2);
        }
    }
}

fn coordinator(args: Args) {
    let platform = Platform::build(&PlatformConfig::quick(args.platform_seed));
    let cfg = CampaignConfig {
        rounds: args.rounds,
        seed: args.campaign_seed,
        ..CampaignConfig::quick()
    };
    // Human-scale patience: workers arrive by hand, not in
    // microseconds.
    let dcfg = DistConfig {
        heartbeat_interval: Duration::from_millis(200),
        heartbeat_timeout: Duration::from_secs(3),
        round_timeout: Duration::from_secs(10),
        stall_grace: Duration::from_secs(30),
        degraded_completion: args.degraded,
        ..DistConfig::quick(args.shards)
    };
    let coordinator = Coordinator::new(&platform, cfg, dcfg);
    let service = AtlasService::new(Platform::build(&PlatformConfig::quick(args.platform_seed)))
        .with_work_queue(coordinator.queue());
    let server = ApiServer::spawn_with(&args.listen, service, ServerConfig::reactor(1, 4, 64))
        .expect("listen failed");
    println!("coordinator listening on {}", server.local_addr());
    println!(
        "{} shards x {} rounds; waiting for workers (--platform-seed {})",
        coordinator.queue().spec().shard_count,
        args.rounds,
        args.platform_seed
    );
    match coordinator.run() {
        Ok(outcome) => {
            let m = outcome.metrics;
            println!(
                "merged {} samples, {} credits spent ({} refunded)",
                outcome.store.len(),
                outcome.ledger.spent(),
                outcome.ledger.refunded()
            );
            println!(
                "workers registered {}, heartbeats missed {}, shards freed on close {}, \
                 shards reassigned {}, rounds retried {}, duplicates dropped {}, lost rounds {}",
                m.workers_registered,
                m.heartbeats_missed,
                m.shards_freed_on_close,
                m.shards_reassigned,
                m.rounds_retried,
                m.duplicate_frames_dropped,
                m.lost_rounds
            );
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    }
    // Keep serving until every worker has read Done and hung up (the
    // reactor pushes it to idle workers), so none trips over a closed
    // socket; a worker that never hangs up is waited for at most a
    // couple of poll intervals.
    coordinator
        .queue()
        .wait_no_live_workers(dcfg.heartbeat_interval * 2 + Duration::from_millis(100));
    server.shutdown().expect("shutdown failed");
}

fn worker(args: Args) {
    let platform = Platform::build(&PlatformConfig::quick(args.platform_seed));
    let wcfg = WorkerConfig::new(&args.wal);
    let mut chaos = ChaosProxy::none();
    let mut total = WorkerStats::default();
    loop {
        let outcome = run_worker(args.connect, &platform, &wcfg, &mut chaos);
        if let Ok((_, stats)) = &outcome {
            total.absorb(*stats);
        }
        match outcome.map(|(exit, _)| exit) {
            Ok(WorkerExit::Done) => {
                println!(
                    "campaign complete ({} frames sent, {} blocking waits, {} reconnects)",
                    total.frames_sent, total.blocking_waits, total.stream_reconnects
                );
                return;
            }
            Ok(WorkerExit::Aborted) => {
                eprintln!("coordinator aborted the campaign");
                std::process::exit(1);
            }
            Ok(WorkerExit::Killed) => unreachable!("no chaos scheduled"),
            Err(e) if args.restart => {
                eprintln!("worker error ({e}); reconnecting in 1s");
                std::thread::sleep(Duration::from_secs(1));
            }
            Err(e) => {
                eprintln!("worker failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
