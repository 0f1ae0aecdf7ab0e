//! The coordinator: shard dispatch, failure detection, and the
//! bit-identical merge.
//!
//! The coordinator never executes a probe itself. It partitions the
//! fleet with [`Campaign::shard_ranges`], publishes the assignments
//! through a [`WorkQueue`] the API server serves to work streams, and
//! runs a bounded control loop per round: sweep the failure detector,
//! wait (with a timeout — no coordinator thread ever blocks past its
//! configured deadline) for every shard to deliver the round, and
//! merge in shard order. Credits settle at the round barrier —
//! `debit(Σgross)` then `refund(Σrefund)` — exactly like `Campaign`'s
//! own round loop, so the final store is byte-identical to
//! [`Campaign::run`]'s and the ledger to [`Campaign::run_durable`]'s.
//!
//! When no worker is live and neither a live worker nor an accepted
//! frame has been seen for a grace period
//! ([`shears_api::WorkQueue::stalled`]), the campaign is stalled. Two
//! policies:
//!
//! - **degraded completion** ([`DistConfig::degraded_completion`] =
//!   true): missing `(shard, round)`s are written off as lost; the
//!   merge substitutes [`Campaign::lost_shard_round`] samples (every
//!   scheduled probe present, marked lost, zero credits) so the loss
//!   is *attributed* in the output rather than silently absent.
//! - **strict** (= false): the queue aborts — surviving workers see
//!   `Abort` and exit — and [`Coordinator::run`] returns
//!   [`DistError::Stalled`] naming the round and the missing shards.

use std::sync::Arc;
use std::time::{Duration, Instant};

use shears_api::work::{WorkMetrics, WorkSpec};
use shears_api::WorkQueue;
use shears_atlas::{Campaign, CampaignConfig, CreditLedger, Platform, ResultStore, ShardContext};

use crate::DistError;

/// Distribution knobs: how the fleet is partitioned and how patient
/// the failure detector is.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Requested shard count. The real count is
    /// `Campaign::shard_ranges(shard_count).len()` — never larger,
    /// never an empty shard.
    pub shard_count: u32,
    /// How often idle workers poll / running workers heartbeat.
    pub heartbeat_interval: Duration,
    /// Silence after which a worker whose stream is still open (hung
    /// or partitioned) is declared dead and its shard freed for a
    /// survivor. A worker whose stream closes frees its shard at once.
    pub heartbeat_timeout: Duration,
    /// How long an assigned shard may sit on one round before the
    /// deadline blows (decorrelated-jitter backoff, then fencing).
    pub round_timeout: Duration,
    /// Backoff floor after a blown round deadline.
    pub retry_base: Duration,
    /// Backoff ceiling.
    pub retry_cap: Duration,
    /// Blown deadlines after which the assignment is stripped even if
    /// the worker still heartbeats (wedged, not dead).
    pub max_round_retries: u32,
    /// Seed for the backoff jitter.
    pub seed: u64,
    /// `true`: finish with lost rounds attributed when the whole fleet
    /// dies; `false`: abort the campaign instead.
    pub degraded_completion: bool,
    /// How long the coordinator tolerates zero live workers and zero
    /// arriving frames before invoking the stall policy. The clock
    /// starts at the later of the last accepted frame and the moment
    /// the fleet lost its last live worker, so a lone worker re-dialing
    /// after a stream error is not a stall.
    pub stall_grace: Duration,
}

impl DistConfig {
    /// Localhost-test defaults: snappy heartbeats, short deadlines,
    /// strict completion.
    pub fn quick(shard_count: u32) -> Self {
        Self {
            shard_count,
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(300),
            round_timeout: Duration::from_millis(2_000),
            retry_base: Duration::from_millis(50),
            retry_cap: Duration::from_millis(400),
            max_round_retries: 3,
            seed: 0x5EED_D157,
            degraded_completion: false,
            stall_grace: Duration::from_millis(500),
        }
    }

    /// Switches on degraded completion (finish with lost samples
    /// attributed instead of aborting when the fleet dies).
    pub fn degraded(mut self) -> Self {
        self.degraded_completion = true;
        self
    }
}

/// What a completed distributed campaign produced.
#[derive(Debug)]
pub struct DistOutcome {
    /// The merged samples — bit-identical to [`Campaign::run`] unless
    /// rounds were lost in degraded mode (and then identical except
    /// for the attributed lost samples).
    pub store: ResultStore,
    /// The settled ledger.
    pub ledger: CreditLedger,
    /// The queue's robustness counters at completion.
    pub metrics: WorkMetrics,
    /// Fleet-aggregated wire counters (filled in by the harness; a
    /// bare [`Coordinator::run`] leaves them zeroed — the coordinator
    /// never sees its workers' client-side stalls).
    pub worker_stats: crate::worker::WorkerStats,
}

/// The coordinator: owns the campaign plan and the work queue, runs
/// the merge. Serve the queue by attaching it to an
/// [`shears_api::AtlasService::with_work_queue`] and spawning an
/// [`shears_api::ApiServer`]; then call [`Coordinator::run`].
pub struct Coordinator<'p> {
    campaign: Campaign<'p>,
    cfg: CampaignConfig,
    dcfg: DistConfig,
    queue: Arc<WorkQueue>,
}

impl<'p> Coordinator<'p> {
    /// Plans the distributed campaign: partitions the fleet, freezes
    /// the [`WorkSpec`] (including the wire-format campaign header
    /// workers validate against), and builds the queue.
    pub fn new(platform: &'p Platform, cfg: CampaignConfig, dcfg: DistConfig) -> Self {
        let campaign = Campaign::new(platform, cfg);
        let ranges = campaign.shard_ranges(dcfg.shard_count as usize);
        let spec = WorkSpec {
            rounds: cfg.rounds,
            shard_count: ranges.len() as u32,
            probe_ranges: ranges
                .iter()
                .map(|r| (r.start as u32, r.end as u32))
                .collect(),
            header_wire: campaign.journal_header().to_wire(),
            heartbeat_interval: dcfg.heartbeat_interval,
            heartbeat_timeout: dcfg.heartbeat_timeout,
            round_timeout: dcfg.round_timeout,
            retry_base: dcfg.retry_base,
            retry_cap: dcfg.retry_cap,
            max_round_retries: dcfg.max_round_retries,
            seed: dcfg.seed,
        };
        Self {
            campaign,
            cfg,
            dcfg,
            queue: Arc::new(WorkQueue::new(spec)),
        }
    }

    /// The shared work queue — attach this to the serving
    /// [`shears_api::AtlasService`].
    pub fn queue(&self) -> Arc<WorkQueue> {
        Arc::clone(&self.queue)
    }

    /// Runs the merge to completion. Blocks the calling thread, but
    /// never unboundedly: every wait is capped at the heartbeat
    /// interval, after which the failure detector sweeps and the
    /// stall policy is re-evaluated.
    pub fn run(&self) -> Result<DistOutcome, DistError> {
        let rounds = self.cfg.rounds;
        let shards = self.queue.spec().shard_count;
        let tick = self.dcfg.heartbeat_interval.max(Duration::from_millis(5));
        let mut store = ResultStore::new();
        let mut ledger = CreditLedger::new(self.cfg.credits);
        // Shard contexts are only ever needed to synthesise lost
        // rounds, so they are built lazily (and their route tables
        // never are).
        let mut ctxs: Vec<Option<ShardContext>> = (0..shards).map(|_| None).collect();

        for round in 0..rounds {
            loop {
                self.queue.sweep(Instant::now());
                if self.queue.wait_round(round, tick) {
                    break;
                }
                if self.queue.aborted() {
                    return Err(DistError::Aborted);
                }
                if self.queue.stalled(Instant::now(), self.dcfg.stall_grace) {
                    if self.dcfg.degraded_completion {
                        for shard in self.queue.missing_for_round(round) {
                            self.queue.mark_lost(shard, round);
                        }
                    } else {
                        let missing = self.queue.missing_for_round(round);
                        self.queue.abort();
                        return Err(DistError::Stalled { round, missing });
                    }
                }
            }

            let mut gross = 0u64;
            let mut refund = 0u64;
            for shard in 0..shards {
                match self.queue.take_round(shard, round) {
                    Some(frame) => {
                        gross += frame.gross;
                        refund += frame.refund;
                        store.merge(frame.store);
                    }
                    None => {
                        // Lost round: substitute the synthesised
                        // samples; a lost round spent nothing.
                        let ctx = ctxs[shard as usize].get_or_insert_with(|| {
                            self.campaign.shard_context(shard as usize, shards as usize)
                        });
                        store.merge(self.campaign.lost_shard_round(ctx, round));
                    }
                }
            }
            if let Err(e) = ledger.debit(gross) {
                self.queue.abort();
                return Err(DistError::Credits(e));
            }
            ledger.refund(refund);
        }

        self.queue.finish();
        Ok(DistOutcome {
            store,
            ledger,
            metrics: self.queue.metrics(),
            worker_stats: crate::worker::WorkerStats::default(),
        })
    }
}
