//! # shears-dist
//!
//! Fault-tolerant distributed campaign execution: a **coordinator**
//! that partitions the probe fleet into deterministic shards and a
//! **worker fleet** that executes them over a binary work stream, with the
//! robustness machinery the single-process campaign never needed —
//! failure detection (stream close, heartbeats, round deadlines), shard
//! reassignment, per-worker write-ahead journals, and an idempotent merge.
//!
//! The headline invariant is *bit-identical distribution*: because
//! every sample is drawn from a per-`(probe, round)` keyed RNG stream,
//! a shard's output depends only on *what* it covers, never on *who*
//! ran it or *when*. The coordinator merges accepted rounds in shard
//! order and settles credits at round granularity, so the final
//! [`shears_atlas::ResultStore`] is byte-for-byte the store
//! [`shears_atlas::Campaign::run`] would have produced — regardless of
//! worker count, crash schedule, or how many times a shard bounced
//! between owners.
//!
//! The moving parts:
//!
//! - [`Coordinator`] — owns the [`shears_api::WorkQueue`] the API
//!   server hands every work stream to, runs the bounded control loop
//!   (sweep → wait → degraded/strict decision) and the shard-order
//!   merge.
//! - [`run_worker`] — the worker loop: register, validate the campaign
//!   digests, poll for a shard, execute it round by round behind a local
//!   WAL, stream frames back and resume from the WAL after a crash, over
//!   one pipelined binary TCP stream (windowed frames, async verdicts,
//!   transport-level heartbeats). Fences, `Done` and `Abort` are pushed;
//!   an idle worker waits for them on its stream rather than sleeping.
//!   It returns how the incarnation ended and its wire counters.
//! - [`ChaosProxy`] — the seeded fault-injection schedule the tests
//!   and the chaos harness thread between a worker and its rounds:
//!   kills, hangs (silent — trips the failure detector) and delays.
//! - [`run_distributed`] — the in-process harness: one coordinator,
//!   N worker threads over a real localhost API server, optional
//!   restart-on-kill supervision.
//!
//! ```no_run
//! use shears_atlas::{CampaignConfig, PlatformConfig};
//! use shears_dist::{run_distributed, DistConfig, FleetSpec};
//!
//! let outcome = run_distributed(
//!     &PlatformConfig::quick(7),
//!     CampaignConfig::quick(),
//!     DistConfig::quick(4),
//!     FleetSpec::clean(3),
//!     std::path::Path::new("/tmp/shears-dist"),
//! )
//! .unwrap();
//! println!("{} samples, {} spent", outcome.store.len(), outcome.ledger.spent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod coordinator;
pub mod harness;
pub mod worker;

pub use chaos::{ChaosAction, ChaosProxy};
pub use coordinator::{Coordinator, DistConfig, DistOutcome};
pub use harness::{run_distributed, FleetSpec};
pub use worker::{run_worker, WorkerConfig, WorkerExit, WorkerStats};

use shears_atlas::{CreditError, JournalError};

/// Why a distributed campaign (or one of its workers) stopped.
#[derive(Debug)]
pub enum DistError {
    /// The credit grant ran out at the merge barrier.
    Credits(CreditError),
    /// Strict mode: a round stalled with no live workers left to
    /// deliver the listed shards.
    Stalled {
        /// The round the merge was waiting on.
        round: u32,
        /// Shards that never delivered it.
        missing: Vec<u32>,
    },
    /// The campaign was aborted (strict-mode failure seen from the
    /// other side, or an explicit [`shears_api::WorkQueue::abort`]).
    Aborted,
    /// A worker's write-ahead journal could not be written or replayed.
    Journal(JournalError),
    /// A filesystem operation outside the journal failed.
    Io(std::io::Error),
    /// The peer broke the work protocol.
    Protocol(&'static str),
    /// The worker's platform does not reproduce the coordinator's
    /// campaign (seed or topology mismatch — running it would merge
    /// garbage).
    CampaignMismatch,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Credits(e) => write!(f, "distributed campaign stopped: {e}"),
            DistError::Stalled { round, missing } => write!(
                f,
                "round {round} stalled with no live workers (missing shards {missing:?})"
            ),
            DistError::Aborted => write!(f, "distributed campaign aborted"),
            DistError::Journal(e) => write!(f, "worker journal failed: {e}"),
            DistError::Io(e) => write!(f, "distributed campaign i/o failed: {e}"),
            DistError::Protocol(what) => write!(f, "work protocol violation: {what}"),
            DistError::CampaignMismatch => {
                write!(
                    f,
                    "worker platform does not reproduce the coordinator's campaign"
                )
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Credits(e) => Some(e),
            DistError::Journal(e) => Some(e),
            DistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CreditError> for DistError {
    fn from(e: CreditError) -> Self {
        DistError::Credits(e)
    }
}

impl From<JournalError> for DistError {
    fn from(e: JournalError) -> Self {
        DistError::Journal(e)
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}
