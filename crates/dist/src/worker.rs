//! The worker side: execute assigned shards behind a local WAL.
//!
//! A worker is a loop around the work protocol: register (and prove,
//! by digest, that its locally-built platform reproduces the
//! coordinator's campaign), poll for a shard, execute it round by
//! round, stream each completed round back as a CRC-framed columnar
//! frame. Every round is appended to a per-shard write-ahead journal
//! *before* it is submitted, so a worker that dies mid-shard and
//! restarts re-frames the journaled rounds straight from its WAL —
//! no recomputation, and the coordinator's digest-based dedup makes
//! the resend idempotent.
//!
//! The wire is one long-lived CRC-framed stream. Completed rounds are
//! *pipelined* — up to `WINDOW` (a constant 8) frames ride the wire
//! unacked, verdicts come back asynchronously matched by
//! `(shard, round)`, and the coordinator pushes fencing / Done / Abort
//! down the stream instead of waiting for the next poll. Frames in the
//! window are journaled first, so an unacked frame is never an
//! unjournaled one. A worker told `Idle` does not sleep: it waits on
//! the stream for up to one heartbeat interval, so a pushed `Done` or
//! `Abort` ends it at once, and then polls again.
//!
//! Heartbeats come from a dedicated transport-layer thread
//! (piggybacking on recent traffic, sending explicit beats only when
//! idle past the tick) — never from the thread the worker computes on,
//! so a long round cannot starve liveness into a false fence.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use shears_api::work::{self, FrameVerdict, StreamMsg, WorkAssignment, WorkReply};
use shears_api::WorkStreamClient;
use shears_atlas::journal::{self, JournalWriter};
use shears_atlas::{Campaign, CreditLedger, JournalHeader, Platform, ResultStore};

use crate::chaos::{ChaosAction, ChaosProxy};
use crate::DistError;

/// In-flight window: how many submitted frames may await their verdict
/// before the worker blocks.
const WINDOW: usize = 8;

/// Socket connect/read/write timeout on the work stream.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Where (and how durably) a worker journals its shards.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Directory for the per-shard WALs (`shard-{n}.wal`); created on
    /// first use. A restarted worker pointed at the same directory
    /// resumes its shards from these journals.
    pub wal_dir: PathBuf,
    /// fsync every append (crash-durable) vs. leave flushing to the OS
    /// (fast, test-friendly).
    pub fsync: bool,
}

impl WorkerConfig {
    /// A worker journaling into `wal_dir` with test-friendly defaults.
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        Self {
            wal_dir: wal_dir.into(),
            fsync: false,
        }
    }
}

/// How a worker's run ended (errors are `Err` instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The campaign is fully merged.
    Done,
    /// The coordinator aborted the campaign (strict-mode failure).
    Aborted,
    /// A scheduled [`ChaosAction`] killed this incarnation; its WAL
    /// remains for a successor.
    Killed,
}

/// Wire-level counters from one worker incarnation — the measurable
/// side of the pipelining win. A *blocking wait* is one episode where
/// the worker thread could not proceed without hearing from the
/// coordinator (connect/register handshake, a poll answer, a verdict
/// the full window forced it to wait for, the end-of-assignment
/// drain); however many messages arrive during the episode, it counts
/// once — so a pipelined worker pays one per stall, not one per round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Episodes spent blocked on the coordinator.
    pub blocking_waits: u64,
    /// Round frames sent, including WAL resends.
    pub frames_sent: u64,
    /// Times the TCP stream was re-dialed after an I/O failure.
    pub stream_reconnects: u64,
}

impl WorkerStats {
    /// Folds another incarnation's counters into this one.
    pub fn absorb(&mut self, other: WorkerStats) {
        self.blocking_waits += other.blocking_waits;
        self.frames_sent += other.frames_sent;
        self.stream_reconnects += other.stream_reconnects;
    }
}

enum AssignmentEnd {
    /// Every round submitted; poll for more work.
    Completed,
    /// The shard was reassigned away mid-run; poll for more work.
    Fenced,
    /// Terminal: propagate to the caller.
    Exit(WorkerExit),
}

/// Runs one worker incarnation against the coordinator at `addr`,
/// using `platform` (which must be built from the same configuration
/// as the coordinator's — this is verified by digest at registration)
/// and injecting the scheduled `chaos`. Returns how the incarnation
/// ended, with its wire counters; a [`WorkerExit::Killed`] worker can be
/// restarted with the same [`WorkerConfig::wal_dir`] to resume from its
/// journals.
pub fn run_worker(
    addr: std::net::SocketAddr,
    platform: &Platform,
    wcfg: &WorkerConfig,
    chaos: &mut ChaosProxy,
) -> Result<(WorkerExit, WorkerStats), DistError> {
    let mut stats = WorkerStats::default();
    let exit = run_worker_tcp(addr, platform, wcfg, chaos, &mut stats)?;
    Ok((exit, stats))
}

// ---------------------------------------------------------------------------
// Shared WAL machinery
// ---------------------------------------------------------------------------

/// A shard WAL opened (or resumed) for an assignment.
struct WalResume {
    writer: JournalWriter,
    store: ResultStore,
    ledger: CreditLedger,
    /// First round to *compute* (everything before it is journaled).
    start: u32,
    /// Journaled rounds `>= start_round` to re-send before computing:
    /// `(round, gross, refund, frame)`. Digest-based dedup upstream
    /// makes the resend idempotent.
    resend: Vec<(u32, u64, u64, ResultStore)>,
}

/// Opens the per-shard WAL: replay-and-extract if a matching journal
/// exists, create (with a takeover checkpoint when `start_round > 0`)
/// otherwise. A WAL for some other partition or campaign is removed —
/// resuming it would corrupt the merge.
fn open_wal(
    a: &WorkAssignment,
    shard_header: &JournalHeader,
    wcfg: &WorkerConfig,
) -> Result<WalResume, DistError> {
    std::fs::create_dir_all(&wcfg.wal_dir)?;
    let path = wcfg.wal_dir.join(format!("shard-{}.wal", a.shard));

    let mut replayed = None;
    if path.exists() {
        let rep = journal::replay(&path)?;
        if rep.header == *shard_header {
            replayed = Some(rep);
        } else {
            std::fs::remove_file(&path)?;
        }
    }

    match replayed {
        Some(rep) => {
            let mut resend = Vec::new();
            for mark in rep.marks.iter().filter(|m| m.round >= a.start_round) {
                let mut frame = ResultStore::with_capacity(mark.rows_end - mark.rows_start);
                for i in mark.rows_start..mark.rows_end {
                    frame.push(rep.store.get(i));
                }
                resend.push((mark.round, mark.gross, mark.refund, frame));
            }
            let start = rep.next_round.max(a.start_round);
            let writer = JournalWriter::open_append(&path, &rep, wcfg.fsync)?;
            Ok(WalResume {
                writer,
                store: rep.store,
                ledger: rep.ledger,
                start,
                resend,
            })
        }
        None => {
            let mut writer = JournalWriter::create(&path, shard_header, wcfg.fsync)?;
            let store = ResultStore::new();
            let ledger = CreditLedger::new(shard_header.config.credits);
            if a.start_round > 0 {
                // Takeover: rounds before `start_round` were delivered
                // by a previous owner. Checkpoint an empty base so our
                // own restarts resume here, not at round 0.
                writer.checkpoint(a.start_round, &ledger)?;
            }
            Ok(WalResume {
                writer,
                store,
                ledger,
                start: a.start_round,
                resend: Vec::new(),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// The work stream
// ---------------------------------------------------------------------------

fn run_worker_tcp(
    addr: SocketAddr,
    platform: &Platform,
    wcfg: &WorkerConfig,
    chaos: &mut ChaosProxy,
    stats: &mut WorkerStats,
) -> Result<WorkerExit, DistError> {
    let mut reconnect = false;
    // One internal re-dial per incarnation: a broken stream is
    // recoverable (the WAL re-frames whatever was in flight), but a
    // second break in a row is surfaced as the error it is.
    let mut redials_left = 1u32;
    loop {
        match tcp_incarnation(addr, platform, wcfg, chaos, reconnect, stats) {
            Ok(exit) => return Ok(exit),
            Err(DistError::Io(_)) if redials_left > 0 => {
                redials_left -= 1;
                stats.stream_reconnects += 1;
                reconnect = true;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One stream lifetime: connect, validate digests, poll/execute until
/// a terminal reply. Any `DistError::Io` out of here may be retried by
/// the caller on a fresh stream.
fn tcp_incarnation(
    addr: SocketAddr,
    platform: &Platform,
    wcfg: &WorkerConfig,
    chaos: &mut ChaosProxy,
    reconnect: bool,
    stats: &mut WorkerStats,
) -> Result<WorkerExit, DistError> {
    stats.blocking_waits += 1; // connect + HELLO/WELCOME handshake
    let (mut stream, worker_id, hb_ms, header_wire) =
        WorkStreamClient::connect(addr, REQUEST_TIMEOUT, reconnect)?;
    let header = JournalHeader::from_wire(&header_wire).map_err(DistError::Protocol)?;
    let campaign = Campaign::new(platform, header.config);
    let local = campaign.journal_header();
    if local.fleet_digest != header.fleet_digest || local.plan_digest != header.plan_digest {
        return Err(DistError::CampaignMismatch);
    }
    let heartbeat = Duration::from_millis(hb_ms.max(1));
    stream.start_heartbeats(worker_id, heartbeat);

    loop {
        stream.send(&work::poll_payload(worker_id))?;
        match tcp_wait_reply(&mut stream, stats)? {
            WorkReply::Idle => match tcp_wait_idle(&mut stream, heartbeat)? {
                None => {}
                Some(WorkReply::Done) => return Ok(WorkerExit::Done),
                Some(WorkReply::Abort) => return Ok(WorkerExit::Aborted),
                Some(_) => return Err(DistError::Protocol("work pushed to an idle worker")),
            },
            WorkReply::Done => return Ok(WorkerExit::Done),
            WorkReply::Abort => return Ok(WorkerExit::Aborted),
            WorkReply::Assigned(a) => {
                match run_assignment_tcp(&mut stream, worker_id, &campaign, a, wcfg, chaos, stats)?
                {
                    AssignmentEnd::Completed | AssignmentEnd::Fenced => {}
                    AssignmentEnd::Exit(exit) => return Ok(exit),
                }
            }
        }
    }
}

/// Waits for the next control [`WorkReply`] (poll answer or pushed
/// terminal). Verdict stragglers from a fenced assignment are
/// discarded here: the stream is ordered, so every verdict for an old
/// assignment arrives — and is skipped — *before* the reply that
/// grants a new one, which is what makes `(shard, round)` matching
/// unambiguous across assignments.
fn tcp_wait_reply(
    stream: &mut WorkStreamClient,
    stats: &mut WorkerStats,
) -> Result<WorkReply, DistError> {
    let mut stalled = false;
    loop {
        let msg = match stream.take_buffered()? {
            Some(m) => m,
            None => {
                if !stalled {
                    stats.blocking_waits += 1;
                    stalled = true;
                }
                stream.recv(Instant::now() + stream.timeout())?
            }
        };
        match msg {
            StreamMsg::Reply(r) => return Ok(r),
            StreamMsg::Verdict { .. } => {}
            _ => return Err(DistError::Protocol("unexpected message awaiting reply")),
        }
    }
}

/// An idle worker's wait: up to `heartbeat` for a pushed `Done` or
/// `Abort`, dropping verdict stragglers as [`tcp_wait_reply`] does.
/// `None` means nothing came and the worker should poll again. A
/// push never carries work: a freed shard is picked up by the next
/// poll.
fn tcp_wait_idle(
    stream: &mut WorkStreamClient,
    heartbeat: Duration,
) -> Result<Option<WorkReply>, DistError> {
    let deadline = Instant::now() + heartbeat;
    loop {
        match stream.recv(deadline) {
            Ok(StreamMsg::Reply(r)) => return Ok(Some(r)),
            Ok(StreamMsg::Verdict { .. }) => {}
            Ok(_) => return Err(DistError::Protocol("unexpected message while idle")),
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => return Ok(None),
            Err(e) => return Err(e.into()),
        }
    }
}

/// Executes one shard assignment over the stream: WAL resends and
/// fresh rounds are all pushed through the same in-flight window,
/// then the tail is drained so the assignment only completes with
/// every frame acked.
fn run_assignment_tcp(
    stream: &mut WorkStreamClient,
    worker_id: u64,
    campaign: &Campaign<'_>,
    a: WorkAssignment,
    wcfg: &WorkerConfig,
    chaos: &mut ChaosProxy,
    stats: &mut WorkerStats,
) -> Result<AssignmentEnd, DistError> {
    let mut ctx = campaign.shard_context(a.shard as usize, a.shard_count as usize);
    let shard_header = campaign.shard_header(&ctx);
    let mut wal = open_wal(&a, &shard_header, wcfg)?;
    let mut inflight: Vec<u32> = Vec::new();

    for (round, gross, refund, frame) in std::mem::take(&mut wal.resend) {
        let payload = work::frame_submit_payload(worker_id, a.shard, round, gross, refund, &frame);
        if let Some(end) = push_frame(stream, &mut inflight, round, &payload, a.shard, stats)? {
            return Ok(end);
        }
    }

    for round in wal.start..a.rounds {
        let mut kill_after_journal = false;
        match chaos.take(round) {
            Some(ChaosAction::Kill) => return Ok(AssignmentEnd::Exit(WorkerExit::Killed)),
            Some(ChaosAction::KillAfterJournal) => kill_after_journal = true,
            Some(ChaosAction::Hang(d)) => {
                // Fully wedged: even the heartbeater goes silent, so
                // the failure detector sees a dead worker.
                stream.pause_heartbeats(true);
                std::thread::sleep(d);
                stream.pause_heartbeats(false);
            }
            Some(ChaosAction::Delay(d)) => std::thread::sleep(d),
            None => {}
        }

        let (frame, gross, refund) = campaign.run_shard(&mut ctx, round);
        // Encoded before the frame moves into the WAL store; it is sent
        // only once the round is journaled.
        let payload = work::frame_submit_payload(worker_id, a.shard, round, gross, refund, &frame);
        let from = wal.store.len();
        wal.store.merge(frame);
        wal.ledger.debit(gross)?;
        wal.ledger.refund(refund);
        wal.writer
            .append_round(round, &wal.store, from, &wal.ledger)?;
        if kill_after_journal {
            return Ok(AssignmentEnd::Exit(WorkerExit::Killed));
        }

        if let Some(end) = push_frame(stream, &mut inflight, round, &payload, a.shard, stats)? {
            return Ok(end);
        }
    }

    // Drain the window: one blocking episode, however many verdicts
    // are still in flight.
    if !inflight.is_empty() {
        stats.blocking_waits += 1;
        while !inflight.is_empty() {
            let msg = stream.recv(Instant::now() + stream.timeout())?;
            if let Some(end) = on_stream_msg(msg, a.shard, &mut inflight)? {
                return Ok(end);
            }
        }
    }
    Ok(AssignmentEnd::Completed)
}

/// Sends one frame through the window: drain whatever verdicts are
/// already buffered (free), block only when the window is full, then
/// ship. Returns `Some(end)` if a verdict or pushed reply ended the
/// assignment first.
fn push_frame(
    stream: &mut WorkStreamClient,
    inflight: &mut Vec<u32>,
    round: u32,
    payload: &[u8],
    shard: u32,
    stats: &mut WorkerStats,
) -> Result<Option<AssignmentEnd>, DistError> {
    while let Some(msg) = stream.take_buffered()? {
        if let Some(end) = on_stream_msg(msg, shard, inflight)? {
            return Ok(Some(end));
        }
    }
    if inflight.len() >= WINDOW {
        stats.blocking_waits += 1;
        while inflight.len() >= WINDOW {
            let msg = stream.recv(Instant::now() + stream.timeout())?;
            if let Some(end) = on_stream_msg(msg, shard, inflight)? {
                return Ok(Some(end));
            }
        }
    }
    stream.send(payload)?;
    inflight.push(round);
    stats.frames_sent += 1;
    Ok(None)
}

/// Applies one mid-assignment stream message: async verdicts retire
/// in-flight rounds (out-of-order is fine — matching is by round),
/// pushed replies fence or terminate.
fn on_stream_msg(
    msg: StreamMsg,
    shard: u32,
    inflight: &mut Vec<u32>,
) -> Result<Option<AssignmentEnd>, DistError> {
    match msg {
        StreamMsg::Verdict {
            shard: s,
            round,
            verdict,
            current,
        } => {
            let slot = if s == shard {
                inflight.iter().position(|&r| r == round)
            } else {
                None
            };
            let Some(i) = slot else {
                // A straggler from a previous (fenced) assignment;
                // its dedup already happened server-side.
                return Ok(None);
            };
            inflight.swap_remove(i);
            if !current {
                return Ok(Some(AssignmentEnd::Fenced));
            }
            if matches!(verdict, FrameVerdict::Rejected) {
                return Err(DistError::Protocol("in-window frame rejected"));
            }
            Ok(None)
        }
        StreamMsg::Reply(WorkReply::Idle) => Ok(Some(AssignmentEnd::Fenced)),
        StreamMsg::Reply(WorkReply::Done) => Ok(Some(AssignmentEnd::Exit(WorkerExit::Done))),
        StreamMsg::Reply(WorkReply::Abort) => Ok(Some(AssignmentEnd::Exit(WorkerExit::Aborted))),
        StreamMsg::Reply(WorkReply::Assigned(_)) => {
            Err(DistError::Protocol("unsolicited assignment mid-shard"))
        }
        _ => Err(DistError::Protocol("unexpected message on work stream")),
    }
}
