//! Distributed work dispatch: the coordinator-side shard queue and the
//! binary messages workers exchange with it over the work stream
//! ([`crate::transport`]).
//!
//! A campaign is partitioned into contiguous probe shards
//! ([`shears_atlas::Campaign::shard_ranges`]); workers claim shards,
//! execute rounds, and stream each completed round back as one framed
//! submission. The [`WorkQueue`] is the coordinator's single source of
//! truth for assignment, liveness, and accepted frames:
//!
//! * **Stream close** — a worker id lives exactly as long as its
//!   stream, so when the stream closes ([`WorkQueue::disconnect`]) the
//!   worker stops counting as live at once and its unfinished shard
//!   goes to the next poll. A killed worker's shard never waits out a
//!   timer.
//! * **Heartbeats** — every worker request (poll, heartbeat, frame)
//!   refreshes that worker's liveness clock; [`WorkQueue::sweep`]
//!   declares a worker dead after `heartbeat_timeout` of silence and
//!   frees its shard for a survivor. This is the detector for a worker
//!   whose stream stays open: a hang or a partition.
//! * **Round deadlines** — an assigned shard must deliver its next
//!   round within `round_timeout`; a miss re-arms the deadline with
//!   decorrelated-jitter backoff (the [`shears_atlas::RetryPolicy`]
//!   discipline), and after `max_round_retries` misses the assignment
//!   is stripped so a survivor can take over even though the original
//!   worker still heartbeats (it may be wedged mid-round).
//! * **Idempotent merge** — every accepted `(shard, round)` frame is
//!   digest-pinned. A bit-identical resubmission (WAL replay after a
//!   worker restart, or a fenced worker racing its replacement) is
//!   counted and dropped, never double-merged; a *mismatched*
//!   resubmission is rejected loudly, because shard rounds are
//!   deterministic and two honest computations cannot disagree.
//!
//! The wire format reuses the campaign journal's CRC-framed byte
//! encoding (`[len][crc32][payload]`) rather than JSON: round frames
//! are columnar sample blocks. Every message is one frame whose
//! payload starts with a tag byte.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use shears_atlas::journal::{get_samples_wire, put_samples_wire, ByteReader};
use shears_atlas::ResultStore;
use shears_geo::rng::splitmix64;
use shears_netsim::fault::Fnv1a;

/// Protocol version spoken by both sides; a mismatch aborts register.
pub const WORK_PROTO_VERSION: u32 = 1;

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_POLL: u8 = 3;
const TAG_REPLY: u8 = 4;
const TAG_FRAME: u8 = 5;
const TAG_VERDICT: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;

/// One shard assignment handed to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkAssignment {
    /// Shard index.
    pub shard: u32,
    /// Total shard count (fixed for the campaign).
    pub shard_count: u32,
    /// First round the coordinator still needs from this shard.
    pub start_round: u32,
    /// Total rounds in the campaign (the worker runs
    /// `start_round..rounds`).
    pub rounds: u32,
}

/// Coordinator's answer to a poll or heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkReply {
    /// No shard available right now. The worker waits up to a
    /// heartbeat interval for a pushed `Done` or `Abort`, then polls
    /// again.
    Idle,
    /// A shard to run (or the worker's current assignment, restated).
    Assigned(WorkAssignment),
    /// The campaign is fully merged; the worker may exit.
    Done,
    /// The campaign failed (strict mode); the worker must exit.
    Abort,
}

/// One completed round, as submitted by a worker.
#[derive(Debug, Clone)]
pub struct FrameSubmission {
    /// Submitting worker.
    pub worker: u64,
    /// Shard index.
    pub shard: u32,
    /// Round index.
    pub round: u32,
    /// Gross credits the round debited.
    pub gross: u64,
    /// Credits the round refunded.
    pub refund: u64,
    /// The round's samples.
    pub store: ResultStore,
}

/// Coordinator's verdict on a submitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameVerdict {
    /// First sighting of this `(shard, round)`: merged.
    Accepted,
    /// Bit-identical duplicate of an already-accepted frame: dropped.
    Duplicate,
    /// Malformed, out of range, or *divergent* duplicate: refused.
    Rejected,
}

// --- Codec -----------------------------------------------------------
//
// Every message is one tagged payload inside a CRC frame on the
// worker's long-lived stream. HEARTBEAT is explicit liveness for when
// the send window has been idle past the tick; the verdict carries
// `(shard, round)` so a pipelined worker can match out-of-order acks to
// its in-flight frames. A fence is a `current = false` verdict for the
// worker's shard, or else an unsolicited `Reply(Idle)`.

/// Stream HELLO payload; `reconnect` marks a re-established stream
/// (counted in [`WorkMetrics::stream_reconnects`]).
pub fn stream_hello_payload(reconnect: bool) -> Vec<u8> {
    let mut p = vec![TAG_HELLO];
    p.extend_from_slice(&WORK_PROTO_VERSION.to_le_bytes());
    p.push(u8::from(reconnect));
    p
}

/// Stream WELCOME payload: worker id, heartbeat interval, and the
/// campaign's journal header ([`shears_atlas::JournalHeader::to_wire`])
/// from which the worker reconstructs and digest-validates its view of
/// the fleet.
pub fn welcome_payload(worker: u64, heartbeat_interval_ms: u64, header_wire: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(32 + header_wire.len());
    p.push(TAG_WELCOME);
    p.extend_from_slice(&worker.to_le_bytes());
    p.extend_from_slice(&heartbeat_interval_ms.to_le_bytes());
    p.extend_from_slice(&(header_wire.len() as u32).to_le_bytes());
    p.extend_from_slice(header_wire);
    p
}

/// Stream POLL payload (liveness + acquire/restate work).
pub fn poll_payload(worker: u64) -> Vec<u8> {
    let mut p = vec![TAG_POLL];
    p.extend_from_slice(&worker.to_le_bytes());
    p
}

/// Stream HEARTBEAT payload: liveness only, no reply is sent.
pub fn heartbeat_payload(worker: u64) -> Vec<u8> {
    let mut p = vec![TAG_HEARTBEAT];
    p.extend_from_slice(&worker.to_le_bytes());
    p
}

/// Stream REPLY payload (poll answer or unsolicited coordinator push).
pub fn reply_payload(reply: &WorkReply) -> Vec<u8> {
    let mut p = vec![TAG_REPLY];
    match reply {
        WorkReply::Idle => p.push(0),
        WorkReply::Assigned(a) => {
            p.push(1);
            p.extend_from_slice(&a.shard.to_le_bytes());
            p.extend_from_slice(&a.shard_count.to_le_bytes());
            p.extend_from_slice(&a.start_round.to_le_bytes());
            p.extend_from_slice(&a.rounds.to_le_bytes());
        }
        WorkReply::Done => p.push(2),
        WorkReply::Abort => p.push(3),
    }
    p
}

/// Stream FRAME payload: one completed round.
pub fn frame_submit_payload(
    worker: u64,
    shard: u32,
    round: u32,
    gross: u64,
    refund: u64,
    store: &ResultStore,
) -> Vec<u8> {
    let mut p = Vec::with_capacity(40 + store.len() * 24);
    p.push(TAG_FRAME);
    p.extend_from_slice(&worker.to_le_bytes());
    p.extend_from_slice(&shard.to_le_bytes());
    p.extend_from_slice(&round.to_le_bytes());
    p.extend_from_slice(&gross.to_le_bytes());
    p.extend_from_slice(&refund.to_le_bytes());
    put_samples_wire(&mut p, store);
    p
}

/// Stream VERDICT payload, tagged with `(shard, round)` so out-of-order
/// acks can be matched to in-flight frames.
pub fn verdict_payload(shard: u32, round: u32, verdict: FrameVerdict, current: bool) -> Vec<u8> {
    let v = match verdict {
        FrameVerdict::Accepted => 0,
        FrameVerdict::Duplicate => 1,
        FrameVerdict::Rejected => 2,
    };
    let mut p = vec![TAG_VERDICT];
    p.extend_from_slice(&shard.to_le_bytes());
    p.extend_from_slice(&round.to_le_bytes());
    p.push(v);
    p.push(u8::from(current));
    p
}

fn reply_from(r: &mut ByteReader<'_>) -> Result<WorkReply, &'static str> {
    match r.u8()? {
        0 => Ok(WorkReply::Idle),
        1 => Ok(WorkReply::Assigned(WorkAssignment {
            shard: r.u32()?,
            shard_count: r.u32()?,
            start_round: r.u32()?,
            rounds: r.u32()?,
        })),
        2 => Ok(WorkReply::Done),
        3 => Ok(WorkReply::Abort),
        _ => Err("unknown reply kind"),
    }
}

fn frame_submit_from(r: &mut ByteReader<'_>) -> Result<FrameSubmission, &'static str> {
    let worker = r.u64()?;
    let shard = r.u32()?;
    let round = r.u32()?;
    let gross = r.u64()?;
    let refund = r.u64()?;
    let store = get_samples_wire(r)?;
    Ok(FrameSubmission {
        worker,
        shard,
        round,
        gross,
        refund,
        store,
    })
}

/// One decoded stream message (either direction).
#[derive(Debug)]
pub enum StreamMsg {
    /// Client HELLO: protocol version + reconnect flag.
    Hello {
        /// Client's [`WORK_PROTO_VERSION`].
        version: u32,
        /// Whether this stream replaces one that dropped.
        reconnect: bool,
    },
    /// Server WELCOME: identity + campaign header.
    Welcome {
        /// Assigned worker id.
        worker: u64,
        /// Heartbeat interval, milliseconds.
        heartbeat_ms: u64,
        /// `JournalHeader::to_wire` bytes.
        header: Vec<u8>,
    },
    /// Client poll: liveness + acquire/restate work.
    Poll {
        /// Polling worker.
        worker: u64,
    },
    /// Client explicit heartbeat: liveness only, no reply.
    Heartbeat {
        /// Heartbeating worker.
        worker: u64,
    },
    /// Server control reply (poll answer or unsolicited push).
    Reply(WorkReply),
    /// Client round frame.
    Frame(Box<FrameSubmission>),
    /// Server verdict for `(shard, round)`.
    Verdict {
        /// Shard the verdict is for.
        shard: u32,
        /// Round the verdict is for.
        round: u32,
        /// The coordinator's verdict.
        verdict: FrameVerdict,
        /// Whether the submitter still owns the shard.
        current: bool,
    },
}

/// Decodes one stream message payload (the bytes inside a CRC frame).
pub fn decode_stream_msg(payload: &[u8]) -> Result<StreamMsg, &'static str> {
    let mut r = ByteReader::new(payload);
    match r.u8()? {
        TAG_HELLO => {
            let version = r.u32()?;
            let reconnect = if r.remaining() > 0 {
                r.u8()? != 0
            } else {
                false
            };
            Ok(StreamMsg::Hello { version, reconnect })
        }
        TAG_WELCOME => {
            let worker = r.u64()?;
            let heartbeat_ms = r.u64()?;
            let len = r.u32()? as usize;
            let header = r.take(len)?.to_vec();
            Ok(StreamMsg::Welcome {
                worker,
                heartbeat_ms,
                header,
            })
        }
        TAG_POLL => Ok(StreamMsg::Poll { worker: r.u64()? }),
        TAG_HEARTBEAT => Ok(StreamMsg::Heartbeat { worker: r.u64()? }),
        TAG_REPLY => Ok(StreamMsg::Reply(reply_from(&mut r)?)),
        TAG_FRAME => Ok(StreamMsg::Frame(Box::new(frame_submit_from(&mut r)?))),
        TAG_VERDICT => {
            let shard = r.u32()?;
            let round = r.u32()?;
            let verdict = match r.u8()? {
                0 => FrameVerdict::Accepted,
                1 => FrameVerdict::Duplicate,
                2 => FrameVerdict::Rejected,
                _ => return Err("unknown verdict"),
            };
            let current = r.u8()? != 0;
            Ok(StreamMsg::Verdict {
                shard,
                round,
                verdict,
                current,
            })
        }
        _ => Err("unexpected message tag"),
    }
}

// --- Coordinator queue -----------------------------------------------

/// Static description of the distributed campaign, fixed at queue
/// construction.
#[derive(Debug, Clone)]
pub struct WorkSpec {
    /// Rounds per shard.
    pub rounds: u32,
    /// Number of shards (independent of worker count).
    pub shard_count: u32,
    /// Per-shard `[start, end)` probe-index ranges — the garbage
    /// defense: a submitted sample whose probe falls outside its
    /// shard's range is rejected before it can touch the merge.
    pub probe_ranges: Vec<(u32, u32)>,
    /// `JournalHeader::to_wire` bytes shipped to workers at register.
    pub header_wire: Vec<u8>,
    /// How often idle workers should poll / running workers heartbeat.
    pub heartbeat_interval: Duration,
    /// Silence after which a worker whose stream is still open (hung or
    /// partitioned) is declared dead. A worker whose stream closes is
    /// gone at once ([`WorkQueue::disconnect`]).
    pub heartbeat_timeout: Duration,
    /// How long an assigned shard may sit on one round.
    pub round_timeout: Duration,
    /// Backoff floor for a missed round deadline.
    pub retry_base: Duration,
    /// Backoff ceiling.
    pub retry_cap: Duration,
    /// Deadline misses after which the assignment is stripped and the
    /// shard handed to a survivor.
    pub max_round_retries: u32,
    /// Seed for the backoff jitter (deterministic per campaign).
    pub seed: u64,
}

impl WorkSpec {
    /// Localhost-test defaults: snappy heartbeats, short deadlines.
    pub fn quick(rounds: u32, shard_count: u32) -> Self {
        Self {
            rounds,
            shard_count,
            probe_ranges: Vec::new(),
            header_wire: Vec::new(),
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(250),
            round_timeout: Duration::from_millis(500),
            retry_base: Duration::from_millis(50),
            retry_cap: Duration::from_millis(400),
            max_round_retries: 3,
            seed: 0x5EED_D157,
        }
    }
}

/// Point-in-time copy of the queue's robustness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkMetrics {
    /// Workers currently considered live.
    pub workers_live: u64,
    /// Workers ever registered (includes restarts — each incarnation
    /// registers anew).
    pub workers_registered: u64,
    /// Heartbeat deadlines blown (each one declared a worker dead).
    pub heartbeats_missed: u64,
    /// Unfinished shard leases freed because their worker's stream
    /// closed (a clean fleet reads 0).
    pub shards_freed_on_close: u64,
    /// Shard assignments handed to a worker other than the first.
    pub shards_reassigned: u64,
    /// Round deadlines blown (each re-armed with jittered backoff).
    pub rounds_retried: u64,
    /// Bit-identical resubmissions detected and dropped.
    pub duplicate_frames_dropped: u64,
    /// Frames accepted into the merge.
    pub frames_accepted: u64,
    /// Frames refused (malformed, out of range, or divergent).
    pub frames_rejected: u64,
    /// Rounds abandoned as lost (degraded completion only).
    pub lost_rounds: u64,
    /// Work-plane TCP streams opened (HELLO handshakes).
    pub streams_opened: u64,
    /// Streams re-established after a drop (HELLO reconnect flag).
    pub stream_reconnects: u64,
    /// Round frames decoded from streams whose verdicts have not yet
    /// reached the wire (pipelining gauge).
    pub frames_in_flight: u64,
    /// High-water mark of `frames_in_flight`.
    pub frames_in_flight_peak: u64,
    /// Control replies pushed down a stream unprompted (fence,
    /// reassignment notice, done, abort).
    pub replies_pushed: u64,
    /// Verdicts on the wire within 1ms of frame arrival.
    pub verdicts_le_1ms: u64,
    /// Verdicts on the wire within 10ms.
    pub verdicts_le_10ms: u64,
    /// Verdicts on the wire within 100ms.
    pub verdicts_le_100ms: u64,
    /// Verdicts slower than 100ms.
    pub verdicts_gt_100ms: u64,
}

/// One accepted round, waiting for (or consumed by) the merge.
#[derive(Debug)]
pub struct RoundFrame {
    /// Gross credits the round debited.
    pub gross: u64,
    /// Credits the round refunded.
    pub refund: u64,
    /// The round's samples.
    pub store: ResultStore,
}

#[derive(Debug)]
struct ShardState {
    assigned: Option<u64>,
    ever_assigned: bool,
    /// Lowest round neither accepted nor marked lost: where a (re)
    /// assignment starts.
    next_needed: u32,
    /// When the next round must arrive (assigned shards only).
    deadline: Option<Instant>,
    retries: u32,
    backoff: Duration,
    /// Accepted-but-unmerged rounds.
    frames: HashMap<u32, RoundFrame>,
    /// Digest of every accepted round, kept past the merge so late
    /// duplicates are still recognised.
    digests: HashMap<u32, u64>,
    lost: HashSet<u32>,
}

#[derive(Debug)]
struct WorkerState {
    last_seen: Instant,
    live: bool,
}

#[derive(Debug)]
struct Inner {
    shards: Vec<ShardState>,
    workers: HashMap<u64, WorkerState>,
    next_worker: u64,
    finished: bool,
    aborted: bool,
    /// The stall clock: the later of the last accepted frame and the
    /// moment the fleet last lost its final live worker.
    quiet_since: Instant,
    rng: u64,
    metrics: WorkMetrics,
}

/// The coordinator's shard queue: assignment, liveness, dedup, merge
/// hand-off. All waits are bounded — no caller ever blocks longer than
/// the timeout it passes in.
pub struct WorkQueue {
    spec: WorkSpec,
    inner: Mutex<Inner>,
    /// Signalled whenever a frame is accepted, the fleet empties, or
    /// the campaign finishes/aborts; the merge loop waits on it with a
    /// deadline.
    ready: Condvar,
    /// Bumped under the lock whenever a shard completes and on finish
    /// and abort: the changes an idle worker is pushed. Read without
    /// the lock ([`WorkQueue::epoch`]); each `Release` bump pairs with
    /// that `Acquire` load, and the state it announces is then read
    /// under the lock.
    epoch: AtomicU64,
}

/// Decorrelated jitter: `min(cap, base + U[0,1) * (prev*3 - base))`.
fn decorrelated(rng: &mut u64, prev: Duration, base: Duration, cap: Duration) -> Duration {
    let unit = (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
    let span = (prev.as_secs_f64() * 3.0 - base.as_secs_f64()).max(0.0);
    let next = base.as_secs_f64() + unit * span;
    Duration::from_secs_f64(next.min(cap.as_secs_f64()))
}

impl WorkQueue {
    /// Builds a queue over the spec; all shards start unassigned.
    pub fn new(spec: WorkSpec) -> Self {
        let shards = (0..spec.shard_count)
            .map(|_| ShardState {
                assigned: None,
                ever_assigned: false,
                next_needed: 0,
                deadline: None,
                retries: 0,
                backoff: spec.retry_base,
                frames: HashMap::new(),
                digests: HashMap::new(),
                lost: HashSet::new(),
            })
            .collect();
        let rng = spec.seed | 1;
        Self {
            spec,
            inner: Mutex::new(Inner {
                shards,
                workers: HashMap::new(),
                next_worker: 1,
                finished: false,
                aborted: false,
                quiet_since: Instant::now(),
                rng,
                metrics: WorkMetrics::default(),
            }),
            ready: Condvar::new(),
            epoch: AtomicU64::new(0),
        }
    }

    /// The campaign spec this queue dispatches.
    pub fn spec(&self) -> &WorkSpec {
        &self.spec
    }

    /// Registers a new worker incarnation; returns its id.
    pub fn register(&self, now: Instant) -> u64 {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        let id = inner.next_worker;
        inner.next_worker += 1;
        inner.workers.insert(
            id,
            WorkerState {
                last_seen: now,
                live: true,
            },
        );
        inner.metrics.workers_registered += 1;
        inner.metrics.workers_live += 1;
        id
    }

    fn touch(inner: &mut Inner, worker: u64, now: Instant) {
        let entry = inner.workers.entry(worker).or_insert(WorkerState {
            last_seen: now,
            live: false,
        });
        entry.last_seen = now;
        if !entry.live {
            entry.live = true;
            inner.metrics.workers_live += 1;
        }
    }

    /// Takes `worker` out of the live count and frees its shards;
    /// returns how many of them were unfinished. When that leaves the
    /// fleet without a live worker, the stall clock restarts at `now`.
    fn lose_worker(&self, inner: &mut Inner, worker: u64, now: Instant) -> u64 {
        inner.metrics.workers_live = inner.metrics.workers_live.saturating_sub(1);
        if inner.metrics.workers_live == 0 {
            inner.quiet_since = inner.quiet_since.max(now);
            self.ready.notify_all();
        }
        let rounds = self.spec.rounds;
        let mut freed = 0;
        for s in inner.shards.iter_mut() {
            if s.assigned == Some(worker) {
                s.assigned = None;
                s.deadline = None;
                freed += u64::from(s.next_needed < rounds);
            }
        }
        freed
    }

    fn owned_shard(inner: &Inner, worker: u64) -> Option<u32> {
        inner
            .shards
            .iter()
            .position(|s| s.assigned == Some(worker))
            .map(|s| s as u32)
    }

    fn assignment(&self, inner: &Inner, shard: u32) -> WorkAssignment {
        WorkAssignment {
            shard,
            shard_count: self.spec.shard_count,
            start_round: inner.shards[shard as usize].next_needed,
            rounds: self.spec.rounds,
        }
    }

    fn all_done(&self, inner: &Inner) -> bool {
        inner
            .shards
            .iter()
            .all(|s| s.next_needed >= self.spec.rounds)
    }

    /// Poll: heartbeat + acquire work. An idle worker is handed the
    /// lowest unassigned, unfinished shard; a worker that already owns
    /// a shard has its assignment restated (resume after a dropped
    /// reply).
    pub fn poll(&self, worker: u64, now: Instant) -> WorkReply {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        Self::touch(&mut inner, worker, now);
        if inner.aborted {
            return WorkReply::Abort;
        }
        if inner.finished || self.all_done(&inner) {
            return WorkReply::Done;
        }
        if let Some(shard) = Self::owned_shard(&inner, worker) {
            if inner.shards[shard as usize].next_needed < self.spec.rounds {
                return WorkReply::Assigned(self.assignment(&inner, shard));
            }
            // The worker's shard is complete: release it and fall
            // through to pick up more work — holding a finished shard
            // would wedge the worker restating an empty assignment.
            let s = &mut inner.shards[shard as usize];
            s.assigned = None;
            s.deadline = None;
        }
        let free = inner
            .shards
            .iter()
            .position(|s| s.assigned.is_none() && s.next_needed < self.spec.rounds);
        match free {
            Some(i) => {
                let reassigned = inner.shards[i].ever_assigned;
                {
                    let s = &mut inner.shards[i];
                    s.assigned = Some(worker);
                    s.ever_assigned = true;
                    s.deadline = Some(now + self.spec.round_timeout);
                    s.retries = 0;
                    s.backoff = self.spec.retry_base;
                }
                if reassigned {
                    inner.metrics.shards_reassigned += 1;
                }
                WorkReply::Assigned(self.assignment(&inner, i as u32))
            }
            None => WorkReply::Idle,
        }
    }

    /// Heartbeat: liveness refresh only — never acquires new work, but
    /// restates ownership so a fenced worker learns it lost its shard
    /// (reply `Idle`) and falls back to polling.
    pub fn heartbeat(&self, worker: u64, now: Instant) -> WorkReply {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        Self::touch(&mut inner, worker, now);
        if inner.aborted {
            return WorkReply::Abort;
        }
        if inner.finished || self.all_done(&inner) {
            return WorkReply::Done;
        }
        match Self::owned_shard(&inner, worker) {
            Some(shard) => WorkReply::Assigned(self.assignment(&inner, shard)),
            None => WorkReply::Idle,
        }
    }

    /// Moves `next_needed` past every accepted or lost round; returns
    /// whether that completed the shard.
    fn advance(spec_rounds: u32, s: &mut ShardState) -> bool {
        let open = s.next_needed < spec_rounds;
        while s.next_needed < spec_rounds
            && (s.digests.contains_key(&s.next_needed) || s.lost.contains(&s.next_needed))
        {
            s.next_needed += 1;
        }
        open && s.next_needed >= spec_rounds
    }

    /// Content digest of a round frame — deliberately excludes the
    /// worker id, so the same round computed by two workers (or
    /// replayed from a WAL) hashes identically.
    fn frame_digest(sub: &FrameSubmission) -> u64 {
        let mut bytes = Vec::with_capacity(24 + sub.store.len() * 24);
        bytes.extend_from_slice(&sub.shard.to_le_bytes());
        bytes.extend_from_slice(&sub.round.to_le_bytes());
        bytes.extend_from_slice(&sub.gross.to_le_bytes());
        bytes.extend_from_slice(&sub.refund.to_le_bytes());
        put_samples_wire(&mut bytes, &sub.store);
        Fnv1a::digest_of(&bytes)
    }

    /// Submit one completed round. Accepts regardless of current
    /// ownership (a fenced worker's in-flight round is still valid
    /// work); the returned flag says whether the submitter still owns
    /// the shard.
    pub fn submit(&self, sub: FrameSubmission, now: Instant) -> (FrameVerdict, bool) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        Self::touch(&mut inner, sub.worker, now);
        let current = Self::owned_shard(&inner, sub.worker) == Some(sub.shard) && !inner.aborted;
        if sub.shard >= self.spec.shard_count || sub.round >= self.spec.rounds {
            inner.metrics.frames_rejected += 1;
            return (FrameVerdict::Rejected, current);
        }
        if let Some(&(lo, hi)) = self.spec.probe_ranges.get(sub.shard as usize) {
            let stray = sub.store.iter().any(|s| s.probe.0 < lo || s.probe.0 >= hi);
            if stray {
                inner.metrics.frames_rejected += 1;
                return (FrameVerdict::Rejected, current);
            }
        }
        let digest = Self::frame_digest(&sub);
        let shard = &mut inner.shards[sub.shard as usize];
        if let Some(&seen) = shard.digests.get(&sub.round) {
            if seen == digest {
                inner.metrics.duplicate_frames_dropped += 1;
                return (FrameVerdict::Duplicate, current);
            }
            inner.metrics.frames_rejected += 1;
            return (FrameVerdict::Rejected, current);
        }
        if shard.lost.contains(&sub.round) {
            // The merge already wrote this round off; late truth cannot
            // be spliced back in without breaking determinism.
            inner.metrics.frames_rejected += 1;
            return (FrameVerdict::Rejected, current);
        }
        shard.digests.insert(sub.round, digest);
        shard.frames.insert(
            sub.round,
            RoundFrame {
                gross: sub.gross,
                refund: sub.refund,
                store: sub.store,
            },
        );
        if Self::advance(self.spec.rounds, shard) {
            self.epoch.fetch_add(1, Ordering::Release);
        }
        if current {
            shard.deadline = Some(now + self.spec.round_timeout);
            shard.retries = 0;
            shard.backoff = self.spec.retry_base;
        }
        inner.metrics.frames_accepted += 1;
        inner.quiet_since = inner.quiet_since.max(now);
        drop(inner);
        self.ready.notify_all();
        (FrameVerdict::Accepted, current)
    }

    /// Failure detection: declares silent workers dead (freeing their
    /// shards) and re-arms or strips blown round deadlines. Called from
    /// the coordinator's control loop; cheap enough for every tick.
    pub fn sweep(&self, now: Instant) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        let timeout = self.spec.heartbeat_timeout;
        let mut dead: Vec<u64> = Vec::new();
        for (&id, w) in inner.workers.iter() {
            if w.live && now.duration_since(w.last_seen) >= timeout {
                dead.push(id);
            }
        }
        for id in dead {
            if let Some(w) = inner.workers.get_mut(&id) {
                w.live = false;
            }
            inner.metrics.heartbeats_missed += 1;
            self.lose_worker(&mut inner, id, now);
        }
        let rounds = self.spec.rounds;
        let (base, cap, max_retries) = (
            self.spec.retry_base,
            self.spec.retry_cap,
            self.spec.max_round_retries,
        );
        let mut rng = inner.rng;
        let mut retried = 0u64;
        for s in inner.shards.iter_mut() {
            if s.assigned.is_none() || s.next_needed >= rounds {
                continue;
            }
            let Some(deadline) = s.deadline else { continue };
            if now < deadline {
                continue;
            }
            retried += 1;
            s.retries += 1;
            if s.retries > max_retries {
                // The worker may still heartbeat, but it is wedged on
                // this round: fence it so a survivor takes over.
                s.assigned = None;
                s.deadline = None;
            } else {
                s.backoff = decorrelated(&mut rng, s.backoff, base, cap);
                s.deadline = Some(now + s.backoff);
            }
        }
        inner.rng = rng;
        inner.metrics.rounds_retried += retried;
    }

    /// Whether every shard has delivered (or written off) `round`.
    pub fn round_ready(&self, round: u32) -> bool {
        let inner = self.inner.lock().expect("work queue poisoned");
        inner
            .shards
            .iter()
            .all(|s| s.digests.contains_key(&round) || s.lost.contains(&round))
    }

    /// Blocks until `round` is ready, the campaign aborts, or `timeout`
    /// elapses — the coordinator's merge loop never waits unbounded.
    pub fn wait_round(&self, round: u32, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("work queue poisoned");
        loop {
            let ready = inner
                .shards
                .iter()
                .all(|s| s.digests.contains_key(&round) || s.lost.contains(&round));
            if ready || inner.aborted {
                return ready;
            }
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now) else {
                return false;
            };
            let (guard, _) = self
                .ready
                .wait_timeout(inner, left)
                .expect("work queue poisoned");
            inner = guard;
        }
    }

    /// Takes an accepted round out of the queue for merging (`None` if
    /// the round was marked lost).
    pub fn take_round(&self, shard: u32, round: u32) -> Option<RoundFrame> {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        inner.shards.get_mut(shard as usize)?.frames.remove(&round)
    }

    /// Shards that have not yet delivered `round`.
    pub fn missing_for_round(&self, round: u32) -> Vec<u32> {
        let inner = self.inner.lock().expect("work queue poisoned");
        inner
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.digests.contains_key(&round) && !s.lost.contains(&round))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Writes `(shard, round)` off as lost (degraded completion): the
    /// merge substitutes synthesised lost-round samples and any late
    /// real frame is rejected.
    pub fn mark_lost(&self, shard: u32, round: u32) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        let rounds = self.spec.rounds;
        if let Some(s) = inner.shards.get_mut(shard as usize) {
            if s.lost.insert(round) {
                if Self::advance(rounds, s) {
                    self.epoch.fetch_add(1, Ordering::Release);
                }
                inner.metrics.lost_rounds += 1;
            }
        }
        drop(inner);
        self.ready.notify_all();
    }

    /// Marks the campaign complete: workers see `Done` and exit.
    pub fn finish(&self) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        inner.finished = true;
        self.epoch.fetch_add(1, Ordering::Release);
        drop(inner);
        self.ready.notify_all();
    }

    /// Marks the campaign failed: workers see `Abort` and exit.
    pub fn abort(&self) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        inner.aborted = true;
        self.epoch.fetch_add(1, Ordering::Release);
        drop(inner);
        self.ready.notify_all();
    }

    /// A counter that moves whenever a shard completes and on finish
    /// and abort: the only changes an idle worker is told about
    /// unprompted. It is read without the lock, so a reactor can check
    /// it on every iteration and take the lock only when it moved.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The worker's stream closed. A worker id lives exactly as long as
    /// its stream, so the worker stops counting as live at once and its
    /// unfinished shard goes to the next poll, counted in
    /// [`WorkMetrics::shards_freed_on_close`]. A worker already declared
    /// dead, or closed before, is left alone.
    pub fn disconnect(&self, worker: u64, now: Instant) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        if inner.workers.remove(&worker).is_some_and(|w| w.live) {
            let freed = self.lose_worker(&mut inner, worker, now);
            inner.metrics.shards_freed_on_close += freed;
        }
    }

    /// Whether [`WorkQueue::abort`] was called.
    pub fn aborted(&self) -> bool {
        self.inner.lock().expect("work queue poisoned").aborted
    }

    /// Workers currently considered live.
    pub fn live_workers(&self) -> u64 {
        self.inner
            .lock()
            .expect("work queue poisoned")
            .metrics
            .workers_live
    }

    /// Shards that have been leased at least once. It only grows: a
    /// lease freed by a kill or a closed stream still counts.
    pub fn shards_ever_leased(&self) -> u32 {
        let inner = self.inner.lock().expect("work queue poisoned");
        inner.shards.iter().filter(|s| s.ever_assigned).count() as u32
    }

    /// Blocks until no worker is live or `timeout` elapses; returns
    /// whether the fleet emptied. Workers leave as their streams close,
    /// so after [`WorkQueue::finish`] this returns once every worker
    /// has read `Done` and hung up.
    pub fn wait_no_live_workers(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("work queue poisoned");
        while inner.metrics.workers_live > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .ready
                .wait_timeout(inner, left)
                .expect("work queue poisoned");
            inner = guard;
        }
        true
    }

    /// The stall policy's trigger: no worker is live, and `grace` has
    /// passed since the later of the last accepted frame and the moment
    /// the fleet lost its last live worker. A lone worker re-dialing
    /// between two streams is therefore not a stall.
    pub fn stalled(&self, now: Instant, grace: Duration) -> bool {
        let inner = self.inner.lock().expect("work queue poisoned");
        inner.metrics.workers_live == 0 && now.saturating_duration_since(inner.quiet_since) >= grace
    }

    /// Point-in-time copy of the robustness counters.
    pub fn metrics(&self) -> WorkMetrics {
        self.inner.lock().expect("work queue poisoned").metrics
    }

    // --- Stream transport accounting ---------------------------------

    /// Records a work-plane stream HELLO (and whether it was a
    /// reconnect).
    pub fn note_stream(&self, reconnect: bool) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        inner.metrics.streams_opened += 1;
        if reconnect {
            inner.metrics.stream_reconnects += 1;
        }
    }

    /// Raises the frames-in-flight gauge by `n` (frames decoded off a
    /// stream, verdicts not yet on the wire).
    pub fn note_frames_inflight(&self, n: u64) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        inner.metrics.frames_in_flight += n;
        inner.metrics.frames_in_flight_peak = inner
            .metrics
            .frames_in_flight_peak
            .max(inner.metrics.frames_in_flight);
    }

    /// Lowers the frames-in-flight gauge by `n` (verdicts flushed to
    /// the socket, or the stream died with verdicts queued).
    pub fn release_frames_inflight(&self, n: u64) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        inner.metrics.frames_in_flight = inner.metrics.frames_in_flight.saturating_sub(n);
    }

    /// Counts one control reply pushed down a stream unprompted.
    pub fn note_reply_pushed(&self) {
        self.inner
            .lock()
            .expect("work queue poisoned")
            .metrics
            .replies_pushed += 1;
    }

    /// Buckets one frame-arrival → verdict-on-the-wire latency.
    pub fn note_verdict_latency(&self, elapsed: Duration) {
        let mut inner = self.inner.lock().expect("work queue poisoned");
        let m = &mut inner.metrics;
        if elapsed <= Duration::from_millis(1) {
            m.verdicts_le_1ms += 1;
        } else if elapsed <= Duration::from_millis(10) {
            m.verdicts_le_10ms += 1;
        } else if elapsed <= Duration::from_millis(100) {
            m.verdicts_le_100ms += 1;
        } else {
            m.verdicts_gt_100ms += 1;
        }
    }

    /// Read-only push check for a stream connection: `Some(reply)` when
    /// the coordinator has news worth pushing — a terminal state, or a
    /// fence (the shard this worker was last assigned moved on without
    /// it while work remains). Never touches liveness: a dead worker's
    /// silence must still be observable by [`WorkQueue::sweep`].
    pub fn push_status(&self, worker: u64, assigned: Option<u32>) -> Option<WorkReply> {
        let inner = self.inner.lock().expect("work queue poisoned");
        if inner.aborted {
            return Some(WorkReply::Abort);
        }
        if inner.finished || self.all_done(&inner) {
            return Some(WorkReply::Done);
        }
        let shard = assigned?;
        let s = inner.shards.get(shard as usize)?;
        if s.assigned != Some(worker) && s.next_needed < self.spec.rounds {
            return Some(WorkReply::Idle);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::RttSample;
    use shears_netsim::SimTime;

    fn sample(probe: u32, at_hours: u64) -> RttSample {
        RttSample {
            probe: shears_atlas::ProbeId(probe),
            region: 3,
            at: SimTime::from_hours(at_hours),
            min_ms: 10.0,
            avg_ms: 12.0,
            sent: 3,
            received: 3,
        }
    }

    fn store_of(probes: &[u32]) -> ResultStore {
        let mut s = ResultStore::new();
        for &p in probes {
            s.push(sample(p, 1));
        }
        s
    }

    fn sub(worker: u64, shard: u32, round: u32, probes: &[u32]) -> FrameSubmission {
        FrameSubmission {
            worker,
            shard,
            round,
            gross: 30,
            refund: 0,
            store: store_of(probes),
        }
    }

    #[test]
    fn codec_round_trips_every_message() {
        let msg = |payload: Vec<u8>| decode_stream_msg(&payload).unwrap();

        for reconnect in [false, true] {
            match msg(stream_hello_payload(reconnect)) {
                StreamMsg::Hello {
                    version,
                    reconnect: r,
                } => {
                    assert_eq!((version, r), (WORK_PROTO_VERSION, reconnect));
                }
                other => panic!("{other:?}"),
            }
        }
        // A HELLO without the trailing reconnect byte is a first connect.
        let mut bare = stream_hello_payload(true);
        bare.pop();
        assert!(matches!(
            msg(bare),
            StreamMsg::Hello {
                version: WORK_PROTO_VERSION,
                reconnect: false
            }
        ));

        match msg(welcome_payload(7, 250, b"header-bytes")) {
            StreamMsg::Welcome {
                worker,
                heartbeat_ms,
                header,
            } => {
                assert_eq!((worker, heartbeat_ms), (7, 250));
                assert_eq!(header, b"header-bytes");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            msg(poll_payload(42)),
            StreamMsg::Poll { worker: 42 }
        ));
        assert!(matches!(
            msg(heartbeat_payload(9)),
            StreamMsg::Heartbeat { worker: 9 }
        ));

        let assigned = WorkReply::Assigned(WorkAssignment {
            shard: 2,
            shard_count: 4,
            start_round: 1,
            rounds: 6,
        });
        for reply in [WorkReply::Idle, WorkReply::Done, WorkReply::Abort, assigned] {
            match msg(reply_payload(&reply)) {
                StreamMsg::Reply(got) => assert_eq!(got, reply),
                other => panic!("{other:?}"),
            }
        }

        for verdict in [
            FrameVerdict::Accepted,
            FrameVerdict::Duplicate,
            FrameVerdict::Rejected,
        ] {
            for current in [true, false] {
                match msg(verdict_payload(3, 5, verdict, current)) {
                    StreamMsg::Verdict {
                        shard,
                        round,
                        verdict: v,
                        current: c,
                    } => {
                        assert_eq!((shard, round, v, c), (3, 5, verdict, current));
                    }
                    other => panic!("{other:?}"),
                }
            }
        }

        // A lost-sample row's INFINITY minimum crosses the wire bit for
        // bit.
        let mut store = store_of(&[4, 5]);
        store.push(RttSample {
            min_ms: f32::INFINITY,
            avg_ms: f32::INFINITY,
            received: 0,
            ..sample(6, 1)
        });
        match msg(frame_submit_payload(9, 1, 3, 120, 30, &store)) {
            StreamMsg::Frame(got) => {
                assert_eq!((got.worker, got.shard, got.round), (9, 1, 3));
                assert_eq!((got.gross, got.refund), (120, 30));
                assert_eq!(got.store, store);
                assert_eq!(got.store.min_ms()[2].to_bits(), f32::INFINITY.to_bits());
            }
            other => panic!("{other:?}"),
        }

        // Malformed payloads are refused, never panic.
        let reply = reply_payload(&assigned);
        assert!(
            decode_stream_msg(&reply[..reply.len() - 1]).is_err(),
            "truncated reply"
        );
        assert!(
            decode_stream_msg(&[0xEE, 0, 0, 0, 0]).is_err(),
            "unknown tag"
        );
        let mut bad = verdict_payload(0, 0, FrameVerdict::Accepted, true);
        bad[9] = 7;
        assert!(decode_stream_msg(&bad).is_err(), "unknown verdict byte");
        assert!(decode_stream_msg(&[]).is_err(), "empty payload");
    }

    #[test]
    fn shards_are_assigned_lowest_first_and_restated() {
        let q = WorkQueue::new(WorkSpec::quick(2, 2));
        let t = Instant::now();
        let (a, b) = (q.register(t), q.register(t));
        assert_eq!(
            q.poll(a, t),
            WorkReply::Assigned(WorkAssignment {
                shard: 0,
                shard_count: 2,
                start_round: 0,
                rounds: 2
            })
        );
        assert_eq!(
            q.poll(b, t),
            WorkReply::Assigned(WorkAssignment {
                shard: 1,
                shard_count: 2,
                start_round: 0,
                rounds: 2
            })
        );
        // Re-poll restates, never double-assigns.
        assert!(matches!(q.poll(a, t), WorkReply::Assigned(x) if x.shard == 0));
        let c = q.register(t);
        assert_eq!(q.poll(c, t), WorkReply::Idle);
    }

    #[test]
    fn duplicate_frames_are_dropped_and_divergent_ones_rejected() {
        let q = WorkQueue::new(WorkSpec::quick(2, 1));
        let t = Instant::now();
        let w = q.register(t);
        q.poll(w, t);
        let (v, current) = q.submit(sub(w, 0, 0, &[1, 2]), t);
        assert_eq!((v, current), (FrameVerdict::Accepted, true));
        // Bit-identical resubmission (WAL replay): dropped, counted.
        let (v, _) = q.submit(sub(w, 0, 0, &[1, 2]), t);
        assert_eq!(v, FrameVerdict::Duplicate);
        // Same round, different content: loud rejection.
        let (v, _) = q.submit(sub(w, 0, 0, &[1, 3]), t);
        assert_eq!(v, FrameVerdict::Rejected);
        let m = q.metrics();
        assert_eq!(m.frames_accepted, 1);
        assert_eq!(m.duplicate_frames_dropped, 1);
        assert_eq!(m.frames_rejected, 1);
        // A different worker submitting the identical round also dedups
        // (digest excludes the worker id).
        let w2 = q.register(t);
        let (v, current) = q.submit(sub(w2, 0, 0, &[1, 2]), t);
        assert_eq!((v, current), (FrameVerdict::Duplicate, false));
    }

    #[test]
    fn dead_workers_free_their_shards_for_survivors() {
        // Both detectors: heartbeat silence, and a closed stream, which
        // frees the shard with no sweep and no clock advance.
        for closed in [false, true] {
            let spec = WorkSpec::quick(3, 1);
            let hb = spec.heartbeat_timeout;
            let q = WorkQueue::new(spec);
            let t = Instant::now();
            let a = q.register(t);
            assert_eq!(q.shards_ever_leased(), 0);
            q.poll(a, t);
            q.submit(sub(a, 0, 0, &[1]), t);
            assert_eq!(q.live_workers(), 1);

            let later = if closed {
                q.disconnect(a, t);
                t
            } else {
                // `a` goes silent past the heartbeat deadline.
                let later = t + hb + Duration::from_millis(1);
                q.sweep(later);
                later
            };
            assert_eq!(q.live_workers(), 0);
            assert_eq!(q.shards_ever_leased(), 1, "a freed lease still counts");
            let m = q.metrics();
            let want = if closed { (0, 1) } else { (1, 0) };
            assert_eq!((m.heartbeats_missed, m.shards_freed_on_close), want);

            // A survivor picks the shard up from the first unaccepted
            // round.
            let b = q.register(later);
            match q.poll(b, later) {
                WorkReply::Assigned(x) => {
                    assert_eq!(x.shard, 0);
                    assert_eq!(x.start_round, 1, "resumes after a's accepted round");
                }
                other => panic!("expected assignment, got {other:?}"),
            }
            assert_eq!(q.metrics().shards_reassigned, 1);
            assert_eq!(q.shards_ever_leased(), 1, "a re-lease is not a new shard");
        }
    }

    #[test]
    fn closes_count_only_unfinished_leases_and_only_once() {
        let spec = WorkSpec::quick(1, 2);
        let hb = spec.heartbeat_timeout;
        let q = WorkQueue::new(spec);
        let t = Instant::now();
        let (a, b) = (q.register(t), q.register(t));
        q.poll(a, t);
        q.poll(b, t);
        // `a` finishes its shard and hangs up while still holding it.
        q.submit(sub(a, 0, 0, &[1]), t);
        q.disconnect(a, t);
        assert_eq!(
            q.metrics().shards_freed_on_close,
            0,
            "a finished shard is not counted"
        );
        assert_eq!(q.live_workers(), 1);
        // A second close of the same stream changes nothing.
        q.disconnect(a, t);
        assert_eq!(q.live_workers(), 1);

        // `b` is declared dead by the sweep first; its later close is
        // not a second loss.
        let later = t + hb + Duration::from_millis(1);
        q.sweep(later);
        q.disconnect(b, later);
        let m = q.metrics();
        assert_eq!((m.heartbeats_missed, m.shards_freed_on_close), (1, 0));
        assert_eq!(m.workers_live, 0);
    }

    #[test]
    fn the_stall_clock_starts_when_the_fleet_empties() {
        let grace = Duration::from_millis(500);
        let q = WorkQueue::new(WorkSpec::quick(2, 1));
        // A fleet that never joins stalls a grace after the queue opened.
        assert!(q.stalled(Instant::now() + grace, grace));

        let t = Instant::now();
        let w = q.register(t);
        q.poll(w, t);
        q.submit(sub(w, 0, 0, &[1]), t);
        // A live worker holds the clock, however long since its frame.
        let closed = t + grace * 10;
        assert!(!q.stalled(closed, grace));
        // The clock starts when the last live worker goes, not at the
        // last accepted frame.
        q.disconnect(w, closed);
        assert!(!q.stalled(closed + grace - Duration::from_millis(1), grace));
        assert!(q.stalled(closed + grace, grace));
        // A lone worker re-dialing keeps the campaign alive.
        let _again = q.register(closed + Duration::from_millis(20));
        assert!(!q.stalled(closed + grace * 2, grace));
    }

    #[test]
    fn blown_round_deadlines_back_off_then_fence() {
        let spec = WorkSpec::quick(2, 1);
        let (rt, max) = (spec.round_timeout, spec.max_round_retries);
        let q = WorkQueue::new(spec);
        let t = Instant::now();
        let a = q.register(t);
        q.poll(a, t);
        // Keep `a` heartbeating but never delivering: deadline misses
        // accumulate with backoff until the assignment is stripped.
        let mut now = t;
        for _ in 0..=max {
            now += rt + Duration::from_secs(1);
            q.heartbeat(a, now);
            q.sweep(now);
        }
        assert_eq!(q.metrics().rounds_retried, u64::from(max) + 1);
        // `a` is fenced: heartbeat says Idle even though it is live.
        assert_eq!(q.heartbeat(a, now), WorkReply::Idle);
        let b = q.register(now);
        assert!(matches!(q.poll(b, now), WorkReply::Assigned(x) if x.shard == 0));
        // `a`'s stale in-flight round still merges (then dedups b's).
        let (v, current) = q.submit(sub(a, 0, 0, &[1]), now);
        assert_eq!((v, current), (FrameVerdict::Accepted, false));
        let (v, _) = q.submit(sub(b, 0, 0, &[1]), now);
        assert_eq!(v, FrameVerdict::Duplicate);
    }

    #[test]
    fn merge_hand_off_and_lost_rounds() {
        let q = WorkQueue::new(WorkSpec::quick(2, 2));
        let t = Instant::now();
        let w = q.register(t);
        q.poll(w, t);
        assert!(!q.round_ready(0));
        q.submit(sub(w, 0, 0, &[1]), t);
        assert_eq!(q.missing_for_round(0), vec![1]);
        q.mark_lost(1, 0);
        assert!(q.round_ready(0));
        assert!(q.wait_round(0, Duration::from_millis(1)));
        assert!(q.take_round(0, 0).is_some());
        assert!(q.take_round(1, 0).is_none(), "lost round yields no frame");
        // A late real frame for the written-off round is refused.
        let (v, _) = q.submit(sub(w, 1, 0, &[5]), t);
        assert_eq!(v, FrameVerdict::Rejected);
        assert_eq!(q.metrics().lost_rounds, 1);
    }

    #[test]
    fn out_of_range_samples_are_rejected_before_the_merge() {
        let mut spec = WorkSpec::quick(1, 2);
        spec.probe_ranges = vec![(0, 4), (4, 8)];
        let q = WorkQueue::new(spec);
        let t = Instant::now();
        let w = q.register(t);
        q.poll(w, t);
        let (v, _) = q.submit(sub(w, 0, 0, &[2, 5]), t);
        assert_eq!(v, FrameVerdict::Rejected, "probe 5 is outside shard 0");
        let (v, _) = q.submit(sub(w, 0, 0, &[2, 3]), t);
        assert_eq!(v, FrameVerdict::Accepted);
    }

    #[test]
    fn completion_and_abort_are_terminal() {
        let q = WorkQueue::new(WorkSpec::quick(1, 1));
        let t = Instant::now();
        let w = q.register(t);
        q.poll(w, t);
        q.submit(sub(w, 0, 0, &[1]), t);
        // All rounds accepted: polls turn Done without an explicit
        // finish().
        assert_eq!(q.poll(w, t), WorkReply::Done);

        let q = WorkQueue::new(WorkSpec::quick(1, 1));
        let w = q.register(t);
        q.abort();
        assert_eq!(q.poll(w, t), WorkReply::Abort);
        assert!(!q.wait_round(0, Duration::from_millis(1)));
    }
}
