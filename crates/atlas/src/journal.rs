//! Crash-safe campaign durability: a round-granular write-ahead journal.
//!
//! The paper's headline dataset is a nine-month, 3.2 M-sample campaign —
//! exactly the workload a single process crash destroys when results only
//! live in RAM. This module gives [`crate::Campaign`] a durable spine:
//!
//! * **Journal file** — an 8-byte magic + format version prologue followed
//!   by length-prefixed, CRC-32-checksummed frames. The first frame is a
//!   *header* (full config snapshot: seed, [`crate::CampaignConfig`],
//!   fault + retry policy, fleet/target digest, fault-plan digest); every
//!   completed round appends one *round* frame (the round's
//!   [`RttSample`]s plus the post-round [`CreditLedger`] counters), so
//!   every sample is written once and the file is never rewritten. A
//!   *checkpoint* frame names a resume point and a ledger; a distributed
//!   worker that takes a shard over mid-campaign writes one, with an
//!   empty sample block, right after the header, so its own restarts
//!   resume at the takeover round.
//! * **Writer** — the campaign's round loop appends round *r*'s frame,
//!   and syncs it, on its own thread while round *r+1*'s shards probe.
//!   A kill during round *r+1* can therefore find round *r* not yet
//!   durable, and resume re-runs it. The frame CRC is computed eight
//!   bytes at a time (slicing-by-8), the same values as the
//!   byte-at-a-time table.
//! * **Replay** — [`replay`] walks the frames, tolerating a torn tail
//!   (a crash mid-append leaves a prefix of the final frame; it is
//!   discarded and resume re-runs that round) while rejecting real
//!   corruption (bit flips fail the CRC) with a typed [`JournalError`],
//!   never a panic.
//! * **Resume** — `Campaign::resume` validates the digests, truncates the
//!   torn tail, re-seeds the per-`(probe, round)` RNG streams at the next
//!   round boundary and continues; crash-at-round-*k* + resume is
//!   bit-identical to an uninterrupted run (pinned by
//!   `tests/crash_recovery.rs`).
//!
//! Everything is hand-rolled little-endian binary — no new dependencies,
//! and unlike the JSONL dataset dumps the journal round-trips `INFINITY`
//! loss markers bit-exactly (samples are stored as raw `f32` bits).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use shears_netsim::fault::FaultConfig;
use shears_netsim::SimTime;

use crate::campaign::CampaignConfig;
use crate::credits::CreditLedger;
use crate::measurement::MeasurementType;
use crate::probe::ProbeId;
use crate::recovery::RetryPolicy;
use crate::store::ResultStore;

/// File prologue: magic bytes identifying a shears campaign journal.
pub const MAGIC: [u8; 8] = *b"SHRSJNL\n";
/// Current journal format version (follows the magic in the prologue).
///
/// Version 2 promoted the sample block from row-major 24-byte records
/// to a **columnar block**: a `u64` count followed by one contiguous
/// array per field (probe, region, at, min bits, avg bits, sent,
/// received). Same bytes per sample, but replay decodes each array
/// straight into the matching [`ResultStore`] column — no per-sample
/// `RttSample` materialisation on the recovery path.
pub const FORMAT_VERSION: u32 = 2;

/// Frame type tags (first payload byte of every frame).
const FRAME_HEADER: u8 = 1;
const FRAME_ROUND: u8 = 2;
const FRAME_CHECKPOINT: u8 = 3;

/// Why a journal could not be written, read, or trusted.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the journal magic.
    BadMagic,
    /// The file was written by a newer (or mangled) format revision.
    UnsupportedVersion {
        /// Version number found in the prologue.
        found: u32,
    },
    /// The file ends before the prologue completes (e.g. an empty file).
    Truncated {
        /// Byte offset at which the file gave out.
        offset: u64,
    },
    /// The first frame is not a header frame.
    MissingHeader,
    /// A complete frame failed its CRC — a bit flip, not a torn write.
    ChecksumMismatch {
        /// Byte offset of the offending frame.
        offset: u64,
    },
    /// A frame decoded to nonsense (bad tag, short payload, out-of-order
    /// round, unknown enum code, …).
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What exactly failed to decode.
        what: &'static str,
    },
    /// The journal's config snapshot does not match the world it is being
    /// resumed against (different fleet, targets, or fault schedule).
    ConfigMismatch {
        /// Which digest disagreed.
        what: &'static str,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a campaign journal (bad magic)"),
            JournalError::UnsupportedVersion { found } => {
                write!(f, "unsupported journal format version {found}")
            }
            JournalError::Truncated { offset } => {
                write!(f, "journal truncated inside the prologue at byte {offset}")
            }
            JournalError::MissingHeader => {
                write!(f, "journal has no header frame")
            }
            JournalError::ChecksumMismatch { offset } => {
                write!(f, "journal frame at byte {offset} failed its checksum")
            }
            JournalError::Corrupt { offset, what } => {
                write!(f, "journal frame at byte {offset} is corrupt: {what}")
            }
            JournalError::ConfigMismatch { what } => {
                write!(f, "journal does not match this platform: {what} differs")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial), slicing-by-8, tables built at compile
// time.
// ---------------------------------------------------------------------------

/// `T[0]` is the byte-at-a-time table; `T[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, so eight lookups advance eight bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0usize;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes` — the journal's per-frame integrity check.
/// Eight bytes per step (slicing-by-8), the same value as the classic
/// byte-at-a-time loop, which finishes the tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Little-endian wire primitives (shared with the API's persistent
// measurement state).
// ---------------------------------------------------------------------------

/// Decode cursor over a frame payload. All getters fail soft (`Err`
/// with a static description) so replay can map them to
/// [`JournalError::Corrupt`] instead of panicking on bad input.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        if self.remaining() < n {
            return Err("short read");
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, &'static str> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f32` as raw bits (round-trips `INFINITY` markers).
    pub fn f32_bits(&mut self) -> Result<f32, &'static str> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` as raw bits.
    pub fn f64_bits(&mut self) -> Result<f64, &'static str> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, &'static str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8")
    }
}

/// Appends a length-prefixed UTF-8 string to a payload buffer.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Frames `payload` (length prefix + CRC) into a standalone byte vector.
///
/// A frame on disk is `[len: u32][crc32(payload): u32][payload]`; writers
/// emit the whole frame with a single `write_all` so a crash can only
/// ever leave a *prefix* of the final frame — which replay recognises as
/// a torn tail and discards.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads the frame starting at `at` inside `bytes`.
///
/// * `Ok(Some((payload, end)))` — a complete, checksum-valid frame.
/// * `Ok(None)` — the bytes from `at` to EOF are an incomplete frame
///   (torn tail); the caller should stop and treat `at` as the valid end.
/// * `Err(ChecksumMismatch)` — the frame is complete but its CRC fails:
///   real corruption, not a torn write.
pub fn read_frame(bytes: &[u8], at: usize) -> Result<Option<(&[u8], usize)>, JournalError> {
    if bytes.len() - at < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
    if bytes.len() - at - 8 < len {
        return Ok(None);
    }
    let payload = &bytes[at + 8..at + 8 + len];
    if crc32(payload) != crc {
        return Err(JournalError::ChecksumMismatch { offset: at as u64 });
    }
    Ok(Some((payload, at + 8 + len)))
}

// ---------------------------------------------------------------------------
// Header: the config snapshot a resumed run is validated against.
// ---------------------------------------------------------------------------

/// The journal's config snapshot: everything needed to reconstruct the
/// campaign (and to prove the world it is resumed against is the world
/// it was crashed out of).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalHeader {
    /// The full campaign configuration, byte-for-byte recoverable.
    pub config: CampaignConfig,
    /// FNV-1a digest over the probe fleet and resolved target table.
    pub fleet_digest: u64,
    /// [`shears_netsim::FaultPlan::digest`] of the materialised fault
    /// schedule (0 when fault injection is disabled).
    pub plan_digest: u64,
}

fn kind_code(kind: MeasurementType) -> u8 {
    match kind {
        MeasurementType::Ping => 0,
        MeasurementType::TcpConnect => 1,
    }
}

fn kind_from_code(code: u8) -> Result<MeasurementType, &'static str> {
    match code {
        0 => Ok(MeasurementType::Ping),
        1 => Ok(MeasurementType::TcpConnect),
        _ => Err("unknown measurement type code"),
    }
}

impl JournalHeader {
    /// Serialises the header as a standalone wire payload — the exact
    /// byte layout of the journal's header frame — for handing a
    /// campaign config and its digests across a process boundary (the
    /// distributed coordinator ships this to registering workers).
    pub fn to_wire(&self) -> Vec<u8> {
        self.encode()
    }

    /// Decodes a [`JournalHeader::to_wire`] payload.
    pub fn from_wire(payload: &[u8]) -> Result<JournalHeader, &'static str> {
        Self::decode(payload)
    }

    fn encode(&self) -> Vec<u8> {
        let cfg = &self.config;
        let mut out = Vec::with_capacity(192);
        out.push(FRAME_HEADER);
        out.extend_from_slice(&cfg.seed.to_le_bytes());
        out.extend_from_slice(&cfg.rounds.to_le_bytes());
        out.extend_from_slice(&cfg.interval.as_nanos().to_le_bytes());
        out.extend_from_slice(&cfg.packets.to_le_bytes());
        out.extend_from_slice(&(cfg.targets_per_probe as u64).to_le_bytes());
        out.extend_from_slice(&(cfg.adjacent_targets as u64).to_le_bytes());
        out.extend_from_slice(&cfg.credits.to_le_bytes());
        out.push(u8::from(cfg.churn));
        out.push(kind_code(cfg.kind));
        cfg.faults.encode(&mut out);
        out.extend_from_slice(&cfg.recovery.max_retries.to_le_bytes());
        out.extend_from_slice(&cfg.recovery.base_backoff.as_nanos().to_le_bytes());
        out.extend_from_slice(&cfg.recovery.max_backoff.as_nanos().to_le_bytes());
        out.extend_from_slice(&cfg.recovery.jitter.to_bits().to_le_bytes());
        out.extend_from_slice(&cfg.recovery.measurement_timeout.as_nanos().to_le_bytes());
        out.push(u8::from(cfg.recovery.refund_failures));
        out.extend_from_slice(&self.fleet_digest.to_le_bytes());
        out.extend_from_slice(&self.plan_digest.to_le_bytes());
        out
    }

    fn decode(payload: &[u8]) -> Result<JournalHeader, &'static str> {
        let mut r = ByteReader::new(payload);
        if r.u8()? != FRAME_HEADER {
            return Err("not a header frame");
        }
        let seed = r.u64()?;
        let rounds = r.u32()?;
        let interval = SimTime::from_nanos(r.u64()?);
        let packets = r.u32()?;
        let targets_per_probe = r.u64()? as usize;
        let adjacent_targets = r.u64()? as usize;
        let credits = r.u64()?;
        let churn = r.u8()? != 0;
        let kind = kind_from_code(r.u8()?)?;
        let faults = FaultConfig::decode(r.take(FaultConfig::ENCODED_LEN)?)
            .ok_or("undecodable fault config")?;
        let recovery = RetryPolicy {
            max_retries: r.u32()?,
            base_backoff: SimTime::from_nanos(r.u64()?),
            max_backoff: SimTime::from_nanos(r.u64()?),
            jitter: r.f64_bits()?,
            measurement_timeout: SimTime::from_nanos(r.u64()?),
            refund_failures: r.u8()? != 0,
        };
        let fleet_digest = r.u64()?;
        let plan_digest = r.u64()?;
        if r.remaining() != 0 {
            return Err("trailing bytes after header");
        }
        Ok(JournalHeader {
            config: CampaignConfig {
                rounds,
                interval,
                packets,
                targets_per_probe,
                adjacent_targets,
                seed,
                credits,
                churn,
                kind,
                faults,
                recovery,
            },
            fleet_digest,
            plan_digest,
        })
    }
}

// ---------------------------------------------------------------------------
// Sample + ledger payload encoding shared by round and checkpoint frames.
// ---------------------------------------------------------------------------

const SAMPLE_WIRE_LEN: usize = 24;

/// Encodes rows `[from, store.len())` as one columnar block: a `u64`
/// count, then one contiguous little-endian array per field. 24 bytes
/// per sample plus the count, exactly like the old row-major layout —
/// only the byte order within the block changed, so both sides stream
/// dense columns instead of striding records.
fn put_samples(out: &mut Vec<u8>, store: &ResultStore, from: usize) {
    let n = store.len() - from;
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.reserve(n * SAMPLE_WIRE_LEN);
    for p in &store.probes()[from..] {
        out.extend_from_slice(&p.0.to_le_bytes());
    }
    for region in &store.regions()[from..] {
        out.extend_from_slice(&region.to_le_bytes());
    }
    for at in &store.ats()[from..] {
        out.extend_from_slice(&at.as_nanos().to_le_bytes());
    }
    for v in &store.min_ms()[from..] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for v in &store.avg_ms()[from..] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&store.sent()[from..]);
    out.extend_from_slice(&store.received()[from..]);
}

/// Decodes a columnar sample block, appending each array directly onto
/// the matching store column — no per-sample `RttSample` detour.
fn get_samples(r: &mut ByteReader<'_>, into: &mut ResultStore) -> Result<(), &'static str> {
    let n = r.u64()? as usize;
    if r.remaining() < n.saturating_mul(SAMPLE_WIRE_LEN) {
        return Err("sample block shorter than its declared count");
    }
    let (probe, region, at, min_ms, avg_ms, sent, received) = into.columns_mut();
    probe.reserve(n);
    for _ in 0..n {
        probe.push(ProbeId(r.u32()?));
    }
    region.reserve(n);
    for _ in 0..n {
        region.push(r.u16()?);
    }
    at.reserve(n);
    for _ in 0..n {
        at.push(SimTime::from_nanos(r.u64()?));
    }
    min_ms.reserve(n);
    for _ in 0..n {
        min_ms.push(r.f32_bits()?);
    }
    avg_ms.reserve(n);
    for _ in 0..n {
        avg_ms.push(r.f32_bits()?);
    }
    sent.extend_from_slice(r.take(n)?);
    received.extend_from_slice(r.take(n)?);
    Ok(())
}

/// Encodes a whole store in the journal's columnar block layout —
/// shared with the API's persistent measurement state, so that layer
/// needs no JSON (and no second codec) to survive restarts.
pub fn put_samples_wire(out: &mut Vec<u8>, store: &ResultStore) {
    put_samples(out, store, 0);
}

/// Decodes a [`put_samples_wire`] block straight into a columnar store.
pub fn get_samples_wire(r: &mut ByteReader<'_>) -> Result<ResultStore, &'static str> {
    let mut store = ResultStore::new();
    get_samples(r, &mut store)?;
    Ok(store)
}

fn put_ledger(out: &mut Vec<u8>, ledger: &CreditLedger) {
    out.extend_from_slice(&ledger.balance().to_le_bytes());
    out.extend_from_slice(&ledger.spent().to_le_bytes());
    out.extend_from_slice(&ledger.refunded().to_le_bytes());
}

fn get_ledger(r: &mut ByteReader<'_>) -> Result<CreditLedger, &'static str> {
    Ok(CreditLedger::restore(r.u64()?, r.u64()?, r.u64()?))
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Append-side handle on a campaign journal.
///
/// Frames are written with single `write_all` calls (see [`frame`]);
/// `fsync` upgrades each append to a durable one at the cost of one
/// `fdatasync` per round. The campaign's round loop calls it from its
/// own thread while the next round's shards probe, so that cost
/// overlaps probing instead of adding to it.
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    fsync: bool,
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter")
            .field("path", &self.path)
            .field("fsync", &self.fsync)
            .finish()
    }
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the prologue
    /// and header frame.
    pub fn create(path: &Path, header: &JournalHeader, fsync: bool) -> Result<Self, JournalError> {
        let mut file = File::create(path)?;
        let header_frame = frame(&header.encode());
        let mut prologue = Vec::with_capacity(12 + header_frame.len());
        prologue.extend_from_slice(&MAGIC);
        prologue.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        prologue.extend_from_slice(&header_frame);
        file.write_all(&prologue)?;
        let mut w = Self {
            file,
            path: path.to_owned(),
            fsync,
        };
        w.maybe_sync()?;
        Ok(w)
    }

    /// Reopens a replayed journal for appending, truncating any torn
    /// tail `replay` detected so the next frame starts on a valid
    /// boundary.
    pub fn open_append(path: &Path, replay: &Replay, fsync: bool) -> Result<Self, JournalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(replay.valid_len)?;
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Self {
            file,
            path: path.to_owned(),
            fsync,
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed round — the store rows from `from` to the
    /// end (the round's freshly merged samples) and the post-round
    /// ledger counters. Encoding reads the store columns in place; no
    /// row slice is materialised.
    pub fn append_round(
        &mut self,
        round: u32,
        store: &ResultStore,
        from: usize,
        ledger: &CreditLedger,
    ) -> Result<(), JournalError> {
        let n = store.len() - from;
        let mut payload = Vec::with_capacity(1 + 4 + 24 + 8 + n * SAMPLE_WIRE_LEN);
        payload.push(FRAME_ROUND);
        payload.extend_from_slice(&round.to_le_bytes());
        put_ledger(&mut payload, ledger);
        put_samples(&mut payload, store, from);
        self.file.write_all(&frame(&payload))?;
        self.maybe_sync()
    }

    /// Appends a checkpoint frame: `next_round` as the resume point, the
    /// ledger counters, and an empty sample block. Replay folds a
    /// checkpoint as a full state replacement, so this is a *base*: a
    /// worker that takes a shard over at `next_round` writes it right
    /// after the header, and its own restarts resume there instead of at
    /// round 0. Syncs only when `fsync` is set, like
    /// [`JournalWriter::append_round`].
    pub fn checkpoint(
        &mut self,
        next_round: u32,
        ledger: &CreditLedger,
    ) -> Result<(), JournalError> {
        let mut payload = Vec::with_capacity(1 + 4 + 24 + 8);
        payload.push(FRAME_CHECKPOINT);
        payload.extend_from_slice(&next_round.to_le_bytes());
        put_ledger(&mut payload, ledger);
        put_samples(&mut payload, &ResultStore::new(), 0);
        self.file.write_all(&frame(&payload))?;
        self.maybe_sync()
    }

    /// Forces buffered appends to disk (always called by the graceful
    /// shutdown path; per-append when `fsync` is set).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        Ok(())
    }

    fn maybe_sync(&mut self) -> Result<(), JournalError> {
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------------

/// One durable round's location inside a replayed journal: the row
/// span its samples occupy in [`Replay::store`] plus its credit
/// deltas. This is the shard-framing hook for distributed workers —
/// a restarted worker re-frames any journaled round (samples, gross
/// spend, refund) straight from its WAL without recomputing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundMark {
    /// The round number.
    pub round: u32,
    /// First row of the round's samples in the replayed store.
    pub rows_start: usize,
    /// One past the last row of the round's samples.
    pub rows_end: usize,
    /// Gross credits debited during the round (spend before refunds).
    pub gross: u64,
    /// Credits refunded within the round.
    pub refund: u64,
}

/// Everything recovered from a journal: the state a resumed campaign
/// continues from.
#[derive(Debug)]
pub struct Replay {
    /// The config snapshot written at campaign start.
    pub header: JournalHeader,
    /// All samples of every durable round, in append order.
    pub store: ResultStore,
    /// Ledger counters as of the last durable round.
    pub ledger: CreditLedger,
    /// First round that is *not* in the journal (the resume point).
    pub next_round: u32,
    /// Whether a torn tail frame was discarded (crash mid-append).
    pub torn_tail: bool,
    /// Byte length of the valid prefix (the torn tail starts here).
    pub valid_len: u64,
    /// Per-round sample spans and credit deltas for every round frame
    /// replayed *after* the last checkpoint. Current writers put a
    /// checkpoint only at the head of a takeover WAL, so every round in
    /// the file is here, starting at the takeover round. A journal
    /// whose checkpoints carried a full store snapshot (older writers
    /// appended one mid-stream) keeps only the rounds appended after
    /// the last one.
    pub marks: Vec<RoundMark>,
}

impl Replay {
    /// True when every scheduled round is already in the journal.
    pub fn complete(&self) -> bool {
        self.next_round >= self.header.config.rounds
    }

    /// The replayed mark for `round`, if the journal holds its round
    /// frame after the last checkpoint (see [`Replay::marks`]).
    pub fn mark(&self, round: u32) -> Option<&RoundMark> {
        self.marks.iter().find(|m| m.round == round)
    }
}

/// Replays the journal at `path`.
///
/// Returns the recovered state, or a typed [`JournalError`]; never
/// panics on malformed input. A torn tail (incomplete final frame, the
/// signature of a crash mid-append) is discarded and flagged; a
/// complete frame with a failing checksum is corruption and is an error.
pub fn replay(path: &Path) -> Result<Replay, JournalError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 12 {
        return Err(JournalError::Truncated {
            offset: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(JournalError::UnsupportedVersion { found: version });
    }

    let mut at = 12usize;
    let mut header: Option<JournalHeader> = None;
    let mut store = ResultStore::new();
    let mut ledger = CreditLedger::new(0);
    let mut next_round = 0u32;
    let mut torn_tail = false;
    let mut marks: Vec<RoundMark> = Vec::new();

    while at < bytes.len() {
        let offset = at as u64;
        let Some((payload, end)) = read_frame(&bytes, at)? else {
            // Incomplete trailing frame: a torn write. Drop it.
            torn_tail = true;
            break;
        };
        let corrupt = |what| JournalError::Corrupt { offset, what };
        let tag = *payload.first().ok_or(corrupt("empty frame"))?;
        match tag {
            FRAME_HEADER => {
                if header.is_some() {
                    return Err(corrupt("second header frame"));
                }
                header = Some(JournalHeader::decode(payload).map_err(corrupt)?);
            }
            FRAME_ROUND => {
                let h = header.as_ref().ok_or(JournalError::MissingHeader)?;
                let mut r = ByteReader::new(&payload[1..]);
                let round = r.u32().map_err(corrupt)?;
                if round != next_round {
                    return Err(corrupt("round frame out of order"));
                }
                if round >= h.config.rounds {
                    return Err(corrupt("round beyond the campaign's schedule"));
                }
                let rows_start = store.len();
                // Credit deltas vs the pre-frame counters: `spent` is
                // net of refunds, so the round's gross spend is the
                // spent delta plus the refund delta.
                let (prev_spent, prev_refunded) = (ledger.spent(), ledger.refunded());
                ledger = get_ledger(&mut r).map_err(corrupt)?;
                get_samples(&mut r, &mut store).map_err(corrupt)?;
                if r.remaining() != 0 {
                    return Err(corrupt("trailing bytes after round frame"));
                }
                let refund = ledger.refunded().saturating_sub(prev_refunded);
                marks.push(RoundMark {
                    round,
                    rows_start,
                    rows_end: store.len(),
                    gross: ledger
                        .spent()
                        .saturating_sub(prev_spent)
                        .saturating_add(refund),
                    refund,
                });
                next_round = round + 1;
            }
            FRAME_CHECKPOINT => {
                let h = header.as_ref().ok_or(JournalError::MissingHeader)?;
                let mut r = ByteReader::new(&payload[1..]);
                let checkpoint_next = r.u32().map_err(corrupt)?;
                if checkpoint_next < next_round {
                    return Err(corrupt("checkpoint resumes before a replayed round"));
                }
                if checkpoint_next > h.config.rounds {
                    return Err(corrupt("checkpoint beyond the campaign's schedule"));
                }
                let checkpoint_ledger = get_ledger(&mut r).map_err(corrupt)?;
                let mut snapshot = ResultStore::new();
                get_samples(&mut r, &mut snapshot).map_err(corrupt)?;
                if r.remaining() != 0 {
                    return Err(corrupt("trailing bytes after checkpoint frame"));
                }
                // A checkpoint replaces the accumulated state outright.
                // Current writers append one only right after the
                // header, with no samples; journals whose checkpoints
                // snapshot the whole store mid-stream replay the same
                // way, so they still resume.
                store = snapshot;
                ledger = checkpoint_ledger;
                next_round = checkpoint_next;
                marks.clear();
            }
            _ => return Err(corrupt("unknown frame tag")),
        }
        at = end;
    }

    let header = header.ok_or(JournalError::MissingHeader)?;
    Ok(Replay {
        header,
        store,
        ledger,
        next_round,
        torn_tail,
        valid_len: at as u64,
        marks,
    })
}

// ---------------------------------------------------------------------------
// Fleet digest helper (used by Campaign to build the header).
// ---------------------------------------------------------------------------

/// FNV-1a digest over the probe fleet and its resolved target table.
///
/// Everything that shapes the measurement schedule goes in: probe ids,
/// countries, stability, access-link floor, and each probe's resolved
/// target regions. Two platforms digest equal iff they would schedule
/// identical campaigns.
pub fn fleet_digest(probes: &[crate::probe::Probe], targets: &[Vec<u16>]) -> u64 {
    let mut h = shears_netsim::fault::Fnv1a::new();
    h.write_u64(probes.len() as u64);
    for p in probes {
        h.write_u64(u64::from(p.id.0));
        h.write(p.country.as_bytes());
        h.write_u64(p.stability.to_bits());
        h.write_u64(p.access.floor_one_way_ms().to_bits());
        let t = &targets[p.id.index()];
        h.write_u64(t.len() as u64);
        for &region in t {
            h.write_u64(u64::from(region));
        }
    }
    h.finish()
}

/// FNV-1a digest identifying one shard of a campaign's fleet: the
/// shard coordinates mixed with the fleet digest of exactly the probes
/// in the shard (resolved against the full target table, which
/// [`fleet_digest`] indexes by probe id). Worker-side shard journals
/// carry this in the header's fleet-digest slot, so a WAL can never be
/// resumed against the wrong shard or a different partition geometry.
pub fn shard_digest(
    shard: u32,
    shard_count: u32,
    probes: &[crate::probe::Probe],
    targets: &[Vec<u16>],
) -> u64 {
    let mut h = shears_netsim::fault::Fnv1a::new();
    h.write_u64(u64::from(shard));
    h.write_u64(u64::from(shard_count));
    h.write_u64(fleet_digest(probes, targets));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RttSample;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "shears-journal-{}-{tag}-{n}.journal",
            std::process::id()
        ))
    }

    fn sample(probe: u32, region: u16, at_h: u64, min: f32) -> RttSample {
        RttSample {
            probe: ProbeId(probe),
            region,
            at: SimTime::from_hours(at_h),
            min_ms: min,
            avg_ms: min + 1.0,
            sent: 3,
            received: 3,
        }
    }

    /// A store holding exactly these rows (append_round and
    /// put_samples now encode straight from store columns).
    fn store_of(samples: &[RttSample]) -> ResultStore {
        let mut store = ResultStore::with_capacity(samples.len());
        for &s in samples {
            store.push(s);
        }
        store
    }

    fn header() -> JournalHeader {
        JournalHeader {
            config: CampaignConfig::quick(),
            fleet_digest: 0xFEE7,
            plan_digest: 0,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC-32 that [`crc32`] must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_slicing_by_8_matches_the_bytewise_oracle() {
        let mut state = 0x5EED_C3C3u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| (shears_geo::rng::splitmix64(&mut state) >> 56) as u8)
            .collect();
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Every tail length and every misalignment of the 8-byte steps.
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn header_frame_round_trips_every_config_field() {
        let mut cfg = CampaignConfig::paper_scale();
        cfg.churn = true;
        cfg.kind = MeasurementType::TcpConnect;
        cfg.faults = shears_netsim::fault::FaultConfig::chaos();
        cfg.recovery = RetryPolicy::atlas_default();
        cfg.seed = 0xDEAD_BEEF;
        let h = JournalHeader {
            config: cfg,
            fleet_digest: 42,
            plan_digest: 7,
        };
        let decoded = JournalHeader::decode(&h.encode()).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn journal_round_trips_rounds_and_ledger() {
        let path = tmp_path("roundtrip");
        let mut w = JournalWriter::create(&path, &header(), false).unwrap();
        let mut ledger = CreditLedger::new(100);
        ledger.debit(9).unwrap();
        w.append_round(0, &store_of(&[sample(1, 10, 0, 12.5)]), 0, &ledger)
            .unwrap();
        ledger.debit(9).unwrap();
        let mut lost = sample(2, 11, 3, 0.0);
        lost.received = 0;
        lost.min_ms = f32::INFINITY;
        lost.avg_ms = f32::INFINITY;
        w.append_round(1, &store_of(&[sample(1, 10, 3, 11.0), lost]), 0, &ledger)
            .unwrap();
        drop(w);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.header, header());
        assert_eq!(replayed.next_round, 2);
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.store.len(), 3);
        assert_eq!(replayed.store.get(0), sample(1, 10, 0, 12.5));
        // Loss markers survive bit-exactly.
        assert!(replayed.store.get(2).min_ms.is_infinite());
        assert!(!replayed.store.get(2).responded());
        assert_eq!(replayed.ledger.balance(), 82);
        assert_eq!(replayed.ledger.spent(), 18);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_is_a_typed_error() {
        let path = tmp_path("empty");
        std::fs::write(&path, b"").unwrap();
        match replay(&path) {
            Err(JournalError::Truncated { offset: 0 }) => {}
            other => panic!("want Truncated, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let path = tmp_path("magic");
        std::fs::write(&path, b"NOTAJOURNALFILE!").unwrap();
        assert!(matches!(replay(&path), Err(JournalError::BadMagic)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_version_is_a_typed_error() {
        let path = tmp_path("version");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            replay(&path),
            Err(JournalError::UnsupportedVersion { found: 99 })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_only_journal_recovers_at_round_zero() {
        let path = tmp_path("header-only");
        JournalWriter::create(&path, &header(), false).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.next_round, 0);
        assert!(replayed.store.is_empty());
        assert!(!replayed.torn_tail);
        assert!(!replayed.complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let path = tmp_path("torn");
        let mut w = JournalWriter::create(&path, &header(), false).unwrap();
        let ledger = CreditLedger::new(5);
        w.append_round(0, &store_of(&[sample(1, 10, 0, 12.5)]), 0, &ledger)
            .unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();

        // Simulate a crash at every byte inside a second appended frame.
        let mut w2_path_bytes = full.clone();
        let extra = {
            let mut payload = vec![FRAME_ROUND];
            payload.extend_from_slice(&1u32.to_le_bytes());
            put_ledger(&mut payload, &ledger);
            put_samples(&mut payload, &store_of(&[sample(2, 4, 3, 9.0)]), 0);
            frame(&payload)
        };
        for cut in 1..extra.len() {
            w2_path_bytes.truncate(full.len());
            w2_path_bytes.extend_from_slice(&extra[..cut]);
            std::fs::write(&path, &w2_path_bytes).unwrap();
            let replayed = replay(&path)
                .unwrap_or_else(|e| panic!("cut at {cut} bytes must recover, got {e}"));
            assert!(replayed.torn_tail, "cut at {cut}");
            assert_eq!(replayed.next_round, 1, "cut at {cut}");
            assert_eq!(replayed.store.len(), 1, "cut at {cut}");
            assert_eq!(replayed.valid_len, full.len() as u64, "cut at {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_fails_the_checksum_never_panics() {
        let path = tmp_path("flip");
        let mut w = JournalWriter::create(&path, &header(), false).unwrap();
        let ledger = CreditLedger::new(5);
        w.append_round(0, &store_of(&[sample(1, 10, 0, 12.5)]), 0, &ledger)
            .unwrap();
        drop(w);
        let pristine = std::fs::read(&path).unwrap();
        // Flip one bit in every payload byte position of the round frame
        // (skipping the frame's own length/CRC prefix, whose damage shows
        // up as either checksum or framing errors; the point is: typed
        // errors, no panics, no silent acceptance).
        let mut accepted = 0usize;
        for pos in 12..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            match replay(&path) {
                Ok(r) => {
                    // A flip in the *length* prefix can masquerade as a
                    // torn tail (the declared length overruns EOF) —
                    // that is a safe, data-preserving outcome.
                    assert!(r.torn_tail, "flip at {pos} silently accepted");
                    accepted += 1;
                }
                Err(
                    JournalError::ChecksumMismatch { .. }
                    | JournalError::Corrupt { .. }
                    | JournalError::BadMagic
                    | JournalError::UnsupportedVersion { .. }
                    | JournalError::MissingHeader,
                ) => {}
                Err(other) => panic!("flip at {pos}: unexpected error {other}"),
            }
        }
        assert!(accepted < pristine.len() - 12, "flips must not all pass");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_order_round_is_corrupt() {
        let path = tmp_path("order");
        let mut w = JournalWriter::create(&path, &header(), false).unwrap();
        let ledger = CreditLedger::new(5);
        w.append_round(1, &store_of(&[sample(1, 10, 0, 12.5)]), 0, &ledger)
            .unwrap();
        drop(w);
        assert!(matches!(
            replay(&path),
            Err(JournalError::Corrupt {
                what: "round frame out of order",
                ..
            })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn takeover_base_checkpoint_resumes_at_its_round() {
        let path = tmp_path("takeover");
        let mut w = JournalWriter::create(&path, &header(), false).unwrap();
        let header_len = std::fs::metadata(&path).unwrap().len();
        let mut ledger = CreditLedger::new(1000);
        ledger.debit(7).unwrap();
        ledger.refund(2);
        w.checkpoint(3, &ledger).unwrap();
        // One frame: length and CRC, tag, resume point, ledger, and a
        // sample block holding only its zero count.
        let base_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(base_len - header_len, 8 + 1 + 4 + 24 + 8);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.next_round, 3);
        assert!(replayed.store.is_empty());
        assert!(replayed.marks.is_empty());
        assert_eq!(
            (
                replayed.ledger.balance(),
                replayed.ledger.spent(),
                replayed.ledger.refunded()
            ),
            (ledger.balance(), ledger.spent(), ledger.refunded())
        );
        assert_eq!(replayed.valid_len, base_len);

        // Rounds appended after the base replay as marks from round 3.
        for round in 3..5u32 {
            ledger.debit(4).unwrap();
            let s = sample(round, 1, u64::from(round) * 3, 10.0);
            w.append_round(round, &store_of(&[s]), 0, &ledger).unwrap();
        }
        drop(w);
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.next_round, 5);
        assert_eq!(replayed.store.len(), 2);
        let marks: Vec<_> = replayed
            .marks
            .iter()
            .map(|m| (m.round, m.rows_start, m.rows_end, m.gross, m.refund))
            .collect();
        assert_eq!(marks, [(3, 0, 1, 4, 0), (4, 1, 2, 4, 0)]);
        let _ = std::fs::remove_file(&path);
    }

    /// A hand-built checkpoint frame with an empty sample block.
    fn checkpoint_frame(next_round: u32, ledger: &CreditLedger) -> Vec<u8> {
        let mut payload = vec![FRAME_CHECKPOINT];
        payload.extend_from_slice(&next_round.to_le_bytes());
        put_ledger(&mut payload, ledger);
        put_samples(&mut payload, &ResultStore::new(), 0);
        frame(&payload)
    }

    #[test]
    fn checkpoint_before_a_replayed_round_is_corrupt() {
        let path = tmp_path("ckpt-behind");
        let mut w = JournalWriter::create(&path, &header(), false).unwrap();
        let ledger = CreditLedger::new(5);
        for round in 0..3u32 {
            w.append_round(round, &store_of(&[sample(1, 10, 0, 12.5)]), 0, &ledger)
                .unwrap();
        }
        drop(w);
        let rounds_only = std::fs::read(&path).unwrap();
        // Resuming at the round just replayed is what a full-snapshot
        // checkpoint named; resuming any earlier would re-run a round.
        for (resume, ok) in [(3u32, true), (2, false), (0, false)] {
            let mut bytes = rounds_only.clone();
            bytes.extend_from_slice(&checkpoint_frame(resume, &ledger));
            std::fs::write(&path, &bytes).unwrap();
            match replay(&path) {
                Ok(r) if ok => assert_eq!(r.next_round, resume),
                Err(JournalError::Corrupt {
                    what: "checkpoint resumes before a replayed round",
                    ..
                }) if !ok => {}
                other => panic!("resume at {resume}: unexpected {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_beyond_the_schedule_is_corrupt() {
        let path = tmp_path("ckpt-beyond");
        JournalWriter::create(&path, &header(), false).unwrap();
        let header_only = std::fs::read(&path).unwrap();
        let rounds = header().config.rounds;
        let ledger = CreditLedger::new(5);
        // A checkpoint may name the end of the schedule (every round
        // done), never a round past it.
        for (resume, ok) in [(rounds, true), (rounds + 1, false), (u32::MAX, false)] {
            let mut bytes = header_only.clone();
            bytes.extend_from_slice(&checkpoint_frame(resume, &ledger));
            std::fs::write(&path, &bytes).unwrap();
            match replay(&path) {
                Ok(r) if ok => assert!(r.complete()),
                Err(JournalError::Corrupt {
                    what: "checkpoint beyond the campaign's schedule",
                    ..
                }) if !ok => {}
                other => panic!("resume at {resume}: unexpected {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_then_crash_before_truncate_still_replays() {
        // A full-snapshot checkpoint, as earlier writers appended one
        // mid-stream before compacting the file, still replays: it
        // replaces the state outright, and later rounds continue from
        // its resume point.
        let path = tmp_path("precompact");
        let mut w = JournalWriter::create(&path, &header(), false).unwrap();
        let mut ledger = CreditLedger::new(1000);
        let mut store = ResultStore::new();
        for round in 0..4u32 {
            ledger.debit(3).unwrap();
            let s = sample(round, 1, u64::from(round) * 3, 10.0);
            store.push(s);
            w.append_round(round, &store_of(&[s]), 0, &ledger).unwrap();
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let mut payload = vec![FRAME_CHECKPOINT];
        payload.extend_from_slice(&4u32.to_le_bytes());
        put_ledger(&mut payload, &ledger);
        put_samples(&mut payload, &store, 0);
        bytes.extend_from_slice(&frame(&payload));
        std::fs::write(&path, &bytes).unwrap();

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.next_round, 4);
        assert_eq!(replayed.store, store);
        assert_eq!(replayed.ledger.spent(), 12);
        assert!(!replayed.torn_tail);

        // And with further rounds after the un-compacted checkpoint.
        let mut payload = vec![FRAME_ROUND];
        payload.extend_from_slice(&4u32.to_le_bytes());
        put_ledger(&mut payload, &ledger);
        put_samples(&mut payload, &store_of(&[sample(9, 9, 12, 5.0)]), 0);
        bytes.extend_from_slice(&frame(&payload));
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.next_round, 5);
        assert_eq!(replayed.store.len(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_append_truncates_the_torn_tail() {
        let path = tmp_path("truncate");
        let mut w = JournalWriter::create(&path, &header(), false).unwrap();
        let ledger = CreditLedger::new(5);
        w.append_round(0, &store_of(&[sample(1, 10, 0, 12.5)]), 0, &ledger)
            .unwrap();
        drop(w);
        let valid = std::fs::metadata(&path).unwrap().len();
        // Torn garbage at the tail…
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.torn_tail);
        // …is cut off on reopen, and appends continue cleanly.
        let mut w = JournalWriter::open_append(&path, &replayed, false).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid);
        w.append_round(1, &store_of(&[sample(2, 4, 3, 8.0)]), 0, &ledger)
            .unwrap();
        w.sync().unwrap();
        drop(w);
        let replayed = replay(&path).unwrap();
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.next_round, 2);
        assert_eq!(replayed.store.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_primitives_fail_soft() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.u64().is_err(), "short read errors instead of panicking");
        let mut out = Vec::new();
        put_string(&mut out, "héllo");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
    }
}
