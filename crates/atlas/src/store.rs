//! Result storage.
//!
//! The campaign produces millions of samples (the paper's dataset holds
//! 3.2 M datapoints; the production north-star is 30–100× that), so the
//! store is columnar: one dense vector per field (struct-of-arrays)
//! rather than a flat `Vec<RttSample>`. Analysis kernels that only need
//! one or two fields — per-probe minima, percentile scans, windowed
//! queries — iterate dense `f32`/`u64` columns instead of striding
//! 24-byte records, and the journal's columnar block format decodes
//! straight into these vectors with no per-sample materialisation.
//!
//! Row-oriented callers are still served: [`ResultStore::get`] and
//! [`ResultStore::iter`] materialise [`RttSample`] values on the fly
//! (cheap — seven column reads). Whole stores compare with `==`.

use shears_netsim::ping::PingOutcome;
use shears_netsim::SimTime;

use crate::json::{self, ToJson};
use crate::probe::ProbeId;
use crate::recovery::Measured;

/// One ping (or TCP-connect) measurement result.
///
/// 24 bytes packed: at 3.2 M samples the paper-scale store stays well
/// under 100 MB. Since the columnar refactor this is the *materialised
/// row view* — the store keeps each field in its own column and builds
/// `RttSample` values on demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttSample {
    /// Originating probe.
    pub probe: ProbeId,
    /// Target region as an index into the cloud catalogue.
    pub region: u16,
    /// When the round fired.
    pub at: SimTime,
    /// Minimum RTT over the round's packets, ms. `NaN` never appears:
    /// rounds with zero replies are stored with `received == 0` and
    /// `min_ms`/`avg_ms` set to `f32::INFINITY`. JSON cannot carry
    /// infinities, so the JSON form writes them as `null` and reads
    /// `null` back as infinity.
    pub min_ms: f32,
    /// Mean RTT over received packets, ms (`INFINITY` if none).
    pub avg_ms: f32,
    /// Packets sent.
    pub sent: u8,
    /// Replies received in time.
    pub received: u8,
}

crate::json_struct!(RttSample {
    probe,
    region,
    at,
    min_ms,
    avg_ms,
    sent,
    received
});

impl RttSample {
    /// The row of a ping measurement scheduled at `at`: the kept
    /// outcome's minimum and mean RTT and its replies, or a lost row
    /// (`INFINITY`, no replies) when no attempt returned an outcome.
    /// `sent` counts `packets` for every attempt, capped at 255.
    pub fn ping(
        probe: ProbeId,
        region: u16,
        at: SimTime,
        packets: u32,
        measured: &Measured<PingOutcome>,
    ) -> Self {
        let ms = |v: Option<f64>| v.map_or(f32::INFINITY, |v| v as f32);
        let outcome = measured.outcome.as_ref();
        RttSample {
            probe,
            region,
            at,
            min_ms: ms(outcome.and_then(PingOutcome::min_ms)),
            avg_ms: ms(outcome.and_then(PingOutcome::avg_ms)),
            sent: packets.saturating_mul(measured.attempts).min(255) as u8,
            received: outcome.map_or(0, |o| o.received.min(255) as u8),
        }
    }

    /// Whether at least one reply arrived.
    pub fn responded(&self) -> bool {
        self.received > 0
    }
}

/// Chunk width for the columnar count below (one or two vector
/// registers of bytes).
const CHUNK: usize = 64;

/// Count of non-zero bytes, in chunk-sized strides of independent
/// compares so the loop autovectorises.
fn count_nonzero_chunked(col: &[u8]) -> usize {
    let mut total = 0usize;
    let chunks = col.chunks_exact(CHUNK);
    let tail = chunks.remainder();
    for chunk in chunks {
        let mut c = 0u32;
        for &v in chunk {
            c += u32::from(v != 0);
        }
        total += c as usize;
    }
    total + tail.iter().filter(|&&v| v != 0).count()
}

/// Append-only columnar sample store with filtered iteration.
///
/// Every column has the same length; row `i` of the store is the
/// `RttSample` assembled from slot `i` of each column.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ResultStore {
    probe: Vec<ProbeId>,
    region: Vec<u16>,
    at: Vec<SimTime>,
    min_ms: Vec<f32>,
    avg_ms: Vec<f32>,
    sent: Vec<u8>,
    received: Vec<u8>,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates every column for an expected sample count.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            probe: Vec::with_capacity(n),
            region: Vec::with_capacity(n),
            at: Vec::with_capacity(n),
            min_ms: Vec::with_capacity(n),
            avg_ms: Vec::with_capacity(n),
            sent: Vec::with_capacity(n),
            received: Vec::with_capacity(n),
        }
    }

    /// Appends a sample (one push per column).
    pub fn push(&mut self, sample: RttSample) {
        self.probe.push(sample.probe);
        self.region.push(sample.region);
        self.at.push(sample.at);
        self.min_ms.push(sample.min_ms);
        self.avg_ms.push(sample.avg_ms);
        self.sent.push(sample.sent);
        self.received.push(sample.received);
    }

    /// Materialises row `i`.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn get(&self, i: usize) -> RttSample {
        RttSample {
            probe: self.probe[i],
            region: self.region[i],
            at: self.at[i],
            min_ms: self.min_ms[i],
            avg_ms: self.avg_ms[i],
            sent: self.sent[i],
            received: self.received[i],
        }
    }

    /// Materialising row iterator, in insertion (time-ish) order.
    pub fn iter(&self) -> impl Iterator<Item = RttSample> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.probe.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.probe.is_empty()
    }

    // --- Dense column accessors (the analysis-kernel path) --------------

    /// Originating probe per row.
    pub fn probes(&self) -> &[ProbeId] {
        &self.probe
    }

    /// Target region per row.
    pub fn regions(&self) -> &[u16] {
        &self.region
    }

    /// Round fire time per row.
    pub fn ats(&self) -> &[SimTime] {
        &self.at
    }

    /// Minimum RTT per row (ms, `INFINITY` = lost round).
    pub fn min_ms(&self) -> &[f32] {
        &self.min_ms
    }

    /// Mean RTT per row (ms, `INFINITY` = lost round).
    pub fn avg_ms(&self) -> &[f32] {
        &self.avg_ms
    }

    /// Packets sent per row.
    pub fn sent(&self) -> &[u8] {
        &self.sent
    }

    /// Replies received per row.
    pub fn received(&self) -> &[u8] {
        &self.received
    }

    /// Whether row `i` got at least one reply (no materialisation).
    pub fn responded_at(&self, i: usize) -> bool {
        self.received[i] > 0
    }

    /// Mutable access to every column at once, for bulk decoders (the
    /// journal's columnar block reader) that extend the store without a
    /// per-sample `RttSample` detour. Crate-internal: callers must keep
    /// all columns the same length.
    #[allow(clippy::type_complexity)]
    pub(crate) fn columns_mut(
        &mut self,
    ) -> (
        &mut Vec<ProbeId>,
        &mut Vec<u16>,
        &mut Vec<SimTime>,
        &mut Vec<f32>,
        &mut Vec<f32>,
        &mut Vec<u8>,
        &mut Vec<u8>,
    ) {
        (
            &mut self.probe,
            &mut self.region,
            &mut self.at,
            &mut self.min_ms,
            &mut self.avg_ms,
            &mut self.sent,
            &mut self.received,
        )
    }

    // --- Filtered views --------------------------------------------------

    /// Samples from one probe.
    pub fn by_probe(&self, probe: ProbeId) -> impl Iterator<Item = RttSample> + '_ {
        (0..self.len())
            .filter(move |&i| self.probe[i] == probe)
            .map(move |i| self.get(i))
    }

    /// Samples towards one region.
    pub fn by_region(&self, region: u16) -> impl Iterator<Item = RttSample> + '_ {
        (0..self.len())
            .filter(move |&i| self.region[i] == region)
            .map(move |i| self.get(i))
    }

    /// Samples in the half-open interval `[from, to)`, in store order.
    /// A plain row filter: the reference for `CampaignFrame::in_window`,
    /// which answers the same query from its time index.
    pub fn in_window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = RttSample> + '_ {
        (0..self.len())
            .filter(move |&i| self.at[i] >= from && self.at[i] < to)
            .map(move |i| self.get(i))
    }

    /// Only samples that got at least one reply.
    pub fn responded(&self) -> impl Iterator<Item = RttSample> + '_ {
        (0..self.len())
            .filter(move |&i| self.received[i] > 0)
            .map(move |i| self.get(i))
    }

    /// Number of samples that got at least one reply (one dense,
    /// chunked column count — no row materialisation, no branches in
    /// the loop body).
    pub fn responded_len(&self) -> usize {
        count_nonzero_chunked(&self.received)
    }

    /// Overall reply rate (fraction of rounds with ≥1 reply).
    ///
    /// Returns `f64::NAN` for an empty store: there is no evidence
    /// either way, and the old `1.0` sentinel let an empty campaign
    /// read as a perfect reply rate. Callers reporting the rate should
    /// gate on [`ResultStore::is_empty`] (or `is_finite`) first.
    pub fn response_rate(&self) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        self.responded_len() as f64 / self.len() as f64
    }

    /// Merges another store into this one (used when campaigns run
    /// sharded across threads). Column-wise `extend` — no row
    /// materialisation.
    pub fn merge(&mut self, other: ResultStore) {
        self.probe.extend(other.probe);
        self.region.extend(other.region);
        self.at.extend(other.at);
        self.min_ms.extend(other.min_ms);
        self.avg_ms.extend(other.avg_ms);
        self.sent.extend(other.sent);
        self.received.extend(other.received);
    }

    /// Serialises to JSON Lines (one sample per line), the format the
    /// public dataset download uses. Every record is written directly
    /// into one output buffer — no per-sample `String` allocation.
    pub fn to_jsonl(&self) -> String {
        let mut out: Vec<u8> = Vec::with_capacity(self.len() * 96);
        for sample in self.iter() {
            sample.write_json(&mut out);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("the JSON writer emits UTF-8")
    }

    /// Parses a JSON Lines dump produced by [`ResultStore::to_jsonl`].
    ///
    /// Errors carry the 1-based line number of the offending record.
    pub fn from_jsonl(text: &str) -> Result<Self, JsonlError> {
        let mut store = ResultStore::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match json::from_slice(line.as_bytes()) {
                Ok(sample) => store.push(sample),
                Err(source) => {
                    return Err(JsonlError {
                        line: idx + 1,
                        source,
                    })
                }
            }
        }
        Ok(store)
    }
}

/// A JSON Lines record failed to parse.
#[derive(Debug)]
pub struct JsonlError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// The underlying JSON parse error.
    pub source: json::Error,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.source)
    }
}

impl std::error::Error for JsonlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn responded_len_counts_across_chunk_boundaries() {
        let mut st = ResultStore::new();
        for i in 0..259u32 {
            let mut s = sample(i % 7, 10, u64::from(i), 12.0);
            if i % 3 == 0 {
                s.received = 0;
                s.min_ms = f32::INFINITY;
                s.avg_ms = f32::INFINITY;
            }
            st.push(s);
        }
        let reference = st.iter().filter(RttSample::responded).count();
        assert_eq!(st.responded_len(), reference);
        assert_eq!(st.response_rate(), reference as f64 / 259.0);
    }

    #[test]
    fn push_and_filter() {
        let mut st = ResultStore::new();
        st.push(sample(1, 10, 0, 12.0));
        st.push(sample(1, 11, 3, 15.0));
        st.push(sample(2, 10, 3, 30.0));
        assert_eq!(st.len(), 3);
        assert_eq!(st.by_probe(ProbeId(1)).count(), 2);
        assert_eq!(st.by_region(10).count(), 2);
        assert_eq!(
            st.in_window(SimTime::from_hours(1), SimTime::from_hours(4))
                .count(),
            2
        );
    }

    #[test]
    fn columns_and_rows_agree() {
        let mut st = ResultStore::new();
        st.push(sample(1, 10, 0, 12.0));
        let mut lost = sample(2, 11, 3, 0.0);
        lost.received = 0;
        lost.min_ms = f32::INFINITY;
        lost.avg_ms = f32::INFINITY;
        st.push(lost);
        for (i, s) in st.iter().enumerate() {
            assert_eq!(s, st.get(i));
            assert_eq!(s.probe, st.probes()[i]);
            assert_eq!(s.region, st.regions()[i]);
            assert_eq!(s.at, st.ats()[i]);
            assert_eq!(s.min_ms.to_bits(), st.min_ms()[i].to_bits());
            assert_eq!(s.avg_ms.to_bits(), st.avg_ms()[i].to_bits());
            assert_eq!(s.sent, st.sent()[i]);
            assert_eq!(s.received, st.received()[i]);
            assert_eq!(s.responded(), st.responded_at(i));
        }
    }

    #[test]
    fn response_rate_counts_losses() {
        let mut st = ResultStore::new();
        st.push(sample(1, 0, 0, 10.0));
        let mut lost = sample(2, 0, 0, 0.0);
        lost.received = 0;
        lost.min_ms = f32::INFINITY;
        lost.avg_ms = f32::INFINITY;
        st.push(lost);
        assert!(!st.get(1).responded());
        assert_eq!(st.response_rate(), 0.5);
        assert_eq!(st.responded().count(), 1);
        assert_eq!(st.responded_len(), 1);
    }

    #[test]
    fn empty_store_rate_is_nan_not_perfect() {
        // No rounds means no evidence, not a 100 % reply rate.
        assert!(ResultStore::new().response_rate().is_nan());
        assert!(ResultStore::new().is_empty());
    }

    #[test]
    fn all_lost_store_rate_is_zero_not_nan() {
        // A fully gappy store (every round lost — e.g. a blackout
        // campaign) is evidence of total failure, not absence of data.
        let mut st = ResultStore::new();
        for probe in 0..3 {
            let mut lost = sample(probe, 0, 0, 0.0);
            lost.received = 0;
            lost.min_ms = f32::INFINITY;
            lost.avg_ms = f32::INFINITY;
            st.push(lost);
        }
        assert_eq!(st.response_rate(), 0.0);
        assert_eq!(st.responded().count(), 0);
    }

    #[test]
    fn partial_store_rate_counts_exact_fraction() {
        // 3 of 8 rounds lost, including partial replies (received < sent
        // but > 0 still counts as a response).
        let mut st = ResultStore::new();
        for i in 0..5u32 {
            let mut s = sample(i, 0, 0, 10.0);
            if i == 0 {
                s.received = 1; // partial reply is still a reply
            }
            st.push(s);
        }
        for i in 5..8u32 {
            let mut lost = sample(i, 0, 0, 0.0);
            lost.received = 0;
            lost.min_ms = f32::INFINITY;
            lost.avg_ms = f32::INFINITY;
            st.push(lost);
        }
        assert_eq!(st.response_rate(), 5.0 / 8.0);
        // Merging an empty store does not disturb the rate.
        st.merge(ResultStore::new());
        assert_eq!(st.response_rate(), 5.0 / 8.0);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut st = ResultStore::new();
        st.push(sample(1, 10, 0, 12.5));
        st.push(sample(2, 11, 3, 99.0));
        let text = st.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = ResultStore::from_jsonl(&text).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn jsonl_round_trips_lost_rounds() {
        // Lost rounds carry INFINITY markers, which JSON cannot express;
        // the null mapping must preserve them exactly.
        let mut st = ResultStore::new();
        let mut lost = sample(9, 4, 6, 0.0);
        lost.received = 0;
        lost.min_ms = f32::INFINITY;
        lost.avg_ms = f32::INFINITY;
        st.push(lost);
        let text = st.to_jsonl();
        assert!(text.contains("null"), "{text}");
        let back = ResultStore::from_jsonl(&text).unwrap();
        assert_eq!(back, st);
        assert!(!back.get(0).responded());

        // A 3-row store with a lost row, byte for byte: f32 digits in
        // ryu's layout, and a nine-month timestamp past 2^53 that must
        // read back exactly.
        let mut st = ResultStore::new();
        st.push(sample(1, 10, 0, 12.5));
        st.push(lost);
        st.push(RttSample {
            probe: ProbeId(4_000_000_000),
            region: u16::MAX,
            at: SimTime::from_nanos(SimTime::from_days(270).as_nanos() + 1),
            min_ms: 1e-7,
            avg_ms: 100.0 / 3.0,
            sent: u8::MAX,
            received: 1,
        });
        let text = st.to_jsonl();
        assert_eq!(
            text,
            "{\"probe\":1,\"region\":10,\"at\":0,\"min_ms\":12.5,\"avg_ms\":13.5,\"sent\":3,\"received\":3}\n\
             {\"probe\":9,\"region\":4,\"at\":21600000000000,\"min_ms\":null,\"avg_ms\":null,\"sent\":3,\"received\":0}\n\
             {\"probe\":4000000000,\"region\":65535,\"at\":23328000000000001,\"min_ms\":1e-7,\"avg_ms\":33.333332,\"sent\":255,\"received\":1}\n"
        );
        assert_eq!(ResultStore::from_jsonl(&text).unwrap(), st);
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(ResultStore::from_jsonl("not json\n").is_err());
    }

    #[test]
    fn jsonl_error_reports_the_offending_line() {
        let mut st = ResultStore::new();
        st.push(sample(1, 10, 0, 12.5));
        st.push(sample(2, 11, 3, 99.0));
        let mut text = st.to_jsonl();
        text.push_str("\n{ definitely broken\n"); // blank line, then junk
        let err = ResultStore::from_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 4, "blank lines still count towards numbering");
        assert!(err.to_string().starts_with("line 4:"), "{err}");
        // Mid-file garbage points at its own line, not the end.
        let err = ResultStore::from_jsonl("junk\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = ResultStore::new();
        a.push(sample(1, 0, 0, 1.0));
        let mut b = ResultStore::new();
        b.push(sample(2, 0, 0, 2.0));
        a.merge(b);
        assert_eq!(a.len(), 2);
    }
}
