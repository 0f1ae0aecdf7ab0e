//! Deterministic fault injection: scheduled link cuts, loss/latency bursts,
//! and datacenter blackouts, all replayable from a single seed.
//!
//! A [`FaultPlan`] is generated once per campaign from a [`FaultConfig`] and a
//! seed. Every fault class draws from its own keyed [`SimRng`] stream (forked
//! off the campaign seed with [`SimRng::fork_keyed`] under the reserved
//! `FAULT_STREAM` key), so the plan is a pure function of
//! `(topology, config, seed, horizon)` — independent of thread count, probe
//! order, or how many measurement draws happen elsewhere. Probers consult the
//! plan with pure time-indexed queries; an empty (or disabled) plan consumes
//! zero extra RNG draws in the measurement hot path, so fault-free campaigns
//! stay bit-identical with and without the fault machinery attached.

use std::collections::HashSet;

use crate::routing::{PathRef, Reroutes, RouteTable};
use crate::stochastic::SimRng;
use crate::time::SimTime;
use crate::topology::{LinkClass, LinkId, NodeId, NodeKind, Topology};

/// Reserved `fork_keyed` stream key for fault-plan generation.
///
/// Campaign measurement streams use `(probe.id, round)` and churn uses
/// `(probe.id, u64::MAX)`; both keep the stream key below `2^32`, so this
/// constant (> `2^32`) can never collide with them.
const FAULT_STREAM: u64 = 0xFA17_AB1E_0000_0001;

/// Milliseconds per hour, for converting mean episode lengths.
const MS_PER_HOUR: f64 = 3_600_000.0;

/// The four injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A backbone link is removed from the topology for an episode.
    LinkCut,
    /// Extra packet loss on every traversal of a link class.
    LossBurst,
    /// Extra one-way delay on every traversal of a link class.
    LatencyBurst,
    /// A datacenter node answers nothing for an episode.
    DcBlackout,
}

impl FaultClass {
    /// All fault classes, in generation-stream order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::LinkCut,
        FaultClass::LossBurst,
        FaultClass::LatencyBurst,
        FaultClass::DcBlackout,
    ];

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::LinkCut => "link-cut",
            FaultClass::LossBurst => "loss-burst",
            FaultClass::LatencyBurst => "latency-burst",
            FaultClass::DcBlackout => "dc-blackout",
        }
    }

    /// Index of the class inside [`FaultClass::ALL`] (also its RNG stream).
    fn stream_index(self) -> u64 {
        match self {
            FaultClass::LinkCut => 0,
            FaultClass::LossBurst => 1,
            FaultClass::LatencyBurst => 2,
            FaultClass::DcBlackout => 3,
        }
    }
}

/// Declarative knob set for [`FaultPlan::generate`].
///
/// `enabled == false` means "no fault machinery at all": the campaign takes
/// the exact PR 2 code path. `enabled == true` with all counts at zero is the
/// *passthrough* configuration — the fault-aware probers run but the plan is
/// empty, which must (and is tested to) reproduce fault-free samples exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master switch; `false` skips plan generation entirely.
    pub enabled: bool,
    /// Number of scheduled link-cut episodes.
    pub link_cuts: u32,
    /// Mean link-cut episode length in hours (exponentially distributed).
    pub cut_mean_hours: f64,
    /// Number of scheduled loss-burst episodes.
    pub loss_bursts: u32,
    /// Mean loss-burst episode length in hours.
    pub loss_burst_mean_hours: f64,
    /// Extra per-traversal loss probability while a burst is active.
    pub loss_burst_extra: f64,
    /// Link class the loss bursts apply to.
    pub loss_burst_class: LinkClass,
    /// Number of scheduled latency-burst episodes.
    pub latency_bursts: u32,
    /// Mean latency-burst episode length in hours.
    pub latency_burst_mean_hours: f64,
    /// Extra one-way delay (ms) per traversal while a burst is active.
    pub latency_burst_extra_ms: f64,
    /// Link class the latency bursts apply to.
    pub latency_burst_class: LinkClass,
    /// Number of scheduled datacenter blackout episodes.
    pub dc_blackouts: u32,
    /// Mean blackout episode length in hours.
    pub blackout_mean_hours: f64,
}

impl FaultConfig {
    /// No faults and no fault machinery (the default).
    pub const fn none() -> Self {
        FaultConfig {
            enabled: false,
            link_cuts: 0,
            cut_mean_hours: 0.0,
            loss_bursts: 0,
            loss_burst_mean_hours: 0.0,
            loss_burst_extra: 0.0,
            loss_burst_class: LinkClass::Access,
            latency_bursts: 0,
            latency_burst_mean_hours: 0.0,
            latency_burst_extra_ms: 0.0,
            latency_burst_class: LinkClass::TerrestrialBackbone,
            dc_blackouts: 0,
            blackout_mean_hours: 0.0,
        }
    }

    /// Fault machinery active but zero scheduled events.
    ///
    /// Forces the fault-aware code path through `Router`/probers with an empty
    /// plan; used by the equivalence tests that pin "empty plan == fault-free".
    pub const fn passthrough() -> Self {
        FaultConfig {
            enabled: true,
            ..FaultConfig::none()
        }
    }

    /// Sustained extra loss on access links (≈5% per traversal while active).
    pub const fn lossy() -> Self {
        FaultConfig {
            enabled: true,
            loss_bursts: 4,
            loss_burst_mean_hours: 48.0,
            loss_burst_extra: 0.05,
            loss_burst_class: LinkClass::Access,
            ..FaultConfig::none()
        }
    }

    /// Datacenter blackouts only.
    pub const fn blackout() -> Self {
        FaultConfig {
            enabled: true,
            dc_blackouts: 3,
            blackout_mean_hours: 24.0,
            ..FaultConfig::none()
        }
    }

    /// Everything at once: cuts, loss, latency inflation, and blackouts.
    pub const fn chaos() -> Self {
        FaultConfig {
            enabled: true,
            link_cuts: 2,
            cut_mean_hours: 36.0,
            loss_bursts: 2,
            loss_burst_mean_hours: 24.0,
            loss_burst_extra: 0.08,
            loss_burst_class: LinkClass::Access,
            latency_bursts: 2,
            latency_burst_mean_hours: 24.0,
            latency_burst_extra_ms: 30.0,
            latency_burst_class: LinkClass::TerrestrialBackbone,
            dc_blackouts: 1,
            blackout_mean_hours: 12.0,
        }
    }

    /// Look up a named profile ("none", "passthrough", "lossy", "blackout",
    /// "chaos"), as accepted by the measurement API.
    pub fn profile(name: &str) -> Option<FaultConfig> {
        match name {
            "none" => Some(FaultConfig::none()),
            "passthrough" => Some(FaultConfig::passthrough()),
            "lossy" => Some(FaultConfig::lossy()),
            "blackout" => Some(FaultConfig::blackout()),
            "chaos" => Some(FaultConfig::chaos()),
            _ => None,
        }
    }

    /// On-disk size of [`FaultConfig::encode`]'s output, in bytes.
    pub const ENCODED_LEN: usize = 67;

    /// Appends the fixed-width little-endian wire form of this config
    /// (exactly [`FaultConfig::ENCODED_LEN`] bytes) to `out`. Used by
    /// the campaign journal's header so a resumed run regenerates the
    /// exact fault plan the crashed run was measuring under.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.enabled));
        out.extend_from_slice(&self.link_cuts.to_le_bytes());
        out.extend_from_slice(&self.cut_mean_hours.to_le_bytes());
        out.extend_from_slice(&self.loss_bursts.to_le_bytes());
        out.extend_from_slice(&self.loss_burst_mean_hours.to_le_bytes());
        out.extend_from_slice(&self.loss_burst_extra.to_le_bytes());
        out.push(self.loss_burst_class.code());
        out.extend_from_slice(&self.latency_bursts.to_le_bytes());
        out.extend_from_slice(&self.latency_burst_mean_hours.to_le_bytes());
        out.extend_from_slice(&self.latency_burst_extra_ms.to_le_bytes());
        out.push(self.latency_burst_class.code());
        out.extend_from_slice(&self.dc_blackouts.to_le_bytes());
        out.extend_from_slice(&self.blackout_mean_hours.to_le_bytes());
    }

    /// Decodes [`FaultConfig::encode`]'s output. `None` when the slice
    /// is short or carries an unknown link-class code.
    pub fn decode(bytes: &[u8]) -> Option<FaultConfig> {
        if bytes.len() < Self::ENCODED_LEN {
            return None;
        }
        let mut at = 0usize;
        let u8_at = |at: &mut usize| {
            let v = bytes[*at];
            *at += 1;
            v
        };
        fn u32_at(bytes: &[u8], at: &mut usize) -> u32 {
            let v = u32::from_le_bytes(bytes[*at..*at + 4].try_into().unwrap());
            *at += 4;
            v
        }
        fn f64_at(bytes: &[u8], at: &mut usize) -> f64 {
            let v = f64::from_le_bytes(bytes[*at..*at + 8].try_into().unwrap());
            *at += 8;
            v
        }
        let enabled = u8_at(&mut at) != 0;
        let link_cuts = u32_at(bytes, &mut at);
        let cut_mean_hours = f64_at(bytes, &mut at);
        let loss_bursts = u32_at(bytes, &mut at);
        let loss_burst_mean_hours = f64_at(bytes, &mut at);
        let loss_burst_extra = f64_at(bytes, &mut at);
        let loss_burst_class = LinkClass::from_code(u8_at(&mut at))?;
        let latency_bursts = u32_at(bytes, &mut at);
        let latency_burst_mean_hours = f64_at(bytes, &mut at);
        let latency_burst_extra_ms = f64_at(bytes, &mut at);
        let latency_burst_class = LinkClass::from_code(u8_at(&mut at))?;
        let dc_blackouts = u32_at(bytes, &mut at);
        let blackout_mean_hours = f64_at(bytes, &mut at);
        Some(FaultConfig {
            enabled,
            link_cuts,
            cut_mean_hours,
            loss_bursts,
            loss_burst_mean_hours,
            loss_burst_extra,
            loss_burst_class,
            latency_bursts,
            latency_burst_mean_hours,
            latency_burst_extra_ms,
            latency_burst_class,
            dc_blackouts,
            blackout_mean_hours,
        })
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// A time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    start: SimTime,
    end: SimTime,
}

impl Window {
    fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// One scheduled link-cut episode.
#[derive(Debug, Clone, PartialEq)]
struct CutEpisode {
    links: Vec<LinkId>,
    window: Window,
}

/// One scheduled loss or latency burst.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Burst {
    class: LinkClass,
    window: Window,
    /// Extra loss probability (loss bursts) or extra one-way ms (latency).
    magnitude: f64,
}

/// One scheduled datacenter blackout.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Blackout {
    node: NodeId,
    window: Window,
}

/// A routing epoch: from `start` until the next epoch's start, exactly the
/// links in `disabled` are cut.
#[derive(Debug, Clone, PartialEq)]
struct Epoch {
    start: SimTime,
    disabled: HashSet<LinkId>,
}

/// A fully materialised, replayable fault schedule.
///
/// Construction is deterministic (see module docs); all queries are pure
/// functions of time and never touch an RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    label: String,
    cuts: Vec<CutEpisode>,
    epochs: Vec<Epoch>,
    loss_bursts: Vec<Burst>,
    latency_bursts: Vec<Burst>,
    blackouts: Vec<Blackout>,
}

impl FaultPlan {
    /// A plan with no scheduled events (single all-links-up epoch).
    pub fn empty(label: &str) -> FaultPlan {
        FaultPlan {
            label: label.to_owned(),
            cuts: Vec::new(),
            epochs: vec![Epoch {
                start: SimTime::ZERO,
                disabled: HashSet::new(),
            }],
            loss_bursts: Vec::new(),
            latency_bursts: Vec::new(),
            blackouts: Vec::new(),
        }
    }

    /// A plan that cuts `links` for all time — the what-if scenario shape
    /// used by the corridor-cut resilience study.
    pub fn permanent_cut(label: &str, links: Vec<LinkId>) -> FaultPlan {
        let mut plan = FaultPlan::empty(label);
        if !links.is_empty() {
            plan.cuts.push(CutEpisode {
                links,
                window: Window {
                    start: SimTime::ZERO,
                    end: SimTime::from_nanos(u64::MAX),
                },
            });
            plan.rebuild_epochs();
        }
        plan
    }

    /// Generate a plan from `cfg` over `[0, horizon)`.
    ///
    /// Each fault class forks its own keyed stream off `seed`, so adding
    /// blackouts does not move the link-cut schedule and vice versa. A
    /// disabled config yields an empty plan.
    pub fn generate(topo: &Topology, cfg: &FaultConfig, seed: u64, horizon: SimTime) -> FaultPlan {
        let mut plan = FaultPlan::empty("generated");
        if !cfg.enabled {
            return plan;
        }
        let master = SimRng::new(seed);
        let horizon_ms = horizon.as_millis_f64().max(1.0);

        // Link cuts: pick backbone-ish links (cutting an access link would
        // just silence one probe; the interesting failures are shared paths).
        let mut rng = master.fork_keyed(FAULT_STREAM, FaultClass::LinkCut.stream_index());
        let cuttable: Vec<LinkId> = topo
            .links()
            .filter(|(_, l)| {
                matches!(
                    l.class,
                    LinkClass::SubmarineCable
                        | LinkClass::PrivateBackbone
                        | LinkClass::TerrestrialBackbone
                )
            })
            .map(|(id, _)| id)
            .collect();
        for _ in 0..cfg.link_cuts {
            if cuttable.is_empty() {
                break;
            }
            let link = cuttable[rng.below(cuttable.len())];
            let window = draw_window(&mut rng, horizon_ms, cfg.cut_mean_hours);
            plan.cuts.push(CutEpisode {
                links: vec![link],
                window,
            });
        }

        let mut rng = master.fork_keyed(FAULT_STREAM, FaultClass::LossBurst.stream_index());
        for _ in 0..cfg.loss_bursts {
            let window = draw_window(&mut rng, horizon_ms, cfg.loss_burst_mean_hours);
            plan.loss_bursts.push(Burst {
                class: cfg.loss_burst_class,
                window,
                magnitude: cfg.loss_burst_extra,
            });
        }

        let mut rng = master.fork_keyed(FAULT_STREAM, FaultClass::LatencyBurst.stream_index());
        for _ in 0..cfg.latency_bursts {
            let window = draw_window(&mut rng, horizon_ms, cfg.latency_burst_mean_hours);
            plan.latency_bursts.push(Burst {
                class: cfg.latency_burst_class,
                window,
                magnitude: cfg.latency_burst_extra_ms,
            });
        }

        let mut rng = master.fork_keyed(FAULT_STREAM, FaultClass::DcBlackout.stream_index());
        let dcs = topo.nodes_of_kind(NodeKind::Datacenter);
        for _ in 0..cfg.dc_blackouts {
            if dcs.is_empty() {
                break;
            }
            let node = dcs[rng.below(dcs.len())];
            let window = draw_window(&mut rng, horizon_ms, cfg.blackout_mean_hours);
            plan.blackouts.push(Blackout { node, window });
        }

        plan.rebuild_epochs();
        plan
    }

    /// Recompute the routing-epoch timeline from the cut episodes.
    fn rebuild_epochs(&mut self) {
        let mut boundaries: Vec<SimTime> = vec![SimTime::ZERO];
        for cut in &self.cuts {
            boundaries.push(cut.window.start);
            boundaries.push(cut.window.end);
        }
        boundaries.sort_unstable();
        boundaries.dedup();

        let mut epochs: Vec<Epoch> = Vec::new();
        for start in boundaries {
            let disabled: HashSet<LinkId> = self
                .cuts
                .iter()
                .filter(|c| c.window.contains(start))
                .flat_map(|c| c.links.iter().copied())
                .collect();
            match epochs.last() {
                Some(prev) if prev.disabled == disabled => {}
                _ => epochs.push(Epoch { start, disabled }),
            }
        }
        self.epochs = epochs;
    }

    /// Plan label (profile or scenario name).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// True when the plan schedules no events at all.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
            && self.loss_bursts.is_empty()
            && self.latency_bursts.is_empty()
            && self.blackouts.is_empty()
    }

    /// Number of routing epochs (always ≥ 1).
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Index of the routing epoch containing `t`.
    pub fn epoch_at(&self, t: SimTime) -> usize {
        // Epochs are sorted by start and the first starts at ZERO, so the
        // partition point is always ≥ 1.
        self.epochs.partition_point(|e| e.start <= t) - 1
    }

    /// The instant epoch `idx` begins.
    pub fn epoch_start(&self, idx: usize) -> SimTime {
        self.epochs[idx].start
    }

    /// The links cut during epoch `idx`.
    pub fn epoch_disabled(&self, idx: usize) -> &HashSet<LinkId> {
        &self.epochs[idx].disabled
    }

    /// The links cut at time `t`.
    pub fn disabled_at(&self, t: SimTime) -> &HashSet<LinkId> {
        self.epoch_disabled(self.epoch_at(t))
    }

    /// Number of distinct links that are cut at some point in the plan.
    pub fn cut_link_count(&self) -> usize {
        let mut links: Vec<LinkId> = self
            .cuts
            .iter()
            .flat_map(|c| c.links.iter().copied())
            .collect();
        links.sort_unstable_by_key(|l| l.index());
        links.dedup();
        links.len()
    }

    /// Extra loss probability for one traversal of a `class` link at `t`.
    ///
    /// Overlapping bursts stack additively; the caller clamps via
    /// `SimRng::chance`.
    pub fn extra_loss(&self, class: LinkClass, t: SimTime) -> f64 {
        self.loss_bursts
            .iter()
            .filter(|b| b.class == class && b.window.contains(t))
            .map(|b| b.magnitude)
            .sum()
    }

    /// Extra one-way delay (ms) for one traversal of a `class` link at `t`.
    pub fn extra_latency_ms(&self, class: LinkClass, t: SimTime) -> f64 {
        self.latency_bursts
            .iter()
            .filter(|b| b.class == class && b.window.contains(t))
            .map(|b| b.magnitude)
            .sum()
    }

    /// True when `node` is blacked out at `t`.
    pub fn node_down(&self, node: NodeId, t: SimTime) -> bool {
        self.blackouts
            .iter()
            .any(|b| b.node == node && b.window.contains(t))
    }

    /// True when any episode of `class` is active at `t` (used by the
    /// degraded-campaign study to attribute samples to fault classes).
    pub fn class_active_at(&self, class: FaultClass, t: SimTime) -> bool {
        match class {
            FaultClass::LinkCut => !self.disabled_at(t).is_empty(),
            FaultClass::LossBurst => self.loss_bursts.iter().any(|b| b.window.contains(t)),
            FaultClass::LatencyBurst => self.latency_bursts.iter().any(|b| b.window.contains(t)),
            FaultClass::DcBlackout => self.blackouts.iter().any(|b| b.window.contains(t)),
        }
    }

    /// True when any fault episode of any class is active at `t`.
    pub fn any_active_at(&self, t: SimTime) -> bool {
        FaultClass::ALL.iter().any(|&c| self.class_active_at(c, t))
    }

    /// Order-stable FNV-1a digest of the materialised schedule: every
    /// cut episode, routing epoch (start + sorted disabled-link set),
    /// burst and blackout window. Two plans digest equal iff they
    /// schedule the same faults, so a resumed campaign can prove the
    /// plan it regenerated from `(config, seed)` is byte-for-byte the
    /// plan the crashed run measured under — catching topology drift
    /// that the config alone cannot.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.cuts.len() as u64);
        for cut in &self.cuts {
            h.write_u64(cut.links.len() as u64);
            for link in &cut.links {
                h.write_u64(link.index() as u64);
            }
            h.write_u64(cut.window.start.as_nanos());
            h.write_u64(cut.window.end.as_nanos());
        }
        h.write_u64(self.epochs.len() as u64);
        for epoch in &self.epochs {
            h.write_u64(epoch.start.as_nanos());
            let mut disabled: Vec<usize> = epoch.disabled.iter().map(|l| l.index()).collect();
            disabled.sort_unstable();
            h.write_u64(disabled.len() as u64);
            for link in disabled {
                h.write_u64(link as u64);
            }
        }
        for bursts in [&self.loss_bursts, &self.latency_bursts] {
            h.write_u64(bursts.len() as u64);
            for b in bursts.iter() {
                h.write_u64(u64::from(b.class.code()));
                h.write_u64(b.window.start.as_nanos());
                h.write_u64(b.window.end.as_nanos());
                h.write_u64(b.magnitude.to_bits());
            }
        }
        h.write_u64(self.blackouts.len() as u64);
        for b in &self.blackouts {
            h.write_u64(b.node.index() as u64);
            h.write_u64(b.window.start.as_nanos());
            h.write_u64(b.window.end.as_nanos());
        }
        h.finish()
    }
}

/// Minimal FNV-1a 64 accumulator (the journal's digest primitive; a
/// cryptographic hash would be overkill for corruption/drift detection
/// and would drag in a dependency).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts a digest at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a little-endian `u64` into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The accumulated digest.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte slice — the idempotence primitive the
    /// distributed merge path keys `(shard, round)` frames by, reusing
    /// the same accumulator the journal and fault plans digest with.
    pub fn digest_of(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Draw one episode window: start uniform in the horizon, length exponential
/// with the given mean (always two RNG draws, so episode counts in one class
/// never shift the schedule of later episodes in the same class).
fn draw_window(rng: &mut SimRng, horizon_ms: f64, mean_hours: f64) -> Window {
    let start_ms = rng.uniform() * horizon_ms;
    let len_ms = rng.exponential((mean_hours * MS_PER_HOUR).max(1.0));
    let start = SimTime::from_millis_f64(start_ms);
    let end = start
        .checked_add(SimTime::from_millis_f64(len_ms))
        .unwrap_or(SimTime::from_nanos(u64::MAX));
    Window { start, end }
}

/// Time-aware routing over a [`FaultPlan`], answered from a fault-free
/// [`RouteTable`].
///
/// For each routing epoch that cuts links, the table's routes that cross
/// the cut are re-resolved once, at construction, by the table's
/// `reroute` step; an epoch that cuts nothing adds nothing. A
/// lookup finds the epoch of its instant by binary search and reads the
/// epoch's re-route or, for a pair the cut does not cross, the table. It
/// never searches or allocates, so one router is shared read-only by
/// every prober of a campaign. Each route equals what
/// `Router::with_disabled` over the epoch's cut set resolves, in links,
/// nodes and floor bits; a pair the table does not hold resolves to
/// `None`, as in the table.
pub struct FaultRouter {
    table: RouteTable,
    plan: FaultPlan,
    /// Per routing epoch, its cut's re-routes (`None`: it cuts nothing).
    reroutes: Vec<Option<Reroutes>>,
}

impl std::fmt::Debug for FaultRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultRouter")
            .field("plan", &self.plan.label())
            .field("epochs", &self.reroutes.len())
            .field("routes", &self.table.route_count())
            .finish()
    }
}

impl FaultRouter {
    /// Routes `table`'s pairs over `topo` under `plan`'s link cuts.
    pub fn new(topo: &Topology, table: RouteTable, plan: FaultPlan) -> FaultRouter {
        let reroutes = (0..plan.epoch_count())
            .map(|epoch| {
                let cut = plan.epoch_disabled(epoch);
                (!cut.is_empty()).then(|| table.reroute(topo, cut))
            })
            .collect();
        FaultRouter {
            table,
            plan,
            reroutes,
        }
    }

    /// The plan this router follows.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Shortest path from `from` to `to` under the cuts in effect at `t`,
    /// or `None` when they disconnect the pair or the table does not hold
    /// it.
    pub fn path_at(&self, from: NodeId, to: NodeId, t: SimTime) -> Option<PathRef<'_>> {
        let reroutes = self.reroutes[self.plan.epoch_at(t)].as_ref();
        match reroutes.and_then(|r| r.path(from, to)) {
            Some(rerouted) => rerouted,
            None => self.table.path(from, to),
        }
    }
}

#[cfg(test)]
impl RouteTable {
    /// A table holding only the `from`→`to` route.
    pub(crate) fn for_pair(topo: &Topology, from: NodeId, to: NodeId) -> Self {
        RouteTable::build(topo, &[(from, vec![to])], 1)
    }
}

#[cfg(test)]
impl FaultRouter {
    /// The router of `plan` over a table holding only the `from`→`to`
    /// route.
    pub(crate) fn for_pair(topo: &Topology, from: NodeId, to: NodeId, plan: FaultPlan) -> Self {
        FaultRouter::new(topo, RouteTable::for_pair(topo, from, to), plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_geo::GeoPoint;

    fn grid_topology() -> Topology {
        // probe - access - metro - backbone ring - dc
        let mut topo = Topology::new();
        let probe = topo.add_node(NodeKind::ProbeHost, GeoPoint::new(0.0, 0.0), "US");
        let access = topo.add_node(NodeKind::AccessRouter, GeoPoint::new(0.1, 0.1), "US");
        let metro_a = topo.add_node(NodeKind::MetroPop, GeoPoint::new(1.0, 1.0), "US");
        let metro_b = topo.add_node(NodeKind::MetroPop, GeoPoint::new(5.0, 5.0), "US");
        let dc = topo.add_node(NodeKind::Datacenter, GeoPoint::new(1.0, 2.0), "US");
        topo.connect(probe, access, LinkClass::Access, 1.0);
        topo.connect(access, metro_a, LinkClass::MetroAggregation, 1.0);
        topo.connect(metro_a, metro_b, LinkClass::TerrestrialBackbone, 1.0);
        topo.connect(metro_a, dc, LinkClass::TerrestrialBackbone, 1.4);
        topo.connect(metro_b, dc, LinkClass::DatacenterFabric, 1.0);
        topo
    }

    #[test]
    fn disabled_config_yields_empty_plan() {
        let topo = grid_topology();
        let plan = FaultPlan::generate(&topo, &FaultConfig::none(), 7, SimTime::from_days(10));
        assert!(plan.is_empty());
        assert_eq!(plan.epoch_count(), 1);
        assert!(plan.disabled_at(SimTime::from_hours(5)).is_empty());
        assert!(!plan.any_active_at(SimTime::ZERO));
    }

    #[test]
    fn passthrough_config_is_enabled_but_empty() {
        let topo = grid_topology();
        let plan = FaultPlan::generate(
            &topo,
            &FaultConfig::passthrough(),
            7,
            SimTime::from_days(10),
        );
        assert!(plan.is_empty());
        assert_eq!(plan.epoch_count(), 1);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let topo = grid_topology();
        let horizon = SimTime::from_days(30);
        let a = FaultPlan::generate(&topo, &FaultConfig::chaos(), 42, horizon);
        let b = FaultPlan::generate(&topo, &FaultConfig::chaos(), 42, horizon);
        let c = FaultPlan::generate(&topo, &FaultConfig::chaos(), 43, horizon);
        assert_eq!(a, b);
        assert_ne!(a, c, "a different seed must reshuffle the schedule");
    }

    #[test]
    fn fault_classes_draw_from_independent_streams() {
        // Adding blackouts must not move the link-cut schedule.
        let topo = grid_topology();
        let horizon = SimTime::from_days(30);
        let mut cuts_only = FaultConfig::none();
        cuts_only.enabled = true;
        cuts_only.link_cuts = 2;
        cuts_only.cut_mean_hours = 12.0;
        let mut both = cuts_only;
        both.dc_blackouts = 3;
        both.blackout_mean_hours = 6.0;
        let a = FaultPlan::generate(&topo, &cuts_only, 9, horizon);
        let b = FaultPlan::generate(&topo, &both, 9, horizon);
        assert_eq!(a.cuts, b.cuts);
        assert!(!b.blackouts.is_empty());
    }

    #[test]
    fn epochs_partition_time_by_cut_windows() {
        let topo = grid_topology();
        let link = topo
            .links()
            .find(|(_, l)| l.class == LinkClass::TerrestrialBackbone)
            .map(|(id, _)| id)
            .unwrap();
        let mut plan = FaultPlan::empty("cut");
        plan.cuts.push(CutEpisode {
            links: vec![link],
            window: Window {
                start: SimTime::from_hours(10),
                end: SimTime::from_hours(20),
            },
        });
        plan.rebuild_epochs();
        assert_eq!(plan.epoch_count(), 3);
        assert!(plan.disabled_at(SimTime::from_hours(5)).is_empty());
        assert!(plan.disabled_at(SimTime::from_hours(10)).contains(&link));
        assert!(plan.disabled_at(SimTime::from_hours(19)).contains(&link));
        assert!(plan.disabled_at(SimTime::from_hours(20)).is_empty());
        assert_eq!(plan.cut_link_count(), 1);
        assert!(plan.class_active_at(FaultClass::LinkCut, SimTime::from_hours(15)));
        assert!(!plan.class_active_at(FaultClass::LinkCut, SimTime::from_hours(25)));
    }

    #[test]
    fn fault_router_reroutes_inside_cut_window() {
        use crate::routing::Router;
        let topo = grid_topology();
        let probe = topo.nodes_of_kind(NodeKind::ProbeHost)[0];
        let dc = topo.nodes_of_kind(NodeKind::Datacenter)[0];
        // Cut the direct metro_a -> dc backbone link for hours [10, 20).
        let direct = topo
            .links()
            .find(|(_, l)| l.class == LinkClass::TerrestrialBackbone && l.inflation > 1.2)
            .map(|(id, _)| id)
            .unwrap();
        let mut plan = FaultPlan::empty("cut");
        plan.cuts.push(CutEpisode {
            links: vec![direct],
            window: Window {
                start: SimTime::from_hours(10),
                end: SimTime::from_hours(20),
            },
        });
        plan.rebuild_epochs();

        let faulty = FaultRouter::for_pair(&topo, probe, dc, plan);
        let healthy = faulty.path_at(probe, dc, SimTime::ZERO).unwrap();
        let rerouted = faulty.path_at(probe, dc, SimTime::from_hours(15)).unwrap();
        assert!(!rerouted.links.contains(&direct));
        assert_ne!(healthy.links, rerouted.links);
        assert_eq!(
            faulty.path_at(probe, dc, SimTime::from_hours(20)),
            Some(healthy),
            "the cut ends"
        );

        // And it matches a plain router with the same disabled set.
        let mut reference = Router::with_disabled(&topo, [direct].into_iter().collect());
        assert_eq!(
            reference.path(probe, dc).unwrap().as_path_ref(),
            rerouted,
            "links, nodes and floor"
        );
    }

    #[test]
    fn permanent_cut_disconnects_when_all_paths_die() {
        let topo = grid_topology();
        let probe = topo.nodes_of_kind(NodeKind::ProbeHost)[0];
        let dc = topo.nodes_of_kind(NodeKind::Datacenter)[0];
        let backbone: Vec<LinkId> = topo
            .links()
            .filter(|(_, l)| l.class == LinkClass::TerrestrialBackbone)
            .map(|(id, _)| id)
            .collect();
        let plan = FaultPlan::permanent_cut("total", backbone);
        let faulty = FaultRouter::for_pair(&topo, probe, dc, plan);
        assert!(faulty.path_at(probe, dc, SimTime::ZERO).is_none());
        assert!(faulty.path_at(probe, dc, SimTime::from_days(400)).is_none());
    }

    #[test]
    fn bursts_and_blackouts_answer_time_queries() {
        let topo = grid_topology();
        let dc = topo.nodes_of_kind(NodeKind::Datacenter)[0];
        let mut plan = FaultPlan::empty("mixed");
        plan.loss_bursts.push(Burst {
            class: LinkClass::Access,
            window: Window {
                start: SimTime::from_hours(1),
                end: SimTime::from_hours(3),
            },
            magnitude: 0.05,
        });
        plan.loss_bursts.push(Burst {
            class: LinkClass::Access,
            window: Window {
                start: SimTime::from_hours(2),
                end: SimTime::from_hours(4),
            },
            magnitude: 0.02,
        });
        plan.latency_bursts.push(Burst {
            class: LinkClass::TerrestrialBackbone,
            window: Window {
                start: SimTime::from_hours(1),
                end: SimTime::from_hours(2),
            },
            magnitude: 25.0,
        });
        plan.blackouts.push(Blackout {
            node: dc,
            window: Window {
                start: SimTime::from_hours(5),
                end: SimTime::from_hours(6),
            },
        });

        let h = SimTime::from_hours;
        assert_eq!(plan.extra_loss(LinkClass::Access, h(0)), 0.0);
        assert!((plan.extra_loss(LinkClass::Access, h(1)) - 0.05).abs() < 1e-12);
        // Overlap stacks additively.
        assert!((plan.extra_loss(LinkClass::Access, h(2)) - 0.07).abs() < 1e-12);
        assert_eq!(plan.extra_loss(LinkClass::MetroAggregation, h(2)), 0.0);
        assert_eq!(
            plan.extra_latency_ms(LinkClass::TerrestrialBackbone, h(1)),
            25.0
        );
        assert_eq!(
            plan.extra_latency_ms(LinkClass::TerrestrialBackbone, h(2)),
            0.0
        );
        assert!(plan.node_down(dc, h(5)));
        assert!(!plan.node_down(dc, h(6)), "windows are half-open");
        assert!(plan.any_active_at(h(5)));
        assert!(!plan.any_active_at(h(7)));
    }

    #[test]
    fn fault_config_encode_round_trips_every_profile() {
        for name in ["none", "passthrough", "lossy", "blackout", "chaos"] {
            let cfg = FaultConfig::profile(name).unwrap();
            let mut bytes = Vec::new();
            cfg.encode(&mut bytes);
            assert_eq!(bytes.len(), FaultConfig::ENCODED_LEN, "{name}");
            assert_eq!(FaultConfig::decode(&bytes), Some(cfg), "{name}");
        }
        // Short input and unknown class codes are rejected, not panics.
        assert_eq!(FaultConfig::decode(&[0u8; 10]), None);
        let mut bytes = Vec::new();
        FaultConfig::chaos().encode(&mut bytes);
        bytes[33] = 0xFF; // loss_burst_class code
        assert_eq!(FaultConfig::decode(&bytes), None);
    }

    #[test]
    fn plan_digest_tracks_schedule_identity() {
        let topo = grid_topology();
        let horizon = SimTime::from_days(30);
        let a = FaultPlan::generate(&topo, &FaultConfig::chaos(), 42, horizon);
        let b = FaultPlan::generate(&topo, &FaultConfig::chaos(), 42, horizon);
        let c = FaultPlan::generate(&topo, &FaultConfig::chaos(), 43, horizon);
        assert_eq!(a.digest(), b.digest(), "same schedule, same digest");
        assert_ne!(
            a.digest(),
            c.digest(),
            "different schedule, different digest"
        );
        assert_ne!(
            FaultPlan::empty("x").digest(),
            a.digest(),
            "empty plan digests differently from a populated one"
        );
        // The empty digest is still stable across constructions.
        assert_eq!(
            FaultPlan::empty("x").digest(),
            FaultPlan::empty("y").digest()
        );
    }

    #[test]
    fn generated_windows_start_inside_horizon() {
        let topo = grid_topology();
        let horizon = SimTime::from_days(20);
        let plan = FaultPlan::generate(&topo, &FaultConfig::chaos(), 11, horizon);
        assert!(!plan.is_empty());
        for cut in &plan.cuts {
            assert!(cut.window.start < horizon);
            assert!(cut.window.start < cut.window.end);
        }
        for b in plan.loss_bursts.iter().chain(plan.latency_bursts.iter()) {
            assert!(b.window.start < horizon);
        }
        for b in &plan.blackouts {
            assert!(b.window.start < horizon);
        }
    }
}
