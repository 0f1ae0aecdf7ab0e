//! ICMP-echo-style probing: the paper's measurement primitive.
//!
//! "We measured end-to-end latencies between users (Atlas probes) and
//! cloud datacenters … via ping every three hours." A ping here sends
//! `packets` echo requests over the routed path; each request samples
//! per-link queueing and jitter independently (and the access segment's
//! bufferbloat model), may be lost, and otherwise yields one RTT.
//!
//! [`PathSampler`] is the shared delay engine: given a resolved path, an
//! access link and an instant, it produces one-way delay samples. The
//! TCP prober ([`crate::tcp`]) reuses it, so ICMP and TCP probing are
//! guaranteed to see the same underlying network.
//!
//! The per-measurement hot path is allocation-free: the route arrives as
//! a [`PathRef`] slice borrowed from a shared [`RouteTable`] or
//! [`FaultRouter`] (no `PathInfo` clone), the round's RTTs land in
//! [`RttBuf`]'s inline storage (no heap `Vec` for the ≤8-packet rounds
//! campaigns actually run), and the hop waits go to a memo the prober
//! keeps across calls.
//!
//! Per hop, the delay model is split into a draw-free step,
//! [`hop_wait_ms`] (the M/M/1 expected wait from the diurnal load at the
//! link midpoint's local hour), and the draw, [`hop_delay_ms`]. Each hop
//! reads one `LinkModel` record from `Topology::link_models`, which
//! holds the link's base delay and loss, its congestion constants, its
//! class's queue and its midpoint's UTC offset, computed once per
//! topology; the per-node processing delays come from
//! `Topology::processing_delays_ms` the same way, and a leg computes the
//! UTC hour once for all of its hops.
//!
//! A hop's wait depends only on the link, the instant and the load
//! profile, so each prober keeps a [`WaitMemo`] keyed by exactly those.
//! Both legs of a ping packet run at the same instant, and so do packet
//! *i* of every target of a campaign probe-round, whose paths share the
//! probe's access, metro and backbone links: at paper scale about three
//! quarters of all hop-wait lookups are memo hits. Samples stay bit-identical to
//! recomputing every wait per traversal: each cached value is the same
//! f64 expression evaluated in the same order, and no RNG draw moves. A
//! `#[cfg(test)]` copy of the per-traversal model pins this.

use crate::access::AccessLink;
use crate::fault::{FaultPlan, FaultRouter};
use crate::queue::DiurnalLoad;
use crate::routing::{PathRef, RouteSource, RouteTable};
use crate::stochastic::SimRng;
use crate::time::SimTime;
use crate::topology::{LinkClass, LinkId, LinkModel, Topology};
use crate::NodeId;

/// Ping measurement parameters (Atlas defaults: 3 packets).
#[derive(Debug, Clone, Copy)]
pub struct PingConfig {
    /// Echo requests per measurement.
    pub packets: u32,
    /// Per-packet timeout; slower replies count as lost.
    pub timeout_ms: f64,
}

impl Default for PingConfig {
    fn default() -> Self {
        Self {
            packets: 3,
            timeout_ms: 4000.0,
        }
    }
}

/// RTT sample buffer with inline storage for [`RttBuf::INLINE`] values;
/// rounds with more packets spill to the heap. The Atlas default is 3
/// packets per round, so campaign measurements never allocate here.
#[derive(Debug, Clone, Default)]
pub struct RttBuf {
    inline: [f64; Self::INLINE],
    len: u8,
    spill: Vec<f64>,
}

impl RttBuf {
    /// Samples held without heap allocation.
    pub const INLINE: usize = 8;

    /// An empty buffer.
    pub const fn new() -> Self {
        Self {
            inline: [0.0; Self::INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, v: f64) {
        let n = self.len as usize;
        if self.spill.is_empty() && n < Self::INLINE {
            self.inline[n] = v;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.reserve(n + 1);
                self.spill.extend_from_slice(&self.inline[..n]);
            }
            self.spill.push(v);
        }
    }

    /// The recorded samples, in push order.
    pub fn as_slice(&self) -> &[f64] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for RttBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Result of one ping measurement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PingOutcome {
    /// Echo requests sent.
    pub sent: u32,
    /// Replies received in time.
    pub received: u32,
    /// RTTs of the received replies, ms, in send order.
    rtts: RttBuf,
}

impl PingOutcome {
    /// An outcome with `sent` requests and no replies recorded yet.
    pub fn new(sent: u32) -> Self {
        Self {
            sent,
            received: 0,
            rtts: RttBuf::new(),
        }
    }

    /// Records one in-time reply.
    pub fn record(&mut self, rtt_ms: f64) {
        self.received += 1;
        self.rtts.push(rtt_ms);
    }

    /// RTTs of the received replies, ms, in send order.
    pub fn rtts_ms(&self) -> &[f64] {
        self.rtts.as_slice()
    }

    /// Minimum RTT, or `None` if all packets were lost. The paper's
    /// analysis is built on minima ("we extract the minimum ping
    /// latency"), which strip congestion noise.
    pub fn min_ms(&self) -> Option<f64> {
        self.rtts_ms().iter().copied().reduce(f64::min)
    }

    /// Mean RTT over received replies, or `None` if none arrived.
    pub fn avg_ms(&self) -> Option<f64> {
        let rtts = self.rtts_ms();
        if rtts.is_empty() {
            None
        } else {
            Some(rtts.iter().sum::<f64>() / rtts.len() as f64)
        }
    }

    /// Fraction of packets lost.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - self.received as f64 / self.sent as f64
        }
    }
}

/// Loss probability for traversing `links[link_idx]` once. The
/// probe-adjacent link (`link_idx == 0`) uses the access technology's
/// loss when the caller supplied one.
pub fn hop_loss_probability(
    topo: &Topology,
    links: &[LinkId],
    link_idx: usize,
    access: Option<AccessLink>,
) -> f64 {
    let link = &topo.link_models()[links[link_idx].index()];
    hop_loss(link, access_model(link, link_idx, access))
}

/// Expected M/M/1 queueing wait of one traversal of `links[link_idx]` at
/// instant `t`, ms, from the diurnal load at the link midpoint's local
/// hour. Draw-free, so a packet's forward and reverse legs at the same
/// instant share one value. The access-modelled hop waits 0 here: its
/// model draws its own delay.
pub fn hop_wait_ms(
    topo: &Topology,
    links: &[LinkId],
    link_idx: usize,
    access: Option<AccessLink>,
    load: DiurnalLoad,
    t: SimTime,
) -> f64 {
    let link = &topo.link_models()[links[link_idx].index()];
    if access_model(link, link_idx, access).is_some() {
        return 0.0;
    }
    expected_wait_ms(link, load, t.utc_hour_of_day())
}

/// Samples the delay of one traversal of `links[link_idx]` whose expected
/// queueing wait is `wait_ms` (from [`hop_wait_ms`] at the traversal
/// instant): the access model for the probe-adjacent access link,
/// otherwise propagation floor plus an exponential congestion wait.
/// Exactly one (access) or at most one (congestion) RNG draw beyond the
/// caller's loss draw, in a fixed order — the analytic and event-driven
/// executions share this function so their RNG streams stay aligned.
pub fn hop_delay_ms(
    topo: &Topology,
    links: &[LinkId],
    link_idx: usize,
    access: Option<AccessLink>,
    wait_ms: f64,
    rng: &mut SimRng,
) -> f64 {
    let link = &topo.link_models()[links[link_idx].index()];
    match access_model(link, link_idx, access) {
        Some(access) => access.sample_one_way_ms(rng),
        None => congested_delay_ms(link, wait_ms, rng),
    }
}

/// The access model that replaces the topology delay of hop `link_idx`:
/// `access` when the hop is the probe-adjacent access link.
fn access_model(
    link: &LinkModel,
    link_idx: usize,
    access: Option<AccessLink>,
) -> Option<AccessLink> {
    access.filter(|_| link_idx == 0 && link.class == LinkClass::Access)
}

/// A hop's loss probability; `access` is the hop's access model, if any.
fn hop_loss(link: &LinkModel, access: Option<AccessLink>) -> f64 {
    access.map_or(link.base_loss, |a| a.tech.loss_probability())
}

/// The M/M/1 expected wait on `link` at UTC hour `utc_hour` (from
/// [`SimTime::utc_hour_of_day`]): the link midpoint's local hour, its
/// diurnal load, then the queue formula — the exact operation sequence of
/// `load.utilization(t, midpoint_lon)` and [`crate::queue::Mm1Queue`].
fn expected_wait_ms(link: &LinkModel, load: DiurnalLoad, utc_hour: f64) -> f64 {
    let local_hour = (utc_hour + link.hour_offset).rem_euclid(24.0);
    let rho = load.utilization_at(local_hour) * link.congestion_sensitivity * link.inflation_factor;
    link.queue.expected_wait_ms(rho)
}

/// Propagation floor plus an exponential congestion wait around
/// `wait_ms`, capped at the class's buffer; no draw when `wait_ms` is 0.
fn congested_delay_ms(link: &LinkModel, wait_ms: f64, rng: &mut SimRng) -> f64 {
    let mut total = link.base_delay_ms;
    if wait_ms > 0.0 {
        total += rng.exponential(wait_ms).min(link.queue.max_wait_ms);
    }
    total
}

/// Slots in a [`WaitMemo`]: a power of two, enough for every distinct
/// (link, instant) pair of a campaign probe-round (≈8 targets × 3
/// packets over paths that share most of their links).
const MEMO_SLOTS: usize = 512;

/// A hop wait [`WaitMemo`] remembers, with its full key.
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    /// Raw link index; `u32::MAX` marks an empty slot.
    link: u32,
    at: u64,
    /// The load profile's `base`, `peak` and `peak_hour` bits.
    load: [u64; 3],
    wait_ms: f64,
}

impl MemoSlot {
    const EMPTY: MemoSlot = MemoSlot {
        link: u32::MAX,
        at: 0,
        load: [0; 3],
        wait_ms: 0.0,
    };
}

/// Hop waits a prober already computed, keyed by (link, instant, load
/// profile): a fixed-size direct-mapped table in which a colliding key
/// evicts the older one. A wait is a pure function of its key, so a hit
/// returns the very bits a recomputation would; the memo only saves the
/// cosine and the queue formula.
#[derive(Debug, Clone)]
pub struct WaitMemo {
    slots: Box<[MemoSlot]>,
}

impl Default for WaitMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self {
            slots: vec![MemoSlot::EMPTY; MEMO_SLOTS].into_boxed_slice(),
        }
    }

    /// The wait stored for the key, or `wait()`'s value, stored for next
    /// time.
    fn get_or_insert_with(
        &mut self,
        link: LinkId,
        at: SimTime,
        load: DiurnalLoad,
        wait: impl FnOnce() -> f64,
    ) -> f64 {
        let load = Self::load_bits(load);
        let slot = &mut self.slots[Self::slot_of(link, at, &load)];
        let (link, at) = (link.0, at.as_nanos());
        if slot.link != link || slot.at != at || slot.load != load {
            *slot = MemoSlot {
                link,
                at,
                load,
                wait_ms: wait(),
            };
        }
        slot.wait_ms
    }

    /// The load profile's part of the key.
    fn load_bits(load: DiurnalLoad) -> [u64; 3] {
        [
            load.base.to_bits(),
            load.peak.to_bits(),
            load.peak_hour.to_bits(),
        ]
    }

    /// The slot a key maps to (multiplicative hashing).
    fn slot_of(link: LinkId, at: SimTime, load: &[u64; 3]) -> usize {
        let key = u64::from(link.0)
            ^ at.as_nanos().rotate_left(23)
            ^ load[0]
            ^ load[1].rotate_left(17)
            ^ load[2].rotate_left(41);
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }
}

/// Samples one-way delays and loss along a resolved path.
///
/// The deterministic floor comes from [`PathRef::base_one_way_ms`]; on
/// top of it every non-access link contributes a congestion wait drawn
/// from an exponential around the M/M/1 expectation at the link's local
/// hour, and the access segment (if the path starts at a probe host)
/// contributes the [`AccessLink`] sample including bufferbloat.
///
/// Links with higher inflation also congest more: inflation proxies how
/// under-provisioned a segment is, which couples the two effects the
/// paper observes in under-served regions (long *and* variable paths).
pub struct PathSampler<'p, 't> {
    path: PathRef<'p>,
    topo: &'t Topology,
    access: Option<AccessLink>,
    load: DiurnalLoad,
    faults: Option<&'t FaultPlan>,
}

impl<'p, 't> PathSampler<'p, 't> {
    /// Creates a sampler over a borrowed path view (e.g. a
    /// [`RouteTable`] arena slice); pass `access` when the path's first
    /// hop is the probe's last-mile segment (its stochastic model then
    /// replaces the topology link's flat delay for that hop).
    pub fn from_ref(
        path: PathRef<'p>,
        topo: &'t Topology,
        access: Option<AccessLink>,
        load: DiurnalLoad,
    ) -> Self {
        Self {
            path,
            topo,
            access,
            load,
            faults: None,
        }
    }

    /// Attaches a fault plan: loss bursts add to per-hop loss probability
    /// and latency bursts add deterministic one-way delay, both keyed by
    /// link class and the sample instant. An empty plan changes neither
    /// the RNG draw sequence nor any delay, so fault-free sampling stays
    /// bit-identical with or without a plan attached.
    pub fn with_fault_plan(mut self, faults: Option<&'t FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Samples a single one-way traversal delay at instant `t`, or
    /// `None` if a packet is dropped on the way. Per-hop loss, wait and
    /// delay follow [`hop_loss_probability`] / [`hop_wait_ms`] /
    /// [`hop_delay_ms`] — the functions the event-driven executor uses,
    /// keeping the two modes' RNG streams aligned. Hop waits come from
    /// (and go to) the caller's `memo`.
    pub fn sample_one_way_ms(
        &self,
        t: SimTime,
        memo: &mut WaitMemo,
        rng: &mut SimRng,
    ) -> Option<f64> {
        let models = self.topo.link_models();
        let utc_hour = t.utc_hour_of_day();
        let mut total = 0.0;
        for (i, &id) in self.path.links.iter().enumerate() {
            let link = &models[id.index()];
            let access = access_model(link, i, self.access);
            let mut loss_p = hop_loss(link, access);
            let mut burst_ms = 0.0;
            if let Some(plan) = self.faults {
                // Fault modifiers fold into the existing loss draw and add
                // deterministic delay — zero extra RNG draws, so an empty
                // plan leaves the stream untouched.
                loss_p += plan.extra_loss(link.class, t);
                burst_ms = plan.extra_latency_ms(link.class, t);
            }
            if rng.chance(loss_p) {
                return None;
            }
            let delay = match access {
                Some(access) => access.sample_one_way_ms(rng),
                None => {
                    let wait = memo.get_or_insert_with(id, t, self.load, || {
                        expected_wait_ms(link, self.load, utc_hour)
                    });
                    congested_delay_ms(link, wait, rng)
                }
            };
            total += delay + burst_ms;
        }
        // Processing at intermediate nodes (endpoints excluded).
        let processing = self.topo.processing_delays_ms();
        for &node in &self.path.nodes[1..self.path.nodes.len().saturating_sub(1)] {
            total += processing[node.index()];
        }
        Some(total)
    }

    /// Samples a full round trip at instant `t`: two independent one-way
    /// traversals that draw their own loss and delay. Both legs run at
    /// `t`, so the reverse leg finds every hop wait in `memo`.
    pub fn sample_rtt_ms(&self, t: SimTime, memo: &mut WaitMemo, rng: &mut SimRng) -> Option<f64> {
        let fwd = self.sample_one_way_ms(t, memo, rng)?;
        let rev = self.sample_one_way_ms(t, memo, rng)?;
        Some(fwd + rev)
    }

    /// The deterministic RTT floor of the path (no congestion, jitter at
    /// its median, no bufferbloat).
    pub fn floor_rtt_ms(&self) -> f64 {
        let mut one_way = self.path.base_one_way_ms;
        if let (Some(access), Some(&first)) = (self.access, self.path.links.first()) {
            let link = self.topo.link(first);
            if link.class == LinkClass::Access {
                one_way = one_way - link.base_delay_ms + access.floor_one_way_ms();
            }
        }
        2.0 * one_way
    }
}

/// Ping driver: resolves routes and produces [`PingOutcome`]s.
///
/// Routes come from a shared precomputed [`RouteTable`]
/// ([`PingProber::with_table`]) or a shared [`FaultRouter`] over one
/// ([`PingProber::with_faults`]), built over the pairs the caller probes;
/// a measurement performs zero per-call allocations.
pub struct PingProber<'t> {
    topo: &'t Topology,
    routes: RouteSource<'t>,
    faults: Option<&'t FaultPlan>,
    /// Hop waits of earlier packets, reused across calls.
    memo: WaitMemo,
}

impl<'t> PingProber<'t> {
    /// Creates a prober that reads routes from a shared precomputed
    /// table (the table may be shared read-only across any number of
    /// probers and threads).
    pub fn with_table(topo: &'t Topology, table: &'t RouteTable) -> Self {
        Self {
            topo,
            routes: RouteSource::Shared(table),
            faults: None,
            memo: WaitMemo::new(),
        }
    }

    /// Creates a fault-aware prober over a shared [`FaultRouter`]: routes
    /// follow its plan's link-cut epochs, packets traverse the plan's
    /// loss/latency bursts, and blacked-out endpoints answer nothing. The
    /// router may be shared read-only across any number of probers and
    /// threads. With an empty plan the prober is bit-identical to
    /// [`PingProber::with_table`] over the router's table.
    pub fn with_faults(topo: &'t Topology, router: &'t FaultRouter) -> Self {
        Self {
            topo,
            routes: RouteSource::Faulty(router),
            faults: Some(router.plan()),
            memo: WaitMemo::new(),
        }
    }

    /// Runs one ping measurement from `from` to `to` at instant `t`.
    /// Returns `None` if the nodes are not connected or the pair was not
    /// resolved at build time.
    #[allow(clippy::too_many_arguments)]
    pub fn ping(
        &mut self,
        from: NodeId,
        to: NodeId,
        access: Option<AccessLink>,
        load: DiurnalLoad,
        t: SimTime,
        cfg: &PingConfig,
        rng: &mut SimRng,
    ) -> Option<PingOutcome> {
        let topo = self.topo;
        let faults = self.faults;
        let path = self.routes.path_at(from, to, t)?;
        let sampler = PathSampler::from_ref(path, topo, access, load).with_fault_plan(faults);
        let mut outcome = PingOutcome::new(cfg.packets);
        for i in 0..cfg.packets {
            // Packets are paced 1 s apart like the Atlas ping default.
            let at = t + SimTime::from_secs(u64::from(i));
            // A blacked-out endpoint answers nothing; the packet dies
            // without consuming any sampling draws (only reachable when
            // faults are scheduled, so the fault-free stream is intact).
            if faults.is_some_and(|p| p.node_down(to, at) || p.node_down(from, at)) {
                continue;
            }
            match sampler.sample_rtt_ms(at, &mut self.memo, rng) {
                Some(rtt) if rtt <= cfg.timeout_ms => outcome.record(rtt),
                _ => {}
            }
        }
        Some(outcome)
    }

    /// The route the prober would use (exposed for path introspection in
    /// reports and tests).
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<PathRef<'t>> {
        self.routes.path(from, to)
    }
}

/// The delay model as it was before the midpoint cache, the per-link
/// records and the hop-wait memo, kept verbatim as the bit-identity
/// oracle: every traversal recomputes its link's midpoint and M/M/1 wait.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::event::EventQueue;
    use crate::queue::Mm1Queue;
    use crate::routing::PathInfo;
    use crate::tcp::{TcpConfig, TcpOutcome};

    #[allow(clippy::too_many_arguments)]
    pub fn hop_delay_ms(
        topo: &Topology,
        links: &[LinkId],
        link_idx: usize,
        access: Option<AccessLink>,
        _is_direction_head: bool,
        load: DiurnalLoad,
        t: SimTime,
        rng: &mut SimRng,
    ) -> f64 {
        let link = topo.link(links[link_idx]);
        if link_idx == 0 && link.class == LinkClass::Access {
            if let Some(access) = access {
                return access.sample_one_way_ms(rng);
            }
        }
        let mut total = link.base_delay_ms;
        let mid = topo
            .node(link.a)
            .location
            .midpoint(topo.node(link.b).location);
        let rho = load.utilization(t, mid.lon)
            * link.class.congestion_sensitivity()
            * link.inflation.min(2.0);
        let q = Mm1Queue::new(link.class.service_time_ms(), link.class.max_wait_ms());
        let expected = q.expected_wait_ms(rho);
        if expected > 0.0 {
            total += rng.exponential(expected).min(q.max_wait_ms);
        }
        total
    }

    pub struct PathSampler<'p, 't> {
        pub path: PathRef<'p>,
        pub topo: &'t Topology,
        pub access: Option<AccessLink>,
        pub load: DiurnalLoad,
        pub faults: Option<&'t FaultPlan>,
    }

    impl PathSampler<'_, '_> {
        pub fn sample_one_way_ms(&self, t: SimTime, rng: &mut SimRng) -> Option<f64> {
            let mut total = 0.0;
            for i in 0..self.path.links.len() {
                let mut loss_p = hop_loss_probability(self.topo, self.path.links, i, self.access);
                let mut burst_ms = 0.0;
                if let Some(plan) = self.faults {
                    let class = self.topo.link(self.path.links[i]).class;
                    loss_p += plan.extra_loss(class, t);
                    burst_ms = plan.extra_latency_ms(class, t);
                }
                if rng.chance(loss_p) {
                    return None;
                }
                total += hop_delay_ms(
                    self.topo,
                    self.path.links,
                    i,
                    self.access,
                    i == 0,
                    self.load,
                    t,
                    rng,
                ) + burst_ms;
            }
            for &node in &self.path.nodes[1..self.path.nodes.len().saturating_sub(1)] {
                total += self.topo.node(node).kind.processing_delay_ms();
            }
            Some(total)
        }

        pub fn sample_rtt_ms(&self, t: SimTime, rng: &mut SimRng) -> Option<f64> {
            let fwd = self.sample_one_way_ms(t, rng)?;
            let rev = self.sample_one_way_ms(t, rng)?;
            Some(fwd + rev)
        }
    }

    /// `PingProber::ping` over the oracle sampler.
    #[allow(clippy::too_many_arguments)]
    pub fn ping(
        topo: &Topology,
        routes: &RouteSource<'_>,
        faults: Option<&FaultPlan>,
        from: NodeId,
        to: NodeId,
        access: Option<AccessLink>,
        load: DiurnalLoad,
        t: SimTime,
        cfg: &PingConfig,
        rng: &mut SimRng,
    ) -> Option<PingOutcome> {
        let path = routes.path_at(from, to, t)?;
        let sampler = PathSampler {
            path,
            topo,
            access,
            load,
            faults,
        };
        let mut outcome = PingOutcome::new(cfg.packets);
        for i in 0..cfg.packets {
            let at = t + SimTime::from_secs(u64::from(i));
            if faults.is_some_and(|p| p.node_down(to, at) || p.node_down(from, at)) {
                continue;
            }
            match sampler.sample_rtt_ms(at, rng) {
                Some(rtt) if rtt <= cfg.timeout_ms => outcome.record(rtt),
                _ => {}
            }
        }
        Some(outcome)
    }

    /// `TcpProber::connect` over the oracle sampler.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        topo: &Topology,
        routes: &RouteSource<'_>,
        faults: Option<&FaultPlan>,
        from: NodeId,
        to: NodeId,
        access: Option<AccessLink>,
        load: DiurnalLoad,
        t: SimTime,
        cfg: &TcpConfig,
        rng: &mut SimRng,
    ) -> Option<TcpOutcome> {
        let path = routes.path_at(from, to, t)?;
        let sampler = PathSampler {
            path,
            topo,
            access,
            load,
            faults,
        };
        let mut elapsed = 0.0_f64;
        let mut rto = cfg.initial_rto_ms;
        for attempt in 1..=cfg.max_syn_attempts {
            let now = t + SimTime::from_millis_f64(elapsed);
            if faults.is_some_and(|p| p.node_down(to, now) || p.node_down(from, now)) {
                elapsed += rto;
                rto *= 2.0;
                continue;
            }
            let syn = sampler.sample_one_way_ms(now, rng);
            let synack = match syn {
                Some(fwd) => sampler
                    .sample_one_way_ms(now + SimTime::from_millis_f64(fwd), rng)
                    .map(|rev| fwd + rev),
                None => None,
            };
            match synack {
                Some(rtt) if rtt <= rto => {
                    return Some(TcpOutcome {
                        connect_ms: Some(elapsed + rtt),
                        syn_attempts: attempt,
                    });
                }
                _ => {
                    elapsed += rto;
                    rto *= 2.0;
                }
            }
        }
        Some(TcpOutcome {
            connect_ms: None,
            syn_attempts: cfg.max_syn_attempts,
        })
    }

    struct PacketEvent {
        packet: u32,
        leg: usize,
        elapsed_ms: f64,
    }

    /// `packetsim::ping_event_driven` over the oracle hop function.
    #[allow(clippy::too_many_arguments)]
    pub fn ping_event_driven(
        topo: &Topology,
        path: &PathInfo,
        access: Option<AccessLink>,
        load: DiurnalLoad,
        start: SimTime,
        packets: u32,
        timeout_ms: f64,
        rng: &mut SimRng,
    ) -> PingOutcome {
        let legs: usize = path.links.len() * 2;
        let mut queue: EventQueue<PacketEvent> = EventQueue::new();
        for packet in 0..packets {
            queue.schedule(
                start + SimTime::from_secs(u64::from(packet)),
                PacketEvent {
                    packet,
                    leg: 0,
                    elapsed_ms: 0.0,
                },
            );
        }
        let mut rtts: Vec<(u32, f64)> = Vec::new();
        while let Some(ev) = queue.pop() {
            let PacketEvent {
                packet,
                leg,
                elapsed_ms,
            } = ev.payload;
            if leg == legs {
                if elapsed_ms <= timeout_ms {
                    rtts.push((packet, elapsed_ms));
                }
                continue;
            }
            let fwd = leg < path.links.len();
            let link_idx = if fwd { leg } else { legs - 1 - leg };
            let is_first_hop_of_direction = (fwd && leg == 0) || (!fwd && leg == path.links.len());
            if rng.chance(hop_loss_probability(topo, &path.links, link_idx, access)) {
                continue;
            }
            let delay = hop_delay_ms(
                topo,
                &path.links,
                link_idx,
                access,
                is_first_hop_of_direction,
                load,
                ev.at,
                rng,
            );
            let node_idx = if fwd { link_idx + 1 } else { link_idx };
            let processing = if node_idx == 0 || node_idx == path.nodes.len() - 1 {
                0.0
            } else {
                topo.node(path.nodes[node_idx]).kind.processing_delay_ms()
            };
            let hop_ms = delay + processing;
            queue.schedule(
                ev.at + SimTime::from_millis_f64(hop_ms),
                PacketEvent {
                    packet,
                    leg: leg + 1,
                    elapsed_ms: elapsed_ms + hop_ms,
                },
            );
        }
        rtts.sort_by_key(|&(p, _)| p);
        let mut outcome = PingOutcome::new(packets);
        for (_, rtt) in rtts {
            outcome.record(rtt);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessTechnology;
    use crate::topology::NodeKind;
    use shears_geo::GeoPoint;

    /// Probe — access router — metro — DC, with an explicit access link.
    fn simple_net() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let probe = t.add_node(NodeKind::ProbeHost, GeoPoint::new(48.1, 11.6), "DE");
        let ar = t.add_node(NodeKind::AccessRouter, GeoPoint::new(48.15, 11.58), "DE");
        let metro = t.add_node(NodeKind::MetroPop, GeoPoint::new(48.14, 11.56), "DE");
        let dc = t.add_node(NodeKind::Datacenter, GeoPoint::new(50.1, 8.7), "DE");
        t.connect_with_delay(probe, ar, LinkClass::Access, 4.0);
        t.connect(ar, metro, LinkClass::MetroAggregation, 1.2);
        t.connect(metro, dc, LinkClass::TerrestrialBackbone, 1.3);
        (t, probe, dc)
    }

    fn dsl() -> AccessLink {
        AccessLink::new(AccessTechnology::Dsl, 1.0)
    }

    /// A small worldnet: the global backbone plus private- and
    /// public-transit datacenters and probes on four continents over
    /// every access technology.
    fn small_world() -> (crate::WorldNet, Vec<(NodeId, AccessLink)>, Vec<NodeId>) {
        use crate::worldnet::{WorldNet, WorldNetConfig};
        let cfg = WorldNetConfig::default();
        let mut net = WorldNet::build(&shears_geo::CountryAtlas::global(), &cfg);
        let dcs = vec![
            net.attach_datacenter(GeoPoint::new(50.1, 8.7), "DE", true, &cfg),
            net.attach_datacenter(GeoPoint::new(1.35, 103.8), "SG", false, &cfg),
            net.attach_datacenter(GeoPoint::new(38.9, -77.4), "US", true, &cfg),
            net.attach_datacenter(GeoPoint::new(-23.5, -46.6), "BR", false, &cfg),
        ];
        let sites = [
            (48.1, 11.6, "DE", AccessTechnology::Ftth),
            (12.1, 15.0, "TD", AccessTechnology::Lte),
            (-33.9, 151.2, "AU", AccessTechnology::Cable),
            (35.7, 139.7, "JP", AccessTechnology::Ethernet),
            (-1.3, 36.8, "KE", AccessTechnology::Wifi),
            (40.7, -74.0, "US", AccessTechnology::Dsl),
        ];
        let probes = sites
            .iter()
            .map(|&(lat, lon, cc, tech)| {
                let access = AccessLink::new(tech, 0.7);
                (
                    net.attach_probe(GeoPoint::new(lat, lon), cc, access),
                    access,
                )
            })
            .collect();
        (net, probes, dcs)
    }

    fn ping_bits(o: &PingOutcome) -> (u32, u32, Vec<u64>) {
        (
            o.sent,
            o.received,
            o.rtts_ms().iter().map(|r| r.to_bits()).collect(),
        )
    }

    fn tcp_bits(o: &crate::tcp::TcpOutcome) -> (Option<u64>, u32) {
        (o.connect_ms.map(f64::to_bits), o.syn_attempts)
    }

    #[test]
    fn delay_model_is_bit_identical_to_per_traversal_oracle() {
        use crate::packetsim::ping_event_driven;
        use crate::tcp::{TcpConfig, TcpProber};
        let (net, probes, dcs) = small_world();
        let topo = net.topology();
        let wants: Vec<(NodeId, Vec<NodeId>)> =
            probes.iter().map(|&(p, _)| (p, dcs.clone())).collect();
        let table = RouteTable::build(topo, &wants, 2);
        // The same routes laid out another way: one request per pair, in
        // reverse, on one build thread.
        let per_pair: Vec<(NodeId, Vec<NodeId>)> = wants
            .iter()
            .rev()
            .flat_map(|(p, dcs)| dcs.iter().rev().map(|&dc| (*p, vec![dc])))
            .collect();
        let per_pair = RouteTable::build(topo, &per_pair, 1);
        let load = DiurnalLoad::residential();
        let horizon = SimTime::from_days(7);
        // Five packets and a tight timeout exercise losses and timeouts
        // on either leg.
        let ping_cfg = PingConfig {
            packets: 5,
            timeout_ms: 400.0,
        };
        let tcp_cfg = TcpConfig::default();
        let mut lossy = crate::fault::FaultConfig::chaos();
        lossy.loss_bursts = 6;
        lossy.loss_burst_extra = 0.3;
        lossy.loss_burst_class = LinkClass::TerrestrialBackbone;
        let (mut compared, mut rounds) = (0usize, 0usize);
        for seed in 0..24u64 {
            let plans = [
                crate::fault::FaultPlan::generate(
                    topo,
                    &crate::fault::FaultConfig::chaos(),
                    seed,
                    horizon,
                ),
                crate::fault::FaultPlan::generate(topo, &lossy, seed, horizon),
            ];
            let routers: Vec<FaultRouter> = plans
                .iter()
                .map(|plan| FaultRouter::new(topo, table.clone(), plan.clone()))
                .collect();
            let mut probers: Vec<(PingProber, TcpProber, RouteSource, Option<&FaultPlan>)> = vec![
                (
                    PingProber::with_table(topo, &table),
                    TcpProber::with_table(topo, &table),
                    RouteSource::Shared(&table),
                    None,
                ),
                (
                    PingProber::with_table(topo, &per_pair),
                    TcpProber::with_table(topo, &per_pair),
                    RouteSource::Shared(&per_pair),
                    None,
                ),
            ];
            for router in &routers {
                probers.push((
                    PingProber::with_faults(topo, router),
                    TcpProber::with_faults(topo, router),
                    RouteSource::Faulty(router),
                    Some(router.plan()),
                ));
            }
            for (k, &(probe, access)) in probes.iter().enumerate() {
                for (j, &dc) in dcs.iter().enumerate() {
                    let hours = (seed * 31 + k as u64 * 7 + j as u64 * 3) % 168;
                    let at = SimTime::from_hours(hours) + SimTime::from_millis(seed * 977);
                    for (ping, tcp, routes, faults) in probers.iter_mut() {
                        let ctx =
                            format!("seed {seed} probe {k} dc {j} faults {}", faults.is_some());
                        let (mut new_rng, mut old_rng) = (SimRng::new(seed), SimRng::new(seed));
                        let got =
                            ping.ping(probe, dc, Some(access), load, at, &ping_cfg, &mut new_rng);
                        let want = oracle::ping(
                            topo,
                            routes,
                            *faults,
                            probe,
                            dc,
                            Some(access),
                            load,
                            at,
                            &ping_cfg,
                            &mut old_rng,
                        );
                        assert_eq!(
                            got.as_ref().map(ping_bits),
                            want.as_ref().map(ping_bits),
                            "ping {ctx}"
                        );
                        let got =
                            tcp.connect(probe, dc, Some(access), load, at, &tcp_cfg, &mut new_rng);
                        let want = oracle::connect(
                            topo,
                            routes,
                            *faults,
                            probe,
                            dc,
                            Some(access),
                            load,
                            at,
                            &tcp_cfg,
                            &mut old_rng,
                        );
                        assert_eq!(
                            got.as_ref().map(tcp_bits),
                            want.as_ref().map(tcp_bits),
                            "tcp {ctx}"
                        );
                        assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "draw count {ctx}");
                        compared += 1;
                    }
                    if let Some(path) = table.path(probe, dc) {
                        let path = path.to_path_info();
                        let (mut new_rng, mut old_rng) = (SimRng::new(seed), SimRng::new(seed));
                        let got = ping_event_driven(
                            topo,
                            &path,
                            Some(access),
                            load,
                            at,
                            5,
                            400.0,
                            &mut new_rng,
                        );
                        let want = oracle::ping_event_driven(
                            topo,
                            &path,
                            Some(access),
                            load,
                            at,
                            5,
                            400.0,
                            &mut old_rng,
                        );
                        assert_eq!(
                            ping_bits(&got),
                            ping_bits(&want),
                            "packetsim seed {seed} probe {k} dc {j}"
                        );
                        assert_eq!(
                            new_rng.next_u64(),
                            old_rng.next_u64(),
                            "packetsim draw count"
                        );
                    }
                }
            }
            // A campaign probe-round: every dc of a probe at one instant on
            // the reused probers, one RNG stream per round, so packet i of
            // every target hits the waits the earlier targets left in the
            // memo.
            for (k, &(probe, access)) in probes.iter().enumerate() {
                let at = SimTime::from_hours((seed * 13 + k as u64 * 5) % 168)
                    + SimTime::from_millis(seed * 601);
                for (ping, tcp, routes, faults) in probers.iter_mut() {
                    let ctx = format!("round seed {seed} probe {k} faults {}", faults.is_some());
                    let (mut new_rng, mut old_rng) = (SimRng::new(seed), SimRng::new(seed));
                    for &dc in &dcs {
                        let got =
                            ping.ping(probe, dc, Some(access), load, at, &ping_cfg, &mut new_rng);
                        let want = oracle::ping(
                            topo,
                            routes,
                            *faults,
                            probe,
                            dc,
                            Some(access),
                            load,
                            at,
                            &ping_cfg,
                            &mut old_rng,
                        );
                        assert_eq!(
                            got.as_ref().map(ping_bits),
                            want.as_ref().map(ping_bits),
                            "ping {ctx} dc {dc:?}"
                        );
                    }
                    for &dc in &dcs {
                        let got =
                            tcp.connect(probe, dc, Some(access), load, at, &tcp_cfg, &mut new_rng);
                        let want = oracle::connect(
                            topo,
                            routes,
                            *faults,
                            probe,
                            dc,
                            Some(access),
                            load,
                            at,
                            &tcp_cfg,
                            &mut old_rng,
                        );
                        assert_eq!(
                            got.as_ref().map(tcp_bits),
                            want.as_ref().map(tcp_bits),
                            "tcp {ctx} dc {dc:?}"
                        );
                    }
                    assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "draw count {ctx}");
                    rounds += 1;
                }
            }
        }
        assert_eq!(compared, 24 * 4 * probes.len() * dcs.len());
        assert_eq!(rounds, 24 * 4 * probes.len());
    }

    #[test]
    fn wait_memo_keys_on_link_instant_and_load_and_evicts_on_collision() {
        let (load, at, a) = (
            DiurnalLoad::residential(),
            SimTime::from_hours(5),
            LinkId(3),
        );
        let slot = WaitMemo::slot_of(a, at, &WaitMemo::load_bits(load));
        let collides = |link: LinkId, at: SimTime, load: DiurnalLoad| {
            WaitMemo::slot_of(link, at, &WaitMemo::load_bits(load)) == slot
        };
        // Three keys that share `a`'s slot, each differing in one part.
        let other_link = (0..u32::MAX)
            .map(LinkId)
            .find(|&l| l != a && collides(l, at, load))
            .expect("a 512-slot table has colliding links");
        let other_at = (1..u64::MAX)
            .map(|ms| at + SimTime::from_millis(ms))
            .find(|&t| collides(a, t, load))
            .expect("a 512-slot table has colliding instants");
        let other_load = (1..u32::MAX)
            .map(|k| DiurnalLoad {
                peak_hour: f64::from(k) / 64.0,
                ..load
            })
            .find(|&l| collides(a, at, l))
            .expect("a 512-slot table has colliding load profiles");
        let calls = std::cell::Cell::new(0);
        let mut memo = WaitMemo::new();
        let mut wait = |link: LinkId, at: SimTime, load: DiurnalLoad, value: f64| {
            memo.get_or_insert_with(link, at, load, || {
                calls.set(calls.get() + 1);
                value
            })
        };
        assert_eq!(wait(a, at, load, 1.5), 1.5);
        assert_eq!(wait(a, at, load, 9.0), 1.5, "a hit returns the stored wait");
        assert_eq!(calls.get(), 1);
        let colliding = [
            (other_link, at, load),
            (a, other_at, load),
            (a, at, other_load),
        ];
        for (k, (link, t, l)) in colliding.into_iter().enumerate() {
            let value = 2.0 + k as f64;
            assert_eq!(wait(link, t, l, value), value, "key {k} is not `a`'s");
            assert_eq!(wait(link, t, l, 9.0), value, "key {k} evicted `a`");
            assert_eq!(wait(a, at, load, 1.5), 1.5, "`a` is recomputed");
        }
        assert_eq!(calls.get(), 1 + 2 * colliding.len());
    }

    #[test]
    fn ping_produces_rtts_above_floor() {
        let (t, probe, dc) = simple_net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let mut prober = PingProber::with_table(&t, &table);
        let mut rng = SimRng::new(1);
        let out = prober
            .ping(
                probe,
                dc,
                Some(dsl()),
                DiurnalLoad::residential(),
                SimTime::from_hours(3),
                &PingConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.sent, 3);
        assert!(
            out.received >= 1,
            "all three packets lost is implausible here"
        );
        let path = prober.route(probe, dc).unwrap();
        let sampler = PathSampler::from_ref(path, &t, Some(dsl()), DiurnalLoad::residential());
        let floor = sampler.floor_rtt_ms();
        for &rtt in out.rtts_ms() {
            // Jitter is log-normal around the floor, so individual samples
            // can dip slightly below it, but not to half.
            assert!(rtt > floor * 0.5, "rtt {rtt} vs floor {floor}");
        }
    }

    #[test]
    fn floor_includes_access_substitution() {
        let (t, probe, dc) = simple_net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let prober = PingProber::with_table(&t, &table);
        let path = prober.route(probe, dc).unwrap();
        let with_eth = PathSampler::from_ref(
            path,
            &t,
            Some(AccessLink::new(AccessTechnology::Ethernet, 1.0)),
            DiurnalLoad::residential(),
        )
        .floor_rtt_ms();
        let with_lte = PathSampler::from_ref(
            path,
            &t,
            Some(AccessLink::new(AccessTechnology::Lte, 1.0)),
            DiurnalLoad::residential(),
        )
        .floor_rtt_ms();
        let delta = with_lte - with_eth;
        let want = 2.0 * (20.0 - 0.3);
        assert!((delta - want).abs() < 1e-9, "delta {delta}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (t, probe, dc) = simple_net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let run = || {
            let mut prober = PingProber::with_table(&t, &table);
            let mut rng = SimRng::new(77);
            prober
                .ping(
                    probe,
                    dc,
                    Some(dsl()),
                    DiurnalLoad::residential(),
                    SimTime::from_hours(6),
                    &PingConfig::default(),
                    &mut rng,
                )
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_fault_plan_prober_matches_table_prober() {
        // The chaos machinery's bit-identity pin: attaching an empty
        // fault plan must not move a single RNG draw or delay.
        let (t, probe, dc) = simple_net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let router = FaultRouter::new(&t, table.clone(), FaultPlan::empty("noop"));
        for seed in [1u64, 7, 42, 99] {
            let run = |prober: &mut PingProber| {
                let mut rng = SimRng::new(seed);
                prober
                    .ping(
                        probe,
                        dc,
                        Some(dsl()),
                        DiurnalLoad::residential(),
                        SimTime::from_hours(5),
                        &PingConfig::default(),
                        &mut rng,
                    )
                    .unwrap()
            };
            let shared = run(&mut PingProber::with_table(&t, &table));
            let faulty = run(&mut PingProber::with_faults(&t, &router));
            assert_eq!(shared, faulty, "seed {seed}");
        }
    }

    #[test]
    fn blackout_window_silences_the_target() {
        let (t, probe, dc) = simple_net();
        let horizon = SimTime::from_days(30);
        let mut cfg = crate::fault::FaultConfig::blackout();
        cfg.dc_blackouts = 64;
        cfg.blackout_mean_hours = 1_000.0;
        let plan = crate::fault::FaultPlan::generate(&t, &cfg, 3, horizon);
        // Find an instant inside a blackout window (with margin for the
        // three 1s-paced packets).
        let down_at = (0..720)
            .map(SimTime::from_hours)
            .find(|&at| plan.node_down(dc, at) && plan.node_down(dc, at + SimTime::from_secs(3)))
            .expect("64 long blackouts must cover some probed instant");
        let faulty = FaultRouter::for_pair(&t, probe, dc, plan);
        let mut prober = PingProber::with_faults(&t, &faulty);
        let mut rng = SimRng::new(5);
        let out = prober
            .ping(
                probe,
                dc,
                Some(dsl()),
                DiurnalLoad::residential(),
                down_at,
                &PingConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.sent, 3);
        assert_eq!(out.received, 0, "a blacked-out DC answers nothing");
    }

    #[test]
    fn loss_burst_raises_observed_loss() {
        let (t, probe, dc) = simple_net();
        let mut plan_cfg = crate::fault::FaultConfig::lossy();
        plan_cfg.loss_burst_extra = 0.5;
        plan_cfg.loss_bursts = 16;
        plan_cfg.loss_burst_mean_hours = 10_000.0;
        let horizon = SimTime::from_days(30);
        let plan = crate::fault::FaultPlan::generate(&t, &plan_cfg, 8, horizon);
        let burst_at = (0..720)
            .map(SimTime::from_hours)
            .find(|&at| plan.extra_loss(LinkClass::Access, at) >= 0.5)
            .expect("16 ten-thousand-hour bursts must cover some hour");
        let count_losses = |prober: &mut PingProber| {
            let mut rng = SimRng::new(17);
            let mut lost = 0u32;
            for _ in 0..100 {
                let out = prober
                    .ping(
                        probe,
                        dc,
                        Some(dsl()),
                        DiurnalLoad::residential(),
                        burst_at,
                        &PingConfig::default(),
                        &mut rng,
                    )
                    .unwrap();
                lost += out.sent - out.received;
            }
            lost
        };
        let table = RouteTable::for_pair(&t, probe, dc);
        let clean = count_losses(&mut PingProber::with_table(&t, &table));
        let faulty = FaultRouter::new(&t, table, plan);
        let bursty = count_losses(&mut PingProber::with_faults(&t, &faulty));
        assert!(
            bursty > clean + 50,
            "a 50%-extra loss burst must show up: clean {clean}, bursty {bursty}"
        );
    }

    #[test]
    fn disconnected_nodes_yield_none() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::ProbeHost, GeoPoint::new(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::Datacenter, GeoPoint::new(1.0, 1.0), "XX");
        let table = RouteTable::for_pair(&t, a, b);
        assert!(table.is_empty());
        let mut prober = PingProber::with_table(&t, &table);
        let mut rng = SimRng::new(1);
        assert!(prober
            .ping(
                a,
                b,
                None,
                DiurnalLoad::backbone(),
                SimTime::ZERO,
                &PingConfig::default(),
                &mut rng
            )
            .is_none());
    }

    #[test]
    fn timeout_counts_as_loss() {
        let (t, probe, dc) = simple_net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let mut prober = PingProber::with_table(&t, &table);
        let mut rng = SimRng::new(5);
        let cfg = PingConfig {
            packets: 10,
            timeout_ms: 0.001, // nothing can be this fast
        };
        let out = prober
            .ping(
                probe,
                dc,
                Some(dsl()),
                DiurnalLoad::residential(),
                SimTime::ZERO,
                &cfg,
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.received, 0);
        assert_eq!(out.loss_rate(), 1.0);
        assert!(out.min_ms().is_none());
        assert!(out.avg_ms().is_none());
    }

    #[test]
    fn outcome_statistics() {
        let mut o = PingOutcome::new(4);
        for rtt in [10.0, 12.0, 8.0] {
            o.record(rtt);
        }
        assert_eq!(o.rtts_ms(), &[10.0, 12.0, 8.0]);
        assert_eq!(o.min_ms(), Some(8.0));
        assert_eq!(o.avg_ms(), Some(10.0));
        assert!((o.loss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rtt_buf_spills_past_inline_capacity() {
        let mut buf = RttBuf::new();
        let values: Vec<f64> = (0..RttBuf::INLINE as u32 + 4).map(f64::from).collect();
        for (i, &v) in values.iter().enumerate() {
            buf.push(v);
            assert_eq!(buf.len(), i + 1);
            assert_eq!(buf.as_slice(), &values[..=i], "push order preserved");
        }
        assert!(!buf.is_empty());
        // Equality is by contents, not storage mode.
        let mut inline_only = RttBuf::new();
        for &v in &values[..3] {
            inline_only.push(v);
        }
        let mut other = RttBuf::new();
        for &v in &values[..3] {
            other.push(v);
        }
        assert_eq!(inline_only, other);
        assert_ne!(inline_only, buf);
    }

    #[test]
    fn evening_congestion_raises_mean_rtt() {
        let (t, probe, dc) = simple_net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let path = table.path(probe, dc).unwrap();
        // Munich is ~11.6°E, so local 21:00 ≈ 20:13 UTC. Compare a quiet
        // local 04:00 against the local evening peak.
        let sampler = PathSampler::from_ref(path, &t, Some(dsl()), DiurnalLoad::residential());
        let mean_at = |hour_utc: u64, seed: u64| {
            let mut rng = SimRng::new(seed);
            let mut memo = WaitMemo::new();
            let mut sum = 0.0;
            let mut n = 0;
            for day in 0..40u64 {
                let t0 = SimTime::from_hours(day * 24 + hour_utc);
                if let Some(r) = sampler.sample_rtt_ms(t0, &mut memo, &mut rng) {
                    sum += r;
                    n += 1;
                }
            }
            sum / n as f64
        };
        let quiet = mean_at(3, 9);
        let busy = mean_at(20, 9);
        assert!(busy > quiet, "busy {busy} <= quiet {quiet}");
    }
}
