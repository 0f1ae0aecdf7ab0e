//! The measurement campaign: the nine-month, three-hourly ping schedule.
//!
//! Every entry point runs one round loop. Within a round every online
//! probe pings each of its targets; probes are sharded contiguously over
//! worker threads, and the shards' outputs are merged in shard order at
//! a barrier before the next round starts. The store is therefore
//! round-major in probe order at every thread count. Randomness is keyed
//! by `(probe, round)`, so no sample depends on which thread took it.
//! A durable run journals each round on the loop's own thread while the
//! next round's shards probe.

use std::path::PathBuf;

use shears_netsim::fault::{FaultConfig, FaultPlan, FaultRouter};
use shears_netsim::ping::{PingConfig, PingProber};
use shears_netsim::queue::DiurnalLoad;
use shears_netsim::stochastic::SimRng;
use shears_netsim::tcp::{TcpConfig, TcpOutcome, TcpProber};
use shears_netsim::{RouteTable, SimTime};

use crate::availability::OutageSchedule;
use crate::credits::{CreditError, CreditLedger};
use crate::journal::{self, JournalError, JournalHeader, JournalWriter};
use crate::measurement::MeasurementType;
use crate::platform::Platform;
use crate::probe::Probe;
use crate::recovery::RetryPolicy;
use crate::store::{ResultStore, RttSample};

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Number of measurement rounds (the paper: 9 months × 8/day ≈ 2160;
    /// its public dataset holds 3.2 M samples ≈ 200 full-fleet rounds).
    pub rounds: u32,
    /// Round interval (paper: 3 h).
    pub interval: SimTime,
    /// Packets per ping (paper/Atlas default: 3).
    pub packets: u32,
    /// Same-continent targets per probe.
    pub targets_per_probe: usize,
    /// Adjacent-continent targets for Africa/LatAm probes.
    pub adjacent_targets: usize,
    /// Master seed (keyed per probe × round).
    pub seed: u64,
    /// Credit grant; [`CampaignConfig::credits_needed`] credits are
    /// required for a full run.
    pub credits: u64,
    /// Availability model: `false` = per-round Bernoulli at the probe's
    /// stability (fast, memoryless); `true` = episode churn via
    /// [`OutageSchedule`] — probes disappear for days and return, as on
    /// the real platform.
    pub churn: bool,
    /// Probe type: ICMP ping (the paper's method) or TCP connect-time
    /// probing (§5's planned extension). TCP rounds store the connect
    /// time as the sample's RTT with one "packet" per round.
    pub kind: MeasurementType,
    /// Fault injection: link cuts, loss/latency bursts and DC blackouts
    /// drawn from keyed streams off the campaign seed. The default
    /// ([`FaultConfig::none`]) disables the machinery entirely.
    pub faults: FaultConfig,
    /// Recovery policy for failed measurements. The default
    /// ([`RetryPolicy::none`]) performs no retries and no refunds and is
    /// bit-identical to the pre-recovery campaign loop.
    pub recovery: RetryPolicy,
}

impl CampaignConfig {
    /// The paper-scale default: 3.2 M-ish samples on the full fleet.
    pub fn paper_scale() -> Self {
        Self {
            rounds: 200,
            interval: SimTime::from_hours(3),
            packets: 3,
            targets_per_probe: 5,
            adjacent_targets: 3,
            seed: 0x10DE,
            credits: u64::MAX,
            churn: false,
            kind: MeasurementType::Ping,
            faults: FaultConfig::none(),
            recovery: RetryPolicy::none(),
        }
    }

    /// A fast configuration for tests and examples.
    pub fn quick() -> Self {
        Self {
            rounds: 10,
            ..Self::paper_scale()
        }
    }

    /// Upper bound on the credits a full run can spend (each retry is a
    /// fresh debit, so the bound scales with the retry budget).
    pub fn credits_needed(&self, probes: usize, targets_per_probe_max: usize) -> u64 {
        self.rounds as u64
            * probes as u64
            * targets_per_probe_max as u64
            * CreditLedger::ping_cost(self.packets)
            * u64::from(self.recovery.max_retries + 1)
    }
}

/// A campaign bound to a platform.
///
/// [`Campaign::run`], [`Campaign::run_parallel`],
/// [`Campaign::run_durable`] and [`Campaign::resume`] share one round
/// loop, so every entry point returns the same store, row for row in
/// round order, at every thread count. Credits are settled once per
/// round at the barrier: the round's total charge (before refunds) is
/// debited, then its refunds are credited back. A grant that runs out
/// therefore fails at the round whose charge exceeds the balance, with
/// `needed` reporting that charge, and a grant that covers the whole
/// campaign's spend succeeds at every thread count.
pub struct Campaign<'p> {
    platform: &'p Platform,
    cfg: CampaignConfig,
}

/// The routes a campaign's probers share: the fault-free table, or with
/// fault injection on, a [`FaultRouter`] over it.
enum Routes {
    Table(RouteTable),
    Faults(FaultRouter),
}

/// The per-worker prober, chosen by the campaign's measurement type.
/// Every worker reads routes from the campaign's shared [`Routes`], so
/// no shard ever re-runs Dijkstra or clones a path.
enum RoundProber<'t> {
    Ping(PingProber<'t>),
    Tcp(TcpProber<'t>),
}

impl<'t> RoundProber<'t> {
    /// With a fault plan the prober routes through the plan's link-cut
    /// epochs; otherwise it reads the table.
    fn new(platform: &'t Platform, kind: MeasurementType, routes: &'t Routes) -> Self {
        let topo = platform.topology();
        match (kind, routes) {
            (MeasurementType::Ping, Routes::Table(table)) => {
                RoundProber::Ping(PingProber::with_table(topo, table))
            }
            (MeasurementType::Ping, Routes::Faults(router)) => {
                RoundProber::Ping(PingProber::with_faults(topo, router))
            }
            (MeasurementType::TcpConnect, Routes::Table(table)) => {
                RoundProber::Tcp(TcpProber::with_table(topo, table))
            }
            (MeasurementType::TcpConnect, Routes::Faults(router)) => {
                RoundProber::Tcp(TcpProber::with_faults(topo, router))
            }
        }
    }
}

impl<'p> Campaign<'p> {
    /// Creates a campaign over the platform.
    pub fn new(platform: &'p Platform, cfg: CampaignConfig) -> Self {
        Self { platform, cfg }
    }

    /// The targets of each probe in `range` (probe indices), resolved
    /// once: they do not change between rounds. The table is indexed by
    /// probe id over the whole fleet; entries outside `range` stay empty.
    fn target_table(&self, range: std::ops::Range<usize>) -> Vec<Vec<u16>> {
        let probes = self.platform.probes();
        let mut targets = vec![Vec::new(); probes.len()];
        for (slot, p) in targets[range.clone()].iter_mut().zip(&probes[range]) {
            *slot =
                self.platform
                    .targets_for(p, self.cfg.targets_per_probe, self.cfg.adjacent_targets);
        }
        targets
    }

    /// The routes from each of `probes` to its targets, with the route
    /// table built over `threads` workers. With fault injection on, each
    /// link-cut epoch of the plan re-resolves only the table routes its
    /// cut crosses.
    fn routes(&self, probes: &[Probe], targets: &[Vec<u16>], threads: usize) -> Routes {
        let table = self.platform.route_table_for(probes, targets, threads);
        match self.fault_plan() {
            Some(plan) => Routes::Faults(FaultRouter::new(self.platform.topology(), table, plan)),
            None => Routes::Table(table),
        }
    }

    /// Exact upper bound on the samples the fleet can produce over the
    /// whole campaign (used to pre-size the result store).
    fn sample_bound(&self, targets: &[Vec<u16>]) -> usize {
        targets.iter().map(Vec::len).sum::<usize>() * self.cfg.rounds as usize
    }

    /// A probe's schedule offset within the round: real campaigns spread
    /// probes over the interval to avoid thundering herds. Deterministic
    /// per probe.
    fn probe_offset(&self, probe: &Probe) -> SimTime {
        let spread_ns = self.cfg.interval.as_nanos() / 2;
        if spread_ns == 0 {
            return SimTime::ZERO;
        }
        let h = (u64::from(probe.id.0))
            .wrapping_mul(0x9E3779B97F4A7C15)
            .rotate_left(17);
        SimTime::from_nanos(h % spread_ns)
    }

    /// Materialises the fault schedule over the campaign window, or
    /// `None` when fault injection is disabled. Deterministic in
    /// `(topology, faults config, seed)` — `run` and `run_parallel`
    /// build identical plans, and analysis code can call this after a
    /// run to reconstruct exactly the plan the measurements saw.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if !self.cfg.faults.enabled {
            return None;
        }
        let horizon =
            SimTime::from_nanos(self.cfg.interval.as_nanos() * u64::from(self.cfg.rounds) + 1);
        Some(FaultPlan::generate(
            self.platform.topology(),
            &self.cfg.faults,
            self.cfg.seed,
            horizon,
        ))
    }

    /// Precomputes the per-probe outage schedules when churn is on.
    fn outage_table(&self, master: &SimRng) -> Option<Vec<OutageSchedule>> {
        if !self.cfg.churn {
            return None;
        }
        let horizon =
            SimTime::from_nanos(self.cfg.interval.as_nanos() * u64::from(self.cfg.rounds) + 1);
        Some(
            self.platform
                .probes()
                .iter()
                .map(|p| {
                    // A dedicated keyed stream per probe, disjoint from
                    // the per-round streams (which never use u64::MAX).
                    let mut rng = master.fork_keyed(u64::from(p.id.0), u64::MAX);
                    OutageSchedule::generate(&mut rng, p.stability, horizon)
                })
                .collect(),
        )
    }

    /// A probe's slot in one round: its keyed random stream and its
    /// scheduled fire time, or `None` when the probe is offline. Real
    /// rounds and synthesised lost rounds both read it, so they always
    /// agree on which probes measured and when.
    fn probe_slot(
        &self,
        master: &SimRng,
        outages: Option<&[OutageSchedule]>,
        probe: &Probe,
        round: u32,
    ) -> Option<(SimRng, SimTime)> {
        let mut rng = master.fork_keyed(u64::from(probe.id.0), u64::from(round));
        let at = SimTime::from_nanos(
            self.cfg.interval.as_nanos() * u64::from(round) + self.probe_offset(probe).as_nanos(),
        );
        // Probe availability: episode churn when enabled, otherwise a
        // memoryless per-round draw at the probe's stability.
        let up = match outages {
            Some(schedules) => schedules[probe.id.index()].is_up(at),
            None => rng.chance(probe.stability),
        };
        up.then_some((rng, at))
    }

    /// Runs the campaign on one thread: [`Campaign::run_parallel`] with
    /// `threads == 1`, route table included.
    pub fn run(&self) -> Result<ResultStore, CampaignError> {
        self.run_parallel(1)
    }

    /// Runs the campaign with its probes sharded over `threads` worker
    /// threads. The store is [`Campaign::run`]'s, row for row in round
    /// order, and the whole credit grant backs every shard (see
    /// [`Campaign`]).
    pub fn run_parallel(&self, threads: usize) -> Result<ResultStore, CampaignError> {
        self.run_from_start(threads, None).map(|out| out.store)
    }

    /// The journal header this campaign would write: the full config
    /// plus the fleet/target and fault-plan digests a resume validates
    /// against.
    pub fn journal_header(&self) -> JournalHeader {
        let targets = self.target_table(0..self.platform.probes().len());
        JournalHeader {
            config: self.cfg,
            fleet_digest: journal::fleet_digest(self.platform.probes(), &targets),
            plan_digest: self.fault_plan().map_or(0, |p| p.digest()),
        }
    }

    /// Runs the campaign with crash-safe durability: every completed
    /// round is appended to the write-ahead journal at `durability.path`
    /// while the next round probes, and before that round is settled,
    /// so each sample is written once. If the process dies at any point,
    /// [`Campaign::resume`] picks up from the last durable round and the
    /// final results are bit-identical to an uninterrupted run; a kill
    /// during round r+1 may find round r not yet durable, and resume
    /// then re-runs it too.
    ///
    /// The rounds run in the same loop as [`Campaign::run_parallel`], so
    /// the store is byte-identical to [`Campaign::run`]'s for every
    /// thread count, and credits are settled the same way, once per
    /// round at the barrier.
    pub fn run_durable(
        &self,
        threads: usize,
        durability: &DurabilityConfig,
    ) -> Result<DurableOutcome, CampaignError> {
        let mut journal =
            JournalWriter::create(&durability.path, &self.journal_header(), durability.fsync)?;
        self.run_from_start(threads, Some((&mut journal, durability)))
    }

    /// A run from round 0 with the full grant, journaled or not.
    fn run_from_start(
        &self,
        threads: usize,
        journal: Option<(&mut JournalWriter, &DurabilityConfig)>,
    ) -> Result<DurableOutcome, CampaignError> {
        let targets = self.target_table(0..self.platform.probes().len());
        let mut store = ResultStore::with_capacity(self.sample_bound(&targets));
        let mut ledger = CreditLedger::new(self.cfg.credits);
        self.run_rounds(0, threads, &targets, &mut store, &mut ledger, journal)?;
        Ok(DurableOutcome { store, ledger })
    }

    /// Resumes a crashed (or cleanly stopped) durable campaign from its
    /// journal: replays the durable rounds, validates that `platform`
    /// still digests to the fleet/targets and fault plan the journal was
    /// written against, truncates any torn tail frame, and re-runs the
    /// remaining rounds. The per-`(probe, round)` keyed RNG streams make
    /// the continuation independent of where the crash fell: the result
    /// is bit-identical to a run that never crashed.
    pub fn resume(
        platform: &'p Platform,
        durability: &DurabilityConfig,
        threads: usize,
    ) -> Result<DurableOutcome, CampaignError> {
        let replay = journal::replay(&durability.path)?;
        let campaign = Campaign::new(platform, replay.header.config);
        let expected = campaign.journal_header();
        if expected.fleet_digest != replay.header.fleet_digest {
            return Err(JournalError::ConfigMismatch {
                what: "fleet/target digest",
            }
            .into());
        }
        if expected.plan_digest != replay.header.plan_digest {
            return Err(JournalError::ConfigMismatch {
                what: "fault-plan digest",
            }
            .into());
        }
        let mut journal = JournalWriter::open_append(&durability.path, &replay, durability.fsync)?;
        let targets = campaign.target_table(0..platform.probes().len());
        let mut store = replay.store;
        let mut ledger = replay.ledger;
        campaign.run_rounds(
            replay.next_round,
            threads,
            &targets,
            &mut store,
            &mut ledger,
            Some((&mut journal, durability)),
        )?;
        Ok(DurableOutcome { store, ledger })
    }

    /// One shard's slice of one round: every online probe of `shard`
    /// measures each of its targets once, through the policy's attempt
    /// loop. Returns the shard's samples in probe order plus the round's
    /// gross charge and refunds, which the caller settles at the round
    /// barrier. A retry fires at its backed-off instant, but the row keeps
    /// the scheduled one; a pair that a cut disconnects is a lost row.
    fn run_shard_round(
        &self,
        prober: &mut RoundProber<'_>,
        shard: &[Probe],
        targets: &[Vec<u16>],
        outages: Option<&[OutageSchedule]>,
        round: u32,
    ) -> (ResultStore, u64, u64) {
        let master = SimRng::new(self.cfg.seed);
        let ping_cfg = PingConfig {
            packets: self.cfg.packets,
            ..PingConfig::default()
        };
        let tcp_cfg = TcpConfig::default();
        let policy = &self.cfg.recovery;
        let cost = CreditLedger::ping_cost(self.cfg.packets);
        // At most one sample per (probe, target): size every column once.
        let bound = shard.iter().map(|p| targets[p.id.index()].len()).sum();
        let mut store = ResultStore::with_capacity(bound);
        let (mut gross, mut refunds) = (0, 0);
        for probe in shard {
            let Some((mut rng, at)) = self.probe_slot(&master, outages, probe, round) else {
                continue;
            };
            let from = self.platform.probe_node(probe.id);
            let access = Some(probe.access);
            let load = DiurnalLoad::residential();
            for &region in &targets[probe.id.index()] {
                let to = self.platform.dc_node(region as usize);
                let (sample, (charge, refund)) = match prober {
                    RoundProber::Ping(prober) => {
                        let measured = policy.measure(
                            at,
                            &mut rng,
                            |when, rng| prober.ping(from, to, access, load, when, &ping_cfg, rng),
                            |o| o.received > 0,
                        );
                        (
                            RttSample::ping(probe.id, region, at, self.cfg.packets, &measured),
                            policy.charge(&measured, cost),
                        )
                    }
                    RoundProber::Tcp(prober) => {
                        let measured = policy.measure(
                            at,
                            &mut rng,
                            |when, rng| prober.connect(from, to, access, load, when, &tcp_cfg, rng),
                            TcpOutcome::established,
                        );
                        let connect = measured.outcome.as_ref().and_then(|o| o.connect_ms);
                        let ms = connect.map_or(f32::INFINITY, |v| v as f32);
                        let sample = RttSample {
                            probe: probe.id,
                            region,
                            at,
                            min_ms: ms,
                            avg_ms: ms,
                            sent: measured.attempts.min(u32::from(u8::MAX)) as u8,
                            received: u8::from(connect.is_some()),
                        };
                        (sample, policy.charge(&measured, cost))
                    }
                };
                gross += charge;
                refunds += refund;
                store.push(sample);
            }
        }
        (store, gross, refunds)
    }

    /// The campaign's one round loop, shared by every entry point. The
    /// fleet is split into [`Campaign::shard_ranges`]`(threads)`, and
    /// every round's shards probe on threads of their own. Their outputs
    /// are merged in shard order at a barrier, where the round's total
    /// charge is debited and then its refunds are credited back. With a
    /// journal, this thread appends round r while round r+1's shards
    /// probe, and any journal error is returned before round r+1 is
    /// settled; the last round is appended after the loop.
    fn run_rounds(
        &self,
        start: u32,
        threads: usize,
        targets: &[Vec<u16>],
        store: &mut ResultStore,
        ledger: &mut CreditLedger,
        mut journal: Option<(&mut JournalWriter, &DurabilityConfig)>,
    ) -> Result<(), CampaignError> {
        let probes = self.platform.probes();
        let routes = self.routes(probes, targets, threads.max(1));
        let master = SimRng::new(self.cfg.seed);
        let outages = self.outage_table(&master);
        let shards: Vec<&[Probe]> = self
            .shard_ranges(threads)
            .into_iter()
            .map(|range| &probes[range])
            .collect();
        // Probers persist across rounds, so each allocates its hop-wait
        // memo once.
        let mut probers: Vec<RoundProber<'_>> = shards
            .iter()
            .map(|_| RoundProber::new(self.platform, self.cfg.kind, &routes))
            .collect();
        // The settled round not yet journaled, and its first row.
        let mut unjournaled: Option<(u32, usize)> = None;
        for round in start..self.cfg.rounds {
            let (journaled, shard_results) = std::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .iter()
                    .zip(probers.iter_mut())
                    .map(|(shard, prober)| {
                        let outages = outages.as_deref();
                        s.spawn(move || {
                            self.run_shard_round(prober, shard, targets, outages, round)
                        })
                    })
                    .collect();
                let journaled = match (unjournaled, journal.as_mut()) {
                    (Some(done), Some((journal, durability))) => {
                        Self::journal_round(journal, durability, done, store, ledger)
                    }
                    _ => Ok(()),
                };
                let results: Vec<(ResultStore, u64, u64)> = handles
                    .into_iter()
                    .map(|h| h.join().expect("campaign shard panicked"))
                    .collect();
                (journaled, results)
            });
            journaled?;
            let round_start = store.len();
            let gross: u64 = shard_results.iter().map(|(_, s, _)| s).sum();
            let refunds: u64 = shard_results.iter().map(|(_, _, r)| r).sum();
            ledger.debit(gross)?;
            ledger.refund(refunds);
            for (shard_store, _, _) in shard_results {
                store.merge(shard_store);
            }
            unjournaled = Some((round, round_start));
        }
        if let Some((journal, durability)) = journal {
            if let Some(done) = unjournaled {
                Self::journal_round(journal, durability, done, store, ledger)?;
            }
            journal.sync()?;
        }
        Ok(())
    }

    /// Makes one settled round durable: one framed append of its rows
    /// (from `round_start` to the end of `store`) and the ledger after
    /// it, then, without per-append fsync, a sync every
    /// `checkpoint_every` rounds. The simulated crash fires here, right
    /// after its round is journaled.
    fn journal_round(
        journal: &mut JournalWriter,
        durability: &DurabilityConfig,
        (round, round_start): (u32, usize),
        store: &ResultStore,
        ledger: &CreditLedger,
    ) -> Result<(), CampaignError> {
        journal.append_round(round, store, round_start, ledger)?;
        let every = durability.checkpoint_every;
        if !durability.fsync && every != 0 && (round + 1) % every == 0 {
            journal.sync()?;
        }
        if durability.crash_after_round == Some(round) {
            return Err(CampaignError::SimulatedCrash { round });
        }
        Ok(())
    }

    /// The deterministic contiguous partition of the probe fleet into
    /// (at most) `count` shards: the `chunks(ceil(n / count))` split the
    /// round loop uses, expressed as probe-index ranges. Merging
    /// per-round shard outputs in this order yields a store
    /// bit-identical to [`Campaign::run`], which is the invariant the
    /// distributed coordinator builds on. When `count` exceeds what
    /// the fleet can fill, fewer (never empty) shards are returned —
    /// callers must treat `shard_ranges(count).len()` as the real shard
    /// count.
    pub fn shard_ranges(&self, count: usize) -> Vec<std::ops::Range<usize>> {
        let n = self.platform.probes().len();
        let chunk = n.div_ceil(count.max(1)).max(1);
        (0..n)
            .step_by(chunk)
            .map(|s| s..(s + chunk).min(n))
            .collect()
    }

    /// Builds the execution context for shard `shard` of a `count`-way
    /// partition (see [`Campaign::shard_ranges`]). The context resolves
    /// the shard's own probes' targets and the churn outages eagerly; the
    /// shard's routes (its route table and, with fault injection on, the
    /// re-routes of each link-cut epoch) are built lazily on the first
    /// [`Campaign::run_shard`] call, so a coordinator that only ever
    /// synthesises lost rounds never pays for routing.
    ///
    /// # Panics
    /// Panics when `shard` is out of range for the partition.
    pub fn shard_context(&self, shard: usize, count: usize) -> ShardContext {
        let ranges = self.shard_ranges(count);
        let range = ranges[shard].clone();
        let master = SimRng::new(self.cfg.seed);
        ShardContext {
            shard: shard as u32,
            count: ranges.len() as u32,
            targets: self.target_table(range.clone()),
            range,
            outages: self.outage_table(&master),
            routes: None,
        }
    }

    /// The journal header a worker writes at the head of its per-shard
    /// WAL: the campaign config with the fleet-digest slot holding the
    /// [`journal::shard_digest`] of this shard, so a shard WAL can only
    /// ever be resumed by a worker holding the same shard of the same
    /// partition of the same fleet.
    pub fn shard_header(&self, ctx: &ShardContext) -> JournalHeader {
        let probes = &self.platform.probes()[ctx.range.clone()];
        JournalHeader {
            config: self.cfg,
            fleet_digest: journal::shard_digest(ctx.shard, ctx.count, probes, &ctx.targets),
            plan_digest: self.fault_plan().map_or(0, |p| p.digest()),
        }
    }

    /// One shard's slice of one round — the public entry point for
    /// out-of-process workers. Returns the shard's samples in probe
    /// order plus its gross credit spend and refund for the round,
    /// exactly what the round loop's in-process shards feed the round
    /// barrier: merging every shard's output in shard order and settling
    /// `debit(Σgross)` then `refund(Σrefund)` reproduces
    /// [`Campaign::run`] bit for bit.
    pub fn run_shard(&self, ctx: &mut ShardContext, round: u32) -> (ResultStore, u64, u64) {
        let shard = &self.platform.probes()[ctx.range.clone()];
        // Routes for exactly the shard's probe→DC pairs (the table is
        // keyed by node pair, so a subset build answers every lookup the
        // shard will make while skipping the rest of the fleet's searches).
        let routes = ctx
            .routes
            .get_or_insert_with(|| self.routes(shard, &ctx.targets, 1));
        let mut prober = RoundProber::new(self.platform, self.cfg.kind, routes);
        self.run_shard_round(
            &mut prober,
            shard,
            &ctx.targets,
            ctx.outages.as_deref(),
            round,
        )
    }

    /// Synthesises the samples a lost shard-round *would have
    /// scheduled*, every one marked lost (`min/avg = ∞`,
    /// `sent = received = 0`). Each probe's availability and fire time
    /// come from the same slot helper a real round uses, so exactly the
    /// probes that would have measured appear, at their scheduled
    /// timestamps.
    /// Degraded-completion coordinators merge these in place of a shard
    /// whose workers all died: the loss is attributed in the store
    /// (mirroring how fault-injected campaigns record lost samples)
    /// without shifting any other shard's rows. `sent = 0`
    /// distinguishes "never measured" from a measured-but-unanswered
    /// sample, whose `sent` counts its attempts.
    pub fn lost_shard_round(&self, ctx: &ShardContext, round: u32) -> ResultStore {
        let master = SimRng::new(self.cfg.seed);
        let mut store = ResultStore::new();
        for probe in &self.platform.probes()[ctx.range.clone()] {
            let Some((_, at)) = self.probe_slot(&master, ctx.outages.as_deref(), probe, round)
            else {
                continue;
            };
            for &region in &ctx.targets[probe.id.index()] {
                store.push(RttSample {
                    probe: probe.id,
                    region,
                    at,
                    min_ms: f32::INFINITY,
                    avg_ms: f32::INFINITY,
                    sent: 0,
                    received: 0,
                });
            }
        }
        store
    }
}

/// Everything a worker needs to execute one shard of a campaign round
/// by round: the shard's probe range and partition coordinates, its
/// probes' targets, the churn outages, and (built lazily) the
/// shard-restricted routes. Built once per assignment via
/// [`Campaign::shard_context`], then fed to [`Campaign::run_shard`] for
/// each round.
pub struct ShardContext {
    shard: u32,
    count: u32,
    range: std::ops::Range<usize>,
    /// Indexed by probe id; only the shard's own entries are filled.
    targets: Vec<Vec<u16>>,
    outages: Option<Vec<OutageSchedule>>,
    routes: Option<Routes>,
}

impl ShardContext {
    /// The shard index within its partition.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The partition's (non-empty) shard count.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The probe-index range this shard covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.range.clone()
    }
}

/// Durability knobs for [`Campaign::run_durable`] / [`Campaign::resume`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Journal file path.
    pub path: PathBuf,
    /// With `fsync` off, `fdatasync` the journal every this many rounds
    /// (`0`: only when the run ends). With `fsync` on, every append
    /// already syncs and this adds nothing. The journal is never
    /// rewritten: each sample is written once, in its round frame.
    pub checkpoint_every: u32,
    /// `fdatasync` after every append (durable against power loss, not
    /// just process crashes). The sync runs on the round loop's thread
    /// while the next round probes, so it delays the run only when it
    /// outlasts that round's probing. Off by default: simulation
    /// workloads care about process faults.
    pub fsync: bool,
    /// Test hook: report a simulated crash *after* the given round has
    /// been journaled, leaving the file exactly as a real mid-campaign
    /// kill would.
    pub crash_after_round: Option<u32>,
}

impl DurabilityConfig {
    /// Journal at `path` with no per-append fsync, a sync every 64
    /// rounds, and no simulated crash.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            checkpoint_every: 64,
            fsync: false,
            crash_after_round: None,
        }
    }
}

/// What a durable run hands back: the samples plus the settled ledger
/// (needed by resume-aware callers like the API service).
#[derive(Debug)]
pub struct DurableOutcome {
    /// Every sample of every round, round-major in probe order.
    pub store: ResultStore,
    /// The campaign ledger as of the last completed round.
    pub ledger: CreditLedger,
}

/// Why a campaign stopped.
#[derive(Debug)]
pub enum CampaignError {
    /// The credit grant ran out; `needed` is the charge of the round
    /// that did not fit.
    Credits(CreditError),
    /// The journal could not be written, read, or trusted.
    Journal(JournalError),
    /// The [`DurabilityConfig::crash_after_round`] test hook fired.
    SimulatedCrash {
        /// The last round that was journaled before the simulated kill.
        round: u32,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Credits(e) => write!(f, "campaign stopped: {e}"),
            CampaignError::Journal(e) => write!(f, "campaign journal failed: {e}"),
            CampaignError::SimulatedCrash { round } => {
                write!(f, "simulated crash after round {round}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Credits(e) => Some(e),
            CampaignError::Journal(e) => Some(e),
            CampaignError::SimulatedCrash { .. } => None,
        }
    }
}

impl From<CreditError> for CampaignError {
    fn from(e: CreditError) -> Self {
        CampaignError::Credits(e)
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use crate::probe::ProbeId;

    fn tiny_platform() -> Platform {
        Platform::build(&PlatformConfig {
            fleet: crate::fleet::FleetConfig {
                target_size: 60,
                seed: 5,
            },
            ..PlatformConfig::default()
        })
    }

    fn tiny_cfg() -> CampaignConfig {
        CampaignConfig {
            rounds: 3,
            targets_per_probe: 2,
            adjacent_targets: 1,
            ..CampaignConfig::quick()
        }
    }

    #[test]
    fn produces_samples_for_online_probes() {
        let p = tiny_platform();
        let store = Campaign::new(&p, tiny_cfg()).run().unwrap();
        assert!(!store.is_empty());
        // Expected scale: probes × targets × rounds × stability ≈ 85 %.
        let max = p.probes().len() * 3 * 3;
        assert!(store.len() <= max);
        assert!(store.len() > max / 3);
        // Overwhelmingly responsive.
        assert!(store.response_rate() > 0.95, "{}", store.response_rate());
    }

    #[test]
    fn deterministic_across_runs() {
        let p = tiny_platform();
        let a = Campaign::new(&p, tiny_cfg()).run().unwrap();
        let b = Campaign::new(&p, tiny_cfg()).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_sequential_row_for_row() {
        let p = tiny_platform();
        let seq = Campaign::new(&p, tiny_cfg()).run().unwrap();
        let par = Campaign::new(&p, tiny_cfg()).run_parallel(4).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn runs_out_of_credits() {
        let p = tiny_platform();
        let cfg = CampaignConfig {
            credits: 10,
            ..tiny_cfg()
        };
        let err = Campaign::new(&p, cfg).run().unwrap_err();
        // Round 0 alone charges more than the grant, and the error
        // reports that whole round's charge.
        assert!(
            matches!(
                err,
                CampaignError::Credits(CreditError::InsufficientCredits { available: 10, needed })
                    if needed > 10
            ),
            "{err:?}"
        );
    }

    #[test]
    fn the_exact_grant_suffices_on_every_entry_point_and_one_less_fails() {
        let p = Platform::build(&PlatformConfig {
            fleet: crate::fleet::FleetConfig {
                target_size: 150,
                seed: 9,
            },
            ..PlatformConfig::default()
        });
        let cfg = tiny_cfg();
        let reference = Campaign::new(&p, cfg).run().unwrap();
        let probe_path = tmp_journal("grant-probe");
        let exact = Campaign::new(&p, cfg)
            .run_durable(1, &DurabilityConfig::new(&probe_path))
            .unwrap()
            .ledger
            .spent();
        let _ = std::fs::remove_file(&probe_path);
        assert_eq!(
            cfg.recovery,
            RetryPolicy::none(),
            "no refunds: spend is the grant"
        );
        for (credits, fits) in [(exact, true), (exact - 1, false)] {
            let c = Campaign::new(&p, CampaignConfig { credits, ..cfg });
            let mut runs = vec![("run".to_string(), c.run())];
            for threads in [1usize, 2, 3, 8] {
                runs.push((format!("run_parallel({threads})"), c.run_parallel(threads)));
            }
            for threads in [1usize, 2] {
                let path = tmp_journal("grant");
                let out = c.run_durable(threads, &DurabilityConfig::new(&path));
                runs.push((format!("run_durable({threads})"), out.map(|o| o.store)));
                let _ = std::fs::remove_file(&path);
            }
            for (name, out) in runs {
                match out {
                    Ok(store) if fits => assert_eq!(store, reference, "{name}"),
                    Err(CampaignError::Credits(CreditError::InsufficientCredits { .. }))
                        if !fits => {}
                    other => panic!(
                        "{name} with {credits} credits: {:?}",
                        other.map(|store| store.len())
                    ),
                }
            }
        }
    }

    #[test]
    fn credits_needed_bounds_actual_spend() {
        let p = tiny_platform();
        let cfg = tiny_cfg();
        let needed = cfg.credits_needed(
            p.probes().len(),
            cfg.targets_per_probe + cfg.adjacent_targets,
        );
        let generous = CampaignConfig {
            credits: needed,
            ..cfg
        };
        assert!(Campaign::new(&p, generous).run().is_ok());
    }

    #[test]
    fn samples_are_timestamped_within_campaign_window() {
        let p = tiny_platform();
        let cfg = tiny_cfg();
        let store = Campaign::new(&p, cfg).run().unwrap();
        let end = SimTime::from_nanos(cfg.interval.as_nanos() * u64::from(cfg.rounds));
        assert!(store.ats().iter().all(|&at| at < end));
    }

    #[test]
    fn tcp_campaign_produces_connect_times() {
        let p = tiny_platform();
        let cfg = CampaignConfig {
            kind: MeasurementType::TcpConnect,
            ..tiny_cfg()
        };
        let store = Campaign::new(&p, cfg).run().unwrap();
        assert!(!store.is_empty());
        // TCP rounds carry exactly one attempt and min == avg.
        for s in store.iter() {
            assert_eq!(s.sent, 1);
            assert!(s.received <= 1);
            if s.responded() {
                assert_eq!(s.min_ms, s.avg_ms);
                assert!(s.min_ms > 0.0);
            }
        }
        // TCP connect medians sit at or above ping minima on the same
        // platform (no min-of-3 smoothing).
        let ping_store = Campaign::new(&p, tiny_cfg()).run().unwrap();
        let med = |st: &ResultStore| {
            let mut v: Vec<f32> = st.responded().map(|s| s.min_ms).collect();
            v.sort_by(f32::total_cmp);
            v[v.len() / 2]
        };
        assert!(med(&store) >= med(&ping_store) * 0.8);
    }

    #[test]
    fn churn_mode_produces_episodic_gaps() {
        let p = tiny_platform();
        let cfg = CampaignConfig {
            rounds: 24,
            churn: true,
            ..tiny_cfg()
        };
        let store = Campaign::new(&p, cfg).run().unwrap();
        assert!(!store.is_empty());
        // Episodic availability: some probe has a contiguous block of
        // missed rounds followed by a return (a memoryless model of the
        // same average would virtually never produce week-long gaps,
        // but with 3-hourly rounds over 3 days we check the weaker
        // episode property: per-probe round participation is bursty —
        // a probe that is up in round r is very likely up in r+1).
        let mut same_state = 0u32;
        let mut transitions = 0u32;
        for probe in p.probes() {
            let mut up_rounds = vec![false; cfg.rounds as usize];
            for s in store.by_probe(probe.id) {
                let round = (s.at.as_nanos() / cfg.interval.as_nanos()) as usize;
                if round < up_rounds.len() {
                    up_rounds[round] = true;
                }
            }
            for w in up_rounds.windows(2) {
                if w[0] == w[1] {
                    same_state += 1;
                } else {
                    transitions += 1;
                }
            }
        }
        let persistence = f64::from(same_state) / f64::from(same_state + transitions);
        assert!(
            persistence > 0.9,
            "availability should be strongly autocorrelated, got {persistence}"
        );
    }

    #[test]
    fn churn_mode_is_deterministic_and_parallel_safe() {
        let p = tiny_platform();
        let cfg = CampaignConfig {
            rounds: 6,
            churn: true,
            ..tiny_cfg()
        };
        let seq = Campaign::new(&p, cfg).run().unwrap();
        let par = Campaign::new(&p, cfg).run_parallel(3).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn passthrough_fault_plan_reproduces_fault_free_samples_exactly() {
        // The tentpole invariant: an enabled-but-empty fault plan routes
        // through the fault router yet must not move a single draw.
        let p = tiny_platform();
        let clean = Campaign::new(&p, tiny_cfg()).run().unwrap();
        let cfg = CampaignConfig {
            faults: FaultConfig::passthrough(),
            ..tiny_cfg()
        };
        let faulty = Campaign::new(&p, cfg).run().unwrap();
        assert_eq!(faulty, clean);
        // And the same through the parallel path.
        let faulty_par = Campaign::new(&p, cfg).run_parallel(4).unwrap();
        assert_eq!(faulty_par, clean);
    }

    #[test]
    fn degraded_rounds_stay_well_formed_and_gappy() {
        // Heavy loss + recovery: every scheduled measurement must still
        // yield exactly one (possibly lost) sample, retries must show up
        // in `sent`, and losses must leave gaps rather than aborting.
        let p = tiny_platform();
        let mut faults = FaultConfig::lossy();
        faults.loss_bursts = 8;
        faults.loss_burst_mean_hours = 10_000.0;
        faults.loss_burst_extra = 0.9;
        let cfg = CampaignConfig {
            faults,
            recovery: RetryPolicy::atlas_default(),
            ..tiny_cfg()
        };
        let degraded = Campaign::new(&p, cfg).run().unwrap();
        let clean = Campaign::new(&p, tiny_cfg()).run().unwrap();
        assert_eq!(
            degraded.len(),
            clean.len(),
            "graceful degradation keeps one sample per scheduled measurement"
        );
        assert!(
            degraded.response_rate() < clean.response_rate(),
            "a 90% extra-loss burst must depress the response rate"
        );
        assert!(
            degraded
                .sent()
                .iter()
                .any(|&sent| u32::from(sent) > cfg.packets),
            "some measurements must have retried"
        );
        for s in degraded.iter() {
            assert_eq!(u32::from(s.sent) % cfg.packets, 0, "whole attempts only");
            assert!(u32::from(s.sent) <= cfg.packets * (cfg.recovery.max_retries + 1));
        }
    }

    #[test]
    fn chaos_faults_are_deterministic_across_run_modes() {
        let p = tiny_platform();
        let cfg = CampaignConfig {
            faults: FaultConfig::chaos(),
            recovery: RetryPolicy::atlas_default(),
            ..tiny_cfg()
        };
        let seq = Campaign::new(&p, cfg).run().unwrap();
        let par = Campaign::new(&p, cfg).run_parallel(3).unwrap();
        assert_eq!(par, seq);
    }

    /// FNV-1a over every column of every row, floats by their bits.
    fn store_digest(store: &ResultStore) -> u64 {
        let mut h = shears_netsim::fault::Fnv1a::new();
        for s in store.iter() {
            h.write_u64(u64::from(s.probe.0));
            h.write_u64(u64::from(s.region));
            h.write_u64(s.at.as_nanos());
            h.write_u64(u64::from(s.min_ms.to_bits()));
            h.write_u64(u64::from(s.avg_ms.to_bits()));
            h.write(&[s.sent, s.received]);
        }
        h.finish()
    }

    /// A `chaos` campaign whose link cuts cross routes the fleet samples.
    fn rerouting_chaos_cfg() -> CampaignConfig {
        CampaignConfig {
            rounds: 4,
            seed: 5,
            faults: FaultConfig::chaos(),
            recovery: RetryPolicy::atlas_default(),
            ..tiny_cfg()
        }
    }

    #[test]
    fn chaos_cut_reroutes_match_their_golden_store_digest() {
        use shears_netsim::Router;
        let p = tiny_platform();
        let campaign = Campaign::new(&p, rerouting_chaos_cfg());
        let store = campaign.run().unwrap();
        // Counted against per-epoch routers, not the campaign's own
        // routing: the golden only pins cut handling if some sample's
        // route changes under a cut.
        let plan = campaign.fault_plan().expect("chaos enables faults");
        let mut healthy = Router::new(p.topology());
        let mut cut: Vec<Router> = (0..plan.epoch_count())
            .map(|e| Router::with_disabled(p.topology(), plan.epoch_disabled(e).clone()))
            .collect();
        let rerouted = store
            .iter()
            .filter(|s| {
                let (from, to) = (p.probe_node(s.probe), p.dc_node(s.region as usize));
                cut[plan.epoch_at(s.at)].path(from, to) != healthy.path(from, to)
            })
            .count();
        assert!(rerouted > 0, "no sampled pair crosses a cut");
        let digest = store_digest(&store);
        assert_eq!(digest, 0x54c9_cd1e_cf20_6a5b, "digest {digest:#018x}");
    }

    fn tmp_journal(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "shears-campaign-{}-{tag}-{n}.journal",
            std::process::id()
        ))
    }

    #[test]
    fn durable_run_matches_plain_run_bit_for_bit() {
        let p = tiny_platform();
        let seq = Campaign::new(&p, tiny_cfg()).run().unwrap();
        for threads in [1usize, 3] {
            let path = tmp_journal("match");
            let d = DurabilityConfig::new(&path);
            let out = Campaign::new(&p, tiny_cfg())
                .run_durable(threads, &d)
                .unwrap();
            assert_eq!(
                out.store, seq,
                "durable({threads} threads) must be byte-identical to run()"
            );
            // And the journal replays to the same store.
            let replayed = crate::journal::replay(&path).unwrap();
            assert_eq!(replayed.store, seq);
            assert!(replayed.complete());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn crash_and_resume_is_bit_identical_to_uninterrupted() {
        let p = tiny_platform();
        let clean_path = tmp_journal("clean");
        let clean = Campaign::new(&p, tiny_cfg())
            .run_durable(2, &DurabilityConfig::new(&clean_path))
            .unwrap();
        let path = tmp_journal("crash");
        let mut d = DurabilityConfig::new(&path);
        d.crash_after_round = Some(1);
        let err = Campaign::new(&p, tiny_cfg())
            .run_durable(2, &d)
            .unwrap_err();
        assert!(matches!(err, CampaignError::SimulatedCrash { round: 1 }));
        d.crash_after_round = None;
        let resumed = Campaign::resume(&p, &d, 2).unwrap();
        assert_eq!(resumed.store, clean.store);
        assert_eq!(resumed.ledger.balance(), clean.ledger.balance());
        assert_eq!(resumed.ledger.spent(), clean.ledger.spent());
        assert_eq!(resumed.ledger.refunded(), clean.ledger.refunded());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&clean_path);
    }

    #[test]
    fn resume_rejects_a_drifted_platform() {
        let p = tiny_platform();
        let path = tmp_journal("drift");
        let mut d = DurabilityConfig::new(&path);
        d.crash_after_round = Some(0);
        let _ = Campaign::new(&p, tiny_cfg())
            .run_durable(1, &d)
            .unwrap_err();
        d.crash_after_round = None;
        // A different fleet digests differently: resume must refuse.
        let other = Platform::build(&PlatformConfig {
            fleet: crate::fleet::FleetConfig {
                target_size: 80,
                seed: 6,
            },
            ..PlatformConfig::default()
        });
        match Campaign::resume(&other, &d, 1) {
            Err(CampaignError::Journal(JournalError::ConfigMismatch { .. })) => {}
            other => panic!("want ConfigMismatch, got {other:?}"),
        }
        // The original platform still resumes fine.
        assert!(Campaign::resume(&p, &d, 1).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_cadence_preserves_bit_identical_resume() {
        // `checkpoint_every` only paces syncs: whatever the cadence, the
        // journal holds each sample once, in its round frame.
        let p = tiny_platform();
        let cfg = CampaignConfig {
            rounds: 8,
            ..tiny_cfg()
        };
        let journal_with = |every: u32, tag: &str| {
            let path = tmp_journal(tag);
            let mut d = DurabilityConfig::new(&path);
            d.checkpoint_every = every;
            let out = Campaign::new(&p, cfg).run_durable(1, &d).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            (out, bytes)
        };
        let (clean, without) = journal_with(0, "ckpt-off");
        let (_, with) = journal_with(2, "ckpt-2");
        assert!(
            with == without,
            "a checkpoint cadence changed the journal's bytes"
        );

        let path = tmp_journal("ckpt");
        let mut d = DurabilityConfig::new(&path);
        d.checkpoint_every = 2;
        d.crash_after_round = Some(5);
        let _ = Campaign::new(&p, cfg).run_durable(1, &d).unwrap_err();
        let replayed = crate::journal::replay(&path).unwrap();
        assert_eq!(
            replayed.marks.len(),
            6,
            "every journaled round keeps its frame"
        );
        d.crash_after_round = None;
        let resumed = Campaign::resume(&p, &d, 1).unwrap();
        assert_eq!(resumed.store, clean.store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_bytes_match_their_golden_digests() {
        // FNV-1a over the whole file, frame CRCs included, so neither
        // the writer's schedule nor the CRC routine can move a byte on
        // disk without failing here.
        let p = tiny_platform();
        let chaos = CampaignConfig {
            faults: FaultConfig::chaos(),
            recovery: RetryPolicy::atlas_default(),
            ..tiny_cfg()
        };
        // At this seed the TCP arm retries and refunds (at the default
        // seed its retries are rare).
        let tcp = CampaignConfig {
            kind: MeasurementType::TcpConnect,
            seed: 1,
            ..chaos
        };
        for (profile, cfg, complete, crashed) in [
            (
                "fault-free",
                tiny_cfg(),
                0x3405_868f_22ba_ac82,
                0x5c76_2d31_3444_90fa,
            ),
            ("chaos", chaos, 0xcdcd_e9af_598f_af08, 0x93cc_f534_67ea_e42e),
            ("tcp", tcp, 0xdde4_c209_9a1e_6a20, 0xf69a_0429_f106_83d7),
        ] {
            for threads in [1usize, 2] {
                for fsync in [false, true] {
                    for (crash_after_round, golden) in [(None, complete), (Some(1), crashed)] {
                        let what = format!(
                            "{profile}, {threads} threads, fsync {fsync}, crash {crash_after_round:?}"
                        );
                        let path = tmp_journal("golden");
                        let d = DurabilityConfig {
                            fsync,
                            crash_after_round,
                            ..DurabilityConfig::new(&path)
                        };
                        match (
                            Campaign::new(&p, cfg).run_durable(threads, &d),
                            crash_after_round,
                        ) {
                            (Ok(out), None) => assert!(
                                cfg.kind == MeasurementType::Ping
                                    || out.store.sent().iter().any(|&sent| sent > 1)
                                        && out.ledger.refunded() > 0,
                                "{what}: the TCP arm must retry and refund"
                            ),
                            (Err(CampaignError::SimulatedCrash { round }), Some(kill))
                                if round == kill => {}
                            (other, _) => panic!("{what}: {:?}", other.map(|o| o.store.len())),
                        }
                        let digest =
                            shears_netsim::fault::Fnv1a::digest_of(&std::fs::read(&path).unwrap());
                        let _ = std::fs::remove_file(&path);
                        assert_eq!(digest, golden, "{what}: digest {digest:#018x}");
                    }
                }
            }
        }
    }

    #[test]
    fn each_sample_has_known_probe_and_region() {
        let p = tiny_platform();
        let store = Campaign::new(&p, tiny_cfg()).run().unwrap();
        for s in store.iter() {
            assert!(s.probe.index() < p.probes().len());
            assert!((s.region as usize) < p.catalog().regions().len());
            assert_eq!(s.probe, p.probes()[s.probe.index()].id);
        }
        let _ = ProbeId(0);
    }

    #[test]
    fn shard_ranges_partition_the_fleet_contiguously() {
        let p = tiny_platform();
        let c = Campaign::new(&p, tiny_cfg());
        let n = p.probes().len();
        for count in [1usize, 2, 3, 7, n, n + 5] {
            let ranges = c.shard_ranges(count);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= count);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "shards must be contiguous");
                assert!(!w[0].is_empty() && !w[1].is_empty());
            }
        }
    }

    #[test]
    fn public_shard_rounds_merge_to_run_bit_for_bit() {
        let p = tiny_platform();
        for cfg in [tiny_cfg(), rerouting_chaos_cfg()] {
            let c = Campaign::new(&p, cfg);
            let expected = c.run().unwrap();

            for count in [1usize, 3] {
                let shards = c.shard_ranges(count).len();
                let mut ctxs: Vec<ShardContext> =
                    (0..shards).map(|s| c.shard_context(s, count)).collect();
                let mut store = ResultStore::new();
                let mut ledger = CreditLedger::new(cfg.credits);
                for round in 0..cfg.rounds {
                    let outputs: Vec<_> =
                        ctxs.iter_mut().map(|ctx| c.run_shard(ctx, round)).collect();
                    let gross: u64 = outputs.iter().map(|(_, g, _)| g).sum();
                    let refunds: u64 = outputs.iter().map(|(_, _, r)| r).sum();
                    ledger.debit(gross).unwrap();
                    ledger.refund(refunds);
                    for (shard_store, _, _) in outputs {
                        store.merge(shard_store);
                    }
                }
                assert_eq!(
                    store, expected,
                    "{count}-way public shard merge must equal run() ({:?})",
                    cfg.faults.enabled
                );
            }
        }
    }

    #[test]
    fn lost_shard_round_schedules_exactly_the_live_probes() {
        let p = tiny_platform();
        let cfg = tiny_cfg();
        let c = Campaign::new(&p, cfg);
        let mut ctx = c.shard_context(0, 2);
        for round in 0..cfg.rounds {
            let (real, _, _) = c.run_shard(&mut ctx, round);
            let lost = c.lost_shard_round(&ctx, round);
            // Same probes, regions, and timestamps row for row; values
            // are the lost-sample sentinels.
            assert_eq!(lost.len(), real.len());
            assert_eq!(lost.probes(), real.probes());
            assert_eq!(lost.regions(), real.regions());
            assert_eq!(lost.ats(), real.ats());
            for s in lost.iter() {
                assert!(s.min_ms.is_infinite() && s.avg_ms.is_infinite());
                assert_eq!((s.sent, s.received), (0, 0));
            }
        }
    }

    #[test]
    fn shard_headers_pin_partition_geometry() {
        let p = tiny_platform();
        let c = Campaign::new(&p, tiny_cfg());
        let h00 = c.shard_header(&c.shard_context(0, 2));
        let h01 = c.shard_header(&c.shard_context(1, 2));
        let h03 = c.shard_header(&c.shard_context(0, 3));
        assert_ne!(
            h00.fleet_digest, h01.fleet_digest,
            "shard index must matter"
        );
        assert_ne!(
            h00.fleet_digest, h03.fleet_digest,
            "shard count must matter"
        );
        assert_eq!(
            h00.fleet_digest,
            c.shard_header(&c.shard_context(0, 2)).fleet_digest,
            "digest must be deterministic"
        );
        // Wire round-trip preserves the header exactly.
        let wire = h00.to_wire();
        let back = JournalHeader::from_wire(&wire).unwrap();
        assert_eq!(back.fleet_digest, h00.fleet_digest);
        assert_eq!(back.plan_digest, h00.plan_digest);
        assert_eq!(back.config, h00.config);
    }
}
