//! The API's application logic: routing plus measurement execution.
//!
//! Service state is sharded for the read path: a `RwLock` registry maps
//! measurement ids to `Arc`'d entries. A stored measurement never
//! changes after insert, so GET endpoints read an entry without any
//! lock once the registry lookup returns — and never block behind a
//! running campaign, which executes entirely outside any lock. The
//! credit ledger and the id counter live behind their own small locks;
//! no request ever holds a global one.
//!
//! Each entry's stats are computed once, from one
//! [`CampaignFrame::build`] over its columnar [`ResultStore`], and kept
//! in the entry: repeated `GET /stats` is a lookup
//! ([`AtlasService::frame_builds`] counts builds, pinning that in
//! tests). Its `GET /results` body is likewise encoded once and served
//! from the entry as stored bytes. A durable resume that finds a longer
//! copy of a measurement replaces the whole entry, so the new samples
//! start with neither.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

use shears_analysis::CampaignFrame;
use shears_atlas::journal::{
    frame, get_samples_wire, put_samples_wire, put_string, read_frame, ByteReader,
};
use shears_atlas::json::{self, ObjectWriter, ToJson};
use shears_atlas::{CreditLedger, Platform, ResultStore, RetryPolicy, RttSample};
use shears_netsim::fault::{FaultConfig, FaultPlan, FaultRouter};
use shears_netsim::ping::{PingConfig, PingProber};
use shears_netsim::queue::DiurnalLoad;
use shears_netsim::stochastic::SimRng;
use shears_netsim::SimTime;
use shears_netsim::TracerouteProber;

use crate::dto::{
    CreateMeasurementDto, CreateTracerouteDto, HopDto, MeasurementDto, MeasurementStatsDto,
    ProbeDto, RegionDto, ResultDto, ResumeReportDto, TracerouteDto,
};
use crate::http::{Method, Request, Response};
use crate::server::ServerMetrics;
use crate::work::WorkQueue;

/// Service-enforced caps on on-demand measurements (an HTTP request
/// must stay interactive; campaigns run offline).
const MAX_ROUNDS: u32 = 20;
const MAX_PROBES: usize = 200;
/// Cap on per-round retries (each retry multiplies the upfront charge).
const MAX_RETRIES: u32 = 5;
/// Initial credit grant for API users.
const INITIAL_CREDITS: u64 = 1_000_000;

/// File magics for the durability directory: persisted measurements and
/// the service ledger/id state. Both reuse the campaign journal's
/// framed + CRC'd binary wire format — no JSON on the recovery path.
const MEASUREMENT_MAGIC: &[u8; 8] = b"SHRSMEA1";
const STATE_MAGIC: &[u8; 8] = b"SHRSSVC1";

// The service's locks do not poison. The reactor catches a handler's
// panic and keeps serving, so later requests take over the guard of a
// lock whose holder panicked instead of failing with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

struct StoredMeasurement {
    target_region: usize,
    probes: usize,
    credits_spent: u64,
    credits_refunded: u64,
    fault_profile: Option<String>,
    retried_rounds: usize,
    store: ResultStore,
}

/// One measurement. Its samples never change after insert, so readers
/// share it without a lock, and what is derived from them is derived
/// once; a longer durable copy replaces the entry, derived parts and
/// all.
struct MeasurementEntry {
    data: StoredMeasurement,
    /// The stats, filled by the first `GET /stats` from one frame build.
    stats: OnceLock<MeasurementStatsDto>,
    /// The `GET /results` body, filled by the first such GET. At the
    /// service's caps (20 rounds of 200 probes) it holds at most 4,000
    /// rows, about 0.45 MB.
    results: OnceLock<Vec<u8>>,
}

impl MeasurementEntry {
    fn new(data: StoredMeasurement) -> Arc<Self> {
        Arc::new(Self {
            data,
            stats: OnceLock::new(),
            results: OnceLock::new(),
        })
    }
}

/// The Atlas-style API service over a platform.
pub struct AtlasService {
    platform: Platform,
    /// The registry lock is held only to look up / insert / remove
    /// `Arc` handles — never across campaign work or disk IO on the
    /// request path.
    measurements: RwLock<HashMap<u64, Arc<MeasurementEntry>>>,
    ledger: Mutex<CreditLedger>,
    next_id: AtomicU64,
    /// `CampaignFrame::build` calls made by the stats path; see
    /// [`AtlasService::frame_builds`].
    frame_builds: AtomicU64,
    seed: u64,
    durability: Option<PathBuf>,
    /// Serve `/api/v2/__debug/*` (sleep, panic). Off by default; the
    /// connection-level test battery switches it on to occupy or crash
    /// handlers on demand from outside the crate.
    debug_routes: bool,
    /// The distributed-campaign shard queue, when this service fronts a
    /// coordinator (the server closes work streams without one).
    work: Option<Arc<WorkQueue>>,
    /// The hosting server's connection counters, attached at spawn so
    /// `GET /api/v2/metrics` can export them next to service and work
    /// counters.
    server_metrics: std::sync::OnceLock<Arc<ServerMetrics>>,
}

impl AtlasService {
    /// Wraps a platform.
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            measurements: RwLock::new(HashMap::new()),
            ledger: Mutex::new(CreditLedger::new(INITIAL_CREDITS)),
            next_id: AtomicU64::new(1),
            frame_builds: AtomicU64::new(0),
            seed: 0xA71_A50A1,
            durability: None,
            debug_routes: false,
            work: None,
            server_metrics: std::sync::OnceLock::new(),
        }
    }

    /// Attaches a coordinator work queue: work streams on the hosting
    /// server dispatch shards from (and submit frames to) it.
    pub fn with_work_queue(mut self, queue: Arc<WorkQueue>) -> Self {
        self.work = Some(queue);
        self
    }

    /// The attached work queue, if any.
    pub fn work_queue(&self) -> Option<&Arc<WorkQueue>> {
        self.work.as_ref()
    }

    /// Called by the server at spawn so the metrics endpoint can see
    /// connection counters. First attachment wins (a service serves one
    /// server).
    pub fn attach_server_metrics(&self, metrics: Arc<ServerMetrics>) {
        let _ = self.server_metrics.set(metrics);
    }

    /// Enables the `/api/v2/__debug/*` routes: `GET
    /// /api/v2/__debug/sleep?ms=N` holds a handler for `N` ms (clamped
    /// to 5000), `GET /api/v2/__debug/panic` panics inside the
    /// handler, and `GET /api/v2/__debug/blob?bytes=N` answers `N`
    /// bytes (clamped to 32 MiB) of payload. Test instrumentation —
    /// never enable on a real deployment.
    pub fn with_debug_routes(mut self) -> Self {
        self.debug_routes = true;
        self
    }

    /// Wraps a platform with persistent measurement state: measurements
    /// and the credit ledger are written to `dir` as they are created,
    /// and `POST /api/v2/measurements/resume` (or
    /// [`AtlasService::resume_from_disk`]) reloads them after a restart.
    pub fn with_durability(platform: Platform, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut svc = Self::new(platform);
        svc.durability = Some(dir);
        Ok(svc)
    }

    /// The wrapped platform (read-only).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Remaining credits.
    pub fn credits(&self) -> u64 {
        lock(&self.ledger).balance()
    }

    /// How many times the stats path has built an analysis frame.
    /// Repeated `GET /stats` for a measurement must leave this flat —
    /// the entry keeps its stats; it only moves when a measurement is
    /// first summarised, including after a resume replaced it.
    pub fn frame_builds(&self) -> u64 {
        self.frame_builds.load(Ordering::Relaxed)
    }

    /// The entry for `id`, if any. The registry lock is released before
    /// returning; the `Arc` keeps the entry alive for the caller.
    fn entry(&self, id: u64) -> Option<Arc<MeasurementEntry>> {
        read(&self.measurements).get(&id).cloned()
    }

    /// Routes a request to a handler. Never panics: unknown routes get
    /// 404, wrong methods 405, bad bodies 400.
    pub fn handle(&self, req: &Request) -> Response {
        let segments = req.segments();
        match (req.method, segments.as_slice()) {
            (Method::Get, ["api", "v2", "probes"]) => self.list_probes(req),
            (Method::Get, ["api", "v2", "probes", id]) => self.get_probe(id),
            (Method::Get, ["api", "v2", "regions"]) => self.list_regions(),
            (Method::Get, ["api", "v2", "measurements"]) => self.list_measurements(),
            (Method::Post, ["api", "v2", "measurements"]) => self.create_measurement(req),
            (Method::Post, ["api", "v2", "measurements", "resume"]) => self.resume_measurements(),
            (Method::Post, ["api", "v2", "traceroutes"]) => self.run_traceroutes(req),
            (Method::Get, ["api", "v2", "measurements", id]) => self.get_measurement(id),
            (Method::Get, ["api", "v2", "measurements", id, "results"]) => self.get_results(id),
            (Method::Get, ["api", "v2", "measurements", id, "stats"]) => self.get_stats(id),
            (Method::Delete, ["api", "v2", "measurements", id]) => self.delete_measurement(id),
            (Method::Get, ["api", "v2", "credits"]) => {
                Response::json(&Counters(&[("balance", self.credits())]))
            }
            (Method::Get, ["api", "v2", "metrics"]) => self.get_metrics(),
            // Opt-in instrumentation for the server tests and the
            // connection-level battery: hold a handler busy, or crash it,
            // on demand.
            (Method::Get, ["api", "v2", "__debug", "sleep"]) if self.debug_routes => {
                let ms: u64 = req
                    .query
                    .get("ms")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(100);
                std::thread::sleep(std::time::Duration::from_millis(ms.min(5_000)));
                Response::json(&Counters(&[("slept_ms", ms.min(5_000))]))
            }
            (Method::Get, ["api", "v2", "__debug", "panic"]) if self.debug_routes => {
                panic!("injected debug-route panic")
            }
            // A response big enough to overrun any kernel socket
            // buffering — the write-deadline battery needs the server
            // to genuinely stall in `WritingResponse` against a slow
            // reader.
            (Method::Get, ["api", "v2", "__debug", "blob"]) if self.debug_routes => {
                let bytes: usize = req
                    .query
                    .get("bytes")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1 << 20);
                Response::octets(vec![b'x'; bytes.min(1 << 25)])
            }
            (_, ["api", "v2", ..]) => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such resource"),
        }
    }

    fn list_probes(&self, req: &Request) -> Response {
        let country = req.query.get("country");
        let tag = req.query.get("tag");
        let limit: usize = req
            .query
            .get("limit")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100);
        let offset: usize = req
            .query
            .get("offset")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let dtos: Vec<ProbeDto> = self
            .platform
            .probes()
            .iter()
            .filter(|p| country.is_none_or(|c| &p.country == c))
            .filter(|p| tag.is_none_or(|t| p.tags.iter().any(|pt| pt == t)))
            .skip(offset)
            .take(limit.min(1000))
            .map(ProbeDto::from)
            .collect();
        Response::json(&dtos)
    }

    fn get_probe(&self, id: &str) -> Response {
        let Ok(idx) = id.parse::<usize>() else {
            return Response::error(400, "probe id must be an integer");
        };
        match self.platform.probes().get(idx) {
            Some(p) => Response::json(&ProbeDto::from(p)),
            None => Response::error(404, "no such probe"),
        }
    }

    fn list_regions(&self) -> Response {
        let dtos: Vec<RegionDto> = self
            .platform
            .catalog()
            .regions()
            .iter()
            .enumerate()
            .map(|(i, r)| RegionDto::new(i, r))
            .collect();
        Response::json(&dtos)
    }

    /// `GET /api/v2/measurements`: every live measurement, id-ascending.
    fn list_measurements(&self) -> Response {
        let mut entries: Vec<(u64, Arc<MeasurementEntry>)> = read(&self.measurements)
            .iter()
            .map(|(&id, e)| (id, Arc::clone(e)))
            .collect();
        entries.sort_by_key(|(id, _)| *id);
        let dtos: Vec<MeasurementDto> = entries
            .iter()
            .map(|(id, e)| self.measurement_dto(*id, &e.data))
            .collect();
        Response::json(&dtos)
    }

    fn create_measurement(&self, req: &Request) -> Response {
        let spec: CreateMeasurementDto = match json::from_slice(&req.body) {
            Ok(s) => s,
            Err(e) => return Response::error(400, &format!("invalid body: {e}")),
        };
        self.create_from_spec(&spec)
    }

    /// The create path after body parsing: validate, charge, run the
    /// campaign (lock-free), store. Public so tests and the load
    /// harness can seed measurements without going through the JSON
    /// surface.
    pub fn create_from_spec(&self, spec: &CreateMeasurementDto) -> Response {
        if spec.target_region >= self.platform.catalog().regions().len() {
            return Response::error(400, "unknown target region");
        }
        if spec.packets == 0 || spec.packets > 16 {
            return Response::error(400, "packets must be 1..=16");
        }
        let rounds = spec.rounds.clamp(1, MAX_ROUNDS);
        let probe_limit = spec.probe_limit.clamp(1, MAX_PROBES);
        let faults = match spec.fault_profile.as_deref() {
            None => FaultConfig::none(),
            Some(name) => match FaultConfig::profile(name) {
                Some(cfg) => cfg,
                None => return Response::error(400, &format!("unknown fault profile '{name}'")),
            },
        };
        let retries = spec.retries.unwrap_or(0).min(MAX_RETRIES);
        let policy = if retries == 0 {
            RetryPolicy::none()
        } else {
            RetryPolicy {
                max_retries: retries,
                ..RetryPolicy::atlas_default()
            }
        };

        // Probe selection: unprivileged, optional country filter.
        let probes: Vec<_> = self
            .platform
            .unprivileged_probes()
            .filter(|p| spec.country.as_ref().is_none_or(|c| &p.country == c))
            .take(probe_limit)
            .collect();
        if probes.is_empty() {
            return Response::error(400, "no matching probes");
        }

        // Charge up front for the worst case (every attempt fired);
        // rounds that fail after the last retry are refunded below.
        let cost = CreditLedger::ping_cost(spec.packets)
            * probes.len() as u64
            * u64::from(rounds)
            * u64::from(retries + 1);
        if let Err(e) = lock(&self.ledger).debit(cost) {
            return Response::error(400, &e.to_string());
        }

        // Routes come from a table over the selected probes. The fault
        // plan is regenerated from the service seed, so equal requests
        // observe equal fault schedules; its router answers from that
        // table. The campaign below runs without any service lock held:
        // concurrent GETs proceed.
        let topo = self.platform.topology();
        let target = self.platform.dc_node(spec.target_region);
        let table = self
            .platform
            .route_table_over(probes.iter().map(|p| (p.id, target)));
        let router;
        let mut prober = if faults.enabled {
            let horizon = SimTime::from_hours(u64::from(rounds) + 1);
            let plan = FaultPlan::generate(topo, &faults, self.seed, horizon);
            router = FaultRouter::new(topo, table, plan);
            PingProber::with_faults(topo, &router)
        } else {
            PingProber::with_table(topo, &table)
        };
        let master = SimRng::new(self.seed);
        let cfg = PingConfig {
            packets: spec.packets,
            ..PingConfig::default()
        };
        let round_cost = CreditLedger::ping_cost(spec.packets);
        let mut store = ResultStore::with_capacity(probes.len() * rounds as usize);
        let mut retried_rounds = 0usize;
        let mut refund = 0u64;
        let region = spec.target_region as u16;
        let load = DiurnalLoad::residential();
        // Hourly rounds, every probe up; a pair that a cut disconnects
        // is skipped rather than stored as a lost row.
        for round in 0..rounds {
            let at = SimTime::from_hours(u64::from(round));
            for probe in &probes {
                let mut rng = master.fork_keyed(u64::from(probe.id.0), u64::from(round));
                let (from, access) = (self.platform.probe_node(probe.id), Some(probe.access));
                let measured = policy.measure(
                    at,
                    &mut rng,
                    |when, rng| prober.ping(from, target, access, load, when, &cfg, rng),
                    |o| o.received > 0,
                );
                retried_rounds += usize::from(measured.attempts > 1);
                refund += policy.charge(&measured, round_cost).1;
                if measured.outcome.is_some() {
                    store.push(RttSample::ping(
                        probe.id,
                        region,
                        at,
                        spec.packets,
                        &measured,
                    ));
                }
            }
        }

        let refunded = lock(&self.ledger).refund(refund);
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let stored = StoredMeasurement {
            target_region: spec.target_region,
            probes: probes.len(),
            credits_spent: cost,
            credits_refunded: refunded,
            fault_profile: spec.fault_profile.clone(),
            retried_rounds,
            store,
        };
        let dto = self.measurement_dto(id, &stored);
        if spec.durability {
            if let Err(e) = self.persist_measurement(id, &stored) {
                // The measurement is discarded, so the client must not
                // pay for it: return the net charge (upfront cost minus
                // what the failure policy already refunded).
                lock(&self.ledger).refund(cost.saturating_sub(refunded));
                return Response::error(500, &format!("measurement not persisted: {e}"));
            }
        }
        write(&self.measurements).insert(id, MeasurementEntry::new(stored));
        if let Err(e) = self.persist_state() {
            // The measurement is inserted and live, and its own WAL (if
            // requested) is already durable — a failed ledger snapshot
            // must not turn a successful create into an error response.
            // The snapshot is retried on the next create/flush.
            eprintln!("warning: service state snapshot not persisted: {e}");
        }
        Response::json_with_status(201, &dto)
    }

    // --- Durability: persistent measurement state -----------------------

    fn measurement_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("measurement-{id:08}.wal"))
    }

    /// Writes one measurement to the durability directory (no-op
    /// without one). Temp-file + rename, so a crash mid-write can never
    /// leave a half measurement behind.
    fn persist_measurement(&self, id: u64, m: &StoredMeasurement) -> std::io::Result<()> {
        let Some(dir) = &self.durability else {
            return Ok(());
        };
        let mut payload = Vec::with_capacity(64 + m.store.len() * 24);
        payload.push(1u8); // schema version
        payload.extend_from_slice(&id.to_le_bytes());
        payload.extend_from_slice(&(m.target_region as u64).to_le_bytes());
        payload.extend_from_slice(&(m.probes as u64).to_le_bytes());
        payload.extend_from_slice(&m.credits_spent.to_le_bytes());
        payload.extend_from_slice(&m.credits_refunded.to_le_bytes());
        payload.extend_from_slice(&(m.retried_rounds as u64).to_le_bytes());
        match &m.fault_profile {
            Some(name) => {
                payload.push(1);
                put_string(&mut payload, name);
            }
            None => payload.push(0),
        }
        put_samples_wire(&mut payload, &m.store);
        let mut bytes = MEASUREMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&frame(&payload));
        let path = Self::measurement_path(dir, id);
        let tmp = path.with_extension("wal.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)
    }

    /// Decodes one measurement file. `None` when it fails its checksum
    /// or decode, or names a region or probe the serving platform does
    /// not have: a directory written by a service over another platform
    /// must not put an out-of-range index in front of the handlers.
    fn load_measurement(&self, bytes: &[u8]) -> Option<(u64, StoredMeasurement)> {
        let body = bytes.strip_prefix(MEASUREMENT_MAGIC.as_slice())?;
        let (payload, _) = read_frame(body, 0).ok()??;
        let mut r = ByteReader::new(payload);
        if r.u8().ok()? != 1 {
            return None;
        }
        let id = r.u64().ok()?;
        let target_region = r.u64().ok()? as usize;
        let probes = r.u64().ok()? as usize;
        let credits_spent = r.u64().ok()?;
        let credits_refunded = r.u64().ok()?;
        let retried_rounds = r.u64().ok()? as usize;
        let fault_profile = if r.u8().ok()? != 0 {
            Some(r.string().ok()?)
        } else {
            None
        };
        let store = get_samples_wire(&mut r).ok()?;
        let n_regions = self.platform.catalog().regions().len();
        let n_probes = self.platform.probes().len();
        let in_range = target_region < n_regions
            && store.regions().iter().all(|&r| usize::from(r) < n_regions)
            && store.probes().iter().all(|p| p.index() < n_probes);
        in_range.then_some((
            id,
            StoredMeasurement {
                target_region,
                probes,
                credits_spent,
                credits_refunded,
                fault_profile,
                retried_rounds,
                store,
            },
        ))
    }

    /// Writes the ledger + id-counter snapshot (no-op without a
    /// durability directory).
    fn persist_state(&self) -> std::io::Result<()> {
        let Some(dir) = &self.durability else {
            return Ok(());
        };
        let (balance, spent, refunded) = {
            let ledger = lock(&self.ledger);
            (ledger.balance(), ledger.spent(), ledger.refunded())
        };
        let mut payload = Vec::with_capacity(40);
        payload.push(1u8);
        payload.extend_from_slice(&self.next_id.load(Ordering::SeqCst).to_le_bytes());
        payload.extend_from_slice(&balance.to_le_bytes());
        payload.extend_from_slice(&spent.to_le_bytes());
        payload.extend_from_slice(&refunded.to_le_bytes());
        let mut bytes = STATE_MAGIC.to_vec();
        bytes.extend_from_slice(&frame(&payload));
        let path = dir.join("service.state");
        let tmp = path.with_extension("state.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)
    }

    fn load_state(bytes: &[u8]) -> Option<(u64, CreditLedger)> {
        let body = bytes.strip_prefix(STATE_MAGIC.as_slice())?;
        let (payload, _) = read_frame(body, 0).ok()??;
        let mut r = ByteReader::new(payload);
        if r.u8().ok()? != 1 {
            return None;
        }
        let next_id = r.u64().ok()?;
        let ledger = CreditLedger::restore(r.u64().ok()?, r.u64().ok()?, r.u64().ok()?);
        Some((next_id, ledger))
    }

    /// Reloads persisted measurements and ledger state from the
    /// durability directory. A measurement already in memory is kept
    /// as-is unless the durable copy has strictly more samples (it
    /// gained rounds elsewhere) — then a fresh entry replaces it, so
    /// its stats are computed anew and can never go stale. Files that
    /// fail their checksum or decode, or that index past the serving
    /// platform, are skipped, not fatal. Returns `(recovered, skipped)`.
    pub fn resume_from_disk(&self) -> std::io::Result<(usize, usize)> {
        let Some(dir) = self.durability.clone() else {
            return Ok((0, 0));
        };
        let mut recovered = 0usize;
        let mut skipped = 0usize;
        let state_path = dir.join("service.state");
        if state_path.exists() {
            match Self::load_state(&std::fs::read(&state_path)?) {
                Some((next_id, ledger)) => {
                    self.next_id.fetch_max(next_id, Ordering::SeqCst);
                    *lock(&self.ledger) = ledger;
                }
                None => skipped += 1,
            }
        }
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("measurement-") && n.ends_with(".wal"))
            })
            .collect();
        entries.sort();
        for path in entries {
            match self.load_measurement(&std::fs::read(&path)?) {
                Some((id, m)) => {
                    self.next_id.fetch_max(id + 1, Ordering::SeqCst);
                    let mut registry = write(&self.measurements);
                    if registry
                        .get(&id)
                        .is_none_or(|e| m.store.len() > e.data.store.len())
                    {
                        registry.insert(id, MeasurementEntry::new(m));
                        recovered += 1;
                    }
                }
                None => skipped += 1,
            }
        }
        Ok((recovered, skipped))
    }

    fn resume_measurements(&self) -> Response {
        if self.durability.is_none() {
            return Response::error(400, "service has no durability directory");
        }
        match self.resume_from_disk() {
            Ok((recovered, skipped)) => Response::json(&ResumeReportDto {
                recovered,
                skipped,
                total: read(&self.measurements).len(),
                credits_balance: self.credits(),
            }),
            Err(e) => Response::error(500, &format!("resume failed: {e}")),
        }
    }

    /// Flushes all in-memory state to the durability directory (no-op
    /// without one). Called by the server's graceful shutdown; also
    /// safe to call at any time.
    pub fn flush(&self) -> std::io::Result<()> {
        if self.durability.is_none() {
            return Ok(());
        }
        let entries: Vec<(u64, Arc<MeasurementEntry>)> = read(&self.measurements)
            .iter()
            .map(|(&id, e)| (id, Arc::clone(e)))
            .collect();
        for (id, e) in entries {
            self.persist_measurement(id, &e.data)?;
        }
        self.persist_state()
    }

    fn run_traceroutes(&self, req: &Request) -> Response {
        let spec: CreateTracerouteDto = match json::from_slice(&req.body) {
            Ok(s) => s,
            Err(e) => return Response::error(400, &format!("invalid body: {e}")),
        };
        if spec.target_region >= self.platform.catalog().regions().len() {
            return Response::error(400, "unknown target region");
        }
        let probes: Vec<_> = self
            .platform
            .unprivileged_probes()
            .filter(|p| spec.country.as_ref().is_none_or(|c| &p.country == c))
            .take(spec.probe_limit.clamp(1, 50))
            .collect();
        if probes.is_empty() {
            return Response::error(400, "no matching probes");
        }
        let target = self.platform.dc_node(spec.target_region);
        let table = self
            .platform
            .route_table_over(probes.iter().map(|p| (p.id, target)));
        let mut prober = TracerouteProber::with_table(self.platform.topology(), &table);
        let master = SimRng::new(self.seed ^ 0x7ace);
        let mut out = Vec::with_capacity(probes.len());
        for probe in probes {
            let mut rng = master.fork_keyed(u64::from(probe.id.0), 0);
            let Some(trace) = prober.trace(
                self.platform.probe_node(probe.id),
                target,
                Some(probe.access),
                DiurnalLoad::residential(),
                SimTime::from_hours(1),
                &mut rng,
            ) else {
                continue;
            };
            out.push(TracerouteDto {
                probe_id: probe.id.0,
                reached: trace.reached,
                hops: trace
                    .hops
                    .iter()
                    .map(|h| HopDto {
                        ttl: h.ttl,
                        kind: format!("{:?}", h.kind),
                        rtt_ms: h.rtt_ms,
                    })
                    .collect(),
            });
        }
        Response::json(&out)
    }

    fn measurement_dto(&self, id: u64, m: &StoredMeasurement) -> MeasurementDto {
        MeasurementDto {
            id,
            target_region: m.target_region,
            target_label: self.platform.region(m.target_region).label(),
            probes: m.probes,
            results: m.store.len(),
            credits_spent: m.credits_spent,
            credits_refunded: m.credits_refunded,
            fault_profile: m.fault_profile.clone(),
        }
    }

    fn get_measurement(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "measurement id must be an integer");
        };
        match self.entry(id) {
            Some(e) => Response::json(&self.measurement_dto(id, &e.data)),
            None => Response::error(404, "no such measurement"),
        }
    }

    fn delete_measurement(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "measurement id must be an integer");
        };
        match write(&self.measurements).remove(&id) {
            Some(_) => Response::status(204),
            None => Response::error(404, "no such measurement"),
        }
    }

    /// Aggregate statistics over one measurement's samples, computed
    /// through the analysis frame (privileged-probe mask, per-probe and
    /// per-country minima) instead of ad-hoc loops — the same indexed
    /// path the figure pipeline uses. Computed once per entry; a
    /// concurrent first GET waits for that one computation.
    fn get_stats(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "measurement id must be an integer");
        };
        let Some(entry) = self.entry(id) else {
            return Response::error(404, "no such measurement");
        };
        let stats = entry
            .stats
            .get_or_init(|| self.compute_stats(id, &entry.data));
        Response::json(stats)
    }

    /// Computes stats through one frame build over the samples.
    fn compute_stats(&self, id: u64, m: &StoredMeasurement) -> MeasurementStatsDto {
        self.frame_builds.fetch_add(1, Ordering::Relaxed);
        let frame = CampaignFrame::build(&self.platform, &m.store);
        let rate = m.store.response_rate();
        let fastest_probe = frame
            .probe_minima()
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let fastest_country = frame
            .country_minima()
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(b.0)));
        MeasurementStatsDto {
            id,
            samples: m.store.len(),
            responded: m.store.responded_len(),
            response_rate: rate.is_finite().then_some(rate),
            probes_with_data: frame.probe_minima().count(),
            countries_measured: frame.countries_measured(),
            fastest_probe_id: fastest_probe.map(|(p, _)| p.0),
            fastest_probe_min_ms: fastest_probe.map(|(_, v)| v),
            fastest_country: fastest_country.map(|(c, _)| c.to_string()),
            fastest_country_min_ms: fastest_country.map(|(_, v)| v),
            fault_profile: m.fault_profile.clone(),
            retried_rounds: m.retried_rounds,
            credits_refunded: m.credits_refunded,
        }
    }

    // --- Metrics ---------------------------------------------------------

    /// `GET /api/v2/metrics`: every counter the deployment watches, in
    /// one JSON object with a fixed key order, pinned byte for byte by
    /// a unit test. A slot with nothing attached is `null`.
    fn get_metrics(&self) -> Response {
        let server = self.server_metrics.get().map(|m| {
            let s = m.snapshot();
            [
                ("connections_accepted", s.connections_accepted),
                ("connections_open", s.connections_open),
                ("requests", s.requests),
                ("responses_503", s.responses_503),
                ("responses_400", s.responses_400),
                ("handler_panics", s.handler_panics),
                ("idle_closed", s.idle_closed),
                ("write_deadline_closed", s.write_deadline_closed),
                ("threads_live", s.threads_live),
            ]
        });
        let service = [
            ("frame_builds", self.frame_builds()),
            ("credits", self.credits()),
        ];
        let work = self.work.as_ref().map(|q| {
            let m = q.metrics();
            [
                ("workers_live", m.workers_live),
                ("workers_registered", m.workers_registered),
                ("heartbeats_missed", m.heartbeats_missed),
                ("shards_freed_on_close", m.shards_freed_on_close),
                ("shards_reassigned", m.shards_reassigned),
                ("rounds_retried", m.rounds_retried),
                ("duplicate_frames_dropped", m.duplicate_frames_dropped),
                ("frames_accepted", m.frames_accepted),
                ("frames_rejected", m.frames_rejected),
                ("lost_rounds", m.lost_rounds),
                ("streams_opened", m.streams_opened),
                ("stream_reconnects", m.stream_reconnects),
                ("frames_in_flight", m.frames_in_flight),
                ("frames_in_flight_peak", m.frames_in_flight_peak),
                ("replies_pushed", m.replies_pushed),
                ("verdicts_le_1ms", m.verdicts_le_1ms),
                ("verdicts_le_10ms", m.verdicts_le_10ms),
                ("verdicts_le_100ms", m.verdicts_le_100ms),
                ("verdicts_gt_100ms", m.verdicts_gt_100ms),
            ]
        });
        let mut body = Vec::with_capacity(1024);
        ObjectWriter::new(&mut body)
            .field("server", &server.as_ref().map(|c| Counters(c)))
            .field("service", &Counters(&service))
            .field("work", &work.as_ref().map(|c| Counters(c)))
            .finish();
        Response::json_bytes(200, body)
    }

    /// `GET /api/v2/measurements/{id}/results`: every row. The body is
    /// encoded once per entry and copied out on each GET; a concurrent
    /// first GET waits for that one encoding.
    fn get_results(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "measurement id must be an integer");
        };
        let Some(entry) = self.entry(id) else {
            return Response::error(404, "no such measurement");
        };
        let body = entry.results.get_or_init(|| {
            let store = &entry.data.store;
            let mut body = Vec::with_capacity(2 + store.len() * 112);
            json::write_array(&mut body, store.iter().map(|s| ResultDto::from(&s)));
            body
        });
        Response::json_bytes(200, body.clone())
    }
}

/// Named counters as one JSON object, in order: a metrics group, or the
/// credit balance.
struct Counters<'a>(&'a [(&'a str, u64)]);

impl ToJson for Counters<'_> {
    fn write_json(&self, out: &mut Vec<u8>) {
        let mut object = ObjectWriter::new(out);
        for (key, value) in self.0 {
            object = object.field(key, value);
        }
        object.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Headers, Method, Request};
    use shears_atlas::PlatformConfig;
    use std::collections::BTreeMap;

    fn service() -> AtlasService {
        AtlasService::new(Platform::build(&PlatformConfig::quick(2)))
    }

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: Method::Get,
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Headers::default(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: Method::Post,
            path: path.to_string(),
            query: BTreeMap::new(),
            headers: Headers::default(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// Seeds a measurement through [`AtlasService::create_from_spec`],
    /// bypassing the JSON surface.
    fn seed(svc: &AtlasService, region: usize, rounds: u32, probe_limit: usize) {
        let resp = svc.create_from_spec(&CreateMeasurementDto {
            target_region: region,
            packets: 3,
            rounds,
            probe_limit,
            country: None,
            fault_profile: None,
            retries: None,
            durability: true,
        });
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
    }

    #[test]
    fn lists_probes_with_filters() {
        let svc = service();
        let resp = svc.handle(&get("/api/v2/probes", &[("country", "DE"), ("limit", "5")]));
        assert_eq!(resp.status, 200);
        let dtos: Vec<ProbeDto> = json::from_slice(&resp.body).unwrap();
        assert!(!dtos.is_empty() && dtos.len() <= 5);
        assert!(dtos.iter().all(|p| p.country_code == "DE"));
    }

    #[test]
    fn probe_lookup_errors() {
        let svc = service();
        assert_eq!(svc.handle(&get("/api/v2/probes/abc", &[])).status, 400);
        assert_eq!(svc.handle(&get("/api/v2/probes/999999", &[])).status, 404);
        assert_eq!(svc.handle(&get("/api/v2/probes/0", &[])).status, 200);
    }

    #[test]
    fn regions_endpoint_serves_catalogue() {
        let svc = service();
        let resp = svc.handle(&get("/api/v2/regions", &[]));
        let dtos: Vec<RegionDto> = json::from_slice(&resp.body).unwrap();
        assert_eq!(dtos.len(), 101);
    }

    #[test]
    fn measurement_lifecycle() {
        let svc = service();
        let create = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 9, "rounds": 2, "probe_limit": 10}"#,
        ));
        assert_eq!(
            create.status,
            201,
            "{:?}",
            String::from_utf8_lossy(&create.body)
        );
        let m: MeasurementDto = json::from_slice(&create.body).unwrap();
        assert_eq!(m.target_region, 9);
        assert!(m.results > 0);
        assert!(m.credits_spent > 0);

        let fetch = svc.handle(&get(&format!("/api/v2/measurements/{}", m.id), &[]));
        assert_eq!(fetch.status, 200);

        let results = svc.handle(&get(&format!("/api/v2/measurements/{}/results", m.id), &[]));
        assert_eq!(results.status, 200);
        let rows: Vec<ResultDto> = json::from_slice(&results.body).unwrap();
        assert_eq!(rows.len(), m.results);
        assert!(rows.iter().any(|r| r.min_ms.is_some()));
    }

    #[test]
    fn measurements_list_is_id_sorted() {
        let svc = service();
        for region in [3usize, 1, 7] {
            seed(&svc, region, 1, 4);
        }
        let resp = svc.handle(&get("/api/v2/measurements", &[]));
        assert_eq!(resp.status, 200);
        let dtos: Vec<MeasurementDto> = json::from_slice(&resp.body).unwrap();
        let ids: Vec<u64> = dtos.iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(read(&svc.measurements).len(), 3);
    }

    #[test]
    fn create_measurement_validation() {
        let svc = service();
        assert_eq!(
            svc.handle(&post("/api/v2/measurements", "not json")).status,
            400
        );
        assert_eq!(
            svc.handle(&post("/api/v2/measurements", r#"{"target_region": 9999}"#))
                .status,
            400
        );
        assert_eq!(
            svc.handle(&post(
                "/api/v2/measurements",
                r#"{"target_region": 1, "packets": 0}"#
            ))
            .status,
            400
        );
        assert_eq!(
            svc.handle(&post(
                "/api/v2/measurements",
                r#"{"target_region": 1, "country": "XX"}"#
            ))
            .status,
            400,
            "no probes in a non-country"
        );
    }

    #[test]
    fn traceroute_endpoint_returns_hops() {
        let svc = service();
        let resp = svc.handle(&post(
            "/api/v2/traceroutes",
            r#"{"target_region": 9, "probe_limit": 3, "country": "DE"}"#,
        ));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let traces: Vec<crate::dto::TracerouteDto> = json::from_slice(&resp.body).unwrap();
        assert!(!traces.is_empty());
        for t in &traces {
            assert!(t.reached);
            assert!(t.hops.len() >= 3, "{} hops", t.hops.len());
            assert_eq!(t.hops[0].kind, "AccessRouter");
            assert!(t.hops.last().unwrap().kind == "Datacenter");
        }
        // Validation paths.
        assert_eq!(
            svc.handle(&post("/api/v2/traceroutes", r#"{"target_region": 9999}"#))
                .status,
            400
        );
        assert_eq!(svc.handle(&post("/api/v2/traceroutes", "junk")).status, 400);
    }

    #[test]
    fn stats_endpoint_summarises_a_measurement() {
        let svc = service();
        let create = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 9, "rounds": 3, "probe_limit": 20}"#,
        ));
        assert_eq!(create.status, 201);
        let m: MeasurementDto = json::from_slice(&create.body).unwrap();

        let resp = svc.handle(&get(&format!("/api/v2/measurements/{}/stats", m.id), &[]));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let stats: MeasurementStatsDto = json::from_slice(&resp.body).unwrap();
        assert_eq!(stats.id, m.id);
        assert_eq!(stats.samples, m.results);
        assert!(stats.responded <= stats.samples);
        let rate = stats.response_rate.expect("non-empty measurement");
        assert!((0.0..=1.0).contains(&rate));
        assert!(stats.probes_with_data > 0);
        assert!(stats.countries_measured > 0);
        // The fastest probe/country pair is internally consistent.
        let probe_min = stats.fastest_probe_min_ms.unwrap();
        let country_min = stats.fastest_country_min_ms.unwrap();
        assert!(probe_min > 0.0);
        assert_eq!(country_min, probe_min, "best country is the best probe's");
        assert!(stats.fastest_probe_id.is_some());
        assert!(stats.fastest_country.is_some());

        // Error paths.
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/abc/stats", &[]))
                .status,
            400
        );
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/999/stats", &[]))
                .status,
            404
        );
    }

    #[test]
    fn repeated_stats_gets_build_the_frame_once() {
        let svc = service();
        seed(&svc, 9, 2, 10);
        seed(&svc, 3, 1, 5);
        assert_eq!(svc.frame_builds(), 0, "creation must not build frames");

        let first = svc.handle(&get("/api/v2/measurements/1/stats", &[]));
        assert_eq!(first.status, 200);
        assert_eq!(svc.frame_builds(), 1);
        for _ in 0..5 {
            let again = svc.handle(&get("/api/v2/measurements/1/stats", &[]));
            assert_eq!(again.status, 200);
            assert_eq!(again.body, first.body, "cached stats must be identical");
        }
        assert_eq!(
            svc.frame_builds(),
            1,
            "unchanged measurement: zero rebuilds"
        );

        // A different measurement has its own cache entry.
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/2/stats", &[])).status,
            200
        );
        assert_eq!(svc.frame_builds(), 2);
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/2/stats", &[])).status,
            200
        );
        assert_eq!(svc.frame_builds(), 2);
    }

    #[test]
    fn repeated_results_gets_encode_once() {
        let svc = service();
        seed(&svc, 9, 2, 10);
        seed(&svc, 3, 1, 5);
        let cached = |id: u64| svc.entry(id).unwrap().results.get().cloned();
        assert_eq!(cached(1), None, "creation must not encode results");

        let first = svc.handle(&get("/api/v2/measurements/1/results", &[]));
        assert_eq!(first.status, 200);
        assert_eq!(cached(1).as_ref(), Some(&first.body));
        for _ in 0..5 {
            let again = svc.handle(&get("/api/v2/measurements/1/results", &[]));
            assert_eq!(again.status, 200);
            assert_eq!(again.body, first.body, "cached results must be identical");
        }

        // A different measurement has its own cache entry.
        assert_eq!(cached(2), None);
        let other = svc.handle(&get("/api/v2/measurements/2/results", &[]));
        assert_eq!(other.status, 200);
        assert_eq!(cached(2).as_ref(), Some(&other.body));
        assert_ne!(other.body, first.body);
        assert_eq!(cached(1).as_ref(), Some(&first.body));

        // Concurrent first readers of a fresh measurement share one body.
        seed(&svc, 5, 1, 8);
        assert_eq!(cached(3), None);
        let start = std::sync::Barrier::new(8);
        let bodies: Vec<Vec<u8>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let r = svc.handle(&get("/api/v2/measurements/3/results", &[]));
                        assert_eq!(r.status, 200);
                        r.body
                    })
                })
                .collect();
            readers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stored = cached(3).unwrap();
        assert!(bodies.iter().all(|b| *b == stored), "one body for all");
    }

    #[test]
    fn metrics_endpoint_emits_exact_json_bytes() {
        use crate::work::{WorkQueue, WorkSpec};
        use std::time::Instant;

        // Without a server or work queue attached, both slots are null.
        let svc = service();
        let resp = svc.handle(&get("/api/v2/metrics", &[]));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers["content-type"], "application/json");
        assert_eq!(
            resp.body,
            b"{\"server\":null,\"service\":{\"frame_builds\":0,\
               \"credits\":1000000},\"work\":null}"
                .to_vec()
        );

        // With both attached, every counter appears in fixed order.
        let svc = service().with_work_queue(Arc::new(WorkQueue::new(WorkSpec::quick(2, 2))));
        svc.attach_server_metrics(Arc::new(ServerMetrics::default()));
        let q = Arc::clone(svc.work_queue().unwrap());
        let t = Instant::now();
        let a = q.register(t);
        let _ = q.register(t);
        q.poll(a, t);
        q.note_stream(false);
        q.note_frames_inflight(3);
        q.release_frames_inflight(3);
        q.note_verdict_latency(std::time::Duration::from_micros(250));
        let resp = svc.handle(&get("/api/v2/metrics", &[]));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(
            body,
            "{\"server\":{\"connections_accepted\":0,\"connections_open\":0,\
             \"requests\":0,\"responses_503\":0,\"responses_400\":0,\
             \"handler_panics\":0,\"idle_closed\":0,\"write_deadline_closed\":0,\
             \"threads_live\":0},\"service\":{\"frame_builds\":0,\
             \"credits\":1000000},\"work\":{\
             \"workers_live\":2,\"workers_registered\":2,\"heartbeats_missed\":0,\
             \"shards_freed_on_close\":0,\"shards_reassigned\":0,\"rounds_retried\":0,\
             \"duplicate_frames_dropped\":0,\"frames_accepted\":0,\
             \"frames_rejected\":0,\"lost_rounds\":0,\"streams_opened\":1,\
             \"stream_reconnects\":0,\"frames_in_flight\":0,\
             \"frames_in_flight_peak\":3,\"replies_pushed\":0,\
             \"verdicts_le_1ms\":1,\"verdicts_le_10ms\":0,\
             \"verdicts_le_100ms\":0,\"verdicts_gt_100ms\":0}}"
        );
    }

    #[test]
    fn credits_are_debited() {
        let svc = service();
        let before = svc.credits();
        svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 0, "probe_limit": 5}"#,
        ));
        let after = svc.credits();
        assert_eq!(before - after, 5 * 3);
    }

    #[test]
    fn measurements_can_be_deleted() {
        let svc = service();
        let create = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 2, "probe_limit": 4}"#,
        ));
        let m: MeasurementDto = json::from_slice(&create.body).unwrap();
        let del = Request {
            method: Method::Delete,
            path: format!("/api/v2/measurements/{}", m.id),
            query: BTreeMap::new(),
            headers: Headers::default(),
            body: Vec::new(),
        };
        assert_eq!(svc.handle(&del).status, 204);
        // Gone: results now 404, double delete 404.
        assert_eq!(
            svc.handle(&get(&format!("/api/v2/measurements/{}/results", m.id), &[]))
                .status,
            404
        );
        assert_eq!(svc.handle(&del).status, 404);
    }

    #[test]
    fn unknown_fault_profile_is_rejected() {
        let svc = service();
        let resp = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 9, "fault_profile": "meteor-strike"}"#,
        ));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("meteor-strike"));
    }

    #[test]
    fn faulty_measurements_expose_degradation_stats() {
        let svc = service();
        let create = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 9, "rounds": 4, "probe_limit": 20,
                "fault_profile": "chaos", "retries": 2}"#,
        ));
        assert_eq!(
            create.status,
            201,
            "{}",
            String::from_utf8_lossy(&create.body)
        );
        let m: MeasurementDto = json::from_slice(&create.body).unwrap();
        assert_eq!(m.fault_profile.as_deref(), Some("chaos"));

        let resp = svc.handle(&get(&format!("/api/v2/measurements/{}/stats", m.id), &[]));
        assert_eq!(resp.status, 200);
        let stats: MeasurementStatsDto = json::from_slice(&resp.body).unwrap();
        assert_eq!(stats.fault_profile.as_deref(), Some("chaos"));
        // A refund implies at least one round exhausted its retries.
        if stats.credits_refunded > 0 {
            assert!(stats.retried_rounds > 0);
        }
        // Refunds never exceed what the measurement was charged.
        assert!(m.credits_refunded <= m.credits_spent);
    }

    #[test]
    fn fault_free_requests_are_unchanged_by_the_fault_machinery() {
        // The same request with and without the recovery/fault fields
        // spelled out as their defaults returns identical samples.
        let svc = service();
        let a = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 9, "rounds": 2, "probe_limit": 10}"#,
        ));
        let b = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 9, "rounds": 2, "probe_limit": 10,
                "fault_profile": null, "retries": 0}"#,
        ));
        let ma: MeasurementDto = json::from_slice(&a.body).unwrap();
        let mb: MeasurementDto = json::from_slice(&b.body).unwrap();
        assert_eq!(ma.results, mb.results);
        assert_eq!(ma.credits_spent, mb.credits_spent);
        assert_eq!(ma.credits_refunded, 0);
        let ra = svc.handle(&get(
            &format!("/api/v2/measurements/{}/results", ma.id),
            &[],
        ));
        let rb = svc.handle(&get(
            &format!("/api/v2/measurements/{}/results", mb.id),
            &[],
        ));
        assert_eq!(ra.body, rb.body, "identical requests, identical rows");
    }

    #[test]
    fn retries_multiply_the_upfront_charge_and_refund_failures() {
        let svc = service();
        let before = svc.credits();
        let create = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 0, "probe_limit": 5, "retries": 1,
                "fault_profile": "blackout"}"#,
        ));
        assert_eq!(create.status, 201);
        let m: MeasurementDto = json::from_slice(&create.body).unwrap();
        // 5 probes × 1 round × (1+1 attempts) × 3 credits charged up front.
        assert_eq!(m.credits_spent, 5 * 2 * 3);
        assert_eq!(before - svc.credits(), m.credits_spent - m.credits_refunded);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "shears-api-durability-{}-{tag}-{n}",
            std::process::id()
        ))
    }

    #[test]
    fn durable_measurements_survive_a_service_restart() {
        let dir = temp_dir("restart");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        let create = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 9, "rounds": 2, "probe_limit": 10}"#,
        ));
        assert_eq!(
            create.status,
            201,
            "{}",
            String::from_utf8_lossy(&create.body)
        );
        let m: MeasurementDto = json::from_slice(&create.body).unwrap();
        let results_before = svc
            .handle(&get(&format!("/api/v2/measurements/{}/results", m.id), &[]))
            .body;
        let balance_before = svc.credits();
        drop(svc); // "crash"

        // A fresh service over the same directory knows nothing…
        let svc2 = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        assert_eq!(
            svc2.handle(&get(&format!("/api/v2/measurements/{}", m.id), &[]))
                .status,
            404
        );
        // …until it resumes from disk.
        let resume = svc2.handle(&post("/api/v2/measurements/resume", ""));
        assert_eq!(
            resume.status,
            200,
            "{}",
            String::from_utf8_lossy(&resume.body)
        );
        let report: ResumeReportDto = json::from_slice(&resume.body).unwrap();
        assert_eq!(report.recovered, 1);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.total, 1);
        assert_eq!(report.credits_balance, balance_before);
        // Recovered rows are byte-identical, stats still compute, and
        // new measurements do not collide with recovered ids.
        let results_after = svc2
            .handle(&get(&format!("/api/v2/measurements/{}/results", m.id), &[]))
            .body;
        assert_eq!(results_before, results_after);
        assert_eq!(
            svc2.handle(&get(&format!("/api/v2/measurements/{}/stats", m.id), &[]))
                .status,
            200
        );
        let again = svc2.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 3, "probe_limit": 4}"#,
        ));
        let m2: MeasurementDto = json::from_slice(&again.body).unwrap();
        assert!(
            m2.id > m.id,
            "recovered id counter must not reissue {}",
            m.id
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Clones an entry's measurement with its store extended by
    /// `extra_rounds` copies of the first sample at fresh hours —
    /// "another process appended rounds and flushed".
    fn extended_copy(svc: &AtlasService, id: u64, extra_rounds: u64) -> StoredMeasurement {
        let entry = svc.entry(id).unwrap();
        let data = &entry.data;
        let mut store = data.store.clone();
        let base_hour = 99 + extra_rounds * 10;
        for k in 0..extra_rounds {
            let mut extra = store.get(0);
            extra.at = shears_netsim::SimTime::from_hours(base_hour + k);
            store.push(extra);
        }
        StoredMeasurement {
            target_region: data.target_region,
            probes: data.probes,
            credits_spent: data.credits_spent,
            credits_refunded: data.credits_refunded,
            fault_profile: data.fault_profile.clone(),
            retried_rounds: data.retried_rounds,
            store,
        }
    }

    #[test]
    fn stats_cache_invalidates_when_resume_brings_more_samples() {
        // A measurement whose durable copy gained rounds must never
        // serve stale cached counts, whether the copy extends the rows
        // in memory or diverges from them.
        let dir = temp_dir("stale");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        seed(&svc, 9, 2, 10);

        // Warm the caches.
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/1/stats", &[])).status,
            200
        );
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/1/stats", &[])).status,
            200
        );
        assert_eq!(svc.frame_builds(), 1);
        let samples_before = svc.entry(1).unwrap().data.store.len();
        assert!(samples_before > 0);
        let results = || {
            let r = svc.handle(&get("/api/v2/measurements/1/results", &[]));
            assert_eq!(r.status, 200);
            r.body
        };
        let rows_before: Vec<ResultDto> = json::from_slice(&results()).unwrap();
        assert_eq!(rows_before.len(), samples_before);

        // Simulate another process appending a round and flushing (the
        // copy extends the rows in memory), then one rewriting history
        // and appending another (the copy diverges from its first row).
        let extended = extended_copy(&svc, 1, 1);
        let mut divergent = extended_copy(&svc, 1, 2);
        let mut rewritten = ResultStore::with_capacity(divergent.store.len());
        for (i, mut s) in divergent.store.iter().enumerate() {
            if i == 0 {
                s.at = shears_netsim::SimTime::from_hours(77);
            }
            rewritten.push(s);
        }
        divergent.store = rewritten;
        for (builds, copy) in [(2, extended), (3, divergent)] {
            let samples = copy.store.len();
            svc.persist_measurement(1, &copy).unwrap();
            let (recovered, skipped) = svc.resume_from_disk().unwrap();
            assert_eq!((recovered, skipped), (1, 0), "longer durable copy wins");
            assert_eq!(svc.entry(1).unwrap().data.store.len(), samples);

            // The next stats GET builds a frame over the new samples;
            // the one after is served from the entry.
            let body = svc.handle(&get("/api/v2/measurements/1/stats", &[])).body;
            assert_eq!(svc.frame_builds(), builds, "one build per new copy");
            assert_eq!(
                svc.handle(&get("/api/v2/measurements/1/stats", &[])).body,
                body
            );
            assert_eq!(svc.frame_builds(), builds, "a repeat GET builds nothing");
            // The served counts match the recovered store, not the
            // cached pre-resume ones.
            let stats: MeasurementStatsDto = json::from_slice(&body).unwrap();
            assert_eq!(stats.samples, samples);
            // So do the served rows, and a repeat GET serves them again.
            let rows_body = results();
            let rows: Vec<ResultDto> = json::from_slice(&rows_body).unwrap();
            assert_eq!(rows.len(), samples, "results follow the new copy");
            assert_eq!(results(), rows_body);
        }
        assert_eq!(svc.entry(1).unwrap().data.store.len(), samples_before + 2);
        let rows_body = results();

        // Re-resume with identical disk state: idempotent, no resync.
        let (recovered, _) = svc.resume_from_disk().unwrap();
        assert_eq!(recovered, 0, "equal-length durable copy is a no-op");
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/1/stats", &[])).status,
            200
        );
        assert_eq!(svc.frame_builds(), 3);
        assert_eq!(
            svc.entry(1).unwrap().results.get(),
            Some(&rows_body),
            "an equal-length resume keeps the cached body"
        );
        assert_eq!(results(), rows_body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_then_resume_rebuilds_a_fresh_entry() {
        // Deleting an entry drops its cache with it; a resume that
        // reloads the durable copy starts from a cold cache.
        let dir = temp_dir("del-resume");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        seed(&svc, 5, 1, 6);
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/1/stats", &[])).status,
            200
        );
        assert_eq!(svc.frame_builds(), 1);

        let del = Request {
            method: Method::Delete,
            path: "/api/v2/measurements/1".to_string(),
            query: BTreeMap::new(),
            headers: Headers::default(),
            body: Vec::new(),
        };
        assert_eq!(svc.handle(&del).status, 204);
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/1/stats", &[])).status,
            404
        );

        let (recovered, _) = svc.resume_from_disk().unwrap();
        assert_eq!(recovered, 1, "durable copy restores the deleted entry");
        assert_eq!(
            svc.handle(&get("/api/v2/measurements/1/stats", &[])).status,
            200
        );
        assert_eq!(svc.frame_builds(), 2, "fresh entry, fresh cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_corrupt_files_and_respects_opt_out() {
        let dir = temp_dir("corrupt");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        // Opted-out measurements leave no file behind.
        let create = svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 9, "probe_limit": 5, "durability": false}"#,
        ));
        assert_eq!(create.status, 201);
        let files = |dir: &std::path::Path| {
            std::fs::read_dir(dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with("measurement-"))
                })
                .count()
        };
        assert_eq!(files(&dir), 0, "durability:false must not persist");
        // A corrupt measurement file is skipped, never fatal or panicky.
        std::fs::write(dir.join("measurement-00000099.wal"), b"SHRSMEA1garbage").unwrap();
        let resume = svc.handle(&post("/api/v2/measurements/resume", ""));
        assert_eq!(resume.status, 200);
        let report: ResumeReportDto = json::from_slice(&resume.body).unwrap();
        assert_eq!(report.recovered, 0);
        assert_eq!(report.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_measurements_outside_the_serving_platform() {
        // A directory written by a service over the 2020 catalogue (101
        // regions), resumed by one over the 2010 catalogue (10 regions):
        // the measurement towards region 60 must be skipped, or every
        // listing would index past the catalogue.
        let dir = temp_dir("foreign");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        seed(&svc, 60, 1, 4);
        drop(svc);

        let older = PlatformConfig {
            catalog_year: Some(2010),
            ..PlatformConfig::quick(2)
        };
        let svc = AtlasService::with_durability(Platform::build(&older), &dir).unwrap();
        assert_eq!(svc.platform().catalog().regions().len(), 10);
        assert_eq!(svc.resume_from_disk().unwrap(), (0, 1));
        let listing = svc.handle(&get("/api/v2/measurements", &[]));
        assert_eq!(listing.status, 200);
        assert_eq!(listing.body, b"[]");
        assert_eq!(svc.handle(&get("/api/v2/measurements/1", &[])).status, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_durability_is_a_client_error() {
        let svc = service();
        let resp = svc.handle(&post("/api/v2/measurements/resume", ""));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn flush_writes_every_measurement() {
        let dir = temp_dir("flush");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        // Create one non-durable measurement, then flush: the graceful
        // shutdown path persists even opted-out state.
        svc.handle(&post(
            "/api/v2/measurements",
            r#"{"target_region": 1, "probe_limit": 3, "durability": false}"#,
        ));
        svc.flush().unwrap();
        let svc2 = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        let (recovered, skipped) = svc2.resume_from_disk().unwrap();
        assert_eq!((recovered, skipped), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistence_codec_round_trips_without_json() {
        // The durability path is binary end to end; this pins the codec
        // itself (including INFINITY loss markers) independently of the
        // HTTP/JSON surface.
        let dir = temp_dir("codec");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        let lost = RttSample {
            probe: shears_atlas::ProbeId(3),
            region: 9,
            at: shears_netsim::SimTime::from_hours(6),
            min_ms: f32::INFINITY,
            avg_ms: f32::INFINITY,
            sent: 3,
            received: 0,
        };
        let fine = RttSample {
            probe: shears_atlas::ProbeId(4),
            region: 9,
            at: shears_netsim::SimTime::from_hours(9),
            min_ms: 12.25,
            avg_ms: 14.5,
            sent: 3,
            received: 3,
        };
        let mut store = ResultStore::with_capacity(2);
        store.push(lost);
        store.push(fine);
        let m = StoredMeasurement {
            target_region: 9,
            probes: 2,
            credits_spent: 42,
            credits_refunded: 6,
            fault_profile: Some("chaos".to_string()),
            retried_rounds: 1,
            store,
        };
        svc.persist_measurement(77, &m).unwrap();
        svc.next_id.store(78, Ordering::SeqCst);
        lock(&svc.ledger).debit(42).unwrap();
        svc.persist_state().unwrap();
        drop(svc);

        let svc2 = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        let (recovered, skipped) = svc2.resume_from_disk().unwrap();
        assert_eq!((recovered, skipped), (1, 0));
        assert_eq!(svc2.next_id.load(Ordering::SeqCst), 78);
        assert_eq!(lock(&svc2.ledger).spent(), 42);
        let entry = svc2.entry(77).unwrap();
        let got = &entry.data;
        assert_eq!(got.target_region, 9);
        assert_eq!(got.probes, 2);
        assert_eq!(got.credits_spent, 42);
        assert_eq!(got.credits_refunded, 6);
        assert_eq!(got.fault_profile.as_deref(), Some("chaos"));
        assert_eq!(got.retried_rounds, 1);
        assert_eq!(got.store, m.store);
        assert!(
            got.store.get(0).min_ms.is_infinite(),
            "loss marker survives"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_measurement_persistence_refunds_the_charge() {
        // If the measurement WAL cannot be written the client gets 500
        // and nothing was created — so the upfront debit must be
        // returned, not silently kept.
        let dir = temp_dir("persist-fail");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        let before = svc.credits();
        // Make every write under the durability directory fail.
        std::fs::remove_dir_all(&dir).unwrap();
        let resp = svc.create_from_spec(&CreateMeasurementDto {
            target_region: 9,
            packets: 3,
            rounds: 1,
            probe_limit: 5,
            country: None,
            fault_profile: None,
            retries: None,
            durability: true,
        });
        assert_eq!(resp.status, 500, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(
            svc.credits(),
            before,
            "failed create must not keep the charge"
        );
        assert!(
            read(&svc.measurements).is_empty(),
            "no half-created measurement"
        );
    }

    #[test]
    fn failed_state_snapshot_does_not_fail_a_live_measurement() {
        // The ledger/id snapshot failing after the measurement is
        // inserted must not turn a successful create into a 500: the
        // client was charged and the measurement serves.
        let dir = temp_dir("state-fail");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        let before = svc.credits();
        std::fs::remove_dir_all(&dir).unwrap();
        // durability:false skips the per-measurement WAL, so only the
        // state snapshot touches the (now missing) directory.
        let resp = svc.create_from_spec(&CreateMeasurementDto {
            target_region: 9,
            packets: 3,
            rounds: 1,
            probe_limit: 5,
            country: None,
            fault_profile: None,
            retries: None,
            durability: false,
        });
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
        assert!(
            svc.entry(1).is_some(),
            "measurement is live despite the failed snapshot"
        );
        assert!(
            svc.credits() < before,
            "the served measurement stays charged"
        );
    }

    #[test]
    fn concurrent_readers_on_distinct_measurements_share_nothing() {
        // Readers of different measurements cross no common lock after
        // the registry lookup; hammering them concurrently must neither
        // deadlock nor rebuild any frame beyond the first per entry.
        let svc = std::sync::Arc::new(service());
        for region in 0..4usize {
            seed(&svc, region, 1, 5);
        }
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let svc = std::sync::Arc::clone(&svc);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let id = (t + i) % 4 + 1;
                        let stats =
                            svc.handle(&get(&format!("/api/v2/measurements/{id}/stats"), &[]));
                        assert_eq!(stats.status, 200);
                        let one = svc.handle(&get(&format!("/api/v2/measurements/{id}"), &[]));
                        assert_eq!(one.status, 200);
                        let all = svc.handle(&get("/api/v2/measurements", &[]));
                        assert_eq!(all.status, 200);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(svc.frame_builds(), 4, "one frame build per measurement");
    }

    #[test]
    fn unknown_routes_and_methods() {
        let svc = service();
        assert_eq!(svc.handle(&get("/nope", &[])).status, 404);
        assert_eq!(svc.handle(&post("/api/v2/probes", "{}")).status, 405);
    }

    #[test]
    fn a_panic_while_holding_the_ledger_and_registry_does_not_poison_them() {
        let svc = service();
        seed(&svc, 3, 1, 4);
        let credits = svc.handle(&get("/api/v2/credits", &[]));
        let listing = svc.handle(&get("/api/v2/measurements", &[]));
        assert_eq!((credits.status, listing.status), (200, 200));

        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _ledger = lock(&svc.ledger);
                let _registry = write(&svc.measurements);
                panic!("handler panics holding the ledger and the registry");
            })
            .join()
            .is_err()
        });
        assert!(panicked);
        assert!(svc.ledger.is_poisoned() && svc.measurements.is_poisoned());

        let credits_after = svc.handle(&get("/api/v2/credits", &[]));
        let listing_after = svc.handle(&get("/api/v2/measurements", &[]));
        assert_eq!(credits_after.status, 200);
        assert_eq!(credits_after.body, credits.body);
        assert_eq!(listing_after.status, 200);
        assert_eq!(listing_after.body, listing.body);
    }

    #[test]
    fn json_route_bodies_are_pinned() {
        // Length and FNV-1a digest of every JSON route's body on a
        // seeded service, as serde_json wrote them: the JSON module
        // must reproduce them byte for byte.
        use shears_netsim::fault::Fnv1a;
        let dir = temp_dir("golden");
        let svc = AtlasService::with_durability(Platform::build(&PlatformConfig::quick(2)), &dir)
            .unwrap();
        let pin = |route: &'static str, resp: Response| {
            (
                route,
                resp.status,
                resp.body.len(),
                Fnv1a::digest_of(&resp.body),
            )
        };
        let got = [
            pin("probes", svc.handle(&get("/api/v2/probes", &[]))),
            pin("probe", svc.handle(&get("/api/v2/probes/5", &[]))),
            pin("regions", svc.handle(&get("/api/v2/regions", &[]))),
            pin(
                "create",
                svc.handle(&post(
                    "/api/v2/measurements",
                    r#"{"target_region": 9, "rounds": 3, "probe_limit": 20,
                        "fault_profile": "chaos", "retries": 2}"#,
                )),
            ),
            pin(
                "measurement",
                svc.handle(&get("/api/v2/measurements/1", &[])),
            ),
            pin("listing", svc.handle(&get("/api/v2/measurements", &[]))),
            pin(
                "stats",
                svc.handle(&get("/api/v2/measurements/1/stats", &[])),
            ),
            pin(
                "results",
                svc.handle(&get("/api/v2/measurements/1/results", &[])),
            ),
            pin(
                "traceroutes",
                svc.handle(&post(
                    "/api/v2/traceroutes",
                    r#"{"target_region": 9, "probe_limit": 3, "country": "DE"}"#,
                )),
            ),
            pin("credits", svc.handle(&get("/api/v2/credits", &[]))),
            pin(
                "resume",
                svc.handle(&post("/api/v2/measurements/resume", "")),
            ),
            // The fault-free create and a traceroute that spans countries.
            pin(
                "create fault-free",
                svc.handle(&post(
                    "/api/v2/measurements",
                    r#"{"target_region": 9, "rounds": 3, "probe_limit": 20}"#,
                )),
            ),
            pin(
                "results fault-free",
                svc.handle(&get("/api/v2/measurements/2/results", &[])),
            ),
            pin(
                "traceroutes world",
                svc.handle(&post(
                    "/api/v2/traceroutes",
                    r#"{"target_region": 9, "probe_limit": 50}"#,
                )),
            ),
            // Repeat reads are served from each entry's stored body.
            pin(
                "results again",
                svc.handle(&get("/api/v2/measurements/1/results", &[])),
            ),
            pin(
                "results fault-free again",
                svc.handle(&get("/api/v2/measurements/2/results", &[])),
            ),
        ];
        let traced_countries: std::collections::HashSet<_> = svc
            .platform
            .unprivileged_probes()
            .take(50)
            .map(|p| &p.country)
            .collect();
        assert!(traced_countries.len() > 1, "{traced_countries:?}");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            got,
            [
                ("probes", 200, 20471, 0xeaa5312cf6ac3610),
                ("probe", 200, 208, 0x43c2852eb2cb47bd),
                ("regions", 200, 9256, 0xe052c0aa3bb0071c),
                ("create", 201, 165, 0xcdf9c71c707d455e),
                ("measurement", 200, 165, 0xcdf9c71c707d455e),
                ("listing", 200, 167, 0x56b13ef52cf3c542),
                ("stats", 200, 293, 0xb4cc2657b105bada),
                ("results", 200, 6634, 0x48073395d31d284c),
                ("traceroutes", 200, 853, 0xa06f297ca39d39c3),
                ("credits", 200, 18, 0x366712a02a60bf68),
                ("resume", 200, 62, 0x9e8c17960c7ff483),
                ("create fault-free", 201, 162, 0x45362f10ef918bdc),
                ("results fault-free", 200, 6636, 0x66e843a2bed25771),
                ("traceroutes world", 200, 16623, 0xf05fce9fb8140ac3),
                ("results again", 200, 6634, 0x48073395d31d284c),
                ("results fault-free again", 200, 6636, 0x66e843a2bed25771),
            ]
        );
    }
}
