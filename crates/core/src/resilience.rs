//! EXT7: infrastructure-failure studies — what cable cuts and degraded
//! campaigns do to cloud reachability.
//!
//! §6 argues that in under-served regions "gains are more significant"
//! because connectivity hangs on thin infrastructure; the inverse
//! experiment makes that concrete: fail a whole cable corridor (e.g.
//! every transatlantic link) and measure how far cloud latency
//! regresses for the affected populations. Well-connected regions have
//! alternate corridors; regions served by a single landing do not —
//! which is exactly the fragility argument for investing in
//! infrastructure (not edge servers) in those regions.
//!
//! Scenarios are expressed as [`FaultPlan`]s — the same replayable fault
//! schedule the measurement campaign injects — so the what-if study and
//! the chaos campaign share one failure model. [`degradation_report`]
//! closes the loop: given a campaign that ran under a plan, it attributes
//! response-rate loss, retry spend and RTT inflation to each fault class.

use shears_atlas::{Platform, Probe};
use shears_geo::Continent;
use shears_netsim::fault::{FaultClass, FaultPlan, FaultRouter};
use shears_netsim::topology::LinkClass;
use shears_netsim::SimTime;

use crate::data::CampaignData;
use crate::kernels;

/// Builds the plan that permanently fails every inter-continental link
/// whose endpoints lie on the two given continents — a whole-corridor
/// cut. Private-backbone spans crossing the corridor go down too:
/// providers lease fibre pairs on the same physical cable systems, so a
/// corridor failure takes out public and private capacity alike.
pub fn corridor_cut(platform: &Platform, a: Continent, b: Continent, name: &str) -> FaultPlan {
    let atlas = platform.countries();
    let continent_of = |country: &str| atlas.by_code(country).map(|c| c.continent);
    let links = platform
        .topology()
        .links()
        .filter(|(_, link)| {
            matches!(
                link.class,
                LinkClass::SubmarineCable | LinkClass::PrivateBackbone
            )
        })
        .filter(|(_, link)| {
            let ca = continent_of(&platform.topology().node(link.a).country);
            let cb = continent_of(&platform.topology().node(link.b).country);
            matches!((ca, cb), (Some(x), Some(y)) if (x == a && y == b) || (x == b && y == a))
        })
        .map(|(id, _)| id)
        .collect();
    FaultPlan::permanent_cut(name, links)
}

/// Per-continent impact of a scenario.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Probe continent.
    pub continent: Continent,
    /// Probes measured.
    pub probes: usize,
    /// Median floor RTT to the nearest DC, healthy network, ms.
    pub healthy_median_ms: f64,
    /// Median floor RTT under the failure, ms (`None` if a majority of
    /// probes lost connectivity entirely).
    pub failed_median_ms: Option<f64>,
    /// Fraction of probes whose RTT grew by more than 25 %.
    pub degraded_fraction: f64,
    /// Fraction of probes fully disconnected from their nearest DC.
    pub disconnected_fraction: f64,
}

/// The EXT7 report.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Scenario name (the plan's label).
    pub scenario: String,
    /// Distinct links the plan fails.
    pub links_cut: usize,
    /// One row per continent.
    pub rows: Vec<ResilienceRow>,
}

impl ResilienceReport {
    /// Row lookup.
    pub fn continent(&self, c: Continent) -> Option<&ResilienceRow> {
        self.rows.iter().find(|r| r.continent == c)
    }
}

/// Runs the failure study over up to `max_probes_per_continent` probes,
/// comparing the healthy topology against the plan's cut set at the
/// start of time (corridor plans from [`corridor_cut`] are permanent, so
/// any instant sees the same cuts).
///
/// With `target_continent = None` every probe measures against its
/// nearest datacenter (the campaign default). Passing `Some(c)` pins
/// the target to the probe's nearest region *on continent `c`* — the
/// right view for corridor cuts, whose victims are the inter-continent
/// flows (a LatAm→NA cut is invisible to LatAm probes using São Paulo).
pub fn failure_study(
    platform: &Platform,
    plan: &FaultPlan,
    max_probes_per_continent: usize,
    target_continent: Option<Continent>,
) -> ResilienceReport {
    let regions = platform.catalog().regions();
    let target_of = |probe: &Probe| match target_continent {
        None => platform.targets_for(probe, 1, 1).first().copied(),
        Some(c) => regions
            .iter()
            .enumerate()
            .filter(|(i, _)| platform.region_continent(*i) == c)
            .min_by(|a, b| {
                probe
                    .location
                    .distance_km(a.1.location)
                    .total_cmp(&probe.location.distance_km(b.1.location))
            })
            .map(|(i, _)| i as u16),
    };
    // Per continent, each probe and its target node.
    let picks: Vec<(Continent, Vec<_>)> = Continent::ALL
        .iter()
        .map(|&continent| {
            let targets = platform
                .unprivileged_probes()
                .filter(|p| p.continent == continent)
                .take(max_probes_per_continent)
                .filter_map(|probe| Some((probe.id, platform.dc_node(target_of(probe)? as usize))))
                .collect();
            (continent, targets)
        })
        .collect();
    let healthy = platform.route_table_over(
        picks
            .iter()
            .flat_map(|(_, targets)| targets.iter().copied()),
    );
    let failed = FaultRouter::new(platform.topology(), healthy.clone(), plan.clone());
    let mut rows = Vec::new();
    for (continent, targets) in picks {
        let mut healthy_ms = Vec::new();
        let mut failed_ms = Vec::new();
        let mut degraded = 0usize;
        let mut disconnected = 0usize;
        let mut probes = 0usize;
        for (probe, to) in targets {
            let from = platform.probe_node(probe);
            let Some(h) = healthy.path(from, to).map(|p| p.base_one_way_ms * 2.0) else {
                continue;
            };
            probes += 1;
            healthy_ms.push(h);
            match failed
                .path_at(from, to, SimTime::ZERO)
                .map(|p| p.base_one_way_ms * 2.0)
            {
                Some(f) => {
                    failed_ms.push(f);
                    if f > h * 1.25 {
                        degraded += 1;
                    }
                }
                None => disconnected += 1,
            }
        }
        if probes == 0 {
            continue;
        }
        let failed_median = kernels::median(&failed_ms).filter(|_| disconnected * 2 <= probes);
        rows.push(ResilienceRow {
            continent,
            probes,
            healthy_median_ms: kernels::median(&healthy_ms).unwrap_or(f64::NAN),
            failed_median_ms: failed_median,
            degraded_fraction: degraded as f64 / probes as f64,
            disconnected_fraction: disconnected as f64 / probes as f64,
        });
    }
    ResilienceReport {
        scenario: plan.label().to_string(),
        links_cut: plan.cut_link_count(),
        rows,
    }
}

/// Impact of one fault class on the samples exposed to it.
#[derive(Debug, Clone)]
pub struct FaultClassImpact {
    /// The fault class.
    pub class: FaultClass,
    /// Unprivileged samples whose round fell inside an active episode.
    pub samples: usize,
    /// Their response rate (NaN when no sample was exposed).
    pub response_rate: f64,
    /// Median min-RTT of the responded exposed samples, ms.
    pub median_rtt_ms: Option<f64>,
    /// `median_rtt_ms` relative to the clean (unexposed) median — the
    /// RTT inflation the class causes. `None` without both medians.
    pub rtt_inflation: Option<f64>,
    /// Mean retries per exposed sample.
    pub mean_retries: f64,
}

/// How a campaign degraded under its fault plan.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// The plan's label.
    pub plan: String,
    /// Unprivileged samples analysed.
    pub samples: usize,
    /// Overall response rate over those samples (NaN when empty).
    pub response_rate: f64,
    /// Samples that needed at least one retry.
    pub retried_samples: usize,
    /// Total retries across the campaign.
    pub total_retries: u64,
    /// Median min-RTT of responded samples taken outside every fault
    /// episode — the inflation baseline.
    pub clean_median_ms: Option<f64>,
    /// One row per fault class (classes with zero scheduled episodes
    /// report zero exposed samples).
    pub per_class: Vec<FaultClassImpact>,
}

/// Attribution accumulator for one sample bucket.
#[derive(Default)]
struct Bucket {
    samples: usize,
    responded: usize,
    retries: u64,
    rtts: Vec<f64>,
}

impl Bucket {
    fn add(&mut self, responded: bool, retries: u32, min_ms: f32) {
        self.samples += 1;
        self.retries += u64::from(retries);
        if responded {
            self.responded += 1;
            self.rtts.push(f64::from(min_ms));
        }
    }

    fn response_rate(&self) -> f64 {
        if self.samples == 0 {
            f64::NAN
        } else {
            self.responded as f64 / self.samples as f64
        }
    }

    fn median(self) -> Option<f64> {
        kernels::median(&self.rtts)
    }
}

/// Builds the degraded-campaign study: response rate, retry counts and
/// per-fault-class RTT inflation, consuming the campaign's
/// [`crate::frame::CampaignFrame`] indexes for the privileged-probe
/// filter. `packets_per_attempt` is the campaign's packet count; each
/// sample's retry count is recovered from its cumulative `sent` field
/// (`sent = packets × attempts` for ping campaigns, `sent = attempts`
/// for TCP campaigns — pass `1` there).
pub fn degradation_report(
    data: &CampaignData<'_>,
    plan: &FaultPlan,
    packets_per_attempt: u32,
) -> DegradationReport {
    let frame = data.frame();
    let per_attempt = packets_per_attempt.max(1);
    let mut clean = Bucket::default();
    let mut overall = Bucket::default();
    let mut by_class: Vec<Bucket> = FaultClass::ALL.iter().map(|_| Bucket::default()).collect();
    let mut retried_samples = 0usize;
    for s in data.store().iter() {
        if frame.is_privileged(s.probe) {
            continue;
        }
        let attempts = (u32::from(s.sent) / per_attempt).max(1);
        let retries = attempts - 1;
        if retries > 0 {
            retried_samples += 1;
        }
        overall.add(s.responded(), retries, s.min_ms);
        let mut exposed = false;
        for (i, &class) in FaultClass::ALL.iter().enumerate() {
            if plan.class_active_at(class, s.at) {
                exposed = true;
                by_class[i].add(s.responded(), retries, s.min_ms);
            }
        }
        if !exposed {
            clean.add(s.responded(), retries, s.min_ms);
        }
    }
    let clean_median_ms = clean.median();
    let per_class = FaultClass::ALL
        .iter()
        .zip(by_class)
        .map(|(&class, bucket)| {
            let response_rate = bucket.response_rate();
            let mean_retries = if bucket.samples == 0 {
                0.0
            } else {
                bucket.retries as f64 / bucket.samples as f64
            };
            let samples = bucket.samples;
            let median_rtt_ms = bucket.median();
            let rtt_inflation = match (median_rtt_ms, clean_median_ms) {
                (Some(m), Some(c)) if c > 0.0 => Some(m / c),
                _ => None,
            };
            FaultClassImpact {
                class,
                samples,
                response_rate,
                median_rtt_ms,
                rtt_inflation,
                mean_retries,
            }
        })
        .collect();
    DegradationReport {
        plan: plan.label().to_string(),
        samples: overall.samples,
        response_rate: overall.response_rate(),
        retried_samples,
        total_retries: overall.retries,
        clean_median_ms,
        per_class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::campaign::{Campaign, CampaignConfig};
    use shears_atlas::recovery::RetryPolicy;
    use shears_atlas::{FleetConfig, PlatformConfig};
    use shears_netsim::fault::FaultConfig;

    fn platform() -> Platform {
        Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 300,
                seed: 91,
            },
            ..PlatformConfig::default()
        })
    }

    #[test]
    fn transatlantic_cut_exists_and_is_nonempty() {
        let p = platform();
        let cut = corridor_cut(
            &p,
            Continent::Europe,
            Continent::NorthAmerica,
            "transatlantic",
        );
        assert!(
            cut.cut_link_count() > 0,
            "the model carries transatlantic submarine links"
        );
        assert_eq!(cut.label(), "transatlantic");
    }

    #[test]
    fn transatlantic_cut_spares_intra_continental_traffic() {
        // EU probes reach EU datacenters regardless; their nearest DC is
        // on-continent, so the cut must leave them essentially intact.
        let p = platform();
        let cut = corridor_cut(
            &p,
            Continent::Europe,
            Continent::NorthAmerica,
            "transatlantic",
        );
        let report = failure_study(&p, &cut, 80, None);
        let eu = report.continent(Continent::Europe).unwrap();
        assert_eq!(eu.disconnected_fraction, 0.0);
        assert!(
            eu.degraded_fraction < 0.2,
            "EU degradation {}",
            eu.degraded_fraction
        );
        let na = report.continent(Continent::NorthAmerica).unwrap();
        assert_eq!(na.disconnected_fraction, 0.0);
    }

    #[test]
    fn latam_depends_on_the_na_corridor() {
        // LatAm probes measure against NA datacenters through the
        // Miami corridor; cutting LatAm–NA submarine links must degrade
        // (not disconnect — terrestrial routes via Mexico remain) a
        // visible share of LatAm paths while leaving Europe untouched.
        let p = platform();
        let cut = corridor_cut(
            &p,
            Continent::LatinAmerica,
            Continent::NorthAmerica,
            "latam-na cut",
        );
        assert!(cut.cut_link_count() > 0);
        // Measure everyone against their nearest *North American* DC:
        // the corridor's actual traffic.
        let report = failure_study(&p, &cut, 80, Some(Continent::NorthAmerica));
        let la = report.continent(Continent::LatinAmerica).unwrap();
        let eu = report.continent(Continent::Europe).unwrap();
        // South American probes lose the Miami corridor and detour over
        // the South Atlantic (or, for some, lose connectivity); Mexican
        // and Central American probes ride terrestrial routes through
        // Mexico and stay clean — so the affected share is well below 1
        // but clearly above Europe's (whose transatlantic corridor is
        // untouched by this cut).
        let la_affected = la.degraded_fraction + la.disconnected_fraction;
        let eu_affected = eu.degraded_fraction + eu.disconnected_fraction;
        assert!(
            la_affected > eu_affected + 0.1,
            "LatAm affected {la_affected} vs EU {eu_affected}"
        );
    }

    #[test]
    fn empty_scenario_changes_nothing() {
        let p = platform();
        let nothing = FaultPlan::empty("no-op");
        let report = failure_study(&p, &nothing, 50, None);
        assert_eq!(report.links_cut, 0);
        for row in &report.rows {
            assert_eq!(row.degraded_fraction, 0.0, "{}", row.continent);
            assert_eq!(row.disconnected_fraction, 0.0);
            let failed = row.failed_median_ms.unwrap();
            assert!((failed - row.healthy_median_ms).abs() < 1e-9);
        }
    }

    #[test]
    fn degradation_report_attributes_loss_to_the_bursty_class() {
        // A heavy loss-burst campaign: the loss-burst class must see a
        // depressed response rate and retry spend, while classes with no
        // scheduled episodes see no samples at all.
        let p = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 60,
                seed: 5,
            },
            ..PlatformConfig::default()
        });
        let mut faults = FaultConfig::lossy();
        faults.loss_bursts = 8;
        faults.loss_burst_mean_hours = 10_000.0;
        faults.loss_burst_extra = 0.9;
        let cfg = CampaignConfig {
            rounds: 3,
            targets_per_probe: 2,
            adjacent_targets: 1,
            faults,
            recovery: RetryPolicy::atlas_default(),
            ..CampaignConfig::quick()
        };
        let campaign = Campaign::new(&p, cfg);
        let store = campaign.run().unwrap();
        let plan = campaign.fault_plan().expect("faults are enabled");
        let data = CampaignData::new(&p, &store);
        let report = degradation_report(&data, &plan, cfg.packets);

        assert!(report.samples > 0);
        assert!(report.total_retries > 0, "heavy loss must trigger retries");
        assert!(report.retried_samples > 0);
        let impact = |class: FaultClass| {
            report
                .per_class
                .iter()
                .find(|i| i.class == class)
                .expect("every class has a row")
        };
        let loss = impact(FaultClass::LossBurst);
        assert!(loss.samples > 0, "bursts cover most of the window");
        assert!(
            loss.response_rate < 0.7,
            "90% extra loss must depress the rate, got {}",
            loss.response_rate
        );
        assert!(loss.mean_retries > 0.0);
        // No cuts, no latency bursts, no blackouts were scheduled.
        assert_eq!(impact(FaultClass::LinkCut).samples, 0);
        assert_eq!(impact(FaultClass::LatencyBurst).samples, 0);
        assert_eq!(impact(FaultClass::DcBlackout).samples, 0);
    }

    #[test]
    fn degradation_report_on_a_clean_campaign_is_all_baseline() {
        let p = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 60,
                seed: 5,
            },
            ..PlatformConfig::default()
        });
        let cfg = CampaignConfig {
            rounds: 3,
            targets_per_probe: 2,
            adjacent_targets: 1,
            ..CampaignConfig::quick()
        };
        let store = Campaign::new(&p, cfg).run().unwrap();
        let data = CampaignData::new(&p, &store);
        let plan = FaultPlan::empty("clean");
        let report = degradation_report(&data, &plan, cfg.packets);
        assert_eq!(report.total_retries, 0);
        assert_eq!(report.retried_samples, 0);
        assert!(report.clean_median_ms.is_some());
        assert!(report.response_rate > 0.9);
        for impact in &report.per_class {
            assert_eq!(impact.samples, 0, "{:?}", impact.class);
        }
    }
}
