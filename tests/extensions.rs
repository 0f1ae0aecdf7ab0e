//! Integration tests for the extension experiments: the studies must
//! compose (same platform, same pipeline) and their findings must be
//! mutually consistent.

use latency_shears::analysis::coverage::population_coverage;
use latency_shears::analysis::distribution::all_samples_cdfs;
use latency_shears::analysis::resilience::{corridor_cut, failure_study};
use latency_shears::analysis::whatif::fiveg_whatif;
use latency_shears::apps::catalog::driving_applications;
use latency_shears::atlas::MeasurementType;
use latency_shears::prelude::*;

fn platform_with(catalog_year: Option<u16>, probes: usize) -> Platform {
    Platform::build(&PlatformConfig {
        fleet: FleetConfig {
            target_size: probes,
            seed: 4242,
        },
        catalog_year,
        ..PlatformConfig::default()
    })
}

fn run(platform: &Platform, kind: MeasurementType) -> ResultStore {
    Campaign::new(
        platform,
        CampaignConfig {
            rounds: 5,
            targets_per_probe: 3,
            adjacent_targets: 2,
            kind,
            ..CampaignConfig::quick()
        },
    )
    .run_parallel(4)
    .expect("unlimited credits")
}

#[test]
fn tcp_campaign_flows_through_the_same_analysis_pipeline() {
    let platform = platform_with(None, 350);
    let ping = run(&platform, MeasurementType::Ping);
    let tcp = run(&platform, MeasurementType::TcpConnect);
    let ping_cdfs = all_samples_cdfs(&CampaignData::new(&platform, &ping));
    let tcp_cdfs = all_samples_cdfs(&CampaignData::new(&platform, &tcp));
    for c in Continent::ALL {
        let (Some(p), Some(t)) = (ping_cdfs.continent(c), tcp_cdfs.continent(c)) else {
            continue;
        };
        let (Some(pm), Some(tm)) = (p.median(), t.median()) else {
            continue;
        };
        // TCP connect (single attempt) sits at or above ping min-of-3,
        // but within 1.5× on every continent: same network underneath.
        assert!(tm >= pm * 0.85, "{c}: tcp {tm} far below ping {pm}");
        assert!(tm <= pm * 1.5, "{c}: tcp {tm} implausibly above ping {pm}");
    }
}

#[test]
fn cloud_expansion_improves_population_coverage() {
    // Cross-experiment consistency: the 2010 catalogue must cover
    // *less* population at gaming-grade latency than the 2020 one —
    // EXT3 and TEXT4 telling the same story.
    let apps = driving_applications();
    let coverage_of = |year: Option<u16>| {
        let platform = platform_with(year, 350);
        let store = run(&platform, MeasurementType::Ping);
        let data = CampaignData::new(&platform, &store);
        let report = population_coverage(&data, &apps);
        report
            .application("Cloud gaming")
            .map(|r| r.population_covered)
            .unwrap_or(0.0)
    };
    let old = coverage_of(Some(2010));
    let new = coverage_of(None);
    assert!(
        new > old + 0.1,
        "2020 gaming coverage {new} should clearly beat 2010 {old}"
    );
}

#[test]
fn corridor_cuts_do_not_affect_the_whatif_study() {
    // The 5G what-if is a last-mile study; a backbone corridor cut must
    // leave its access-side conclusions untouched (the study computes
    // floors on the healthy topology — this is a consistency check that
    // the two studies use independent machinery without interference).
    let platform = platform_with(None, 300);
    let before = fiveg_whatif(&platform, 150);
    let cut = corridor_cut(
        &platform,
        Continent::Europe,
        Continent::NorthAmerica,
        "transatlantic",
    );
    let report = failure_study(&platform, &cut, 50, Some(Continent::NorthAmerica));
    assert!(report.links_cut > 0);
    let after = fiveg_whatif(&platform, 150);
    for (a, b) in before.rows.iter().zip(&after.rows) {
        assert_eq!(a.probes, b.probes);
        assert!((a.cloud_mtp - b.cloud_mtp).abs() < 1e-12);
    }
}

#[test]
fn snapshot_platforms_preserve_analysis_invariants() {
    // Even on the tiny 2009 cloud (nine regions across all providers:
    // three AWS, one Google, five early Linode sites), every analysis
    // stage stays total: no panics, sane outputs.
    let platform = platform_with(Some(2009), 250);
    assert_eq!(platform.catalog().regions().len(), 9);
    let store = run(&platform, MeasurementType::Ping);
    let data = CampaignData::new(&platform, &store);
    let cdfs = all_samples_cdfs(&data);
    // Continents with no reachable targets simply have empty CDFs.
    let populated = Continent::ALL
        .iter()
        .filter(|&&c| cdfs.continent(c).is_some_and(|e| !e.is_empty()))
        .count();
    assert!(
        populated >= 3,
        "2009: only {populated} continents populated"
    );
    let report = population_coverage(&data, &driving_applications());
    assert!(report.population_measured_m > 1000.0);
}
