//! End-to-end integration: platform → campaign → every analysis stage,
//! exercising the crates together exactly as the figure binaries do.

use latency_shears::analysis::distribution::all_samples_cdfs;
use latency_shears::analysis::edgegain::edge_gain_study;
use latency_shears::analysis::headline::headline_numbers;
use latency_shears::analysis::lastmile::last_mile_report;
use latency_shears::analysis::proximity::{country_min_report, probe_min_cdfs};
use latency_shears::apps::catalog::driving_applications;
use latency_shears::prelude::*;
use latency_shears::trends::{detect_eras, TrendDataset};

fn build() -> (Platform, ResultStore) {
    let platform = Platform::build(&PlatformConfig {
        fleet: FleetConfig {
            target_size: 500,
            seed: 2024,
        },
        ..PlatformConfig::default()
    });
    let store = Campaign::new(
        &platform,
        CampaignConfig {
            rounds: 8,
            targets_per_probe: 3,
            adjacent_targets: 2,
            ..CampaignConfig::quick()
        },
    )
    .run_parallel(4)
    .expect("unlimited credits");
    (platform, store)
}

#[test]
fn full_pipeline_produces_consistent_figures() {
    let (platform, store) = build();
    let data = CampaignData::new(&platform, &store);

    // FIG4 and FIG5 must agree: a country's minimum equals the minimum
    // over its probes' minima.
    let fig4 = country_min_report(&data);
    let per_probe = data.per_probe_min();
    for (id, v) in &per_probe {
        let cc = platform.probes()[id.index()].country.as_str();
        assert!(
            fig4.min_by_country[cc] <= *v + 1e-9,
            "{cc}: country min above probe min"
        );
    }

    // FIG5 and FIG6: full distributions stochastically dominate minima.
    let fig5 = probe_min_cdfs(&data);
    let fig6 = all_samples_cdfs(&data);
    for c in Continent::ALL {
        let m5 = fig5.continent(c).and_then(Ecdf::median);
        let m6 = fig6.continent(c).and_then(Ecdf::median);
        if let (Some(a), Some(b)) = (m5, m6) {
            assert!(b >= a, "{c}: all-samples median {b} < minima median {a}");
        }
    }

    // FIG7 feeds FIG8: the measured zone must be usable by the app model.
    let fig7 = last_mile_report(&data, SimTime::from_hours(6)).expect("tag sets populated");
    assert!(fig7.ratio > 1.0);
    let headline = headline_numbers(&data);
    let apps = driving_applications();
    let verdicts: Vec<_> = apps
        .iter()
        .map(|a| headline.feasibility_zone.classify(a))
        .collect();
    assert!(verdicts.iter().any(|v| v.in_zone()), "FZ must be non-empty");
    assert!(
        verdicts.iter().any(|v| !v.in_zone()),
        "FZ must exclude something"
    );
}

#[test]
fn privileged_probes_never_reach_any_figure() {
    let (platform, store) = build();
    let data = CampaignData::new(&platform, &store);
    let privileged: Vec<ProbeId> = platform
        .probes()
        .iter()
        .filter(|p| p.is_privileged())
        .map(|p| p.id)
        .collect();
    assert!(
        !privileged.is_empty(),
        "fleet should contain privileged probes"
    );
    let mins = data.per_probe_min();
    for id in privileged {
        assert!(
            !mins.contains_key(&id),
            "privileged probe leaked into Fig. 5"
        );
    }
}

#[test]
fn edge_gain_study_composes_with_campaign_platform() {
    let (platform, _store) = build();
    let mut platform = platform;
    let report = edge_gain_study(&mut platform, 30);
    assert!(report.rows.len() >= 5);
    // Across continents the edge never loses to the cloud by more than
    // the fabric hop.
    for row in &report.rows {
        assert!(row.edge_median_ms <= row.cloud_median_ms + 1.0);
    }
}

#[test]
fn store_serialisation_round_trips_through_jsonl() {
    let (_platform, store) = build();
    let text = store.to_jsonl();
    let back = ResultStore::from_jsonl(&text).expect("parse our own dump");
    assert_eq!(back.len(), store.len());
    assert_eq!(back.get(0), store.get(0));
    assert_eq!(back.get(store.len() - 1), store.get(store.len() - 1));
}

#[test]
fn trends_and_eras_are_self_consistent() {
    let data = TrendDataset::figure1(0xF16);
    let eras = detect_eras(&data);
    // The edge era must start after cloud interest peaked.
    let cloud_peak = data.cloud_search.peak_year();
    assert!(eras[2].from >= cloud_peak);
    // Edge interest at the start of the edge era exceeds its CDN-era level.
    let early = data.edge_search.at(eras[0].to).unwrap_or(0.0);
    let at_start = data.edge_search.at(eras[2].from).unwrap();
    assert!(at_start > early);
}

#[test]
fn catalog_snapshots_shrink_platform_targets() {
    let base = PlatformConfig {
        fleet: FleetConfig {
            target_size: 200,
            seed: 5,
        },
        ..PlatformConfig::default()
    };
    let full = Platform::build(&base);
    let y2012 = Platform::build(&PlatformConfig {
        catalog_year: Some(2012),
        ..base.clone()
    });
    assert!(y2012.catalog().regions().len() < full.catalog().regions().len());
    // A European probe still has targets in 2012 (Dublin existed).
    let eu_probe = y2012
        .probes()
        .iter()
        .find(|p| p.continent == Continent::Europe)
        .unwrap();
    assert!(!y2012.targets_for(eu_probe, 3, 0).is_empty());
}
