//! `shears reproduce`: every figure, in-text number and extension of
//! EXPERIMENTS.md, rendered from one platform and one campaign.
//!
//! Each section prints on stdout the table its EXPERIMENTS.md row reads
//! from; its header and progress lines go to stderr, so a section run
//! alone prints exactly its own output. The main platform is built the
//! first time a section reads it and the main campaign is run the first
//! time a section reads it, so one run builds each at most once:
//! FIG4–FIG8, TEXT1, TEXT3, TEXT4, EXT2's ping half and EXT3's 2020 half
//! share one [`CampaignData`] (one frame build), TEXT1 and FIG8 share
//! one [`Headline`], and FIG3, TEXT2 and EXT5–EXT7 read the same
//! platform. EXT1's platform (which it deploys edge sites on), EXT2's
//! TCP campaign and EXT3's 2010 platform and campaign are built only
//! when their section runs.

use std::cell::OnceCell;
use std::collections::BTreeSet;

use latency_shears::analysis::bandwidth::{
    bandwidth_study, derived_bandwidth_boundary_gb_per_day, REFERENCE_ENTITIES_PER_METRO,
};
use latency_shears::analysis::breakdown::{delay_breakdown, Segment};
use latency_shears::analysis::coverage::population_coverage;
use latency_shears::analysis::distribution::europe_tail_split;
use latency_shears::analysis::edgegain::edge_gain_study;
use latency_shears::analysis::expansion::compare;
use latency_shears::analysis::headline::Headline;
use latency_shears::analysis::providers::{controlled_city_comparison, provider_comparison};
use latency_shears::analysis::proximity::{CountryMinReport, FIG4_BUCKETS};
use latency_shears::analysis::report::{ms, ms_opt, pct, AsciiCdfChart, AsciiWorldMap, Table};
use latency_shears::analysis::resilience::{corridor_cut, failure_study};
use latency_shears::analysis::stats::bootstrap_median_ci;
use latency_shears::analysis::temporal::{diurnal_profile, stability_series};
use latency_shears::analysis::whatif::fiveg_whatif;
use latency_shears::apps::catalog;
use latency_shears::atlas::MeasurementType;
use latency_shears::prelude::*;
use latency_shears::trends::{
    crawl_publications, detect_eras, Keyword, ScholarService, TrendDataset, TrendSeries,
};

use crate::{
    build_main_platform, campaign_config, platform_config, run_campaign, run_main_campaign, Scale,
};

/// One EXPERIMENTS.md section: the id `shears reproduce` takes, the
/// section's EXPERIMENTS.md heading, and its renderer.
pub struct Section(&'static str, &'static str, fn(&Shared<'_>));

/// Every section, in EXPERIMENTS.md's order.
static SECTIONS: [Section; 19] = [
    Section("fig1", "eras of \"cloud\" vs \"edge\"", fig1),
    Section("fig2", "driving applications & quadrants", fig2),
    Section("fig3", "measurement setup", fig3),
    Section("fig4", "per-country minimum RTT", fig4),
    Section("fig5", "CDF of per-probe minima by continent", fig5),
    Section("fig6", "CDF of all samples by continent", fig6),
    Section("fig7", "wired vs wireless", fig7),
    Section("fig8", "feasibility zone", fig8),
    Section("text1", "§4/§5 headline numbers", text1),
    Section("ext1", "edge-at-the-metro gain study", ext1),
    Section("ext2", "TCP connect-time probing", ext2),
    Section("ext3", "cloud expansion 2010 → 2020", ext3),
    Section("text2", "\"Where is the Delay?\"", text2),
    Section("ext4", "bandwidth aggregation", ext4),
    Section("ext5", "5G what-if", ext5),
    Section("ext6", "provider comparison", ext6),
    Section("text3", "temporal structure", text3),
    Section("text4", "population coverage", text4),
    Section("ext7", "submarine corridor cuts", ext7),
];

/// The sections `ids` names, in EXPERIMENTS.md's order; every section
/// when `ids` is empty. An unknown id is an error.
pub fn select(ids: &[String]) -> Result<Vec<&'static Section>, String> {
    let known = |id: &str| SECTIONS.iter().any(|s| s.0 == id);
    if let Some(unknown) = ids.iter().find(|id| !known(id)) {
        let all: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
        return Err(format!(
            "unknown section {unknown:?}; sections: {}",
            all.join(" ")
        ));
    }
    Ok(SECTIONS
        .iter()
        .filter(|s| ids.is_empty() || ids.iter().any(|id| id == s.0))
        .collect())
}

/// Renders `sections` at `scale`.
pub fn run(scale: Scale, sections: &[&Section]) {
    eprintln!(
        "reproduce: {} probes x {} rounds, {} section(s)",
        scale.probes,
        scale.rounds,
        sections.len()
    );
    let platform = OnceCell::new();
    let store = OnceCell::new();
    let shared = Shared {
        scale,
        platform: &platform,
        store: &store,
        data: OnceCell::new(),
        headline: OnceCell::new(),
    };
    for Section(id, title, render) in sections {
        eprintln!("== {} — {title} ==", id.to_uppercase());
        render(&shared);
    }
}

/// What the sections share, each part built the first time a section
/// reads it.
struct Shared<'a> {
    scale: Scale,
    platform: &'a OnceCell<Platform>,
    store: &'a OnceCell<ResultStore>,
    data: OnceCell<CampaignData<'a>>,
    headline: OnceCell<Headline>,
}

impl<'a> Shared<'a> {
    /// The main platform.
    fn platform(&self) -> &'a Platform {
        self.platform
            .get_or_init(|| build_main_platform(self.scale))
    }

    /// The main campaign over the main platform.
    fn data(&self) -> &CampaignData<'a> {
        self.data.get_or_init(|| {
            let platform = self.platform();
            let store = self
                .store
                .get_or_init(|| run_main_campaign(platform, self.scale));
            CampaignData::new(platform, store)
        })
    }

    /// The main campaign's headline numbers.
    fn headline(&self) -> &Headline {
        self.headline.get_or_init(|| headline_numbers(self.data()))
    }
}

/// The RTT thresholds of Figs. 5 and 6's tables, in ms.
const CDF_GRID: [f64; 12] = [
    5.0, 10.0, 20.0, 30.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0, 500.0, 1000.0,
];

/// Figs. 5 and 6's body: each continent's CDF at [`CDF_GRID`], as a
/// table and as a terminal chart.
fn print_continent_cdfs<'e>(cdf: impl Fn(Continent) -> Option<&'e Ecdf>) {
    let mut headers = vec!["RTT <= ms".to_string()];
    headers.extend(Continent::ALL.iter().map(|c| c.to_string()));
    let mut t = Table::new(headers);
    for x in CDF_GRID {
        let mut row = vec![format!("{x}")];
        for c in Continent::ALL {
            row.push(pct(cdf(c).map_or(0.0, |e| e.fraction_at_or_below(x))));
        }
        t.row(row);
    }
    print!("{}", t.render());

    let mut chart = AsciiCdfChart::new(1.0, 1000.0);
    let grid: Vec<f64> = (0..=40)
        .map(|i| 1.0 * (1000.0f64 / 1.0).powf(f64::from(i) / 40.0))
        .collect();
    for (c, marker) in Continent::ALL.iter().zip(['n', 'e', 'o', 'a', 'l', 'f']) {
        if let Some(ecdf) = cdf(*c) {
            chart.series(c.short(), marker, ecdf.curve(&grid));
        }
    }
    print!("\n{}", chart.render());
}

/// "private" or "transit", by a provider's backbone.
fn backbone(provider: Provider) -> &'static str {
    if provider.has_private_backbone() {
        "private"
    } else {
        "transit"
    }
}

/// FIG1: search interest and publications for "cloud computing" vs
/// "edge computing", 2004–2019, with the detected era boundaries
/// (CDN → Cloud → Edge).
fn fig1(_: &Shared<'_>) {
    let mut data = TrendDataset::figure1(42);

    // Publication counts go through the scholar crawler, as in the
    // paper (reference [38]): synthetic service, real parsing/backoff.
    let mut scholar = ScholarService::from_dataset(&data, 0.15, 7);
    let (cloud_pubs, cloud_stats) = crawl_publications(&mut scholar, Keyword::CloudComputing, 20)
        .expect("crawl within retry budget");
    let (edge_pubs, edge_stats) = crawl_publications(&mut scholar, Keyword::EdgeComputing, 20)
        .expect("crawl within retry budget");
    eprintln!(
        "[fig1] scholar crawl: {} pages fetched, {} CAPTCHAs retried",
        cloud_stats.fetched + edge_stats.fetched,
        cloud_stats.throttled + edge_stats.throttled
    );
    data.cloud_pubs = cloud_pubs;
    data.edge_pubs = edge_pubs;

    let mut t = Table::new(vec![
        "year",
        "cloud search",
        "edge search",
        "cloud pubs",
        "edge pubs",
    ]);
    for year in TrendSeries::years() {
        t.row(vec![
            year.to_string(),
            format!("{:.1}", data.cloud_search.at(year).unwrap()),
            format!("{:.1}", data.edge_search.at(year).unwrap()),
            format!("{:.0}", data.cloud_pubs.at(year).unwrap()),
            format!("{:.0}", data.edge_pubs.at(year).unwrap()),
        ]);
    }
    print!("{}", t.render());

    println!("\ndetected eras (CUSUM changepoints):");
    for span in detect_eras(&data) {
        println!("  {:<10} {}-{}", span.era.name(), span.from, span.to);
    }
    println!(
        "(paper narrative: CDN era through the late 2000s, cloud era to ~2015, edge era after)"
    );
}

/// FIG2: the driving applications as envelopes in the (data volume,
/// latency) plane, with quadrant classification and 2025 market sizes.
fn fig2(_: &Shared<'_>) {
    let apps = catalog::driving_applications();
    let mut t = Table::new(vec![
        "application",
        "latency ms (lo..hi)",
        "data GB/day (lo..hi)",
        "market 2025 B$",
        "quadrant",
        "human-centric",
    ]);
    let mut rows: Vec<_> = apps.iter().collect();
    rows.sort_by(|a, b| {
        Quadrant::classify(a)
            .label()
            .cmp(Quadrant::classify(b).label())
            .then(a.name.cmp(b.name))
    });
    for app in rows {
        t.row(vec![
            app.name.to_string(),
            format!("{:.1}..{:.0}", app.latency_ms.lo, app.latency_ms.hi),
            format!("{}..{}", app.data_gb_per_day.lo, app.data_gb_per_day.hi),
            format!("{:.0}", app.market_2025_busd),
            Quadrant::classify(app).label().to_string(),
            if app.human_centric { "yes" } else { "no" }.to_string(),
        ]);
    }
    print!("{}", t.render());

    println!("\nper-quadrant totals:");
    for q in Quadrant::ALL {
        let members: Vec<&str> = apps
            .iter()
            .filter(|a| Quadrant::classify(a) == q)
            .map(|a| a.name)
            .collect();
        let market: f64 = apps
            .iter()
            .filter(|a| Quadrant::classify(a) == q)
            .map(|a| a.market_2025_busd)
            .sum();
        println!(
            "  {}: {} apps, {:.0} B$ — {}",
            q.label(),
            members.len(),
            market,
            members.join(", ")
        );
    }
    println!(
        "\nthresholds: MTP 20 ms (7 ms compute budget, 2.5 ms NASA HUD), PL 100 ms, HRT 250 ms"
    );
}

/// FIG3: the measurement setup. 3a is the distribution of cloud regions
/// (seven providers, 101 regions, 21 countries); 3b is the probe fleet
/// (3200+, 166+ countries) by continent.
fn fig3(s: &Shared<'_>) {
    let platform = s.platform();
    let catalog = platform.catalog();
    let atlas = platform.countries();

    println!("Figure 3a — cloud regions (targets):");
    let mut t = Table::new(vec!["provider", "regions", "countries", "backbone"]);
    for p in Provider::ALL {
        let regions: Vec<_> = catalog.by_provider(p).collect();
        let countries: BTreeSet<_> = regions.iter().map(|r| r.country).collect();
        t.row(vec![
            p.to_string(),
            regions.len().to_string(),
            countries.len().to_string(),
            if p.has_private_backbone() {
                "private"
            } else {
                "public transit"
            }
            .to_string(),
        ]);
    }
    t.row(vec![
        "TOTAL".to_string(),
        catalog.regions().len().to_string(),
        catalog.countries().len().to_string(),
        String::new(),
    ]);
    print!("{}", t.render());

    let mut by_continent = Table::new(vec!["continent", "regions"]);
    for c in Continent::ALL {
        by_continent.row(vec![
            c.to_string(),
            catalog.on_continent(c, atlas).count().to_string(),
        ]);
    }
    print!("\n{}", by_continent.render());

    println!("\nFigure 3b — probe fleet (vantage points):");
    let probes = platform.probes();
    let countries: BTreeSet<&str> = probes.iter().map(|p| p.country.as_str()).collect();
    println!(
        "{} probes in {} countries ({} privileged, excluded from analysis)",
        probes.len(),
        countries.len(),
        probes.iter().filter(|p| p.is_privileged()).count()
    );
    let mut t = Table::new(vec!["continent", "probes", "share", "wireless-tagged"]);
    for c in Continent::ALL {
        let n = probes.iter().filter(|p| p.continent == c).count();
        let wl = probes
            .iter()
            .filter(|p| p.continent == c && p.is_wireless_tagged())
            .count();
        t.row(vec![
            c.to_string(),
            n.to_string(),
            pct(n as f64 / probes.len() as f64),
            wl.to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// FIG4: per-country minimum RTT to the nearest datacenter, in the
/// paper's choropleth buckets, plus the in-text headline counts (32
/// countries < 10 ms; 21 in 10–20 ms; all but 16 under the PL
/// threshold).
fn fig4(s: &Shared<'_>) {
    let platform = s.platform();
    let report = country_min_report(s.data());

    let mut t = Table::new(vec!["bucket (ms)", "countries", "paper"]);
    let paper = ["32", "21", "-", "-", "-", "-"];
    for (i, &(lo, hi)) in FIG4_BUCKETS.iter().enumerate() {
        let label = if hi.is_infinite() {
            format!(">= {lo}")
        } else {
            format!("{lo}..{hi}")
        };
        t.row(vec![
            label,
            report.bucket_counts[i].to_string(),
            paper[i].to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\ncountries measured: {} | above PL (paper: 16, mostly Africa): {}",
        report.countries_measured(),
        report.above_pl.len()
    );
    println!("above-PL countries: {}", report.above_pl.join(", "));

    // The choropleth, as a terminal map: each country's Fig. 4 bucket
    // digit (0 = <10 ms … 5 = >=200 ms) at its centroid; '#' marks
    // datacenter locations (the paper's red diamonds).
    let mut map = AsciiWorldMap::new();
    // Plot slow countries first so fast ones win shared cells.
    let mut rows: Vec<(&String, &f64)> = report.min_by_country.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (cc, &rtt) in rows {
        if let Some(country) = platform.countries().by_code(cc) {
            let digit = char::from(b'0' + CountryMinReport::bucket_of(rtt) as u8);
            map.place(country.centroid.lat, country.centroid.lon, digit);
        }
    }
    for region in platform.catalog().regions() {
        map.place(region.location.lat, region.location.lon, '#');
    }
    println!("\nmap (bucket digit per country; # = datacenter):");
    print!("{}", map.render());

    // The choropleth itself, as rows (sorted fastest first).
    let mut rows: Vec<(&String, &f64)> = report.min_by_country.iter().collect();
    rows.sort_by(|a, b| a.1.total_cmp(b.1));
    let mut t = Table::new(vec!["country", "min RTT ms", "continent"]);
    for (cc, min) in &rows {
        let continent = platform
            .countries()
            .by_code(cc)
            .map(|c| c.continent.to_string())
            .unwrap_or_default();
        t.row(vec![cc.to_string(), ms(**min), continent]);
    }
    print!("\n{}", t.render());
}

/// FIG5: CDF of every probe's campaign-wide minimum RTT to any
/// datacenter, grouped by continent.
fn fig5(s: &Shared<'_>) {
    let cdfs = probe_min_cdfs(s.data());
    print_continent_cdfs(|c| cdfs.continent(c));

    println!("\npaper checkpoints:");
    println!(
        "  ~80% of EU probes within MTP (20 ms): measured {}",
        pct(cdfs.fraction_within(Continent::Europe, 20.0))
    );
    println!(
        "  ~80% of NA probes within MTP (20 ms): measured {}",
        pct(cdfs.fraction_within(Continent::NorthAmerica, 20.0))
    );
    println!(
        "  Oceania almost all within 50 ms: measured {}",
        pct(cdfs.fraction_within(Continent::Oceania, 50.0))
    );
    println!(
        "  ~75% of Africa within PL (100 ms): measured {}",
        pct(cdfs.fraction_within(Continent::Africa, 100.0))
    );
    println!(
        "  ~75% of LatAm within PL (100 ms): measured {}",
        pct(cdfs.fraction_within(Continent::LatinAmerica, 100.0))
    );
}

/// FIG6: CDF of *all* ping rounds from every probe to its closest
/// datacenter, by continent, plus the summary table and the eastern-EU
/// tail check.
fn fig6(s: &Shared<'_>) {
    let data = s.data();
    let cdfs = all_samples_cdfs(data);
    print_continent_cdfs(|c| cdfs.continent(c));

    let mut t = Table::new(vec![
        "continent",
        "n",
        "p25",
        "median",
        "mean",
        "p75",
        "p95",
    ]);
    for (c, s) in cdfs.summaries() {
        if let Some(s) = s {
            t.row(vec![
                c.to_string(),
                s.n.to_string(),
                ms(s.p25),
                ms(s.median),
                ms(s.mean),
                ms(s.p75),
                ms(s.p95),
            ]);
        }
    }
    print!("\n{}", t.render());

    println!("\npaper checkpoints:");
    for c in [
        Continent::NorthAmerica,
        Continent::Europe,
        Continent::Oceania,
    ] {
        println!(
            "  {c}: rounds below PL (paper: >75%): {}",
            pct(cdfs.fraction_within(c, 100.0))
        );
    }
    for c in [Continent::NorthAmerica, Continent::Europe] {
        let q25 = cdfs
            .continent(c)
            .and_then(|e| e.quantile(0.25))
            .unwrap_or(f64::NAN);
        println!("  {c}: p25 (paper: top quartile under MTP): {} ms", ms(q25));
    }
    if let Some((advanced, lower)) = europe_tail_split(data) {
        println!(
            "  EU tail provenance: p95 advanced-infra {} ms vs lower-infra {} ms (paper: tail is eastern EU)",
            ms(advanced),
            ms(lower)
        );
    }
}

/// FIG7: wired vs wireless last-mile RTT over the measurement period
/// (paper: wireless ≈2.5× wired, 10–40 ms added).
fn fig7(s: &Shared<'_>) {
    let data = s.data();
    let Some(report) = last_mile_report(data, SimTime::from_hours(6)) else {
        println!("no country has both wired- and wireless-tagged probes at this scale");
        return;
    };

    println!(
        "matched countries: {} | wired probes: {} | wireless probes: {}",
        report.matched_countries, report.wired_probes, report.wireless_probes
    );
    println!(
        "medians: wired {:.1} ms, wireless {:.1} ms  ->  ratio {:.2}x (paper ~2.5x), +{:.1} ms (paper 10-40 ms)",
        report.wired_median_ms, report.wireless_median_ms, report.ratio, report.added_ms
    );

    // Bootstrap 95% confidence intervals on the two campaign medians
    // (seeded, so the printed interval is reproducible).
    let wired_samples: Vec<f64> = data
        .filtered_responded()
        .filter(|(p, _)| p.is_wired_tagged())
        .map(|(_, s)| f64::from(s.min_ms))
        .collect();
    let wireless_samples: Vec<f64> = data
        .filtered_responded()
        .filter(|(p, _)| p.is_wireless_tagged())
        .map(|(_, s)| f64::from(s.min_ms))
        .collect();
    if let (Some(w), Some(wl)) = (
        bootstrap_median_ci(&wired_samples, 300, 0.95, 0xF17),
        bootstrap_median_ci(&wireless_samples, 300, 0.95, 0xF17),
    ) {
        println!(
            "95% bootstrap CIs: wired [{:.1}, {:.1}] ms, wireless [{:.1}, {:.1}] ms — disjoint: {}\n",
            w.lo,
            w.hi,
            wl.lo,
            wl.hi,
            w.hi < wl.lo
        );
    }

    let mut t = Table::new(vec!["t (h)", "wired median ms", "wireless median ms"]);
    for bin in &report.bins {
        t.row(vec![
            bin.at.as_hours().to_string(),
            ms_opt(bin.wired_ms),
            ms_opt(bin.wireless_ms),
        ]);
    }
    print!("{}", t.render());
}

/// FIG8: the application plane overlaid with the *measured*
/// feasibility zone (latency gain zone between the observed wireless
/// floor and HRT; bandwidth gain zone at 1 GB/entity/day).
fn fig8(s: &Shared<'_>) {
    let zone = s.headline().feasibility_zone;

    println!(
        "measured feasibility zone: latency {:.1}..{:.1} ms, data >= {:.0} GB/entity/day",
        zone.latency_floor_ms, zone.latency_ceiling_ms, zone.bandwidth_gain_gb_per_day
    );
    println!("(paper: 10 ms wireless floor .. HRT 250 ms, 1 GB/entity)\n");

    let apps = catalog::driving_applications();
    let mut t = Table::new(vec!["application", "verdict", "market 2025 B$"]);
    let mut rows: Vec<_> = apps.iter().collect();
    rows.sort_by(|a, b| {
        zone.classify(a)
            .in_zone()
            .cmp(&zone.classify(b).in_zone())
            .reverse()
            .then(a.name.cmp(b.name))
    });
    for app in rows {
        t.row(vec![
            app.name.to_string(),
            zone.classify(app).reason().to_string(),
            format!("{:.0}", app.market_2025_busd),
        ]);
    }
    print!("{}", t.render());

    let (inside, outside) = zone.market_split(&apps);
    println!(
        "\nmarket inside FZ: {inside:.0} B$ vs outside: {outside:.0} B$ — the paper's \
         \"predicted market share of applications within the edge FZ pales\" check"
    );
}

/// TEXT1: every in-text headline number of §4/§5 with the paper's
/// claimed value alongside.
fn text1(s: &Shared<'_>) {
    let h = s.headline();

    let mut t = Table::new(vec!["statistic", "paper", "measured"]);
    t.row(vec![
        "countries with min RTT < 10 ms".to_string(),
        "32".to_string(),
        h.countries_under_10ms.to_string(),
    ]);
    t.row(vec![
        "countries in 10-20 ms".to_string(),
        "21".to_string(),
        h.countries_10_to_20ms.to_string(),
    ]);
    t.row(vec![
        "countries above PL".to_string(),
        "16 (mostly Africa)".to_string(),
        format!(
            "{} ({} African)",
            h.countries_above_pl, h.countries_above_pl_african
        ),
    ]);
    t.row(vec![
        "EU probes within MTP".to_string(),
        "~80%".to_string(),
        pct(h.eu_probes_within_mtp),
    ]);
    t.row(vec![
        "NA probes within MTP".to_string(),
        "~80%".to_string(),
        pct(h.na_probes_within_mtp),
    ]);
    t.row(vec![
        "Oceania probes within 50 ms".to_string(),
        "almost all".to_string(),
        pct(h.oceania_within_50ms),
    ]);
    t.row(vec![
        "Africa probes within PL".to_string(),
        "~75%".to_string(),
        pct(h.africa_within_pl),
    ]);
    t.row(vec![
        "LatAm probes within PL".to_string(),
        "~75%".to_string(),
        pct(h.latam_within_pl),
    ]);
    t.row(vec![
        "EU+NA rounds <= 40 ms (Facebook check)".to_string(),
        "\"rarely above 40 ms\"".to_string(),
        pct(h.eu_na_rounds_under_40ms),
    ]);
    t.row(vec![
        "wireless / wired ratio".to_string(),
        "~2.5x".to_string(),
        h.wireless_ratio
            .map(|r| format!("{r:.2}x"))
            .unwrap_or_else(|| "-".into()),
    ]);
    print!("{}", t.render());

    println!(
        "\nimplied feasibility zone: {:.1}..{:.1} ms, >= {:.0} GB/entity/day",
        h.feasibility_zone.latency_floor_ms,
        h.feasibility_zone.latency_ceiling_ms,
        h.feasibility_zone.bandwidth_gain_gb_per_day
    );
}

/// EXT1: the edge-at-the-metro reality check (§5's Hadzic/Cartas
/// argument): deploy an edge site at every metro PoP and measure what
/// it buys over the nearest cloud datacenter, per continent.
fn ext1(s: &Shared<'_>) {
    // The study attaches edge sites to the world, so it gets a platform
    // of its own.
    eprintln!("[ext1] building a platform to deploy edge sites on");
    let mut platform = Platform::build(&platform_config(s.scale));
    let report = edge_gain_study(&mut platform, 400);

    let mut t = Table::new(vec![
        "continent",
        "probes",
        "cloud median ms",
        "edge median ms",
        "median gain ms",
        "gain < 10 ms",
    ]);
    for row in &report.rows {
        t.row(vec![
            row.continent.to_string(),
            row.probes.to_string(),
            ms(row.cloud_median_ms),
            ms(row.edge_median_ms),
            ms(row.median_gain_ms),
            pct(row.small_gain_fraction),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\npaper expectation: minimal gains in well-connected continents\n\
         (edge \"yields little benefits in well-connected areas\"), large\n\
         gains only in under-served regions."
    );
}

/// EXT2: TCP connect-time probing vs ICMP ping (§5 "Network vs.
/// application latency"), run as a second campaign over the main
/// platform so both probing methods flow through the identical storage
/// and analysis pipeline.
fn ext2(s: &Shared<'_>) {
    let ping_data = s.data();
    eprintln!("[ext2] running the TCP campaign");
    let tcp_store = run_campaign(
        s.platform(),
        CampaignConfig {
            kind: MeasurementType::TcpConnect,
            ..campaign_config(s.scale)
        },
    );
    eprintln!(
        "[ext2] ping samples: {}, tcp samples: {} (tcp success rate {:.2}%)",
        ping_data.store().len(),
        tcp_store.len(),
        tcp_store.response_rate() * 100.0
    );

    let ping = all_samples_cdfs(ping_data);
    let tcp = all_samples_cdfs(&CampaignData::new(s.platform(), &tcp_store));

    let mut t = Table::new(vec![
        "continent",
        "ping median ms",
        "tcp connect median ms",
        "ping p95 ms",
        "tcp p95 ms",
        "tcp/ping median",
    ]);
    for c in Continent::ALL {
        let (Some(p), Some(q)) = (ping.continent(c), tcp.continent(c)) else {
            continue;
        };
        let (Some(pm), Some(tm)) = (p.median(), q.median()) else {
            continue;
        };
        t.row(vec![
            c.to_string(),
            ms(pm),
            ms(tm),
            ms(p.quantile(0.95).unwrap_or(f64::NAN)),
            ms(q.quantile(0.95).unwrap_or(f64::NAN)),
            format!("{:.2}x", tm / pm),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nreading: TCP connect medians track ICMP closely (no min-of-3\n\
         smoothing, so slightly above), while the p95 tail widens with\n\
         SYN retransmission — §5's expectation that TCP probing \"may\n\
         better reflect behavior of application traffic\" without moving\n\
         the paper's median-based conclusions."
    );
}

/// EXT3: the cloud-expansion ablation. §4's motivation ("Amazon's cloud
/// has increased from 3 to 22 datacenter locations" since 2010; CDN
/// latencies fell from ~100 ms to 10–25 ms) tested by running the same
/// fleet against the 2010 catalogue snapshot and the full 2019/2020
/// catalogue (the main campaign).
fn ext3(s: &Shared<'_>) {
    eprintln!("[ext3] building the 2010 platform and running its campaign");
    let p2010 = Platform::build(&PlatformConfig {
        catalog_year: Some(2010),
        ..platform_config(s.scale)
    });
    let s2010 = run_campaign(&p2010, campaign_config(s.scale));
    eprintln!(
        "[ext3] 2010 catalogue: {} regions",
        p2010.catalog().regions().len()
    );
    let data2020 = s.data();
    eprintln!(
        "[ext3] 2020 catalogue: {} regions",
        data2020.platform().catalog().regions().len()
    );

    let report = compare(&CampaignData::new(&p2010, &s2010), "2010", data2020, "2020");

    let mut t = Table::new(vec![
        "continent",
        "median min RTT 2010 ms",
        "median min RTT 2020 ms",
        "improvement",
        "KS distance",
    ]);
    for row in &report.rows {
        t.row(vec![
            row.continent.to_string(),
            ms_opt(row.old_median_ms),
            ms_opt(row.new_median_ms),
            row.improvement()
                .map(|f| format!("{f:.2}x"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.3}", row.ks),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\npaper expectation: a decade of build-out moved the cloud from\n\
         ~100 ms to 10-25 ms for most users — the improvement factors\n\
         above quantify that on identical fleets."
    );
}

/// TEXT2: "Where is the Delay?" (§4.3), answered with traceroute-style
/// hop attribution: each continent's RTT decomposed into access, metro,
/// national-backbone, interconnect and datacenter segments.
fn text2(s: &Shared<'_>) {
    let report = delay_breakdown(s.platform(), 200, 5, 0xDE1A);

    let mut headers = vec![
        "continent".to_string(),
        "probes".to_string(),
        "median RTT".to_string(),
    ];
    headers.extend(Segment::ALL.iter().map(|s| format!("{} ms", s.label())));
    let mut t = Table::new(headers);
    for row in &report.rows {
        let mut cells = vec![
            row.continent.to_string(),
            row.probes.to_string(),
            ms(row.median_rtt_ms),
        ];
        cells.extend(row.segment_ms.iter().map(|&v| ms(v)));
        t.row(cells);
    }
    print!("{}", t.render());

    println!("\nshares of the decomposed RTT:");
    let mut t = Table::new(
        std::iter::once("continent".to_string())
            .chain(Segment::ALL.iter().map(|s| s.label().to_string()))
            .collect::<Vec<_>>(),
    );
    for row in &report.rows {
        let mut cells = vec![row.continent.to_string()];
        cells.extend(Segment::ALL.iter().map(|&s| pct(row.share(s))));
        t.row(cells);
    }
    print!("{}", t.render());

    println!(
        "\npaper reading (§4.3): in EU/NA the access segment dominates —\n\
         \"the consensus of last-mile being the bottleneck is well\n\
         established\" — while under-served continents pay most of their\n\
         delay in the national backbone and interconnection segments,\n\
         i.e. \"insufficient infrastructure deployment\"."
    );
}

/// EXT4: the bandwidth side of the edge argument: per-application
/// backhaul load at a reference metro deployment, with and without edge
/// aggregation, plus the model-derived version of the paper's
/// "1 GB/entity/day" boundary.
fn ext4(_: &Shared<'_>) {
    println!(
        "metro uplink: 100 Gbit/s | reference household-scale metro: {:.0} k entities",
        REFERENCE_ENTITIES_PER_METRO / 1000.0
    );
    println!(
        "derived bandwidth-gain boundary: {:.2} GB/entity/day (paper: ~1 GB)\n",
        derived_bandwidth_boundary_gb_per_day()
    );

    let apps = catalog::driving_applications();
    let mut t = Table::new(vec![
        "application",
        "entities/metro",
        "raw Gbit/s",
        "with edge Gbit/s",
        "uplink util raw",
        "util with edge",
        "backhaul saved",
        "edge material?",
    ]);
    let mut rows = bandwidth_study(&apps);
    rows.sort_by(|a, b| b.raw_utilization.total_cmp(&a.raw_utilization));
    for row in &rows {
        let app = apps.iter().find(|a| a.name == row.name).unwrap();
        t.row(vec![
            row.name.to_string(),
            format!("{:.0}", app.entities_per_metro),
            format!("{:.2}", row.raw_metro_gbps),
            format!("{:.2}", row.reduced_metro_gbps),
            pct(row.raw_utilization),
            pct(row.reduced_utilization),
            pct(row.saving_fraction),
            if row.edge_materially_helps() {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    print!("{}", t.render());

    let material: Vec<&str> = rows
        .iter()
        .filter(|r| r.edge_materially_helps())
        .map(|r| r.name)
        .collect();
    println!(
        "\napplications where edge aggregation materially saves backhaul: {}\n\
         (the blue 'bandwidth gain zone' of Fig. 8 — note the overlap with\n\
         the latency FZ is exactly the traffic-camera/video-analytics class)",
        material.join(", ")
    );
}

/// EXT5: the 5G what-if: can wireless users ever meet MTP, against the
/// cloud or against a basestation edge, under LTE as deployed, early 5G
/// as measured, and the ITU IMT-2020 promise?
fn ext5(s: &Shared<'_>) {
    let report = fiveg_whatif(s.platform(), 2000);

    let mut t = Table::new(vec![
        "last-mile assumption",
        "one-way access ms",
        "wireless probes meeting MTP via cloud",
        "via basestation edge",
        "edge within 7 ms compute budget",
    ]);
    for row in &report.rows {
        t.row(vec![
            row.assumption.label.to_string(),
            format!("{:.1}", row.assumption.one_way_ms),
            pct(row.cloud_mtp),
            pct(row.edge_mtp),
            pct(row.edge_compute_budget),
        ]);
    }
    print!("{}", t.render());

    println!(
        "\npaper reading (§5): with today's wireless, \"supporting strict\n\
         MTP thresholds, even with edge servers located at basestations,\n\
         seems uncertain\"; and once the last mile improves enough to\n\
         change that, the *cloud* becomes MTP-viable for a large share of\n\
         wireless users too — eroding the latency case for the edge from\n\
         the other side."
    );
}

/// EXT6: per-provider comparison (the CloudCmp angle): floor RTT to
/// each provider's nearest region per continent, plus the
/// footprint-controlled private-vs-public backbone split at Frankfurt.
fn ext6(s: &Shared<'_>) {
    let platform = s.platform();

    let report = provider_comparison(platform, 800);
    let mut headers = vec!["provider".to_string(), "backbone".to_string()];
    headers.extend(Continent::ALL.iter().map(|c| c.to_string()));
    headers.push("global".to_string());
    let mut t = Table::new(headers);
    for row in &report.rows {
        let mut cells = vec![row.provider.to_string(), backbone(row.provider).to_string()];
        cells.extend(Continent::ALL.iter().map(|&c| ms_opt(row.continent(c))));
        cells.push(ms_opt(row.global_median_ms));
        t.row(cells);
    }
    print!("{}", t.render());
    println!("(medians of floor RTT to each provider's nearest region, ms)\n");

    println!("footprint-controlled: all providers' Frankfurt regions, probes >1500 km away:");
    let mut t = Table::new(vec!["provider", "backbone", "median floor RTT ms"]);
    for (provider, median) in controlled_city_comparison(platform, "Frankfurt", 1500.0, 800) {
        t.row(vec![
            provider.to_string(),
            backbone(provider).to_string(),
            ms(median),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\npaper reading (§4.1): providers with \"private, large bandwidth,\n\
         low latency network backbones with wide-scale ISP peering\" beat\n\
         public-transit providers once the path crosses the core; nearby\n\
         users see footprint, not backbone."
    );
}

/// TEXT3: temporal structure: RTT by probe-local hour of day (the
/// residential evening congestion the bufferbloat literature predicts)
/// and per-day medians over the campaign (the stationarity check behind
/// Fig. 7's flat series).
fn text3(s: &Shared<'_>) {
    let data = s.data();

    let profile = diurnal_profile(data);
    println!(
        "diurnal profile ({} samples, probe-local time):",
        profile.samples
    );
    let mut t = Table::new(vec!["local hour", "median RTT ms"]);
    for (h, v) in profile.buckets.iter().enumerate() {
        t.row(vec![format!("{h:02}:00"), ms_opt(*v)]);
    }
    print!("{}", t.render());
    if let (Some((quiet, busy)), Some(swing)) = (profile.extremes(), profile.swing()) {
        println!(
            "\nquietest hour {quiet:02}:00, busiest {busy:02}:00, peak/trough {swing:.2}x\n\
             (residential load model peaks ~21:00 local; pings average over\n\
             3 packets so the visible swing is modest, as on real paths)\n"
        );
    }

    let series = stability_series(data, SimTime::from_hours(24));
    println!("per-day median of round minima:");
    let mut t = Table::new(vec!["day", "median min RTT ms"]);
    for (at, v) in &series.points {
        t.row(vec![format!("{}", at.as_hours() / 24), ms(*v)]);
    }
    print!("{}", t.render());
    if let Some(spread) = series.relative_spread() {
        println!(
            "\nrelative spread of daily medians: {spread:.3} — the campaign is\n\
             longitudinally stationary, so Fig. 4-6 aggregates are not an\n\
             artefact of a lucky week."
        );
    }
}

/// TEXT4: the abstract's claim, computed: "for most applications the
/// cloud is already 'close enough' for majority of the world's
/// population." Population-weighted cloud coverage per driving
/// application.
fn text4(s: &Shared<'_>) {
    let apps = catalog::driving_applications();
    let report = population_coverage(s.data(), &apps);

    println!(
        "population measured: {:.0} M (countries with responding probes)\n",
        report.population_measured_m
    );
    let mut t = Table::new(vec![
        "application",
        "needs <= ms",
        "population covered",
        "countries covered",
    ]);
    for row in &report.rows {
        t.row(vec![
            row.name.to_string(),
            ms(row.required_ms),
            pct(row.population_covered),
            pct(row.countries_covered),
        ]);
    }
    print!("{}", t.render());

    println!(
        "\n{} of driving applications are cloud-feasible (best case) for a\n\
         majority of the measured population — the abstract's \"for most\n\
         applications the cloud is already close enough for majority of\n\
         the world's population\".",
        pct(report.majority_covered_fraction())
    );
}

/// EXT7: infrastructure-failure study: cut a whole submarine corridor
/// and measure the per-continent impact on cloud reachability. The
/// fragility counterpart of §6's "plausible deployments" argument:
/// regions whose connectivity hangs on one corridor need infrastructure
/// before they need edge servers.
fn ext7(s: &Shared<'_>) {
    let platform = s.platform();

    let scenarios = [
        (
            corridor_cut(
                platform,
                Continent::Europe,
                Continent::NorthAmerica,
                "transatlantic corridor down",
            ),
            // Measured against each probe's nearest NA datacenter: the
            // corridor's actual traffic.
            Some(Continent::NorthAmerica),
        ),
        (
            corridor_cut(
                platform,
                Continent::LatinAmerica,
                Continent::NorthAmerica,
                "LatAm-NA (Miami) corridor down",
            ),
            Some(Continent::NorthAmerica),
        ),
        (
            corridor_cut(
                platform,
                Continent::Africa,
                Continent::Europe,
                "Africa-Europe cables down",
            ),
            Some(Continent::Europe),
        ),
    ];

    for (scenario, target) in scenarios {
        let report = failure_study(platform, &scenario, 300, target);
        println!(
            "== {} ({} links cut; targets: nearest {} DC) ==",
            report.scenario,
            report.links_cut,
            target.map(|c| c.short()).unwrap_or("any")
        );
        let mut t = Table::new(vec![
            "probe continent",
            "probes",
            "healthy median ms",
            "failed median ms",
            "degraded >25%",
            "disconnected",
        ]);
        for row in &report.rows {
            t.row(vec![
                row.continent.to_string(),
                row.probes.to_string(),
                ms(row.healthy_median_ms),
                ms_opt(row.failed_median_ms),
                pct(row.degraded_fraction),
                pct(row.disconnected_fraction),
            ]);
        }
        print!("{}", t.render());
        println!();
    }
    println!(
        "reading: continents with redundant corridors degrade gracefully;\n\
         those served by thin infrastructure lose reachability outright —\n\
         §6's case for infrastructure investment over edge deployment in\n\
         under-served regions."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_select_in_experiments_order() {
        let ids = |picked: &[&str]| -> Result<Vec<&str>, String> {
            let picked: Vec<String> = picked.iter().map(|s| s.to_string()).collect();
            select(&picked).map(|v| v.iter().map(|s| s.0).collect())
        };
        assert_eq!(ids(&[]).unwrap().len(), SECTIONS.len());
        assert_eq!(ids(&["ext7", "fig4", "fig4"]).unwrap(), ["fig4", "ext7"]);
        assert!(ids(&["fig4", "fig9"]).is_err());
    }
}
