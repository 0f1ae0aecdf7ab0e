//! Determinism guarantees: the whole reproduction is a pure function of
//! its seeds — the property that makes EXPERIMENTS.md reproducible.

use latency_shears::prelude::*;

fn platform(seed: u64) -> Platform {
    Platform::build(&PlatformConfig {
        fleet: FleetConfig {
            target_size: 150,
            seed,
        },
        ..PlatformConfig::default()
    })
}

fn campaign(platform: &Platform, seed: u64) -> ResultStore {
    Campaign::new(
        platform,
        CampaignConfig {
            rounds: 4,
            targets_per_probe: 2,
            adjacent_targets: 1,
            seed,
            ..CampaignConfig::quick()
        },
    )
    .run()
    .unwrap()
}

#[test]
fn identical_seeds_produce_identical_worlds_and_samples() {
    let p1 = platform(9);
    let p2 = platform(9);
    assert_eq!(p1.topology().node_count(), p2.topology().node_count());
    assert_eq!(p1.topology().link_count(), p2.topology().link_count());
    let s1 = campaign(&p1, 1);
    let s2 = campaign(&p2, 1);
    assert_eq!(s1, s2);
}

#[test]
fn campaign_seed_changes_samples_but_not_schedule() {
    let p = platform(9);
    let a = campaign(&p, 1);
    let b = campaign(&p, 2);
    // Values differ…
    assert_ne!(a, b);
    // …but the deterministic structure matches where both probes were
    // online: any (probe, region, at) key in both stores appears once.
    use std::collections::HashSet;
    let keys = |s: &ResultStore| -> HashSet<(ProbeId, u16, u64)> {
        s.iter()
            .map(|x| (x.probe, x.region, x.at.as_nanos()))
            .collect()
    };
    let ka = keys(&a);
    let kb = keys(&b);
    assert_eq!(ka.len(), a.len(), "no duplicate keys");
    // Online-ness is seed-dependent, but the shared subset is large.
    assert!(ka.intersection(&kb).count() > ka.len() / 2);
}

#[test]
fn fleet_seed_changes_probe_placement() {
    let p1 = platform(9);
    let p2 = platform(10);
    let moved = p1
        .probes()
        .iter()
        .zip(p2.probes())
        .filter(|(a, b)| a.location != b.location)
        .count();
    assert!(moved > p1.probes().len() / 2);
}

/// The pre-frame analysis path, kept verbatim: every figure used to
/// re-derive its inputs with its own O(n) iterator pass over the store.
/// The indexed [`CampaignFrame`] must reproduce these bit for bit. Fig. 7
/// and the diurnal profile are kept as they were before they read the
/// frame's privileged mask and the store's columns.
mod iterator_reference {
    use super::*;
    use latency_shears::analysis::kernels;
    use latency_shears::analysis::lastmile::{LastMileBin, LastMileReport};
    use latency_shears::analysis::temporal::DiurnalProfile;
    use std::collections::{BTreeSet, HashMap};

    pub fn per_probe_min(platform: &Platform, store: &ResultStore) -> HashMap<ProbeId, f64> {
        let mut min: HashMap<ProbeId, f64> = HashMap::new();
        for s in store.iter() {
            let p = &platform.probes()[s.probe.index()];
            if p.is_privileged() || !s.responded() {
                continue;
            }
            let v = f64::from(s.min_ms);
            min.entry(p.id).and_modify(|m| *m = m.min(v)).or_insert(v);
        }
        min
    }

    pub fn per_country_min<'a>(
        platform: &'a Platform,
        store: &ResultStore,
    ) -> HashMap<&'a str, f64> {
        let mut min: HashMap<&str, f64> = HashMap::new();
        for s in store.iter() {
            let p = &platform.probes()[s.probe.index()];
            if p.is_privileged() || !s.responded() {
                continue;
            }
            let v = f64::from(s.min_ms);
            min.entry(p.country.as_str())
                .and_modify(|m| *m = m.min(v))
                .or_insert(v);
        }
        min
    }

    pub fn samples_to_closest_dc(platform: &Platform, store: &ResultStore) -> Vec<(ProbeId, f64)> {
        let mut best: HashMap<ProbeId, (u16, f64)> = HashMap::new();
        for s in store.iter() {
            let p = &platform.probes()[s.probe.index()];
            if p.is_privileged() || !s.responded() {
                continue;
            }
            let v = f64::from(s.min_ms);
            best.entry(p.id)
                .and_modify(|(region, m)| {
                    if v < *m {
                        *region = s.region;
                        *m = v;
                    }
                })
                .or_insert((s.region, v));
        }
        store
            .iter()
            .filter_map(|s| {
                let p = &platform.probes()[s.probe.index()];
                if p.is_privileged() || !s.responded() {
                    return None;
                }
                best.get(&p.id)
                    .is_some_and(|(region, _)| *region == s.region)
                    .then_some((p.id, f64::from(s.min_ms)))
            })
            .collect()
    }

    const BASELINE_OUTLIER_FACTOR: f64 = 3.0;

    /// `CampaignData::filtered_responded` as it was before it read the
    /// frame's privileged mask: a tag scan of every row's probe.
    fn filtered_responded<'a>(
        data: &'a CampaignData<'a>,
    ) -> impl Iterator<Item = (&'a Probe, RttSample)> + 'a {
        data.store()
            .iter()
            .filter_map(move |s| {
                let p = data.probe(s.probe);
                if p.is_privileged() {
                    None
                } else {
                    Some((p, s))
                }
            })
            .filter(|(_, s)| s.responded())
    }

    /// `last_mile_report` before its sample pass read store columns: two
    /// `BTreeSet<ProbeId>` lookups per tag-scanned row.
    pub fn last_mile_report(data: &CampaignData<'_>, bin_width: SimTime) -> Option<LastMileReport> {
        assert!(bin_width.as_nanos() > 0, "bin width must be positive");
        let frame = data.frame();
        let probes = data.platform().probes();
        let wired_set: Vec<_> = probes
            .iter()
            .filter(|p| !frame.is_privileged(p.id) && p.is_wired_tagged())
            .collect();
        let wireless_set: Vec<_> = probes
            .iter()
            .filter(|p| !frame.is_privileged(p.id) && p.is_wireless_tagged())
            .collect();
        let wired_countries: BTreeSet<&str> =
            wired_set.iter().map(|p| p.country.as_str()).collect();
        let wireless_countries: BTreeSet<&str> =
            wireless_set.iter().map(|p| p.country.as_str()).collect();
        let matched: BTreeSet<&str> = wired_countries
            .intersection(&wireless_countries)
            .copied()
            .collect();
        if matched.is_empty() {
            return None;
        }
        let mut wired_baselines_by_country: HashMap<&str, Vec<f64>> = HashMap::new();
        for p in &wired_set {
            if let Some(b) = frame.probe_min(p.id) {
                wired_baselines_by_country
                    .entry(p.country.as_str())
                    .or_default()
                    .push(b);
            }
        }
        let country_median: HashMap<&str, f64> = wired_baselines_by_country
            .into_iter()
            .filter_map(|(c, v)| kernels::median(&v).map(|m| (c, m)))
            .collect();
        let in_line = |id: ProbeId, country: &str| -> bool {
            match (frame.probe_min(id), country_median.get(country)) {
                (Some(b), Some(&m)) => b <= m * BASELINE_OUTLIER_FACTOR,
                _ => false,
            }
        };
        let wired_ids: BTreeSet<ProbeId> = wired_set
            .iter()
            .filter(|p| matched.contains(p.country.as_str()) && in_line(p.id, &p.country))
            .map(|p| p.id)
            .collect();
        let wireless_ids: BTreeSet<ProbeId> = wireless_set
            .iter()
            .filter(|p| {
                matched.contains(p.country.as_str())
                    && match (
                        frame.probe_min(p.id),
                        country_median.get(p.country.as_str()),
                    ) {
                        (Some(b), Some(&m)) => b <= m * BASELINE_OUTLIER_FACTOR * 3.0,
                        _ => false,
                    }
            })
            .map(|p| p.id)
            .collect();
        if wired_ids.is_empty() || wireless_ids.is_empty() {
            return None;
        }
        let mut wired_all = Vec::new();
        let mut wireless_all = Vec::new();
        let mut bin_samples: HashMap<u64, (Vec<f64>, Vec<f64>)> = HashMap::new();
        for (probe, sample) in filtered_responded(data) {
            let v = f64::from(sample.min_ms);
            let bin = sample.at.as_nanos() / bin_width.as_nanos();
            if wired_ids.contains(&probe.id) {
                wired_all.push(v);
                bin_samples.entry(bin).or_default().0.push(v);
            } else if wireless_ids.contains(&probe.id) {
                wireless_all.push(v);
                bin_samples.entry(bin).or_default().1.push(v);
            }
        }
        let mut bins: Vec<LastMileBin> = bin_samples
            .into_iter()
            .map(|(bin, (wired, wireless))| LastMileBin {
                at: SimTime::from_nanos(bin * bin_width.as_nanos()),
                wired_ms: kernels::median(&wired),
                wireless_ms: kernels::median(&wireless),
            })
            .collect();
        bins.sort_by_key(|b| b.at);
        let wired_median_ms = kernels::median(&wired_all)?;
        let wireless_median_ms = kernels::median(&wireless_all)?;
        Some(LastMileReport {
            bins,
            wired_median_ms,
            wireless_median_ms,
            ratio: wireless_median_ms / wired_median_ms,
            added_ms: wireless_median_ms - wired_median_ms,
            wired_probes: wired_ids.len(),
            wireless_probes: wireless_ids.len(),
            matched_countries: matched.len(),
        })
    }

    /// `diurnal_profile` over the tag-scanned rows.
    pub fn diurnal_profile(data: &CampaignData<'_>) -> DiurnalProfile {
        let mut per_hour: Vec<Vec<f64>> = vec![Vec::new(); 24];
        let mut samples = 0;
        for (probe, s) in filtered_responded(data) {
            let hour = s.at.local_hour_of_day(probe.location.lon) as usize % 24;
            if s.avg_ms.is_finite() {
                per_hour[hour].push(f64::from(s.avg_ms));
                samples += 1;
            }
        }
        DiurnalProfile {
            buckets: per_hour.into_iter().map(|v| kernels::median(&v)).collect(),
            samples,
        }
    }
}

/// Every field of a Fig. 7 report, floats as bits.
type LastMileBits = (Vec<(u64, Option<u64>, Option<u64>)>, [u64; 4], [usize; 3]);

fn last_mile_bits(r: &latency_shears::analysis::lastmile::LastMileReport) -> LastMileBits {
    (
        r.bins
            .iter()
            .map(|b| {
                (
                    b.at.as_nanos(),
                    b.wired_ms.map(f64::to_bits),
                    b.wireless_ms.map(f64::to_bits),
                )
            })
            .collect(),
        [r.wired_median_ms, r.wireless_median_ms, r.ratio, r.added_ms].map(f64::to_bits),
        [r.wired_probes, r.wireless_probes, r.matched_countries],
    )
}

/// Fig. 7 and the diurnal profile on the privileged mask and the column
/// pass are bit-identical to their tag-scan predecessors, on a clean
/// campaign and on a chaos campaign whose lost rounds the passes skip.
#[test]
fn last_mile_and_diurnal_passes_match_the_tag_scan_reference() {
    use latency_shears::analysis::temporal::diurnal_profile;

    let p = Platform::build(&PlatformConfig {
        fleet: FleetConfig {
            target_size: 500,
            seed: 44,
        },
        ..PlatformConfig::default()
    });
    let base = CampaignConfig {
        rounds: 8,
        targets_per_probe: 3,
        adjacent_targets: 2,
        ..CampaignConfig::quick()
    };
    let chaos = CampaignConfig {
        faults: FaultConfig::profile("chaos").expect("known profile"),
        ..base
    };
    for (name, cfg) in [("clean", base), ("chaos", chaos)] {
        let mut store = Campaign::new(&p, cfg).run().unwrap();
        let lost = store.len() - store.responded_len();
        assert!(
            name == "clean" || lost > 0,
            "the chaos campaign loses rounds"
        );
        // One more lost round per probe, after the campaign's last round:
        // a Fig. 7 pass that kept lost rows would grow an empty bin there
        // (the medians skip their infinite RTTs either way).
        for probe in p.probes() {
            store.push(RttSample {
                probe: probe.id,
                region: 0,
                at: SimTime::from_hours(999),
                min_ms: f32::INFINITY,
                avg_ms: f32::INFINITY,
                sent: 3,
                received: 0,
            });
        }
        let data = CampaignData::new(&p, &store);
        let privileged = p.probes().iter().filter(|pr| pr.is_privileged()).count();
        assert!(privileged > 0, "the mask must drop some probes");
        for hours in [6, 24] {
            let bin = SimTime::from_hours(hours);
            let got = last_mile_report(&data, bin).expect("both sets populated");
            let want = iterator_reference::last_mile_report(&data, bin).expect("same sets");
            assert_eq!(
                last_mile_bits(&got),
                last_mile_bits(&want),
                "{name}, {hours} h bins"
            );
        }
        let got = diurnal_profile(&data);
        let want = iterator_reference::diurnal_profile(&data);
        let bits = |d: &latency_shears::analysis::temporal::DiurnalProfile| {
            let buckets: Vec<_> = d.buckets.iter().map(|b| b.map(f64::to_bits)).collect();
            (buckets, d.samples)
        };
        assert_eq!(bits(&got), bits(&want), "{name} diurnal");
        let filtered = data.filtered().count();
        let filtered_ref = store
            .iter()
            .filter(|s| !p.probes()[s.probe.index()].is_privileged())
            .count();
        assert_eq!(filtered, filtered_ref);
        assert_eq!(
            data.filtered_responded().count(),
            data.frame().responded_len()
        );
    }
}

/// Golden equivalence: the Fig. 4–7 series and the headline numbers off
/// the indexed frame are bit-identical to the historical per-figure
/// iterator passes on the same campaign.
#[test]
fn frame_indexes_reproduce_the_iterator_path_bit_for_bit() {
    use latency_shears::analysis::proximity::CountryMinReport;
    use std::collections::HashMap;

    let p = platform(9);
    let store = campaign(&p, 1);
    let data = CampaignData::new(&p, &store);

    // Ingredients first: the three derived series every figure draws on.
    let probe_ref = iterator_reference::per_probe_min(&p, &store);
    assert_eq!(data.per_probe_min(), probe_ref);
    let country_ref = iterator_reference::per_country_min(&p, &store);
    assert_eq!(data.per_country_min(), country_ref);
    let closest_ref = iterator_reference::samples_to_closest_dc(&p, &store);
    let closest: Vec<(ProbeId, f64)> = data
        .samples_to_closest_dc()
        .into_iter()
        .map(|(pr, v)| (pr.id, v))
        .collect();
    assert_eq!(closest, closest_ref, "closest-DC rows, in store order");

    // Fig. 4: map, buckets and the above-PL list.
    let fig4 = country_min_report(&data);
    let owned: HashMap<String, f64> = country_ref
        .iter()
        .map(|(&c, &v)| (c.to_string(), v))
        .collect();
    assert_eq!(fig4.min_by_country, owned);
    let mut buckets = [0usize; 6];
    let mut above_pl: Vec<String> = Vec::new();
    for (&c, &v) in &country_ref {
        buckets[CountryMinReport::bucket_of(v)] += 1;
        if v > 100.0 {
            above_pl.push(c.to_string());
        }
    }
    above_pl.sort();
    assert_eq!(fig4.bucket_counts, buckets);
    assert_eq!(fig4.above_pl, above_pl);

    // Fig. 5: one ECDF per continent over the per-probe minima.
    let fig5 = probe_min_cdfs(&data);
    assert_eq!(fig5.by_continent.len(), 6);
    for (c, e) in &fig5.by_continent {
        let values: Vec<f64> = p
            .probes()
            .iter()
            .filter(|pr| pr.continent == *c)
            .filter_map(|pr| probe_ref.get(&pr.id).copied())
            .collect();
        assert_eq!(e, &Ecdf::new(values), "Fig. 5 {c}");
    }

    // Fig. 6: one ECDF per continent over the closest-DC rounds.
    let fig6 = all_samples_cdfs(&data);
    for (c, e) in &fig6.by_continent {
        let values: Vec<f64> = closest_ref
            .iter()
            .filter(|(id, _)| p.probes()[id.index()].continent == *c)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(e, &Ecdf::new(values), "Fig. 6 {c}");
    }

    // Fig. 7 and the headline consume only the series proven identical
    // above; recomputing them on a fresh view (fresh frame build) must
    // reproduce every field at full precision. `{:?}` prints every
    // float's shortest round-trip digits and tells NaN from infinity.
    let fresh = CampaignData::new(&p, &store);
    let fig7 = last_mile_report(&data, SimTime::from_hours(6));
    let fig7_again = last_mile_report(&fresh, SimTime::from_hours(6));
    assert_eq!(format!("{fig7:?}"), format!("{fig7_again:?}"));
    let head = headline_numbers(&data);
    let head_again = headline_numbers(&fresh);
    assert_eq!(format!("{head:?}"), format!("{head_again:?}"));
    assert_eq!(head.countries_under_10ms, buckets[0]);
    assert_eq!(head.countries_10_to_20ms, buckets[1]);
    assert_eq!(head.countries_above_pl, above_pl.len());
}

/// Lost rounds carry `INFINITY` markers that JSON cannot express; they
/// are written as `null` and an `f32` reads `null` back as infinity,
/// which must keep a full campaign dump loss-exact through an
/// export/import round trip.
#[test]
fn campaign_dump_round_trips_lost_rounds_exactly() {
    let p = platform(9);
    let mut store = campaign(&p, 1);
    // Whether the stochastic model loses a round at this scale is
    // seed-dependent; append one so the marker path always runs.
    store.push(RttSample {
        probe: ProbeId(0),
        region: 0,
        at: SimTime::from_hours(999),
        min_ms: f32::INFINITY,
        avg_ms: f32::INFINITY,
        sent: 3,
        received: 0,
    });
    let lost = store.iter().filter(|s| !s.responded()).count();
    assert!(lost > 0);

    let text = store.to_jsonl();
    assert!(text.contains("null"), "lost rounds must serialise as null");
    let back = ResultStore::from_jsonl(&text).expect("own dump parses");
    assert_eq!(back, store, "bit-exact round trip");
    assert_eq!(back.iter().filter(|s| !s.responded()).count(), lost);
    for s in back.iter().filter(|s| !s.responded()) {
        assert!(s.min_ms.is_infinite() && s.avg_ms.is_infinite());
    }
}

/// The tentpole guarantee of the shared route table: for every
/// probe→DC pair the campaign can measure, the precomputed path —
/// links, nodes and one-way floor — is bit-identical to what the
/// incremental Dijkstra router resolves for that pair. Paper-style
/// targets on several 600-probe fleets put a dozen probes behind most
/// metro PoPs, so the table's one search per chain head serves each
/// probe from a search rooted elsewhere.
#[test]
fn route_table_matches_router_for_every_probe_dc_pair() {
    use latency_shears::netsim::Router;

    let (same_continent, adjacent) = (5, 3);
    for seed in [9u64, 23, 57, 101, 202, 303] {
        let p = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 600,
                seed,
            },
            ..PlatformConfig::default()
        });
        let table = p.route_table(same_continent, adjacent, 4);
        let mut router = Router::new(p.topology());
        let mut pairs = 0usize;
        for probe in p.probes() {
            let from = p.probe_node(probe.id);
            for &target in &p.targets_for(probe, same_continent, adjacent) {
                let to = p.dc_node(target as usize);
                match router.path(from, to) {
                    Some(want) => {
                        let got = table
                            .path(from, to)
                            .expect("routed pair present in table")
                            .to_path_info();
                        assert_eq!(got.links, want.links, "links {from:?}->{to:?}");
                        assert_eq!(got.nodes, want.nodes, "nodes {from:?}->{to:?}");
                        assert_eq!(
                            got.base_one_way_ms.to_bits(),
                            want.base_one_way_ms.to_bits(),
                            "floor {from:?}->{to:?}"
                        );
                        pairs += 1;
                    }
                    None => assert!(table.path(from, to).is_none(), "{from:?}->{to:?}"),
                }
            }
        }
        assert!(pairs > 4 * p.probes().len(), "seed {seed}: {pairs} pairs");
        assert_eq!(table.route_count(), pairs, "seed {seed}");
    }
}

#[test]
fn route_table_build_is_thread_count_invariant() {
    let p = platform(9);
    let reference = p.route_table(2, 1, 1);
    for threads in [2usize, 5, 8] {
        assert_eq!(
            p.route_table(2, 1, threads),
            reference,
            "{threads}-thread build diverged"
        );
    }
}

/// The golden acceptance grid: ping and TCP campaigns, with and without
/// churn, sequential and at 1/2/8 worker threads, all produce the same
/// store, row for row, through the shared route table.
#[test]
fn campaign_is_bit_identical_across_kinds_churn_and_threads() {
    use latency_shears::atlas::MeasurementType;

    let p = platform(9);
    for kind in [MeasurementType::Ping, MeasurementType::TcpConnect] {
        for churn in [false, true] {
            let cfg = CampaignConfig {
                rounds: 3,
                targets_per_probe: 2,
                adjacent_targets: 1,
                kind,
                churn,
                ..CampaignConfig::quick()
            };
            let reference = Campaign::new(&p, cfg).run().unwrap();
            assert!(!reference.is_empty(), "{kind:?} churn={churn}");
            for threads in [1usize, 2, 8] {
                let run = Campaign::new(&p, cfg).run_parallel(threads).unwrap();
                assert_eq!(run, reference, "{kind:?} churn={churn} threads={threads}");
            }
        }
    }
}

/// Chaos acceptance grid: under every fault profile, a campaign is a
/// pure function of its seed — run and run_parallel at 1/2/8 threads
/// produce the same store, row for row, across a matrix of seeds wide
/// enough to hit cuts, bursts and blackouts in many phases.
#[test]
fn chaos_campaigns_are_bit_identical_across_seeds_profiles_and_threads() {
    let p = Platform::build(&PlatformConfig {
        fleet: FleetConfig {
            target_size: 40,
            seed: 17,
        },
        ..PlatformConfig::default()
    });
    let mut faulty_profiles = 0usize;
    for profile in ["lossy", "blackout", "chaos"] {
        let faults = FaultConfig::profile(profile).expect("known profile");
        for seed in 1..=20u64 {
            let cfg = CampaignConfig {
                rounds: 2,
                targets_per_probe: 1,
                adjacent_targets: 1,
                seed,
                faults,
                recovery: RetryPolicy::atlas_default(),
                ..CampaignConfig::quick()
            };
            let campaign = Campaign::new(&p, cfg);
            let plan = campaign.fault_plan().expect("profiles enable faults");
            faulty_profiles += usize::from(!plan.is_empty());
            let reference = campaign.run().unwrap();
            assert!(!reference.is_empty(), "{profile} seed {seed}");
            for threads in [1usize, 2, 8] {
                let run = Campaign::new(&p, cfg).run_parallel(threads).unwrap();
                assert_eq!(run, reference, "{profile} seed {seed} threads {threads}");
            }
        }
    }
    // The matrix must actually exercise faults, not 60 empty plans.
    assert!(faulty_profiles > 40, "{faulty_profiles} non-empty plans");
}

/// The no-fault equivalence pin: a passthrough plan (fault machinery
/// active, zero scheduled events) reproduces the default fault-free
/// campaign bit for bit — the guarantee that lets every pre-existing
/// golden test keep its expected values.
#[test]
fn passthrough_faults_reproduce_the_fault_free_campaign() {
    let p = platform(9);
    let base = CampaignConfig {
        rounds: 3,
        targets_per_probe: 2,
        adjacent_targets: 1,
        ..CampaignConfig::quick()
    };
    let clean = Campaign::new(&p, base).run().unwrap();
    let cfg = CampaignConfig {
        faults: FaultConfig::passthrough(),
        ..base
    };
    let campaign = Campaign::new(&p, cfg);
    let plan = campaign.fault_plan().expect("passthrough is enabled");
    assert!(plan.is_empty(), "passthrough schedules no events");
    let faulty = campaign.run().unwrap();
    assert_eq!(faulty, clean);
}

/// Columnar acceptance: every `ResultStore` accessor — row views,
/// column slices, filters and aggregates — agrees with a plain
/// row-by-row pass over `iter()`. This is the contract that let the
/// store switch to struct-of-arrays without touching its callers.
#[test]
fn columnar_store_accessors_agree_with_the_row_view() {
    let p = platform(9);
    let mut store = campaign(&p, 1);
    // Force at least one lost round so the responded paths branch.
    store.push(RttSample {
        probe: ProbeId(3),
        region: 7,
        at: SimTime::from_hours(999),
        min_ms: f32::INFINITY,
        avg_ms: f32::INFINITY,
        sent: 3,
        received: 0,
    });
    let rows: Vec<RttSample> = store.iter().collect();
    assert_eq!(rows.len(), store.len());

    // Row materialisation: get and iter are the same view.
    for (i, s) in rows.iter().enumerate() {
        assert_eq!(store.get(i), *s);
        assert_eq!(store.responded_at(i), s.responded());
    }

    // Column slices are the transposed rows, floats bit for bit.
    for (i, s) in rows.iter().enumerate() {
        assert_eq!(store.probes()[i], s.probe);
        assert_eq!(store.regions()[i], s.region);
        assert_eq!(store.ats()[i], s.at);
        assert_eq!(store.min_ms()[i].to_bits(), s.min_ms.to_bits());
        assert_eq!(store.avg_ms()[i].to_bits(), s.avg_ms.to_bits());
        assert_eq!(store.sent()[i], s.sent);
        assert_eq!(store.received()[i], s.received);
    }

    // Filtered views against the naive row filters.
    let by_probe: Vec<RttSample> = store.by_probe(ProbeId(3)).collect();
    let by_probe_ref: Vec<RttSample> = rows
        .iter()
        .filter(|s| s.probe == ProbeId(3))
        .copied()
        .collect();
    assert_eq!(by_probe, by_probe_ref);
    let region = rows[0].region;
    let by_region: Vec<RttSample> = store.by_region(region).collect();
    let by_region_ref: Vec<RttSample> = rows
        .iter()
        .filter(|s| s.region == region)
        .copied()
        .collect();
    assert_eq!(by_region, by_region_ref);
    let (from, to) = (SimTime::from_hours(1), SimTime::from_hours(10));
    let windowed: Vec<RttSample> = store.in_window(from, to).collect();
    let windowed_ref: Vec<RttSample> = rows
        .iter()
        .filter(|s| s.at >= from && s.at < to)
        .copied()
        .collect();
    assert_eq!(windowed, windowed_ref);
    let responded: Vec<RttSample> = store.responded().collect();
    let responded_ref: Vec<RttSample> = rows.iter().filter(|s| s.responded()).copied().collect();
    assert_eq!(responded, responded_ref);

    // Aggregates.
    assert_eq!(store.responded_len(), responded_ref.len());
    let rate_ref = responded_ref.len() as f64 / rows.len() as f64;
    assert!((store.response_rate() - rate_ref).abs() < f64::EPSILON);

    // Column-wise merge is row concatenation.
    let cut = rows.len() / 2;
    let mut left = ResultStore::with_capacity(cut);
    let mut right = ResultStore::new();
    for (i, s) in rows.iter().enumerate() {
        if i < cut {
            left.push(*s);
        } else {
            right.push(*s);
        }
    }
    assert!(left.iter().eq(rows[..cut].iter().copied()));
    left.merge(right);
    assert_eq!(left, store, "merge == concatenation");
}

/// Public-surface equality of two frames over the same store: every
/// accessor the analysis layer consumes must agree, floats bit for bit.
fn assert_frames_agree(p: &Platform, store: &ResultStore, a: &CampaignFrame, b: &CampaignFrame) {
    assert_eq!(a.rows_indexed(), b.rows_indexed());
    assert_eq!(a.filtered_len(), b.filtered_len());
    assert_eq!(a.responded_len(), b.responded_len());
    assert_eq!(a.countries_measured(), b.countries_measured());
    for probe in p.probes() {
        assert_eq!(a.is_privileged(probe.id), b.is_privileged(probe.id));
        assert_eq!(
            a.probe_min(probe.id).map(f64::to_bits),
            b.probe_min(probe.id).map(f64::to_bits),
            "probe {:?} min",
            probe.id
        );
        assert_eq!(a.best_region(probe.id), b.best_region(probe.id));
        let ra: Vec<(u16, u64)> = a
            .region_minima(probe.id)
            .map(|(r, v)| (r, v.to_bits()))
            .collect();
        let rb: Vec<(u16, u64)> = b
            .region_minima(probe.id)
            .map(|(r, v)| (r, v.to_bits()))
            .collect();
        assert_eq!(ra, rb, "probe {:?} region minima", probe.id);
        let sa: Vec<RttSample> = a.by_probe(store, probe.id).collect();
        let sb: Vec<RttSample> = b.by_probe(store, probe.id).collect();
        assert_eq!(sa, sb, "probe {:?} partition", probe.id);
    }
    let ca: Vec<(&str, u64)> = a.country_minima().map(|(c, v)| (c, v.to_bits())).collect();
    let cb: Vec<(&str, u64)> = b.country_minima().map(|(c, v)| (c, v.to_bits())).collect();
    assert_eq!(ca, cb, "country minima");
    let xa: Vec<(ProbeId, u64)> = a
        .closest_dc(p, store)
        .map(|(pr, v)| (pr.id, v.to_bits()))
        .collect();
    let xb: Vec<(ProbeId, u64)> = b
        .closest_dc(p, store)
        .map(|(pr, v)| (pr.id, v.to_bits()))
        .collect();
    assert_eq!(xa, xb, "closest-DC rows");
    assert_eq!(a.time_span(store), b.time_span(store));
    if let Some((lo, hi)) = a.time_span(store) {
        let beyond = SimTime::from_hours(1_000_000);
        let wa: Vec<RttSample> = a.in_window(store, lo, beyond).collect();
        let wb: Vec<RttSample> = b.in_window(store, lo, beyond).collect();
        assert_eq!(wa, wb, "full-window time index");
        let ha: Vec<RttSample> = a.in_window(store, lo, hi).collect();
        let hb: Vec<RttSample> = b.in_window(store, lo, hi).collect();
        assert_eq!(ha, hb, "half-open window");
    }
}

/// Incremental acceptance: a frame grown round by round with `append`
/// is indistinguishable — on its whole public surface — from a frame
/// rebuilt from scratch at every step, on clean and chaos-faulted
/// campaigns alike.
#[test]
fn incremental_frame_append_matches_full_rebuild_across_threads_and_faults() {
    let p = Platform::build(&PlatformConfig {
        fleet: FleetConfig {
            target_size: 60,
            seed: 17,
        },
        ..PlatformConfig::default()
    });
    for profile in [None, Some("chaos")] {
        let mut cfg = CampaignConfig {
            rounds: 4,
            targets_per_probe: 2,
            adjacent_targets: 1,
            seed: 5,
            ..CampaignConfig::quick()
        };
        if let Some(name) = profile {
            cfg.faults = FaultConfig::profile(name).expect("known profile");
            cfg.recovery = RetryPolicy::atlas_default();
        }
        let full = Campaign::new(&p, cfg).run().unwrap();
        assert!(!full.is_empty(), "{profile:?}");

        // Cut the store at round-time boundaries.
        let ats = full.ats();
        let mut cuts = vec![0usize];
        for i in 1..full.len() {
            if ats[i] != ats[i - 1] {
                cuts.push(i);
            }
        }
        cuts.push(full.len());
        assert!(cuts.len() >= 3, "{profile:?}: needs multiple rounds");

        let mut growing = ResultStore::with_capacity(full.len());
        for i in 0..cuts[1] {
            growing.push(full.get(i));
        }
        let mut incremental = CampaignFrame::build(&p, &growing);
        assert_eq!(incremental.appends(), 0);
        for (step, pair) in cuts.windows(2).skip(1).enumerate() {
            for i in pair[0]..pair[1] {
                growing.push(full.get(i));
            }
            incremental.append(&growing);
            assert_eq!(incremental.appends(), step as u64 + 1);
            assert_eq!(incremental.rows_indexed(), growing.len());
            let rebuilt = CampaignFrame::build(&p, &growing);
            assert_frames_agree(&p, &growing, &incremental, &rebuilt);
        }
    }
}

#[test]
fn parallel_execution_is_seed_stable_across_thread_counts() {
    let p = platform(9);
    let cfg = CampaignConfig {
        rounds: 3,
        targets_per_probe: 2,
        adjacent_targets: 1,
        ..CampaignConfig::quick()
    };
    let mut runs: Vec<ResultStore> = [1usize, 2, 5, 8]
        .iter()
        .map(|&t| Campaign::new(&p, cfg).run_parallel(t).unwrap())
        .collect();
    let reference = runs.remove(0);
    for run in runs {
        assert_eq!(run, reference);
    }
}
