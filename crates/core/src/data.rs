//! The joined campaign-data view every analysis consumes.
//!
//! [`CampaignData`] binds the platform (probe metadata, catalogue,
//! geography) to a result store and applies the paper's global
//! filtering rule — §4.1: "We filter out all the probes that are
//! clearly installed in privileged locations (e.g., datacenters, cloud
//! network) from our measurements using their user-defined tags."
//!
//! Since the frame refactor this type is a thin compatibility wrapper:
//! aggregate queries ([`CampaignData::per_probe_min`],
//! [`CampaignData::per_country_min`],
//! [`CampaignData::samples_to_closest_dc`]) delegate to a lazily built,
//! memoized [`CampaignFrame`] — so a full report pays for one store
//! scan instead of one per figure — while the streaming iterators
//! ([`CampaignData::filtered`], [`CampaignData::filtered_responded`])
//! keep their original store-order semantics. A crash-recovered
//! campaign (`DurableOutcome::store`) or the samples replayed out of a
//! journal (`Replay::store`) are viewed the same way, through
//! [`CampaignData::new`]: recovered stores are bit-identical to
//! uninterrupted ones, so every downstream figure is too.

use std::collections::HashMap;
use std::sync::OnceLock;

use shears_atlas::{Platform, Probe, ProbeId, ResultStore, RttSample};

use crate::frame::CampaignFrame;

/// A joined view over one campaign run.
pub struct CampaignData<'a> {
    platform: &'a Platform,
    store: &'a ResultStore,
    frame: OnceLock<CampaignFrame>,
}

impl<'a> CampaignData<'a> {
    /// Creates the view. Cheap: the frame index is built on first use.
    pub fn new(platform: &'a Platform, store: &'a ResultStore) -> Self {
        Self {
            platform,
            store,
            frame: OnceLock::new(),
        }
    }

    /// The platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The raw store (unfiltered).
    pub fn store(&self) -> &'a ResultStore {
        self.store
    }

    /// The indexed frame over this campaign, built (in one columnar
    /// store scan) and memoized on first access.
    pub fn frame(&self) -> &CampaignFrame {
        self.frame
            .get_or_init(|| CampaignFrame::build(self.platform, self.store))
    }

    /// The probe record behind a sample.
    pub fn probe(&self, id: ProbeId) -> &'a Probe {
        &self.platform.probes()[id.index()]
    }

    /// Samples surviving the privileged-probe filter, with their probe
    /// records, in store order. This is the streaming path; aggregate
    /// statistics come precomputed from [`CampaignData::frame`], whose
    /// privileged mask this filter reads (one `bool` per row instead of
    /// a tag scan). Samples are materialised by value from the store's
    /// columns.
    pub fn filtered(&self) -> impl Iterator<Item = (&'a Probe, RttSample)> + '_ {
        let frame = self.frame();
        self.store
            .iter()
            .filter(move |s| !frame.is_privileged(s.probe))
            .map(move |s| (self.probe(s.probe), s))
    }

    /// Like [`CampaignData::filtered`], keeping only samples that got a
    /// reply.
    pub fn filtered_responded(&self) -> impl Iterator<Item = (&'a Probe, RttSample)> + '_ {
        self.filtered().filter(|(_, s)| s.responded())
    }

    /// Per-probe minimum RTT (ms) over the whole campaign and all
    /// targets — the probe-level statistic behind Fig. 5. Privileged
    /// probes are absent from the map; probes whose every round was
    /// lost are also absent.
    pub fn per_probe_min(&self) -> HashMap<ProbeId, f64> {
        self.frame().probe_minima().collect()
    }

    /// Per-country minimum RTT (ms): the best probe of each country to
    /// any datacenter — Fig. 4's statistic.
    pub fn per_country_min(&self) -> HashMap<&'a str, f64> {
        // The frame interns country codes with its own lifetime; re-key
        // to the platform's strings so callers outlive this borrow.
        let mut canon: HashMap<&str, &'a str> = HashMap::new();
        for p in self.platform.probes() {
            canon
                .entry(p.country.as_str())
                .or_insert(p.country.as_str());
        }
        self.frame()
            .country_minima()
            .map(|(c, v)| (canon[c], v))
            .collect()
    }

    /// For each probe, the minimum RTT *to its closest datacenter* per
    /// round — Fig. 6's population ("all ping measurements from all
    /// probes to their closest datacenter"). "Closest" is resolved per
    /// probe as the region with the lowest campaign-wide minimum.
    /// Served from the frame's cached resolution, in store order.
    pub fn samples_to_closest_dc(&self) -> Vec<(&'a Probe, f64)> {
        self.frame().closest_dc(self.platform, self.store).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shears_atlas::{Campaign, CampaignConfig, FleetConfig, PlatformConfig};

    fn data() -> (Platform, ResultStore) {
        let platform = Platform::build(&PlatformConfig {
            fleet: FleetConfig {
                target_size: 80,
                seed: 11,
            },
            ..PlatformConfig::default()
        });
        let store = Campaign::new(
            &platform,
            CampaignConfig {
                rounds: 4,
                targets_per_probe: 2,
                adjacent_targets: 1,
                ..CampaignConfig::quick()
            },
        )
        .run()
        .unwrap();
        (platform, store)
    }

    #[test]
    fn filtered_excludes_privileged_probes() {
        let (platform, store) = data();
        let view = CampaignData::new(&platform, &store);
        assert!(view.filtered().all(|(p, _)| !p.is_privileged()));
        // And the raw store does contain some privileged samples to
        // prove the filter does something (4 % of a decent fleet).
        let privileged_ids: std::collections::HashSet<_> = platform
            .probes()
            .iter()
            .filter(|p| p.is_privileged())
            .map(|p| p.id)
            .collect();
        if !privileged_ids.is_empty() {
            assert!(store.probes().iter().any(|p| privileged_ids.contains(p)));
        }
    }

    #[test]
    fn per_probe_min_is_a_lower_bound() {
        let (platform, store) = data();
        let view = CampaignData::new(&platform, &store);
        let mins = view.per_probe_min();
        assert!(!mins.is_empty());
        for (p, s) in view.filtered_responded() {
            assert!(mins[&p.id] <= f64::from(s.min_ms) + 1e-9);
        }
    }

    #[test]
    fn per_country_min_bounds_probe_minima() {
        let (platform, store) = data();
        let view = CampaignData::new(&platform, &store);
        let by_country = view.per_country_min();
        let by_probe = view.per_probe_min();
        for (id, v) in &by_probe {
            let country = view.probe(*id).country.as_str();
            assert!(by_country[country] <= *v + 1e-9);
        }
    }

    #[test]
    fn closest_dc_view_uses_one_region_per_probe() {
        let (platform, store) = data();
        let view = CampaignData::new(&platform, &store);
        let rows = view.samples_to_closest_dc();
        assert!(!rows.is_empty());
        // Each probe contributes at most `rounds` samples (one region).
        let mut counts: HashMap<ProbeId, usize> = HashMap::new();
        for (p, _) in &rows {
            *counts.entry(p.id).or_default() += 1;
        }
        for (_, c) in counts {
            assert!(c <= 4, "more than one region per probe leaked in: {c}");
        }
    }

    #[test]
    fn recovered_campaigns_report_identically() {
        use shears_atlas::{Campaign, DurabilityConfig};
        let (platform, store) = data();
        let cfg = CampaignConfig {
            rounds: 4,
            targets_per_probe: 2,
            adjacent_targets: 1,
            ..CampaignConfig::quick()
        };
        let path = std::env::temp_dir().join(format!(
            "shears-core-recovered-{}.journal",
            std::process::id()
        ));
        let mut d = DurabilityConfig::new(&path);
        d.crash_after_round = Some(1);
        assert!(Campaign::new(&platform, cfg).run_durable(2, &d).is_err());
        d.crash_after_round = None;
        let outcome = Campaign::resume(&platform, &d, 2).unwrap();
        let plain = CampaignData::new(&platform, &store);
        let recovered = CampaignData::new(&platform, &outcome.store);
        assert_eq!(plain.per_probe_min(), recovered.per_probe_min());
        assert_eq!(plain.per_country_min(), recovered.per_country_min());
        // Replay-only views see exactly the journaled prefix.
        let replay = shears_atlas::journal::replay(&path).unwrap();
        let partial = CampaignData::new(&platform, &replay.store);
        assert_eq!(partial.store(), &outcome.store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frame_is_memoized() {
        let (platform, store) = data();
        let view = CampaignData::new(&platform, &store);
        let a = view.frame() as *const _;
        let b = view.frame() as *const _;
        assert_eq!(a, b, "frame must be built once and reused");
    }
}
