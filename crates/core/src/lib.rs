//! # shears-analysis
//!
//! The analysis pipeline of *Pruning Edge Research with Latency Shears*:
//! every figure and headline number of the paper's evaluation,
//! implemented over the campaign data produced by [`shears_atlas`].
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Fig. 4 — per-country minimum RTT map + "32 countries < 10 ms" | [`proximity`] |
//! | Fig. 5 — CDF of per-probe minima by continent | [`proximity`] + [`stats`] |
//! | Fig. 6 — CDF of all samples by continent | [`distribution`] |
//! | Fig. 7 — wired vs wireless over the campaign | [`lastmile`] |
//! | Fig. 8 — feasibility-zone overlay | via [`shears_apps`] fed from [`lastmile`]/[`proximity`] |
//! | §5 headline numbers (MTP/PL/HRT coverage, 40 ms check) | [`headline`] |
//! | EXT1 — edge-at-metro gain study | [`edgegain`] |
//! | EXT3 — cloud-expansion ablation | [`expansion`] |
//!
//! All analyses consume a [`CampaignData`] view (platform + result
//! store) and apply the paper's filtering discipline: probes tagged as
//! privileged (datacentre/cloud-hosted) are excluded from everything.
//! Aggregate statistics are served by the [`CampaignFrame`] index
//! ([`frame`]), built once per campaign in a single columnar store scan
//! and memoized behind the view — rendering every figure costs one scan
//! plus index lookups, not one scan per figure.
//!
//! ```no_run
//! use shears_atlas::{Campaign, CampaignConfig, Platform, PlatformConfig};
//! use shears_analysis::{CampaignData, proximity};
//!
//! let platform = Platform::build(&PlatformConfig::quick(1));
//! let store = Campaign::new(&platform, CampaignConfig::quick()).run().unwrap();
//! let data = CampaignData::new(&platform, &store);
//! let fig4 = proximity::country_min_report(&data);
//! println!("{} countries under 10 ms", fig4.bucket_counts[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod breakdown;
pub mod coverage;
pub mod data;
pub mod distribution;
pub mod edgegain;
pub mod expansion;
pub mod frame;
pub mod headline;
pub mod kernels;
pub mod lastmile;
pub mod providers;
pub mod proximity;
pub mod report;
pub mod resilience;
pub mod stats;
pub mod temporal;
pub mod whatif;

pub use data::CampaignData;
pub use frame::CampaignFrame;
pub use stats::{Ecdf, Summary};

use shears_atlas::{Platform, Probe};
use shears_netsim::ping::PathSampler;
use shears_netsim::queue::DiurnalLoad;
use shears_netsim::{NodeId, RouteTable};

/// The RTT floor from `probe` to node `to` along `table`'s route, with
/// the probe's last mile at its median (no congestion, no bufferbloat);
/// `None` when the table holds no route for the pair.
pub(crate) fn floor_rtt_ms(
    platform: &Platform,
    table: &RouteTable,
    probe: &Probe,
    to: NodeId,
) -> Option<f64> {
    let path = table.path(platform.probe_node(probe.id), to)?;
    let load = DiurnalLoad::residential();
    Some(PathSampler::from_ref(path, platform.topology(), Some(probe.access), load).floor_rtt_ms())
}
