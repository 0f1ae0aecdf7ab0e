//! # shears-atlas
//!
//! A RIPE-Atlas-style measurement platform over the simulated Internet
//! of [`shears_netsim`]: the substrate on which the latency-shears
//! measurement campaign runs.
//!
//! The real platform's concepts map one-to-one:
//!
//! | RIPE Atlas | Here |
//! |---|---|
//! | probe (id, geo, tags, status) | [`Probe`] |
//! | system/user tags (`ethernet`, `lte`, `datacentre`, …) | [`tags`] vocabulary + [`TagFilter`] |
//! | the 3200-probe vantage fleet in 166 countries | [`FleetBuilder`] synthesis |
//! | credits & quotas | [`CreditLedger`] |
//! | result stream | [`RttSample`] in a [`ResultStore`] |
//! | nine-month campaign | [`Campaign`] rounds behind a per-round barrier |
//!
//! The probe fleet is synthetic but carries the real fleet's biases —
//! EU/NA-heavy density, wired-dominant access, a minority of probes in
//! privileged (datacenter) locations that the analysis must filter out —
//! because those biases are what the paper's filtering steps exercise.
//!
//! ```
//! use shears_atlas::{FleetBuilder, FleetConfig};
//! use shears_geo::CountryAtlas;
//!
//! let atlas = CountryAtlas::global();
//! let fleet = FleetBuilder::new(FleetConfig { target_size: 400, seed: 7 })
//!     .build(&atlas);
//! assert!(fleet.len() >= 400);
//! // Every continent is covered.
//! use shears_geo::Continent;
//! for cont in Continent::ALL {
//!     assert!(fleet.iter().any(|p| p.continent == cont));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod campaign;
pub mod credits;
pub mod fleet;
pub mod journal;
pub mod json;
pub mod measurement;
pub mod platform;
pub mod probe;
pub mod recovery;
pub mod store;
pub mod tags;

pub use availability::OutageSchedule;
pub use campaign::{
    Campaign, CampaignConfig, CampaignError, DurabilityConfig, DurableOutcome, ShardContext,
};
pub use credits::{CreditError, CreditLedger};
pub use fleet::{FleetBuilder, FleetConfig};
pub use journal::{JournalError, JournalHeader, JournalWriter, Replay, RoundMark};
pub use measurement::MeasurementType;
pub use platform::{Platform, PlatformConfig};
pub use probe::{Probe, ProbeId};
pub use recovery::{RetryPolicy, RetrySchedule};
pub use store::{JsonlError, ResultStore, RttSample};
pub use tags::TagFilter;
