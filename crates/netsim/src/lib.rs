//! # shears-netsim
//!
//! A deterministic, discrete-event wide-area network simulator producing
//! the RTT samples that the latency-shears reproduction analyses in place
//! of real Internet measurements.
//!
//! The paper attributes client-to-cloud latency to a small set of
//! mechanisms, each of which is modelled explicitly here:
//!
//! | Mechanism (paper §4) | Module |
//! |---|---|
//! | geodesic propagation at 2/3 c | [`topology`] link delays from `shears_geo` distances |
//! | path inflation / indirect routing | [`routing`] shortest paths over an explicit hub topology |
//! | congestion & bufferbloat | [`queue`] M/M/1-style sojourn + diurnal load, [`access`] bufferbloat episodes |
//! | last-mile access (wired vs wireless) | [`access`] per-technology delay/jitter models |
//! | packet loss | per-link and per-access loss probabilities in [`ping`] |
//!
//! The [`event`] module provides the discrete-event core
//! ([`event::EventQueue`]) behind the packet-level simulator in
//! [`packetsim`] and the ping model's test oracle, and [`ping`] /
//! [`tcp`] implement the two probing methods the paper uses or plans to use (ICMP echo; TCP connect-time
//! probing per §5 "Network vs. application latency").
//!
//! All stochastic behaviour is seeded; the same seed produces the same
//! samples on every platform.
//!
//! ```
//! use shears_netsim::{LinkClass, Topology, NodeKind};
//! use shears_netsim::access::AccessTechnology;
//! use shears_geo::GeoPoint;
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node(NodeKind::MetroPop, GeoPoint::new(48.9, 2.4), "FR");
//! let b = topo.add_node(NodeKind::MetroPop, GeoPoint::new(52.5, 13.4), "DE");
//! topo.connect(a, b, LinkClass::TerrestrialBackbone, 1.3);
//! assert!(topo.link_between(a, b).is_some());
//! assert!(AccessTechnology::Lte.is_wireless());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod event;
pub mod fault;
pub mod packetsim;
pub mod ping;
pub mod queue;
pub mod routing;
pub mod stochastic;
pub mod tcp;
pub mod time;
pub mod topology;
pub mod traceroute;
pub mod wire;
pub mod worldnet;

pub use event::{EventQueue, ScheduledEvent};
pub use fault::{FaultClass, FaultConfig, FaultPlan, FaultRouter};
pub use ping::{PingConfig, PingOutcome, PingProber, RttBuf};
pub use routing::{PathInfo, PathRef, RouteSource, RouteTable, Router};
pub use tcp::{TcpConfig, TcpOutcome, TcpProber};
pub use time::SimTime;
pub use topology::{LinkClass, LinkId, NodeId, NodeKind, Topology};
pub use traceroute::{TracerouteOutcome, TracerouteProber};
pub use worldnet::{WorldNet, WorldNetConfig};
