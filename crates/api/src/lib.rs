//! # shears-api
//!
//! A RIPE-Atlas-style REST API over the measurement platform — the
//! "HTTP API" substitution the reproduction plan calls for. The real
//! study drove RIPE Atlas through its HTTP/JSON API; this crate serves
//! the same interaction shape against the simulated platform:
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /api/v2/probes?country=DE&tag=wired&limit=50` | probe inventory |
//! | `GET /api/v2/probes/{id}` | one probe |
//! | `GET /api/v2/regions` | the cloud catalogue |
//! | `GET /api/v2/measurements` | all measurements, id-ascending |
//! | `POST /api/v2/measurements` | create + run a ping measurement |
//! | `POST /api/v2/measurements/resume` | reload persisted measurements after a restart |
//! | `GET /api/v2/measurements/{id}` | measurement status |
//! | `GET /api/v2/measurements/{id}/results` | its RTT samples |
//! | `DELETE /api/v2/measurements/{id}` | forget a measurement |
//! | `POST /api/v2/traceroutes` | hop-by-hop paths from selected probes |
//! | `GET /api/v2/credits` | remaining credit balance |
//! | `GET /api/v2/metrics` | server + work-queue counters as JSON |
//! | raw `SHRSWRK1` stream | distributed-execution work protocol (CRC-framed binary, see `shears-dist`), pipelined over one long-lived connection ([`transport`]) — a connection that opens with the preamble upgrades out of HTTP parsing into length-prefixed framing |
//!
//! The stack is deliberately std-only: an HTTP/1.1 server ([`server`])
//! with content-length framing and keep-alive on
//! `std::net::TcpListener`, served by a readiness-driven event loop
//! (the `reactor` module): nonblocking sockets multiplexed over a few
//! reactor threads, each connection an explicit state machine,
//! handlers fanned out to a bounded compute pool and 503 shed under
//! overload — so idle keep-alive sessions cost a slab slot, not a
//! thread, and tens of thousands can stay connected. A matching
//! blocking client rides along ([`client`], with a keep-alive
//! [`client::ApiSession`] for high-throughput use). No async runtime
//! anywhere — readiness is emulated with nonblocking sweeps + parked
//! reactors, which is all this workload needs.
//!
//! The read path is built to scale with cores: service state is
//! sharded per measurement (no global lock on any GET), a measurement
//! never changes after insert, and the first stats GET fills its
//! `OnceLock` from one frame build — see [`service::AtlasService`] and
//! `DESIGN.md` §"API serving data path".
//!
//! ```no_run
//! use shears_api::{server::ApiServer, client::ApiClient, service::AtlasService};
//! use shears_atlas::{Platform, PlatformConfig};
//!
//! let platform = Platform::build(&PlatformConfig::quick(1));
//! let service = AtlasService::new(platform);
//! let server = ApiServer::spawn("127.0.0.1:0", service).unwrap();
//! let client = ApiClient::new(server.local_addr());
//! let probes = client.list_probes(Some("DE"), None, 10).unwrap();
//! println!("{} German probes", probes.len());
//! server.shutdown().unwrap();
//! ```
//!
//! Spawning the service via [`AtlasService::with_durability`] persists
//! measurements and the credit ledger to a directory (binary, CRC'd —
//! the campaign journal's wire format), `POST
//! /api/v2/measurements/resume` reloads them after a restart, and
//! [`server::ApiServer::shutdown`] flushes everything on the way out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dto;
pub mod http;
mod reactor;
pub mod server;
pub mod service;
pub mod transport;
pub mod work;

pub use client::ApiClient;
pub use server::ApiServer;
pub use service::AtlasService;
pub use transport::{StreamDecoder, StreamError, WorkStreamClient, STREAM_PREAMBLE};
pub use work::{WorkQueue, WorkSpec};
