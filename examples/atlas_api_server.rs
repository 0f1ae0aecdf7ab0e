//! Drive the measurement platform over its HTTP API.
//!
//! Starts the Atlas-style REST server on an ephemeral port, then acts
//! as a client: inventories probes, creates a ping measurement against
//! a Frankfurt region, and fetches the results — the workflow the
//! paper's authors ran against the real RIPE Atlas API.
//!
//! ```sh
//! cargo run --release --example atlas_api_server
//! ```

use latency_shears::api::dto::CreateMeasurementDto;
use latency_shears::api::{ApiClient, ApiServer, AtlasService};
use latency_shears::prelude::*;

fn main() {
    let platform = Platform::build(&PlatformConfig {
        fleet: FleetConfig {
            target_size: 400,
            seed: 31,
        },
        ..PlatformConfig::default()
    });
    let server =
        ApiServer::spawn("127.0.0.1:0", AtlasService::new(platform)).expect("bind ephemeral port");
    println!("API server listening on http://{}", server.local_addr());

    let client = ApiClient::new(server.local_addr());

    // Inventory.
    let regions = client.list_regions().expect("list regions");
    println!("catalogue: {} regions", regions.len());
    let frankfurt = regions
        .iter()
        .find(|r| r.city == "Frankfurt" && r.provider == "Amazon")
        .expect("Frankfurt in catalogue");
    println!(
        "target: {}/{} ({})",
        frankfurt.provider, frankfurt.code, frankfurt.city
    );

    let de_probes = client
        .list_probes(Some("DE"), None, 100)
        .expect("list probes");
    println!("probes in DE: {}", de_probes.len());

    // Create and run a measurement.
    println!("credits before: {}", client.credits().unwrap());
    let m = client
        .create_measurement(&CreateMeasurementDto {
            target_region: frankfurt.index,
            packets: 3,
            rounds: 4,
            probe_limit: 40,
            country: Some("DE".into()),
            fault_profile: None,
            retries: None,
            durability: true,
        })
        .expect("create measurement");
    println!(
        "measurement #{}: {} probes, {} results, {} credits",
        m.id, m.probes, m.results, m.credits_spent
    );
    println!("credits after: {}", client.credits().unwrap());

    // Fetch and summarise results.
    let results = client.results(m.id).expect("fetch results");
    let mut rtts: Vec<f64> = results.iter().filter_map(|r| r.min_ms).collect();
    rtts.sort_by(f64::total_cmp);
    if !rtts.is_empty() {
        println!(
            "German probes to {}: n={} min={:.1} ms median={:.1} ms max={:.1} ms",
            frankfurt.city,
            rtts.len(),
            rtts[0],
            rtts[rtts.len() / 2],
            rtts[rtts.len() - 1],
        );
    }

    server.shutdown().unwrap();
    println!("server stopped.");
}
