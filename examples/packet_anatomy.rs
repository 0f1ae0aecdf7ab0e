//! The anatomy of one measurement: the exact bytes a probe would put on
//! the wire, the hop-by-hop path they take, and the event-driven
//! execution of the round — the lowest-level view the simulator offers.
//!
//! ```sh
//! cargo run --release --example packet_anatomy -- DE
//! ```

use latency_shears::netsim::packetsim::ping_event_driven;
use latency_shears::netsim::queue::DiurnalLoad;
use latency_shears::netsim::stochastic::SimRng;
use latency_shears::netsim::wire::EchoPacket;
use latency_shears::prelude::*;

fn main() {
    let code = std::env::args()
        .nth(1)
        .map(|c| c.to_uppercase())
        .unwrap_or_else(|| "DE".to_string());

    let platform = Platform::build(&PlatformConfig {
        fleet: FleetConfig {
            target_size: 400,
            seed: 13,
        },
        ..PlatformConfig::default()
    });
    let Some(probe) = platform
        .probes()
        .iter()
        .find(|p| p.country == code && !p.is_privileged())
    else {
        eprintln!("no probe in {code}");
        std::process::exit(1);
    };
    let target = platform.targets_for(probe, 1, 1)[0];
    let region = platform.region(target as usize);

    // 1. The wire bytes.
    let request = EchoPacket::atlas_default(true, 1001, 0);
    let encoded = request.encode();
    println!(
        "echo request: {} bytes on the wire (IPv4 20 + ICMP 8 + payload {})",
        encoded.len(),
        request.payload.len()
    );
    print!("  ");
    for (i, b) in encoded.iter().take(28).enumerate() {
        print!("{b:02x}{}", if i % 4 == 3 { " " } else { "" });
    }
    println!("…");
    let reply = request.reply_to();
    println!(
        "echo reply swaps {:?} <-> {:?}, keeps ident={} seq={}\n",
        request.src, request.dst, reply.ident, reply.seq
    );

    // 2. The path.
    let (from, to) = (
        platform.probe_node(probe.id),
        platform.dc_node(target as usize),
    );
    let table = platform.route_table_over([(probe.id, to)]);
    let path = table.path(from, to).expect("connected").to_path_info();
    println!(
        "route: probe #{} ({}, {}) -> {} — {} hops, {:.2} ms one-way floor",
        probe.id.0,
        code,
        probe.access.tech.atlas_tag(),
        region.label(),
        path.hop_count(),
        path.base_one_way_ms
    );
    for (i, &node) in path.nodes.iter().enumerate() {
        let n = platform.topology().node(node);
        println!("  {:>2}  {:<14} {}", i, format!("{:?}", n.kind), n.country);
    }

    // 3. Event-driven execution of a 3-packet round.
    let mut rng = SimRng::new(99);
    let outcome = ping_event_driven(
        platform.topology(),
        &path,
        Some(probe.access),
        DiurnalLoad::residential(),
        SimTime::from_hours(20), // local evening somewhere
        3,
        4000.0,
        &mut rng,
    );
    println!(
        "\nevent-driven round: {}/{} replies, RTTs: {}",
        outcome.received,
        outcome.sent,
        outcome
            .rtts_ms()
            .iter()
            .map(|r| format!("{r:.2} ms"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Some(min) = outcome.min_ms() {
        println!("round minimum (what the campaign stores): {min:.2} ms");
    }
}
