//! Event-driven packet-level ping execution.
//!
//! [`crate::ping::PathSampler`] computes a ping's RTT analytically in
//! one pass. This module executes the same measurement as a
//! discrete-event simulation: each packet's traversal of each hop is a
//! scheduled event on [`EventQueue`], with the hop delay sampled *at
//! the simulated instant the packet reaches that hop*.
//!
//! Two reasons this exists:
//!
//! * **validation** — for a single packet the event-driven execution
//!   reproduces a same-order analytic walk of the doubled path (same
//!   hop functions, same RNG stream) to within the diurnal drift of
//!   one RTT, and agrees with [`crate::ping::PingProber`] medians
//!   statistically; those tests license the fast analytic path for
//!   million-sample campaigns;
//! * **fidelity** — for multi-packet rounds the event-driven mode
//!   samples congestion at each packet's true arrival time, so a
//!   packet that crosses a hub *after* the local evening peak began
//!   sees the higher utilisation. The analytic mode approximates all of
//!   a packet's hops at its send time; the difference is negligible at
//!   ping timescales (the test quantifies it) — which is itself a
//!   result worth pinning.

use crate::access::AccessLink;
use crate::event::EventQueue;
use crate::ping::{hop_delay_ms, hop_loss_probability, hop_wait_ms, PingOutcome};
use crate::queue::DiurnalLoad;
use crate::routing::PathInfo;
use crate::stochastic::SimRng;
use crate::time::SimTime;
use crate::topology::Topology;

/// One in-flight packet's position.
#[derive(Debug, Clone, Copy)]
struct PacketEvent {
    /// Packet index within the round.
    packet: u32,
    /// Next link to traverse (index into the doubled path), or the
    /// delivery marker when equal to the path length.
    leg: usize,
    /// Accumulated RTT so far, ms.
    elapsed_ms: f64,
}

/// Event-driven execution of a ping round over a resolved path.
///
/// Semantics match [`crate::ping::PingProber::ping`]: `packets` echo
/// requests paced one second apart, each traversing the path out and
/// back with per-hop sampled delays and loss; replies slower than
/// `timeout_ms` count as lost.
#[allow(clippy::too_many_arguments)]
pub fn ping_event_driven(
    topo: &Topology,
    path: &PathInfo,
    access: Option<AccessLink>,
    load: DiurnalLoad,
    start: SimTime,
    packets: u32,
    timeout_ms: f64,
    rng: &mut SimRng,
) -> PingOutcome {
    // The forward-then-reverse leg sequence: link indices into `path`
    // (the landing node's processing differs by direction).
    let legs: usize = path.links.len() * 2;
    let mut queue: EventQueue<PacketEvent> = EventQueue::new();
    for packet in 0..packets {
        queue.schedule(
            start + SimTime::from_secs(u64::from(packet)),
            PacketEvent {
                packet,
                leg: 0,
                elapsed_ms: 0.0,
            },
        );
    }
    let mut rtts: Vec<(u32, f64)> = Vec::new();
    while let Some(ev) = queue.pop() {
        let PacketEvent {
            packet,
            leg,
            elapsed_ms,
        } = ev.payload;
        if leg == legs {
            // Delivered back to the source.
            if elapsed_ms <= timeout_ms {
                rtts.push((packet, elapsed_ms));
            }
            continue;
        }
        // Map the leg to a concrete link (forward then reverse order).
        let fwd = leg < path.links.len();
        let link_idx = if fwd {
            leg
        } else {
            legs - 1 - leg // reverse traversal
        };
        // Loss.
        if rng.chance(hop_loss_probability(topo, &path.links, link_idx, access)) {
            continue; // packet dropped
        }
        // Each traversal reaches its hop at its own instant, so each
        // computes its own wait.
        let wait = hop_wait_ms(topo, &path.links, link_idx, access, load, ev.at);
        let delay = hop_delay_ms(topo, &path.links, link_idx, access, wait, rng);
        // Processing at the node the packet lands on (endpoints free).
        let node_idx = if fwd { link_idx + 1 } else { link_idx };
        let processing = if node_idx == 0 || node_idx == path.nodes.len() - 1 {
            0.0
        } else {
            topo.node(path.nodes[node_idx]).kind.processing_delay_ms()
        };
        let hop_ms = delay + processing;
        queue.schedule(
            ev.at + SimTime::from_millis_f64(hop_ms),
            PacketEvent {
                packet,
                leg: leg + 1,
                elapsed_ms: elapsed_ms + hop_ms,
            },
        );
    }
    rtts.sort_by_key(|&(p, _)| p);
    let mut outcome = PingOutcome::new(packets);
    for (_, rtt) in rtts {
        outcome.record(rtt);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessTechnology;
    use crate::ping::PingProber;
    use crate::routing::RouteTable;
    use crate::topology::{LinkClass, NodeKind};
    use shears_geo::GeoPoint;

    fn net() -> (Topology, crate::NodeId, crate::NodeId) {
        let mut t = Topology::new();
        let probe = t.add_node(NodeKind::ProbeHost, GeoPoint::new(48.1, 11.6), "DE");
        let ar = t.add_node(NodeKind::AccessRouter, GeoPoint::new(48.15, 11.58), "DE");
        let metro = t.add_node(NodeKind::MetroPop, GeoPoint::new(48.14, 11.56), "DE");
        let hub = t.add_node(NodeKind::IxpHub, GeoPoint::new(50.1, 8.7), "DE");
        let dc = t.add_node(NodeKind::Datacenter, GeoPoint::new(50.12, 8.72), "DE");
        t.connect_with_delay(probe, ar, LinkClass::Access, 4.0);
        t.connect(ar, metro, LinkClass::MetroAggregation, 1.2);
        t.connect(metro, hub, LinkClass::TerrestrialBackbone, 1.2);
        t.connect(hub, dc, LinkClass::DatacenterFabric, 1.1);
        (t, probe, dc)
    }

    fn access() -> AccessLink {
        AccessLink::new(AccessTechnology::Dsl, 1.0)
    }

    #[test]
    fn single_packet_matches_same_order_analytic_walk() {
        // The validation that licences the event engine: walking the
        // doubled path analytically with the *same* hop functions in
        // the *same* traversal order (forward 0..n, then reverse
        // n-1..0) and the same RNG stream must reproduce the
        // event-driven RTT almost exactly (residual difference: the
        // event run evaluates diurnal congestion at each hop's true
        // arrival instant, which within one RTT moves utilisation by a
        // hair).
        let (t, probe, dc) = net();
        let path = RouteTable::for_pair(&t, probe, dc)
            .path(probe, dc)
            .unwrap()
            .to_path_info();
        let walk_analytically = |seed: u64| -> Option<f64> {
            let mut rng = SimRng::new(seed);
            let start = SimTime::from_hours(5);
            let n = path.links.len();
            let order: Vec<usize> = (0..n).chain((0..n).rev()).collect();
            let mut total = 0.0;
            for (step, &link_idx) in order.iter().enumerate() {
                if rng.chance(hop_loss_probability(
                    &t,
                    &path.links,
                    link_idx,
                    Some(access()),
                )) {
                    return None;
                }
                let wait = hop_wait_ms(
                    &t,
                    &path.links,
                    link_idx,
                    Some(access()),
                    DiurnalLoad::residential(),
                    start,
                );
                total += hop_delay_ms(&t, &path.links, link_idx, Some(access()), wait, &mut rng);
                // Landing-node processing, endpoints free, mirroring the
                // event-driven accounting.
                let fwd = step < n;
                let node_idx = if fwd { link_idx + 1 } else { link_idx };
                if node_idx != 0 && node_idx != path.nodes.len() - 1 {
                    total += t.node(path.nodes[node_idx]).kind.processing_delay_ms();
                }
            }
            Some(total)
        };
        for seed in [1u64, 7, 42, 1234, 99] {
            let analytic = walk_analytically(seed);
            let event_driven = {
                let mut rng = SimRng::new(seed);
                ping_event_driven(
                    &t,
                    &path,
                    Some(access()),
                    DiurnalLoad::residential(),
                    SimTime::from_hours(5),
                    1,
                    f64::INFINITY,
                    &mut rng,
                )
                .rtts_ms()
                .first()
                .copied()
            };
            match (analytic, event_driven) {
                (Some(a), Some(e)) => assert!(
                    (a - e).abs() < a * 0.01 + 0.02,
                    "seed {seed}: analytic walk {a} vs event-driven {e}"
                ),
                (None, None) => {}
                other => panic!("seed {seed}: loss outcome diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn multi_packet_round_agrees_statistically_with_prober() {
        let (t, probe, dc) = net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let mut prober = PingProber::with_table(&t, &table);
        let path = table.path(probe, dc).unwrap().to_path_info();
        let mut analytic = Vec::new();
        let mut eventful = Vec::new();
        let mut rng_a = SimRng::new(5);
        let mut rng_b = SimRng::new(6);
        for i in 0..200u64 {
            let at = SimTime::from_hours(i % 24);
            if let Some(m) = prober
                .ping(
                    probe,
                    dc,
                    Some(access()),
                    DiurnalLoad::residential(),
                    at,
                    &crate::ping::PingConfig::default(),
                    &mut rng_a,
                )
                .unwrap()
                .min_ms()
            {
                analytic.push(m);
            }
            if let Some(m) = ping_event_driven(
                &t,
                &path,
                Some(access()),
                DiurnalLoad::residential(),
                at,
                3,
                4000.0,
                &mut rng_b,
            )
            .min_ms()
            {
                eventful.push(m);
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let ma = med(&mut analytic);
        let me = med(&mut eventful);
        assert!(
            (ma - me).abs() < ma * 0.1,
            "medians diverge: analytic {ma} vs event-driven {me}"
        );
    }

    #[test]
    fn timeout_drops_slow_replies() {
        let (t, probe, dc) = net();
        let path = RouteTable::for_pair(&t, probe, dc)
            .path(probe, dc)
            .unwrap()
            .to_path_info();
        let mut rng = SimRng::new(9);
        let out = ping_event_driven(
            &t,
            &path,
            Some(access()),
            DiurnalLoad::residential(),
            SimTime::ZERO,
            5,
            0.001,
            &mut rng,
        );
        assert_eq!(out.received, 0);
        assert_eq!(out.sent, 5);
    }

    #[test]
    fn packets_complete_in_send_order_in_the_outcome() {
        let (t, probe, dc) = net();
        let path = RouteTable::for_pair(&t, probe, dc)
            .path(probe, dc)
            .unwrap()
            .to_path_info();
        let mut rng = SimRng::new(21);
        let out = ping_event_driven(
            &t,
            &path,
            Some(access()),
            DiurnalLoad::residential(),
            SimTime::ZERO,
            3,
            4000.0,
            &mut rng,
        );
        // rtts_ms is ordered by packet index regardless of completion
        // interleaving (matching the prober's contract).
        assert_eq!(out.rtts_ms().len() as u32, out.received);
        assert!(out.received >= 2, "loss should be rare here");
    }
}
