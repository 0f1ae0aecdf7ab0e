//! Traceroute-style path exposure.
//!
//! RIPE Atlas runs traceroute alongside ping, and the paper's §5 plans
//! TCP-traceroute probing. The simulator equivalent walks the resolved
//! route hop by hop, reporting per-hop RTTs the way an ICMP
//! time-exceeded sweep would — including the classic artefacts:
//! per-hop samples are taken at different instants (so a congested
//! middle hop can report a *higher* RTT than the destination) and
//! routers may be slow to generate ICMP errors (modelled via the node's
//! processing delay).
//!
//! The analysis side uses the hop records for delay *attribution*:
//! "Where is the Delay?" (§4.3) decomposed into access, metro,
//! national backbone, inter-hub and datacenter segments.
//!
//! Per-TTL sub-paths are prefixes of the full shortest path (the
//! predecessor chain of a shortest-path tree is prefix-closed), so the
//! walk slices the one resolved route instead of re-running Dijkstra
//! per hop — no per-hop route lookups or clones.

use crate::access::AccessLink;
use crate::ping::{PathSampler, WaitMemo};
use crate::queue::DiurnalLoad;
use crate::routing::{PathRef, RouteTable};
use crate::stochastic::SimRng;
use crate::time::SimTime;
use crate::topology::{NodeId, NodeKind, Topology};

/// One hop of a traceroute.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// Hop index (1 = first router after the source).
    pub ttl: u8,
    /// The responding node.
    pub node: NodeId,
    /// What kind of node answered.
    pub kind: NodeKind,
    /// Measured RTT to this hop, ms (`None` if all probes timed out —
    /// some nodes rate-limit ICMP errors).
    pub rtt_ms: Option<f64>,
}

/// A complete traceroute result.
#[derive(Debug, Clone, PartialEq)]
pub struct TracerouteOutcome {
    /// Hops in path order (destination last when reached).
    pub hops: Vec<Hop>,
    /// Whether the destination answered.
    pub reached: bool,
}

impl TracerouteOutcome {
    /// RTT to the destination if it was reached and answered.
    pub fn destination_rtt_ms(&self) -> Option<f64> {
        if self.reached {
            self.hops.last().and_then(|h| h.rtt_ms)
        } else {
            None
        }
    }

    /// The per-segment delay attribution: consecutive-hop RTT deltas
    /// clamped at zero (negative deltas are the familiar traceroute
    /// artefact of per-hop sampling at different instants), keyed by the
    /// *far* hop's node kind. The access segment is hop 1's RTT.
    pub fn segment_deltas(&self) -> Vec<(NodeKind, f64)> {
        let mut out = Vec::new();
        let mut prev = 0.0;
        for hop in &self.hops {
            if let Some(rtt) = hop.rtt_ms {
                out.push((hop.kind, (rtt - prev).max(0.0)));
                prev = rtt;
            }
        }
        out
    }
}

/// Probability a transit node ignores traceroute probes entirely
/// (ICMP rate-limiting); hubs do it most.
fn icmp_silence_probability(kind: NodeKind) -> f64 {
    match kind {
        NodeKind::IxpHub => 0.08,
        NodeKind::BackbonePop => 0.04,
        _ => 0.01,
    }
}

/// Traceroute driver over the shared [`PathSampler`] delay engine.
pub struct TracerouteProber<'t> {
    topo: &'t Topology,
    routes: &'t RouteTable,
    /// Hop waits of earlier probes, reused across TTLs and calls.
    memo: WaitMemo,
}

impl<'t> TracerouteProber<'t> {
    /// Creates a prober that reads routes from a shared precomputed
    /// table built over the pairs the caller traces.
    pub fn with_table(topo: &'t Topology, table: &'t RouteTable) -> Self {
        Self {
            topo,
            routes: table,
            memo: WaitMemo::new(),
        }
    }

    /// Runs a traceroute from `from` to `to` at instant `t`. Returns
    /// `None` if the nodes are disconnected or the pair was not resolved
    /// at build time.
    pub fn trace(
        &mut self,
        from: NodeId,
        to: NodeId,
        access: Option<AccessLink>,
        load: DiurnalLoad,
        t: SimTime,
        rng: &mut SimRng,
    ) -> Option<TracerouteOutcome> {
        let topo = self.topo;
        let full = self.routes.path(from, to)?;
        let mut hops = Vec::with_capacity(full.nodes.len());
        let mut reached = false;
        // Running one-way floor of the prefix ending at the current hop.
        // Two separate additions per hop replay the Dijkstra relaxation
        // `(d + proc) + link` exactly, keeping the prefix floors
        // bit-equal to a dedicated per-hop route resolution.
        let mut prefix_base = 0.0_f64;
        // One probe per TTL, like `traceroute -q 1`.
        for (ttl, &hop_node) in full.nodes.iter().enumerate().skip(1) {
            if ttl >= 2 {
                prefix_base += topo.node(full.nodes[ttl - 1]).kind.processing_delay_ms();
            }
            prefix_base += topo.link(full.links[ttl - 1]).base_delay_ms;
            let kind = topo.node(hop_node).kind;
            let is_destination = hop_node == to;
            let silent = !is_destination && rng.chance(icmp_silence_probability(kind));
            let rtt_ms = if silent {
                None
            } else {
                // RTT to this hop: the path prefix there and back,
                // sampled at the instant this TTL's probe departs.
                let sub = PathRef {
                    links: &full.links[..ttl],
                    nodes: &full.nodes[..=ttl],
                    base_one_way_ms: prefix_base,
                };
                let sampler = PathSampler::from_ref(sub, topo, access, load);
                let at = t + SimTime::from_millis(ttl as u64 * 50);
                sampler.sample_rtt_ms(at, &mut self.memo, rng).map(|rtt| {
                    // ICMP error generation happens on the slow path of
                    // the router CPU; destinations answer echo directly.
                    if is_destination {
                        rtt
                    } else {
                        rtt + kind.processing_delay_ms() * 4.0
                    }
                })
            };
            if is_destination && rtt_ms.is_some() {
                reached = true;
            }
            hops.push(Hop {
                ttl: ttl.min(255) as u8,
                node: hop_node,
                kind,
                rtt_ms,
            });
        }
        Some(TracerouteOutcome { hops, reached })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessTechnology;
    use crate::routing::Router;
    use crate::topology::LinkClass;
    use shears_geo::GeoPoint;

    fn net() -> (Topology, NodeId, NodeId) {
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
        AccessLink::new(AccessTechnology::Ftth, 1.0)
    }

    #[test]
    fn trace_walks_every_hop_to_destination() {
        let (t, probe, dc) = net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let mut prober = TracerouteProber::with_table(&t, &table);
        let mut rng = SimRng::new(3);
        let out = prober
            .trace(
                probe,
                dc,
                Some(access()),
                DiurnalLoad::residential(),
                SimTime::from_hours(4),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.hops.len(), 4, "AR, metro, hub, DC");
        assert_eq!(out.hops[0].kind, NodeKind::AccessRouter);
        assert_eq!(out.hops.last().unwrap().kind, NodeKind::Datacenter);
        assert!(out.reached);
        assert!(out.destination_rtt_ms().unwrap() > 0.0);
    }

    #[test]
    fn hop_rtts_grow_roughly_monotonically() {
        let (t, probe, dc) = net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let mut prober = TracerouteProber::with_table(&t, &table);
        let mut rng = SimRng::new(5);
        // Median over repetitions to smooth the per-instant artefact.
        let mut medians = vec![Vec::new(); 4];
        for i in 0..60u64 {
            let out = prober
                .trace(
                    probe,
                    dc,
                    Some(access()),
                    DiurnalLoad::residential(),
                    SimTime::from_hours(i),
                    &mut rng,
                )
                .unwrap();
            for (j, hop) in out.hops.iter().enumerate() {
                if let Some(rtt) = hop.rtt_ms {
                    medians[j].push(rtt);
                }
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let m: Vec<f64> = medians.iter_mut().map(med).collect();
        // First hop (access) is well below destination RTT.
        assert!(m[0] < m[3], "access {} vs destination {}", m[0], m[3]);
        // Backbone hop dominates the delta in this net.
        assert!(m[2] > m[1]);
    }

    #[test]
    fn segment_deltas_sum_to_destination_rtt() {
        let (t, probe, dc) = net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let mut prober = TracerouteProber::with_table(&t, &table);
        let mut rng = SimRng::new(9);
        let out = prober
            .trace(
                probe,
                dc,
                Some(access()),
                DiurnalLoad::residential(),
                SimTime::from_hours(2),
                &mut rng,
            )
            .unwrap();
        if let Some(dest) = out.destination_rtt_ms() {
            let sum: f64 = out.segment_deltas().iter().map(|(_, d)| d).sum();
            // Clamped negatives can make the sum exceed the destination
            // RTT slightly; it can never undershoot.
            assert!(sum >= dest - 1e-9, "sum {sum} < dest {dest}");
        }
    }

    #[test]
    fn disconnected_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::ProbeHost, GeoPoint::new(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::Datacenter, GeoPoint::new(1.0, 1.0), "XX");
        let table = RouteTable::for_pair(&t, a, b);
        let mut prober = TracerouteProber::with_table(&t, &table);
        let mut rng = SimRng::new(1);
        assert!(prober
            .trace(a, b, None, DiurnalLoad::backbone(), SimTime::ZERO, &mut rng)
            .is_none());
    }

    #[test]
    fn deterministic_per_seed() {
        let (t, probe, dc) = net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let run = |seed| {
            let mut prober = TracerouteProber::with_table(&t, &table);
            let mut rng = SimRng::new(seed);
            prober
                .trace(
                    probe,
                    dc,
                    Some(access()),
                    DiurnalLoad::residential(),
                    SimTime::from_hours(1),
                    &mut rng,
                )
                .unwrap()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn prefix_floor_matches_dedicated_route_resolution() {
        // The prefix-slice optimisation must not drift from what a
        // per-hop Dijkstra would report, down to the floor delay.
        let (t, probe, dc) = net();
        let mut router = Router::new(&t);
        let full = router.path(probe, dc).unwrap().clone();
        let mut again = Router::new(&t);
        let mut prefix_base = 0.0_f64;
        for ttl in 1..full.nodes.len() {
            if ttl >= 2 {
                prefix_base += t.node(full.nodes[ttl - 1]).kind.processing_delay_ms();
            }
            prefix_base += t.link(full.links[ttl - 1]).base_delay_ms;
            let dedicated = again.path(probe, full.nodes[ttl]).unwrap();
            assert_eq!(dedicated.base_one_way_ms.to_bits(), prefix_base.to_bits());
            assert_eq!(dedicated.links, full.links[..ttl]);
            assert_eq!(dedicated.nodes, full.nodes[..=ttl]);
        }
    }
}
