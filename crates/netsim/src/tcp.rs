//! TCP connect-time probing.
//!
//! §5 of the paper ("Network vs. application latency") plans to extend
//! the methodology "to include TCP-based probing techniques that may
//! better reflect behavior of application traffic inbound cloud
//! networks". This module implements that extension: a simulated TCP
//! three-way handshake over the same [`PathSampler`] the ping prober
//! uses, including exponential-backoff SYN retransmission — the reason
//! TCP connect times have a lossy tail that ICMP minima hide.

use crate::access::AccessLink;
use crate::fault::{FaultPlan, FaultRouter};
use crate::ping::{PathSampler, WaitMemo};
use crate::queue::DiurnalLoad;
use crate::routing::{RouteSource, RouteTable};
use crate::stochastic::SimRng;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::NodeId;

/// TCP handshake parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Initial retransmission timeout (RFC 6298 initial RTO), ms.
    pub initial_rto_ms: f64,
    /// Maximum SYN (re)transmissions before giving up.
    pub max_syn_attempts: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            initial_rto_ms: 1000.0,
            max_syn_attempts: 5,
        }
    }
}

/// Result of a simulated connection attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpOutcome {
    /// Time from first SYN to the client seeing SYN-ACK (i.e. the
    /// connect() latency), ms; `None` if the handshake never completed.
    pub connect_ms: Option<f64>,
    /// Number of SYNs sent (1 = no retransmission).
    pub syn_attempts: u32,
}

impl TcpOutcome {
    /// Whether the connection was established.
    pub fn established(&self) -> bool {
        self.connect_ms.is_some()
    }
}

/// TCP connect-time prober.
///
/// Routes come from a shared precomputed [`RouteTable`]
/// ([`TcpProber::with_table`]) or a shared [`FaultRouter`] over one
/// ([`TcpProber::with_faults`]); a handshake never clones a route.
pub struct TcpProber<'t> {
    topo: &'t Topology,
    routes: RouteSource<'t>,
    faults: Option<&'t FaultPlan>,
    /// Hop waits of earlier legs, reused across calls.
    memo: WaitMemo,
}

impl<'t> TcpProber<'t> {
    /// Creates a prober that reads routes from a shared precomputed
    /// table.
    pub fn with_table(topo: &'t Topology, table: &'t RouteTable) -> Self {
        Self {
            topo,
            routes: RouteSource::Shared(table),
            faults: None,
            memo: WaitMemo::new(),
        }
    }

    /// Creates a fault-aware prober over a shared [`FaultRouter`]:
    /// handshakes follow its plan's link-cut epochs and bursts, and SYNs
    /// to a blacked-out endpoint are dropped. With an empty plan the
    /// prober is bit-identical to [`TcpProber::with_table`] over the
    /// router's table.
    pub fn with_faults(topo: &'t Topology, router: &'t FaultRouter) -> Self {
        Self {
            topo,
            routes: RouteSource::Faulty(router),
            faults: Some(router.plan()),
            memo: WaitMemo::new(),
        }
    }

    /// Attempts a TCP handshake from `from` to `to` starting at `t`.
    /// Returns `None` if the nodes are disconnected or the pair was not
    /// resolved at build time.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        access: Option<AccessLink>,
        load: DiurnalLoad,
        t: SimTime,
        cfg: &TcpConfig,
        rng: &mut SimRng,
    ) -> Option<TcpOutcome> {
        let topo = self.topo;
        let faults = self.faults;
        let path = self.routes.path_at(from, to, t)?;
        let sampler = PathSampler::from_ref(path, topo, access, load).with_fault_plan(faults);
        let mut elapsed = 0.0_f64;
        let mut rto = cfg.initial_rto_ms;
        for attempt in 1..=cfg.max_syn_attempts {
            let now = t + SimTime::from_millis_f64(elapsed);
            // A blacked-out endpoint answers no SYN; the attempt fails
            // without consuming sampling draws (only reachable when
            // faults are scheduled, so the fault-free stream is intact).
            if faults.is_some_and(|p| p.node_down(to, now) || p.node_down(from, now)) {
                elapsed += rto;
                rto *= 2.0;
                continue;
            }
            // SYN out, SYN-ACK back: either leg may drop the packet. The
            // legs run at different instants; the SYN leg shares its waits
            // with other handshakes started at `now`.
            let syn = sampler.sample_one_way_ms(now, &mut self.memo, rng);
            let synack = match syn {
                Some(fwd) => sampler
                    .sample_one_way_ms(now + SimTime::from_millis_f64(fwd), &mut self.memo, rng)
                    .map(|rev| fwd + rev),
                None => None,
            };
            match synack {
                Some(rtt) if rtt <= rto => {
                    return Some(TcpOutcome {
                        connect_ms: Some(elapsed + rtt),
                        syn_attempts: attempt,
                    });
                }
                _ => {
                    // Lost or slower than the RTO: back off and retry.
                    elapsed += rto;
                    rto *= 2.0;
                }
            }
        }
        Some(TcpOutcome {
            connect_ms: None,
            syn_attempts: cfg.max_syn_attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessTechnology;
    use crate::topology::{LinkClass, NodeKind};
    use shears_geo::GeoPoint;

    fn net() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let probe = t.add_node(NodeKind::ProbeHost, GeoPoint::new(48.1, 11.6), "DE");
        let ar = t.add_node(NodeKind::AccessRouter, GeoPoint::new(48.15, 11.58), "DE");
        let dc = t.add_node(NodeKind::Datacenter, GeoPoint::new(50.1, 8.7), "DE");
        t.connect_with_delay(probe, ar, LinkClass::Access, 4.0);
        t.connect(ar, dc, LinkClass::TerrestrialBackbone, 1.3);
        (t, probe, dc)
    }

    #[test]
    fn connect_usually_takes_one_rtt() {
        let (t, probe, dc) = net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let mut prober = TcpProber::with_table(&t, &table);
        let mut rng = SimRng::new(3);
        let mut one_shot = 0;
        let n = 200;
        for i in 0..n {
            let out = prober
                .connect(
                    probe,
                    dc,
                    Some(AccessLink::new(AccessTechnology::Ftth, 1.0)),
                    DiurnalLoad::residential(),
                    SimTime::from_hours(i),
                    &TcpConfig::default(),
                    &mut rng,
                )
                .unwrap();
            assert!(out.established());
            if out.syn_attempts == 1 {
                one_shot += 1;
            }
        }
        assert!(
            one_shot > n * 9 / 10,
            "only {one_shot}/{n} one-shot connects"
        );
    }

    #[test]
    fn retransmission_adds_at_least_initial_rto() {
        // Force a drop on the first SYN by making loss certain via a
        // lossy satellite access and tiny RTO so a slow sample retries.
        let (t, probe, dc) = net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let mut prober = TcpProber::with_table(&t, &table);
        let mut rng = SimRng::new(11);
        let cfg = TcpConfig {
            initial_rto_ms: 0.001, // everything is slower than this
            max_syn_attempts: 3,
        };
        let out = prober
            .connect(
                probe,
                dc,
                Some(AccessLink::new(AccessTechnology::Ftth, 1.0)),
                DiurnalLoad::residential(),
                SimTime::ZERO,
                &cfg,
                &mut rng,
            )
            .unwrap();
        assert!(!out.established());
        assert_eq!(out.syn_attempts, 3);
    }

    #[test]
    fn disconnected_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::ProbeHost, GeoPoint::new(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::Datacenter, GeoPoint::new(1.0, 1.0), "XX");
        let table = RouteTable::for_pair(&t, a, b);
        let mut prober = TcpProber::with_table(&t, &table);
        let mut rng = SimRng::new(1);
        assert!(prober
            .connect(
                a,
                b,
                None,
                DiurnalLoad::backbone(),
                SimTime::ZERO,
                &TcpConfig::default(),
                &mut rng
            )
            .is_none());
    }

    #[test]
    fn empty_fault_plan_connect_matches_table() {
        let (t, probe, dc) = net();
        let table = RouteTable::for_pair(&t, probe, dc);
        let router = FaultRouter::new(&t, table.clone(), FaultPlan::empty("noop"));
        for seed in [2u64, 13, 77] {
            let run = |prober: &mut TcpProber| {
                let mut rng = SimRng::new(seed);
                prober
                    .connect(
                        probe,
                        dc,
                        Some(AccessLink::new(AccessTechnology::Dsl, 1.0)),
                        DiurnalLoad::residential(),
                        SimTime::from_hours(19),
                        &TcpConfig::default(),
                        &mut rng,
                    )
                    .unwrap()
            };
            let shared = run(&mut TcpProber::with_table(&t, &table));
            let faulty = run(&mut TcpProber::with_faults(&t, &router));
            assert_eq!(shared, faulty, "seed {seed}");
        }
    }

    #[test]
    fn blacked_out_endpoint_never_establishes() {
        let (t, probe, dc) = net();
        let horizon = SimTime::from_days(30);
        let mut cfg = crate::fault::FaultConfig::blackout();
        cfg.dc_blackouts = 64;
        cfg.blackout_mean_hours = 1_000.0;
        let plan = crate::fault::FaultPlan::generate(&t, &cfg, 3, horizon);
        let down_at = (0..720)
            .map(SimTime::from_hours)
            .find(|&at| plan.node_down(dc, at) && plan.node_down(dc, at + SimTime::from_secs(60)))
            .expect("64 long blackouts must cover some probed instant");
        let faulty = FaultRouter::for_pair(&t, probe, dc, plan);
        let mut prober = TcpProber::with_faults(&t, &faulty);
        let mut rng = SimRng::new(9);
        let out = prober
            .connect(
                probe,
                dc,
                Some(AccessLink::new(AccessTechnology::Ftth, 1.0)),
                DiurnalLoad::residential(),
                down_at,
                &TcpConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert!(!out.established());
        assert_eq!(out.syn_attempts, TcpConfig::default().max_syn_attempts);
    }

    #[test]
    fn connect_time_close_to_ping_rtt_on_clean_paths() {
        // The Facebook IMC'19 comparison in §5 rests on TCP times
        // tracking ICMP RTTs; verify medians agree within jitter.
        let (t, probe, dc) = net();
        let access = AccessLink::new(AccessTechnology::Ethernet, 1.0);
        let table = RouteTable::for_pair(&t, probe, dc);
        let mut tcp = TcpProber::with_table(&t, &table);
        let mut png = crate::ping::PingProber::with_table(&t, &table);
        let mut rng = SimRng::new(21);
        let mut tcp_times = Vec::new();
        let mut ping_times = Vec::new();
        for i in 0..300u64 {
            let at = SimTime::from_hours(i % 24) + SimTime::from_secs(i * 60);
            if let Some(o) = tcp
                .connect(
                    probe,
                    dc,
                    Some(access),
                    DiurnalLoad::residential(),
                    at,
                    &TcpConfig::default(),
                    &mut rng,
                )
                .unwrap()
                .connect_ms
            {
                tcp_times.push(o);
            }
            if let Some(m) = png
                .ping(
                    probe,
                    dc,
                    Some(access),
                    DiurnalLoad::residential(),
                    at,
                    &crate::ping::PingConfig::default(),
                    &mut rng,
                )
                .unwrap()
                .min_ms()
            {
                ping_times.push(m);
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let tcp_med = med(&mut tcp_times);
        let ping_med = med(&mut ping_times);
        // TCP medians sit above ping minima (ping takes min of 3) but
        // within a factor 2 on a clean wired path.
        assert!(
            tcp_med >= ping_med && tcp_med < ping_med * 2.0,
            "tcp {tcp_med} vs ping {ping_med}"
        );
    }
}
