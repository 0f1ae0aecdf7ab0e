//! Network topology: typed nodes and weighted links.
//!
//! The simulated Internet is an explicit graph. Nodes are the places
//! packets are forwarded (probe hosts, access routers, metro PoPs,
//! backbone PoPs, IXP hubs, datacenters); links carry a *base delay*
//! derived from great-circle distance and a per-link inflation factor,
//! plus class-dependent loss and processing parameters.
//!
//! Keeping the graph explicit — instead of computing point-to-point
//! delays from raw distance — is what makes the paper's structural
//! findings emerge naturally: a probe in a country without a datacenter
//! reaches the cloud *via its regional hub*, so its RTT reflects the
//! detour, exactly the effect behind Fig. 4's "countries near a
//! datacenter-hosting neighbour see <20 ms".

use std::sync::OnceLock;

use shears_geo::{GeoPoint, FIBER_SPEED_KM_PER_MS};

use crate::queue::Mm1Queue;

/// Opaque node handle (index into the topology's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index (stable for the lifetime of the topology).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Opaque link handle (index into the topology's link table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is; determines per-hop processing delay and which roles
/// it may play in path selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host running a measurement probe.
    ProbeHost,
    /// First-hop aggregation router (DSLAM/CMTS/eNodeB-side gateway).
    AccessRouter,
    /// Metro point of presence: city-level aggregation.
    MetroPop,
    /// National/regional backbone PoP.
    BackbonePop,
    /// Major interconnection hub (IXP city, submarine-cable landing).
    IxpHub,
    /// Cloud datacenter front door.
    Datacenter,
    /// Edge computing site (extension experiments only).
    EdgeSite,
}

impl NodeKind {
    /// Whether the node is a stub endpoint: it can originate and sink
    /// traffic but never forwards third-party traffic (a probe host, a
    /// cloud datacenter or an edge site — in BGP terms, a stub AS).
    /// Routing never transits stub nodes.
    pub fn is_stub(self) -> bool {
        matches!(
            self,
            NodeKind::ProbeHost | NodeKind::Datacenter | NodeKind::EdgeSite
        )
    }

    /// Typical packet-processing-and-forwarding delay added per transit
    /// of a node of this kind, in milliseconds. Big IXP fabrics and DC
    /// front doors do slightly more work (ACLs, load balancing).
    pub fn processing_delay_ms(self) -> f64 {
        match self {
            NodeKind::ProbeHost => 0.05,
            NodeKind::AccessRouter => 0.15,
            NodeKind::MetroPop => 0.10,
            NodeKind::BackbonePop => 0.10,
            NodeKind::IxpHub => 0.20,
            NodeKind::Datacenter => 0.25,
            NodeKind::EdgeSite => 0.10,
        }
    }
}

/// Link technology class; sets loss floor and utilisation behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Last-mile access segment (technology details live in
    /// [`crate::access`]; the topology only knows it is an access link).
    Access,
    /// Metro aggregation fibre.
    MetroAggregation,
    /// Terrestrial long-haul backbone fibre.
    TerrestrialBackbone,
    /// Submarine cable segment.
    SubmarineCable,
    /// Private cloud-provider backbone (lower inflation and loss — the
    /// paper notes Amazon/Google run "private, large bandwidth, low
    /// latency network backbones").
    PrivateBackbone,
    /// Intra-datacenter / DC front-door link.
    DatacenterFabric,
}

impl LinkClass {
    /// Base packet-loss probability per traversal, before congestion.
    pub fn base_loss(self) -> f64 {
        match self {
            LinkClass::Access => 0.002,
            LinkClass::MetroAggregation => 0.0005,
            LinkClass::TerrestrialBackbone => 0.0003,
            LinkClass::SubmarineCable => 0.0005,
            LinkClass::PrivateBackbone => 0.0001,
            LinkClass::DatacenterFabric => 0.0001,
        }
    }

    /// Nominal capacity of a link of this class, in Gbit/s. Used by the
    /// bandwidth-aggregation study (the paper's second edge motivation:
    /// "saving network bandwidth by aggregating large flows").
    pub fn capacity_gbps(self) -> f64 {
        match self {
            LinkClass::Access => 1.0,
            LinkClass::MetroAggregation => 100.0,
            LinkClass::TerrestrialBackbone => 400.0,
            LinkClass::SubmarineCable => 200.0,
            LinkClass::PrivateBackbone => 1000.0,
            LinkClass::DatacenterFabric => 1000.0,
        }
    }

    /// How strongly diurnal load drives queueing on this class of link.
    /// Access and under-provisioned long-haul segments congest; private
    /// backbones are over-provisioned by design.
    pub fn congestion_sensitivity(self) -> f64 {
        match self {
            LinkClass::Access => 1.0,
            LinkClass::MetroAggregation => 0.5,
            LinkClass::TerrestrialBackbone => 0.35,
            LinkClass::SubmarineCable => 0.45,
            LinkClass::PrivateBackbone => 0.08,
            LinkClass::DatacenterFabric => 0.05,
        }
    }

    /// Mean service time of the class's bottleneck queue in the M/M/1
    /// congestion model, ms.
    pub fn service_time_ms(self) -> f64 {
        match self {
            LinkClass::Access => 1.0,
            LinkClass::MetroAggregation => 0.3,
            LinkClass::TerrestrialBackbone => 0.15,
            LinkClass::SubmarineCable => 0.3,
            LinkClass::PrivateBackbone => 0.08,
            LinkClass::DatacenterFabric => 0.05,
        }
    }

    /// Cap on the queueing delay of one traversal, ms (finite buffers).
    pub fn max_wait_ms(self) -> f64 {
        match self {
            LinkClass::Access => 400.0,
            LinkClass::MetroAggregation => 60.0,
            LinkClass::TerrestrialBackbone => 40.0,
            LinkClass::SubmarineCable => 60.0,
            LinkClass::PrivateBackbone => 10.0,
            LinkClass::DatacenterFabric => 5.0,
        }
    }

    /// Stable on-disk code for this class. Part of the campaign journal
    /// format: codes are append-only (new classes take fresh numbers,
    /// existing numbers are never reassigned) so old journals keep
    /// decoding.
    pub fn code(self) -> u8 {
        match self {
            LinkClass::Access => 0,
            LinkClass::MetroAggregation => 1,
            LinkClass::TerrestrialBackbone => 2,
            LinkClass::SubmarineCable => 3,
            LinkClass::PrivateBackbone => 4,
            LinkClass::DatacenterFabric => 5,
        }
    }

    /// Inverse of [`LinkClass::code`]; `None` for codes written by a
    /// newer format revision.
    pub fn from_code(code: u8) -> Option<LinkClass> {
        Some(match code {
            0 => LinkClass::Access,
            1 => LinkClass::MetroAggregation,
            2 => LinkClass::TerrestrialBackbone,
            3 => LinkClass::SubmarineCable,
            4 => LinkClass::PrivateBackbone,
            5 => LinkClass::DatacenterFabric,
            _ => return None,
        })
    }
}

/// A node in the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// What the node is.
    pub kind: NodeKind,
    /// Where it sits.
    pub location: GeoPoint,
    /// ISO country code of the site (used for diurnal local time and
    /// for per-country analysis joins).
    pub country: String,
    links: Vec<LinkId>,
}

impl Node {
    /// Links incident to this node.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }
}

/// An undirected link between two nodes.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Technology class.
    pub class: LinkClass,
    /// One-way propagation delay in ms at the path floor (distance ×
    /// inflation ÷ fibre speed).
    pub base_delay_ms: f64,
    /// The inflation factor the delay was built with (kept for
    /// introspection/reporting).
    pub inflation: f64,
}

impl Link {
    /// The endpoint opposite to `from`, or `None` if `from` is not an
    /// endpoint of this link.
    pub fn other(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// The delay-model constants of one link, precomputed so the samplers
/// read one record per hop (see [`Topology::link_models`]). Every field
/// holds exactly the value the per-hop expression it replaces computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinkModel {
    /// [`Link::base_delay_ms`].
    pub(crate) base_delay_ms: f64,
    /// [`LinkClass::base_loss`].
    pub(crate) base_loss: f64,
    /// [`LinkClass::congestion_sensitivity`].
    pub(crate) congestion_sensitivity: f64,
    /// `inflation.min(2.0)`: how much the link's inflation amplifies its
    /// congestion.
    pub(crate) inflation_factor: f64,
    /// The class's bottleneck queue: [`LinkClass::service_time_ms`] and
    /// [`LinkClass::max_wait_ms`].
    pub(crate) queue: Mm1Queue,
    /// Longitude of the link's great-circle midpoint ÷ 15: the UTC offset,
    /// in hours, of the site whose local hour drives the link's load.
    pub(crate) hour_offset: f64,
    /// Technology class.
    pub(crate) class: LinkClass,
}

/// Per-link and per-node delay constants, built together on first read.
#[derive(Debug, Clone)]
struct DelayTables {
    links: Vec<LinkModel>,
    processing_ms: Vec<f64>,
}

/// The network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Delay-model constants by link and node index. Filled on first
    /// read and dropped whenever a node or link is added.
    delay_tables: OnceLock<DelayTables>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its handle.
    ///
    /// # Panics
    /// Panics if the topology already holds `u32::MAX` nodes.
    pub fn add_node(&mut self, kind: NodeKind, location: GeoPoint, country: &str) -> NodeId {
        let id = u32::try_from(self.nodes.len()).expect("topology node limit exceeded");
        self.delay_tables.take();
        self.nodes.push(Node {
            kind,
            location,
            country: country.to_string(),
            links: Vec::new(),
        });
        NodeId(id)
    }

    /// Connects two nodes with a link of the given class; the one-way
    /// base delay is computed from the great-circle distance between the
    /// endpoints multiplied by `inflation` (≥ 1: real fibre never runs
    /// the geodesic).
    ///
    /// # Panics
    /// Panics if `a == b`, if either id is stale, or if `inflation < 1`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, class: LinkClass, inflation: f64) -> LinkId {
        assert!(a != b, "self-links are not allowed");
        assert!(inflation >= 1.0, "inflation must be >= 1, got {inflation}");
        let dist = self.node(a).location.distance_km(self.node(b).location);
        let base_delay_ms = dist * inflation / FIBER_SPEED_KM_PER_MS;
        let id = u32::try_from(self.links.len()).expect("topology link limit exceeded");
        let link = LinkId(id);
        self.delay_tables.take();
        self.links.push(Link {
            a,
            b,
            class,
            base_delay_ms,
            inflation,
        });
        self.nodes[a.index()].links.push(link);
        self.nodes[b.index()].links.push(link);
        link
    }

    /// Connects two nodes with an explicit one-way delay instead of a
    /// distance-derived one (used for access links whose delay is set by
    /// the technology model, not geography).
    pub fn connect_with_delay(
        &mut self,
        a: NodeId,
        b: NodeId,
        class: LinkClass,
        one_way_delay_ms: f64,
    ) -> LinkId {
        assert!(a != b, "self-links are not allowed");
        assert!(
            one_way_delay_ms >= 0.0 && one_way_delay_ms.is_finite(),
            "delay must be finite and non-negative"
        );
        let id = u32::try_from(self.links.len()).expect("topology link limit exceeded");
        let link = LinkId(id);
        self.delay_tables.take();
        self.links.push(Link {
            a,
            b,
            class,
            base_delay_ms: one_way_delay_ms,
            inflation: 1.0,
        });
        self.nodes[a.index()].links.push(link);
        self.nodes[b.index()].links.push(link);
        link
    }

    /// Node accessor. Panics on a stale id (ids are never invalidated,
    /// so this only fires on cross-topology misuse).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The delay-model record of every link, by link index. The first
    /// call builds the records (and the per-node processing delays) once;
    /// later calls are a lookup until the next `add_node` or `connect`.
    pub(crate) fn link_models(&self) -> &[LinkModel] {
        &self.delay_tables().links
    }

    /// [`NodeKind::processing_delay_ms`] of every node, by node index
    /// (built alongside [`Topology::link_models`]).
    pub(crate) fn processing_delays_ms(&self) -> &[f64] {
        &self.delay_tables().processing_ms
    }

    fn delay_tables(&self) -> &DelayTables {
        self.delay_tables.get_or_init(|| DelayTables {
            links: self
                .links
                .iter()
                .map(|l| {
                    let mid = self.node(l.a).location.midpoint(self.node(l.b).location);
                    LinkModel {
                        base_delay_ms: l.base_delay_ms,
                        base_loss: l.class.base_loss(),
                        congestion_sensitivity: l.class.congestion_sensitivity(),
                        inflation_factor: l.inflation.min(2.0),
                        queue: Mm1Queue::new(l.class.service_time_ms(), l.class.max_wait_ms()),
                        hour_offset: mid.lon / 15.0,
                        class: l.class,
                    }
                })
                .collect(),
            processing_ms: self
                .nodes
                .iter()
                .map(|n| n.kind.processing_delay_ms())
                .collect(),
        })
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All links.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The first link directly connecting `a` and `b`, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.nodes[a.index()]
            .links
            .iter()
            .copied()
            .find(|&l| self.links[l.index()].other(a) == Some(b))
    }

    /// Neighbours of `a` with the connecting link.
    pub fn neighbors(&self, a: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.nodes[a.index()].links.iter().map(move |&l| {
            let link = &self.links[l.index()];
            (link.other(a).expect("link is incident to a"), l)
        })
    }

    /// Ids of all nodes of the given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon)
    }

    #[test]
    fn add_and_query_nodes() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, p(48.9, 2.4), "FR");
        let b = t.add_node(NodeKind::Datacenter, p(50.1, 8.7), "DE");
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.node(a).country, "FR");
        assert_eq!(t.node(b).kind, NodeKind::Datacenter);
    }

    #[test]
    fn connect_computes_base_delay_from_distance() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, p(48.85, 2.35), "FR");
        let b = t.add_node(NodeKind::MetroPop, p(52.52, 13.40), "DE");
        let l = t.connect(a, b, LinkClass::TerrestrialBackbone, 1.0);
        let d_km = p(48.85, 2.35).distance_km(p(52.52, 13.40));
        let want = d_km / FIBER_SPEED_KM_PER_MS;
        assert!((t.link(l).base_delay_ms - want).abs() < 1e-9);
        // Inflation scales linearly.
        let l2 = t.connect(a, b, LinkClass::TerrestrialBackbone, 2.0);
        assert!((t.link(l2).base_delay_ms - 2.0 * want).abs() < 1e-9);
    }

    #[test]
    fn neighbors_and_link_between() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, p(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::MetroPop, p(0.0, 1.0), "XX");
        let c = t.add_node(NodeKind::MetroPop, p(0.0, 2.0), "XX");
        let lab = t.connect(a, b, LinkClass::MetroAggregation, 1.1);
        t.connect(b, c, LinkClass::MetroAggregation, 1.1);
        assert_eq!(t.link_between(a, b), Some(lab));
        assert_eq!(t.link_between(a, c), None);
        let nbrs: Vec<NodeId> = t.neighbors(b).map(|(n, _)| n).collect();
        assert_eq!(nbrs, vec![a, c]);
    }

    #[test]
    fn explicit_delay_links() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::ProbeHost, p(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::AccessRouter, p(0.0, 0.001), "XX");
        let l = t.connect_with_delay(a, b, LinkClass::Access, 7.5);
        assert_eq!(t.link(l).base_delay_ms, 7.5);
    }

    #[test]
    fn delay_tables_follow_add_node_connect_and_clone() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, p(48.85, 2.35), "FR");
        let b = t.add_node(NodeKind::MetroPop, p(52.52, 13.40), "DE");
        let c = t.add_node(NodeKind::ProbeHost, p(-33.9, 151.2), "AU");
        let d = t.add_node(NodeKind::MetroPop, p(35.7, 139.7), "JP");
        let ab = t.connect(a, b, LinkClass::TerrestrialBackbone, 1.2);
        assert!(
            t.delay_tables.get().is_none(),
            "nothing is filled at link creation"
        );
        let before = t.link_models()[ab.index()];
        assert_eq!(t.link_models().len(), 1);
        assert_eq!(t.processing_delays_ms().len(), 4);
        // Links and nodes added after the tables were read must show up.
        t.connect_with_delay(c, d, LinkClass::Access, 3.0);
        assert!(
            t.delay_tables.get().is_none(),
            "connect_with_delay drops the tables"
        );
        t.link_models();
        t.connect(d, a, LinkClass::SubmarineCable, 1.5);
        assert!(t.delay_tables.get().is_none(), "connect drops the tables");
        t.link_models();
        let e = t.add_node(NodeKind::IxpHub, p(1.35, 103.8), "SG");
        assert!(t.delay_tables.get().is_none(), "add_node drops the tables");
        let de = t.connect(d, e, LinkClass::SubmarineCable, 3.0);
        assert_eq!(t.link_models()[ab.index()], before);
        assert_eq!(t.link_models().len(), t.link_count());
        assert_eq!(t.processing_delays_ms().len(), t.node_count());
        let copy = t.clone();
        for (id, link) in t.links() {
            let mid = t.node(link.a).location.midpoint(t.node(link.b).location);
            let want = LinkModel {
                base_delay_ms: link.base_delay_ms,
                base_loss: link.class.base_loss(),
                congestion_sensitivity: link.class.congestion_sensitivity(),
                inflation_factor: link.inflation.min(2.0),
                queue: Mm1Queue::new(link.class.service_time_ms(), link.class.max_wait_ms()),
                hour_offset: mid.lon / 15.0,
                class: link.class,
            };
            for topo in [&t, &copy] {
                let got = topo.link_models()[id.index()];
                assert_eq!(got, want, "{id:?}");
                assert_eq!(got.hour_offset.to_bits(), want.hour_offset.to_bits());
            }
        }
        assert_eq!(t.link_models()[de.index()].inflation_factor, 2.0);
        for (id, node) in t.nodes() {
            assert_eq!(
                copy.processing_delays_ms()[id.index()].to_bits(),
                node.kind.processing_delay_ms().to_bits()
            );
        }
    }

    #[test]
    fn nodes_of_kind_filters() {
        let mut t = Topology::new();
        t.add_node(NodeKind::ProbeHost, p(0.0, 0.0), "XX");
        let dc1 = t.add_node(NodeKind::Datacenter, p(1.0, 0.0), "XX");
        let dc2 = t.add_node(NodeKind::Datacenter, p(2.0, 0.0), "YY");
        assert_eq!(t.nodes_of_kind(NodeKind::Datacenter), vec![dc1, dc2]);
        assert!(t.nodes_of_kind(NodeKind::IxpHub).is_empty());
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn rejects_self_link() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, p(0.0, 0.0), "XX");
        t.connect(a, a, LinkClass::MetroAggregation, 1.0);
    }

    #[test]
    #[should_panic(expected = "inflation")]
    fn rejects_deflating_links() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, p(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::MetroPop, p(1.0, 0.0), "XX");
        t.connect(a, b, LinkClass::MetroAggregation, 0.9);
    }

    #[test]
    fn link_other_endpoint() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, p(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::MetroPop, p(1.0, 0.0), "XX");
        let c = t.add_node(NodeKind::MetroPop, p(2.0, 0.0), "XX");
        let l = t.connect(a, b, LinkClass::MetroAggregation, 1.0);
        assert_eq!(t.link(l).other(a), Some(b));
        assert_eq!(t.link(l).other(b), Some(a));
        assert_eq!(t.link(l).other(c), None);
    }

    #[test]
    fn class_parameters_are_ordered_sensibly() {
        // Private backbones must be both cleaner and less congestible
        // than the public classes — this ordering is what produces the
        // paper's provider-class differences.
        assert!(
            LinkClass::PrivateBackbone.base_loss() < LinkClass::TerrestrialBackbone.base_loss()
        );
        assert!(
            LinkClass::PrivateBackbone.congestion_sensitivity()
                < LinkClass::SubmarineCable.congestion_sensitivity()
        );
        assert!(LinkClass::Access.congestion_sensitivity() >= 1.0);
    }
}
