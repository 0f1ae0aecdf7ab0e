//! Shortest-path routing: a frozen, shareable [`RouteTable`] and the
//! per-pair [`Router`] it is tested against.
//!
//! Routes are computed by Dijkstra over the link base delays plus
//! per-node processing delays — i.e. the *uncongested* floor. Real
//! interdomain routing is not delay-optimal, but the detours BGP
//! introduces are already encoded structurally in the topology (probes
//! can only exit a country through its PoPs and hubs), so delay-shortest
//! paths over that graph reproduce the inflation the paper observes
//! without simulating BGP itself.
//!
//! Every prober and analysis resolves its routes one way: a
//! [`RouteTable`] built over exactly the (source, target) pairs it asks
//! for, resolved up front with one shortest-path tree per *chain head*
//! (see [`RouteTable::build`]: the probes behind one metro PoP share a
//! search), stored in a flat CSR-style arena and shared read-only.
//! Lookups hand out borrowed [`PathRef`]s, never cloning. The table's
//! `reroute` step re-resolves the routes a set of cut links crosses,
//! which is all a link-cut epoch of a fault plan changes (see
//! [`crate::fault::FaultRouter`]).
//!
//! [`Router`] runs the same Dijkstra core (same relaxation order, same
//! `total_cmp`-then-node-id tie-break) one pair at a time. It is the
//! reference oracle the table and the fault router are tested against,
//! not a production path.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

use crate::time::SimTime;
use crate::topology::{LinkId, NodeId, Topology};

/// A resolved route between two nodes (owned form).
#[derive(Debug, Clone, PartialEq)]
pub struct PathInfo {
    /// Endpoints, in order.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Links traversed, in order from `from` to `to`.
    pub links: Vec<LinkId>,
    /// Nodes visited, `from` first, `to` last (`links.len() + 1` entries).
    pub nodes: Vec<NodeId>,
    /// One-way delay floor in ms: link base delays plus processing at
    /// every intermediate node (endpoints excluded).
    pub base_one_way_ms: f64,
}

impl PathInfo {
    /// Number of hops (links) on the path.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// A borrowed view of this path.
    pub fn as_path_ref(&self) -> PathRef<'_> {
        PathRef {
            links: &self.links,
            nodes: &self.nodes,
            base_one_way_ms: self.base_one_way_ms,
        }
    }
}

/// A borrowed view of a resolved route — what the ping/TCP hot path
/// consumes. Copying a `PathRef` copies two fat pointers and a float;
/// the link/node sequences stay wherever they live (a [`PathInfo`] or
/// the [`RouteTable`] arena).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathRef<'a> {
    /// Links traversed, in order from source to destination.
    pub links: &'a [LinkId],
    /// Nodes visited, source first, destination last
    /// (`links.len() + 1` entries).
    pub nodes: &'a [NodeId],
    /// One-way delay floor in ms (see [`PathInfo::base_one_way_ms`]).
    pub base_one_way_ms: f64,
}

impl PathRef<'_> {
    /// Number of hops (links) on the path.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination node.
    pub fn dest(&self) -> NodeId {
        self.nodes[self.nodes.len() - 1]
    }

    /// An owned copy of the route (for storage and equivalence tests).
    pub fn to_path_info(self) -> PathInfo {
        PathInfo {
            from: self.source(),
            to: self.dest(),
            links: self.links.to_vec(),
            nodes: self.nodes.to_vec(),
            base_one_way_ms: self.base_one_way_ms,
        }
    }
}

#[derive(PartialEq)]
struct QueueItem {
    dist: f64,
    node: NodeId,
}

impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance; tie-break on node id for determinism.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Reusable Dijkstra buffers. They are sized to the topology on first
/// use; afterwards each search resets only the entries the previous one
/// touched. A [`Router`] and each [`RouteTable::build`] worker own one
/// set, so the O(nodes) buffers are allocated once, not once per search.
#[derive(Default)]
struct DijkstraScratch {
    pending: Vec<bool>,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, LinkId)>>,
    heap: BinaryHeap<QueueItem>,
    /// Nodes whose `dist`/`prev` entries the last search set.
    touched: Vec<NodeId>,
}

impl DijkstraScratch {
    /// Restores the all-unreached state for a topology of `n` nodes.
    fn reset(&mut self, n: usize) {
        if self.dist.len() == n {
            for node in self.touched.drain(..) {
                self.dist[node.index()] = f64::INFINITY;
                self.prev[node.index()] = None;
            }
        } else {
            self.pending = vec![false; n];
            self.dist = vec![f64::INFINITY; n];
            self.prev = vec![None; n];
            self.touched.clear();
        }
        self.heap.clear();
    }

    /// Records the best-known distance to `node` via `via`.
    fn reach(&mut self, node: NodeId, dist: f64, via: Option<(NodeId, LinkId)>) {
        if self.dist[node.index()].is_infinite() {
            self.touched.push(node);
        }
        self.dist[node.index()] = dist;
        self.prev[node.index()] = via;
        self.heap.push(QueueItem { dist, node });
    }
}

/// The shared Dijkstra core: delay-shortest paths from `from` to every
/// node in `targets`, in target order. Runs a single search that stops
/// as soon as all targets are settled, then reconstructs each path from
/// the predecessor chain.
///
/// Because a node's predecessor is frozen the moment it is settled (and
/// the pop order up to any given settlement does not depend on the
/// target set), the path this returns for each target is **bit-equal**
/// to a dedicated single-target run — the property the `RouteTable`
/// equivalence tests pin.
fn shortest_paths(
    topo: &Topology,
    disabled: &HashSet<LinkId>,
    from: NodeId,
    targets: &[NodeId],
    scratch: &mut DijkstraScratch,
) -> Vec<Option<PathInfo>> {
    let n = topo.node_count();
    if from.index() >= n {
        return targets.iter().map(|_| None).collect();
    }
    scratch.reset(n);
    // Pending targets that require the search; `from` itself and stale
    // ids resolve during reconstruction.
    let mut remaining = 0usize;
    for &to in targets {
        if to.index() < n && to != from && !scratch.pending[to.index()] {
            scratch.pending[to.index()] = true;
            remaining += 1;
        }
    }
    if remaining > 0 {
        scratch.reach(from, 0.0, None);
        while let Some(QueueItem { dist: d, node }) = scratch.heap.pop() {
            if d > scratch.dist[node.index()] {
                continue; // stale entry
            }
            if scratch.pending[node.index()] {
                scratch.pending[node.index()] = false;
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            // Stub endpoints (probes, datacenters, edge sites) never
            // forward third-party traffic: expanding them as transit
            // would let a multi-homed datacenter act as a wormhole
            // between its peering hubs.
            if node != from && topo.node(node).kind.is_stub() {
                continue;
            }
            // Processing cost applies when transiting a node, not at the
            // source; folded into the outgoing edge relaxation.
            let proc = if node == from {
                0.0
            } else {
                topo.node(node).kind.processing_delay_ms()
            };
            for (next, link) in topo.neighbors(node) {
                if disabled.contains(&link) {
                    continue;
                }
                let nd = d + proc + topo.link(link).base_delay_ms;
                if nd < scratch.dist[next.index()] {
                    scratch.reach(next, nd, Some((node, link)));
                }
            }
        }
    }
    // Targets left unsettled (unreachable) must not leak into the next
    // search.
    for &to in targets {
        if to.index() < n {
            scratch.pending[to.index()] = false;
        }
    }
    targets
        .iter()
        .map(|&to| reconstruct(from, to, &scratch.dist, &scratch.prev))
        .collect()
}

/// Rebuilds the path to `to` from the predecessor chain of a completed
/// search rooted at `from`.
fn reconstruct(
    from: NodeId,
    to: NodeId,
    dist: &[f64],
    prev: &[Option<(NodeId, LinkId)>],
) -> Option<PathInfo> {
    if to.index() >= dist.len() {
        return None;
    }
    if to == from {
        return Some(PathInfo {
            from,
            to,
            links: Vec::new(),
            nodes: vec![from],
            base_one_way_ms: 0.0,
        });
    }
    if dist[to.index()].is_infinite() {
        return None;
    }
    let mut links = Vec::new();
    let mut nodes = vec![to];
    let mut cur = to;
    while cur != from {
        let (p, l) = prev[cur.index()].expect("prev chain intact");
        links.push(l);
        nodes.push(p);
        cur = p;
    }
    links.reverse();
    nodes.reverse();
    Some(PathInfo {
        from,
        to,
        links,
        nodes,
        base_one_way_ms: dist[to.index()],
    })
}

/// The one-way floor of a route, folded hop by hop exactly as the search
/// from `nodes[0]` relaxes it: `(d + proc) + link`, where `proc` is the
/// processing delay of the hop's near node and 0 at the source.
fn replay_floor_ms(topo: &Topology, nodes: &[NodeId], links: &[LinkId]) -> f64 {
    let mut d = 0.0;
    for (i, &link) in links.iter().enumerate() {
        let proc = if i == 0 {
            0.0
        } else {
            topo.node(nodes[i]).kind.processing_delay_ms()
        };
        d = d + proc + topo.link(link).base_delay_ms;
    }
    d
}

/// The reference oracle: a Dijkstra router with a per-(source, target)
/// cache, optionally with disabled links.
///
/// The first lookup of a pair runs one single-target search from the
/// source; later lookups of the pair are a hash hit. Nothing is ever
/// invalidated: the router borrows its topology, so the topology cannot
/// change while the router lives, and the disabled links are fixed at
/// construction.
///
/// No prober or analysis routes through it; they read a [`RouteTable`]
/// or a [`crate::fault::FaultRouter`]. It stays public so that the
/// route-table grid and the fault-router property test can compare
/// those, route by route, against independent per-pair searches.
pub struct Router<'t> {
    topo: &'t Topology,
    cache: HashMap<(NodeId, NodeId), Option<PathInfo>>,
    disabled: HashSet<LinkId>,
    scratch: DijkstraScratch,
}

impl<'t> Router<'t> {
    /// Creates a router over the given (frozen) topology.
    pub fn new(topo: &'t Topology) -> Self {
        Self {
            topo,
            cache: HashMap::new(),
            disabled: HashSet::new(),
            scratch: DijkstraScratch::default(),
        }
    }

    /// Creates a router that treats the given links as failed (cable
    /// cuts, maintenance). Paths route around them or report
    /// disconnection — the failure-injection entry point.
    pub fn with_disabled(topo: &'t Topology, disabled: HashSet<LinkId>) -> Self {
        Self {
            topo,
            cache: HashMap::new(),
            disabled,
            scratch: DijkstraScratch::default(),
        }
    }

    /// Resolves the delay-shortest path from `from` to `to`, or `None`
    /// if the nodes are disconnected. Results are cached; a hit is a
    /// single hash lookup.
    pub fn path(&mut self, from: NodeId, to: NodeId) -> Option<&PathInfo> {
        let Self {
            topo,
            cache,
            disabled,
            scratch,
        } = self;
        cache
            .entry((from, to))
            .or_insert_with(|| {
                shortest_paths(topo, disabled, from, &[to], scratch)
                    .pop()
                    .expect("one target yields one result")
            })
            .as_ref()
    }

    /// Number of cached (source, target) entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

/// A source's single-exit chain: the nodes every route out of the
/// source crosses before the first node that branches, its *head*.
/// `nodes[0]` is the source and `nodes.last()` the head; `links[i]` joins
/// `nodes[i]` and `nodes[i + 1]`. A probe's chain is probe → access
/// router → metro PoP.
#[derive(Debug)]
struct Chain {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl Chain {
    /// Follows `source`'s chain while the current node has exactly one
    /// link out that is not `disabled` (besides the one the chain arrived
    /// by). It never steps over a disabled link, into a stub (which a
    /// search would not expand), into one of `targets` (whose route must
    /// end there) or back onto itself.
    fn walk(
        topo: &Topology,
        source: NodeId,
        targets: &[NodeId],
        disabled: &HashSet<LinkId>,
    ) -> Chain {
        let mut chain = Chain {
            nodes: vec![source],
            links: Vec::new(),
        };
        if source.index() >= topo.node_count() {
            return chain;
        }
        let mut node = source;
        loop {
            let arrived_by = chain.links.last().copied();
            let mut exits = topo
                .neighbors(node)
                .filter(|&(_, link)| Some(link) != arrived_by && !disabled.contains(&link));
            let (Some((next, link)), None) = (exits.next(), exits.next()) else {
                break;
            };
            if topo.node(next).kind.is_stub()
                || targets.contains(&next)
                || chain.nodes.contains(&next)
            {
                break;
            }
            chain.nodes.push(next);
            chain.links.push(link);
            node = next;
        }
        chain
    }

    fn head(&self) -> NodeId {
        *self.nodes.last().expect("a chain holds its source")
    }
}

/// One shortest-path search of [`RouteTable::build`]: a chain head and
/// the sorted, deduplicated union of its sources' targets.
#[derive(Debug)]
struct HeadSearch {
    head: NodeId,
    targets: Vec<NodeId>,
}

/// Groups the requests by chain head, with the `disabled` links failed.
/// Returns each request's chain, the index of its head's search, and the
/// searches in first-seen order.
fn group_by_head(
    topo: &Topology,
    wants: &[(NodeId, Vec<NodeId>)],
    disabled: &HashSet<LinkId>,
) -> (Vec<(Chain, usize)>, Vec<HeadSearch>) {
    let mut search_of: HashMap<NodeId, usize> = HashMap::new();
    let mut searches: Vec<HeadSearch> = Vec::new();
    let chains = wants
        .iter()
        .map(|(source, targets)| {
            let chain = Chain::walk(topo, *source, targets, disabled);
            let head = chain.head();
            let search = *search_of.entry(head).or_insert_with(|| {
                searches.push(HeadSearch {
                    head,
                    targets: Vec::new(),
                });
                searches.len() - 1
            });
            // A self-route never needs the search (and a head search
            // would route back down the chain to the source).
            searches[search]
                .targets
                .extend(targets.iter().filter(|&t| t != source));
            (chain, search)
        })
        .collect();
    for search in &mut searches {
        search.targets.sort_unstable();
        search.targets.dedup();
    }
    (chains, searches)
}

/// The arena pieces of the route from `source` to `target`: the chain
/// (only the source, for a self-route), then the head's path past the
/// head. `None` when the pair is disconnected or `source` is not a node.
fn route_parts<'a>(
    topo: &Topology,
    source: NodeId,
    target: NodeId,
    chain: &'a Chain,
    search: &HeadSearch,
    tree: &'a [Option<PathInfo>],
) -> Option<[(&'a [NodeId], &'a [LinkId]); 2]> {
    if target == source {
        return (source.index() < topo.node_count())
            .then_some([(&chain.nodes[..1], &[]), (&[], &[])]);
    }
    let k = search
        .targets
        .binary_search(&target)
        .expect("every target is in its head's search");
    let tail = tree[k].as_ref()?;
    Some([
        (&chain.nodes, &chain.links),
        (&tail.nodes[1..], &tail.links),
    ])
}

/// A frozen table of precomputed routes, shareable read-only across
/// threads.
///
/// [`RouteTable::build`] resolves all requested source→target routes up
/// front — one shortest-path-tree Dijkstra per chain head instead of one
/// search per pair — optionally fanning the searches out over worker
/// threads. The result is assembled in request order, so the table's
/// contents (and memory layout) are invariant to the build thread count.
///
/// Storage is a flat CSR-style arena: one concatenated `Vec<NodeId>`,
/// one concatenated `Vec<LinkId>` and an offset table, instead of
/// per-path heap `Vec`s. [`RouteTable::path`] hands out [`PathRef`]
/// slices borrowed straight from the arena — the probing hot path never
/// clones a route.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteTable {
    /// Concatenated node sequences of all routes.
    nodes: Vec<NodeId>,
    /// Concatenated link sequences of all routes.
    links: Vec<LinkId>,
    /// Per-route one-way delay floors, ms.
    base: Vec<f64>,
    /// Link offsets: route `r` owns `links[offsets[r]..offsets[r + 1]]`
    /// and (since every route has one more node than links)
    /// `nodes[offsets[r] + r..offsets[r + 1] + r + 1]`.
    offsets: Vec<u32>,
    /// (source, target) → route index, connected pairs only.
    index: HashMap<(NodeId, NodeId), u32>,
}

impl RouteTable {
    /// Resolves every `(source, targets)` request and freezes the
    /// results. Disconnected pairs are simply absent from the table.
    ///
    /// Each source first follows its single-exit chain to its head (a
    /// probe: access router, then metro PoP). Every route out of the
    /// source starts with that chain, and past the head it is the head's
    /// own shortest path, so the build runs one search per head over the
    /// union of its sources' targets — at paper scale 261 searches for
    /// 3,227 probes. Each route is the chain followed by the head's path;
    /// its floor replays Dijkstra's fold, `(d + proc) + link` with no
    /// processing at the source, so it carries the bits a search from the
    /// source would. `threads` ≥ 2 shards the searches over that many
    /// worker threads; the assembled table is identical for every thread
    /// count.
    pub fn build(topo: &Topology, wants: &[(NodeId, Vec<NodeId>)], threads: usize) -> Self {
        Self::build_around(topo, wants, threads, &HashSet::new())
    }

    /// [`RouteTable::build`] with the links of `disabled` treated as
    /// failed: no chain steps over one and no search relaxes one.
    fn build_around(
        topo: &Topology,
        wants: &[(NodeId, Vec<NodeId>)],
        threads: usize,
        disabled: &HashSet<LinkId>,
    ) -> Self {
        let (chains, searches) = group_by_head(topo, wants, disabled);
        let threads = threads.clamp(1, searches.len().max(1));
        // One scratch set per worker, reused across its searches.
        let resolve = |part: &[HeadSearch]| {
            let mut scratch = DijkstraScratch::default();
            part.iter()
                .map(|s| shortest_paths(topo, disabled, s.head, &s.targets, &mut scratch))
                .collect::<Vec<_>>()
        };
        let trees: Vec<Vec<Option<PathInfo>>> = if threads <= 1 {
            resolve(&searches)
        } else {
            let chunk = searches.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = searches
                    .chunks(chunk)
                    .map(|part| scope.spawn(|| resolve(part)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("route table build worker panicked"))
                    .collect()
            })
        };
        // Deterministic assembly: arena layout follows request order, so
        // the table is bit-identical regardless of build parallelism.
        let (searches, trees) = (&searches, &trees);
        let routes = || {
            wants
                .iter()
                .zip(&chains)
                .flat_map(|((source, targets), (chain, k))| {
                    targets.iter().map(move |target| {
                        let route =
                            route_parts(topo, *source, *target, chain, &searches[*k], &trees[*k]);
                        ((*source, *target), route)
                    })
                })
        };
        let route_upper: usize = wants.iter().map(|(_, t)| t.len()).sum();
        let total_links: usize = routes()
            .filter_map(|(_, route)| route)
            .map(|[(_, a), (_, b)]| a.len() + b.len())
            .sum();
        let mut table = Self::with_capacity(route_upper, total_links);
        for (pair, route) in routes() {
            if let Some(parts) = route {
                table.push(topo, pair, parts);
            }
        }
        table
    }

    /// The routes of this table that cross a link in `cut`, re-resolved
    /// around the cut by a [`RouteTable::build`] over the crossing pairs
    /// with the cut's links failed, so sources that share a chain head
    /// share its search. Each route equals
    /// `Router::with_disabled(topo, cut)`'s in links, nodes and floor
    /// bits, or is severed when the cut disconnects its pair.
    ///
    /// Every other route of the table stands under the cut unchanged:
    /// removing links a delay-shortest path does not use leaves it
    /// shortest, and Dijkstra's `(dist, node id)` pop order and
    /// strict-improvement predecessor rule pick it again, bit for bit.
    pub(crate) fn reroute(&self, topo: &Topology, cut: &HashSet<LinkId>) -> Reroutes {
        let mut is_cut = vec![false; topo.link_count()];
        for link in cut {
            if let Some(flag) = is_cut.get_mut(link.index()) {
                *flag = true;
            }
        }
        // Routes are stored source by source, so consecutive crossing
        // routes of one source form one request.
        let mut wants: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for route in (0..self.route_count()).map(|r| self.route(r)) {
            if !route.links.iter().any(|link| is_cut[link.index()]) {
                continue;
            }
            let (from, to) = (route.source(), route.dest());
            match wants.last_mut() {
                Some((source, targets)) if *source == from => targets.push(to),
                _ => wants.push((from, vec![to])),
            }
        }
        let routes = Self::build_around(topo, &wants, 1, cut);
        let severed = wants
            .iter()
            .flat_map(|(from, targets)| targets.iter().map(move |&to| (*from, to)))
            .filter(|&(from, to)| !routes.contains(from, to))
            .collect();
        Reroutes { routes, severed }
    }

    /// An empty table with room for `routes` routes of `links` links in
    /// all.
    fn with_capacity(routes: usize, links: usize) -> Self {
        let mut offsets = Vec::with_capacity(routes + 1);
        offsets.push(0);
        Self {
            nodes: Vec::with_capacity(links + routes),
            links: Vec::with_capacity(links),
            base: Vec::with_capacity(routes),
            offsets,
            index: HashMap::with_capacity(routes),
        }
    }

    /// Appends the route of `pair` from its node and link pieces, in
    /// order, with the floor replayed over the assembled route. A pair
    /// already in the table keeps its first route.
    fn push<'a>(
        &mut self,
        topo: &Topology,
        pair: (NodeId, NodeId),
        parts: impl IntoIterator<Item = (&'a [NodeId], &'a [LinkId])>,
    ) {
        use std::collections::hash_map::Entry;
        let Entry::Vacant(slot) = self.index.entry(pair) else {
            return; // duplicate request: first resolution wins
        };
        slot.insert(u32::try_from(self.base.len()).expect("route table route limit"));
        let (first_node, first_link) = (self.nodes.len(), self.links.len());
        for (nodes, links) in parts {
            self.nodes.extend_from_slice(nodes);
            self.links.extend_from_slice(links);
        }
        let floor = replay_floor_ms(topo, &self.nodes[first_node..], &self.links[first_link..]);
        self.base.push(floor);
        let end = u32::try_from(self.links.len()).expect("route table arena limit");
        self.offsets.push(end);
    }

    /// The arena slices of route number `route`.
    fn route(&self, route: usize) -> PathRef<'_> {
        let l0 = self.offsets[route] as usize;
        let l1 = self.offsets[route + 1] as usize;
        PathRef {
            links: &self.links[l0..l1],
            nodes: &self.nodes[l0 + route..l1 + route + 1],
            base_one_way_ms: self.base[route],
        }
    }

    /// The precomputed route from `from` to `to`, or `None` if the pair
    /// was not requested at build time or is disconnected. A lookup is
    /// one hash probe; the returned [`PathRef`] borrows the arena.
    pub fn path(&self, from: NodeId, to: NodeId) -> Option<PathRef<'_>> {
        let route = *self.index.get(&(from, to))?;
        Some(self.route(route as usize))
    }

    /// Whether the table holds a route for the pair.
    pub fn contains(&self, from: NodeId, to: NodeId) -> bool {
        self.index.contains_key(&(from, to))
    }

    /// Number of stored routes.
    pub fn route_count(&self) -> usize {
        self.base.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Total number of link entries in the arena (a size diagnostic for
    /// benches and capacity planning).
    pub fn arena_link_count(&self) -> usize {
        self.links.len()
    }
}

/// The routes of a [`RouteTable`] that a set of cut links crosses,
/// re-resolved around the cut by [`RouteTable::reroute`].
pub(crate) struct Reroutes {
    /// The crossing pairs that stay connected, with their new routes.
    routes: RouteTable,
    /// The crossing pairs the cut disconnects.
    severed: HashSet<(NodeId, NodeId)>,
}

impl Reroutes {
    /// The route of `(from, to)` under the cut: `None` when the pair
    /// does not cross the cut (its table route stands), `Some(None)` when
    /// the cut disconnects it.
    pub(crate) fn path(&self, from: NodeId, to: NodeId) -> Option<Option<PathRef<'_>>> {
        match self.routes.path(from, to) {
            Some(path) => Some(Some(path)),
            None => self.severed.contains(&(from, to)).then_some(None),
        }
    }
}

/// Where a prober gets its routes: a shared read-only [`RouteTable`]
/// or a shared [`crate::fault::FaultRouter`] (the table under a fault
/// plan's link cuts). Both are built over the pairs the caller probes;
/// a lookup never searches or allocates.
#[derive(Clone, Copy)]
pub enum RouteSource<'t> {
    /// Borrowed precomputed table.
    Shared(&'t RouteTable),
    /// Borrowed time-aware routes: the fault-free table, with the routes
    /// each link-cut epoch crosses re-resolved up front.
    Faulty(&'t crate::fault::FaultRouter),
}

impl<'t> RouteSource<'t> {
    /// Resolves a route, if the source holds one for the pair.
    /// Fault-aware sources resolve at the start of time; use
    /// [`RouteSource::path_at`] for scheduled measurements.
    pub fn path(&self, from: NodeId, to: NodeId) -> Option<PathRef<'t>> {
        self.path_at(from, to, SimTime::ZERO)
    }

    /// Resolves the route in effect at simulation time `t`. The time only
    /// matters for the `Faulty` source, whose link-cut schedule swaps the
    /// topology between epochs; `Shared` routes are static.
    pub fn path_at(&self, from: NodeId, to: NodeId, t: SimTime) -> Option<PathRef<'t>> {
        match *self {
            RouteSource::Shared(table) => table.path(from, to),
            RouteSource::Faulty(faulty) => faulty.path_at(from, to, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkClass, NodeKind};
    use shears_geo::GeoPoint;

    /// Line topology A—B—C—D at 1° longitude spacing on the equator.
    fn line() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, i as f64), "XX"))
            .collect();
        for w in ids.windows(2) {
            t.connect(w[0], w[1], LinkClass::TerrestrialBackbone, 1.0);
        }
        (t, ids)
    }

    #[test]
    fn direct_path_on_line() {
        let (t, ids) = line();
        let mut r = Router::new(&t);
        let p = r.path(ids[0], ids[3]).unwrap();
        assert_eq!(p.hop_count(), 3);
        assert_eq!(p.nodes.first(), Some(&ids[0]));
        assert_eq!(p.nodes.last(), Some(&ids[3]));
    }

    #[test]
    fn path_to_self_is_empty() {
        let (t, ids) = line();
        let mut r = Router::new(&t);
        let p = r.path(ids[1], ids[1]).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.base_one_way_ms, 0.0);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 1.0), "XX");
        let mut r = Router::new(&t);
        assert!(r.path(a, b).is_none());
    }

    #[test]
    fn prefers_faster_detour_over_slow_direct() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 10.0), "XX");
        let via = t.add_node(NodeKind::BackbonePop, GeoPoint::new(0.0, 5.0), "XX");
        // Direct link heavily inflated; two-hop detour nearly geodesic.
        t.connect(a, b, LinkClass::TerrestrialBackbone, 3.0);
        t.connect(a, via, LinkClass::TerrestrialBackbone, 1.0);
        t.connect(via, b, LinkClass::TerrestrialBackbone, 1.0);
        let mut r = Router::new(&t);
        let p = r.path(a, b).unwrap();
        assert_eq!(p.hop_count(), 2, "should route via the middle node");
        assert_eq!(p.nodes, vec![a, via, b]);
    }

    #[test]
    fn intermediate_processing_counts_endpoints_do_not() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::ProbeHost, GeoPoint::new(0.0, 0.0), "XX");
        let m = t.add_node(NodeKind::IxpHub, GeoPoint::new(0.0, 1.0), "XX");
        let b = t.add_node(NodeKind::Datacenter, GeoPoint::new(0.0, 2.0), "XX");
        let l1 = t.connect(a, m, LinkClass::TerrestrialBackbone, 1.0);
        let l2 = t.connect(m, b, LinkClass::TerrestrialBackbone, 1.0);
        let mut r = Router::new(&t);
        let p = r.path(a, b).unwrap();
        let want = t.link(l1).base_delay_ms
            + NodeKind::IxpHub.processing_delay_ms()
            + t.link(l2).base_delay_ms;
        assert!((p.base_one_way_ms - want).abs() < 1e-9);
    }

    #[test]
    fn cache_hits_return_same_path() {
        let (t, ids) = line();
        let mut r = Router::new(&t);
        let first = r.path(ids[0], ids[3]).unwrap().clone();
        assert_eq!(r.cache_len(), 1);
        let second = r.path(ids[0], ids[3]).unwrap().clone();
        assert_eq!(first, second);
        assert_eq!(r.cache_len(), 1);
    }

    #[test]
    fn disabled_links_force_detours_or_disconnect() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 10.0), "XX");
        let via = t.add_node(NodeKind::BackbonePop, GeoPoint::new(5.0, 5.0), "XX");
        let direct = t.connect(a, b, LinkClass::TerrestrialBackbone, 1.0);
        t.connect(a, via, LinkClass::TerrestrialBackbone, 1.0);
        let l2 = t.connect(via, b, LinkClass::TerrestrialBackbone, 1.0);
        // Healthy: direct link wins.
        let mut healthy = Router::new(&t);
        assert_eq!(healthy.path(a, b).unwrap().hop_count(), 1);
        // Direct cut: detour via the middle node.
        let mut cut = Router::with_disabled(&t, [direct].into_iter().collect());
        let detour = cut.path(a, b).unwrap().clone();
        assert_eq!(detour.hop_count(), 2);
        assert!(detour.base_one_way_ms > healthy.path(a, b).unwrap().base_one_way_ms);
        // Both cut: disconnected.
        let mut dead = Router::with_disabled(&t, [direct, l2].into_iter().collect());
        assert!(dead.path(a, b).is_none());
    }

    #[test]
    fn symmetric_delay_on_undirected_graph() {
        let (t, ids) = line();
        let mut r = Router::new(&t);
        let fwd = r.path(ids[0], ids[3]).unwrap().base_one_way_ms;
        let rev = r.path(ids[3], ids[0]).unwrap().base_one_way_ms;
        assert!((fwd - rev).abs() < 1e-9);
    }

    #[test]
    fn table_matches_router_bit_for_bit() {
        let (t, ids) = line();
        // All-pairs table from both line ends plus the self pair.
        let wants = vec![
            (ids[0], vec![ids[1], ids[2], ids[3], ids[0]]),
            (ids[3], vec![ids[0], ids[2]]),
        ];
        let table = RouteTable::build(&t, &wants, 1);
        let mut router = Router::new(&t);
        for (src, targets) in &wants {
            for &to in targets {
                let via_table = table.path(*src, to).expect("pair resolved").to_path_info();
                let via_router = router.path(*src, to).expect("connected").clone();
                assert_eq!(via_table, via_router, "{src:?} -> {to:?}");
            }
        }
        assert_eq!(table.route_count(), 6);
        assert!(!table.is_empty());
        assert!(table.arena_link_count() >= 6);
    }

    #[test]
    fn table_build_is_thread_invariant() {
        let (t, ids) = line();
        let wants: Vec<(NodeId, Vec<NodeId>)> = ids
            .iter()
            .map(|&s| (s, ids.iter().copied().filter(|&x| x != s).collect()))
            .collect();
        let reference = RouteTable::build(&t, &wants, 1);
        for threads in [2usize, 3, 8] {
            assert_eq!(RouteTable::build(&t, &wants, threads), reference);
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_searches() {
        // One build worker resolves every source with one scratch set.
        // The line's sources cannot reach the separate e—f island; those
        // targets' pending marks must not leak into the island's own
        // searches.
        let (mut t, mut ids) = line();
        let e = t.add_node(NodeKind::MetroPop, GeoPoint::new(9.0, 9.0), "XX");
        let f = t.add_node(NodeKind::MetroPop, GeoPoint::new(9.0, 10.0), "XX");
        t.connect(e, f, LinkClass::TerrestrialBackbone, 1.0);
        ids.extend([e, f]);
        let wants: Vec<(NodeId, Vec<NodeId>)> = ids
            .iter()
            .map(|&s| (s, ids.iter().rev().copied().collect()))
            .collect();
        let table = RouteTable::build(&t, &wants, 1);
        let mut shared = Router::new(&t);
        for (src, targets) in &wants {
            for &to in targets {
                let fresh = Router::new(&t).path(*src, to).cloned();
                assert_eq!(table.path(*src, to).map(PathRef::to_path_info), fresh);
                assert_eq!(shared.path(*src, to).cloned(), fresh, "{src:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn table_self_route_is_empty_path() {
        let (t, ids) = line();
        let table = RouteTable::build(&t, &[(ids[2], vec![ids[2]])], 1);
        let p = table.path(ids[2], ids[2]).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.nodes, &[ids[2]]);
        assert_eq!(p.base_one_way_ms, 0.0);
        assert_eq!(p.source(), ids[2]);
        assert_eq!(p.dest(), ids[2]);
    }

    #[test]
    fn table_omits_disconnected_and_unrequested_pairs() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 0.0), "XX");
        let b = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 1.0), "XX");
        let c = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 2.0), "XX");
        t.connect(a, b, LinkClass::TerrestrialBackbone, 1.0);
        // c is isolated; (b, a) is never requested.
        let table = RouteTable::build(&t, &[(a, vec![b, c])], 2);
        assert!(table.contains(a, b));
        assert!(table.path(a, c).is_none(), "disconnected pair");
        assert!(table.path(b, a).is_none(), "unrequested pair");
        assert_eq!(table.route_count(), 1);
    }

    #[test]
    fn multi_target_tree_matches_per_pair_runs() {
        // A diamond with a tie: two equal-cost two-hop routes a→d force
        // the node-id tie-break; the tree and per-pair searches must
        // agree on which one wins.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 0.0), "XX");
        let up = t.add_node(NodeKind::BackbonePop, GeoPoint::new(1.0, 1.0), "XX");
        let down = t.add_node(NodeKind::BackbonePop, GeoPoint::new(-1.0, 1.0), "XX");
        let d = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 2.0), "XX");
        t.connect(a, up, LinkClass::TerrestrialBackbone, 1.0);
        t.connect(a, down, LinkClass::TerrestrialBackbone, 1.0);
        t.connect(up, d, LinkClass::TerrestrialBackbone, 1.0);
        t.connect(down, d, LinkClass::TerrestrialBackbone, 1.0);
        let table = RouteTable::build(&t, &[(a, vec![up, down, d])], 1);
        let mut router = Router::new(&t);
        for to in [up, down, d] {
            assert_eq!(
                table.path(a, to).unwrap().to_path_info(),
                router.path(a, to).unwrap().clone(),
            );
        }
    }

    /// Every requested pair, as `path` resolves it, equals the per-pair
    /// [`Router`] resolution with the `disabled` links failed: links,
    /// nodes and the floor's bits (or both absent).
    fn assert_matches_router<'a>(
        t: &Topology,
        wants: &[(NodeId, Vec<NodeId>)],
        disabled: &HashSet<LinkId>,
        path: impl Fn(NodeId, NodeId) -> Option<PathRef<'a>>,
    ) {
        let mut router = Router::with_disabled(t, disabled.clone());
        for (src, targets) in wants {
            for &to in targets {
                let want = router.path(*src, to).cloned();
                let got = path(*src, to).map(PathRef::to_path_info);
                let bits = |p: &Option<PathInfo>| p.as_ref().map(|p| p.base_one_way_ms.to_bits());
                assert_eq!(bits(&got), bits(&want), "floor {src:?} -> {to:?}");
                assert_eq!(got, want, "{src:?} -> {to:?}");
            }
        }
    }

    /// Hangs a probe off `at` through its own access router (the probe →
    /// router → `at` chain of a worldnet probe). Returns the probe.
    fn attach_probe(t: &mut Topology, at: NodeId, lat: f64, access_ms: f64) -> NodeId {
        let probe = t.add_node(NodeKind::ProbeHost, GeoPoint::new(lat, -0.3), "XX");
        let router = t.add_node(NodeKind::AccessRouter, GeoPoint::new(lat, -0.2), "XX");
        t.connect_with_delay(probe, router, LinkClass::Access, access_ms);
        t.connect(router, at, LinkClass::MetroAggregation, 1.2);
        probe
    }

    #[test]
    fn probe_chains_on_the_tie_diamond_share_one_search() {
        // The tie diamond, with a datacenter behind `d` and four probes
        // whose chains end at `a`: three through their own access router,
        // one attached directly. Each probe's floor differs, so the head's
        // search is shifted by a different offset for every source; the
        // node-id tie-break must still pick `up` for all of them.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 0.0), "XX");
        let up = t.add_node(NodeKind::BackbonePop, GeoPoint::new(1.0, 1.0), "XX");
        let down = t.add_node(NodeKind::BackbonePop, GeoPoint::new(-1.0, 1.0), "XX");
        let d = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 2.0), "XX");
        t.connect(a, up, LinkClass::TerrestrialBackbone, 1.0);
        t.connect(a, down, LinkClass::TerrestrialBackbone, 1.0);
        t.connect(up, d, LinkClass::TerrestrialBackbone, 1.0);
        t.connect(down, d, LinkClass::TerrestrialBackbone, 1.0);
        let dc = t.add_node(NodeKind::Datacenter, GeoPoint::new(0.0, 2.1), "XX");
        t.connect(d, dc, LinkClass::DatacenterFabric, 1.1);
        let mut probes: Vec<NodeId> = (0..3)
            .map(|i| attach_probe(&mut t, a, 0.1 * f64::from(i), 1.0 + 0.7 * f64::from(i)))
            .collect();
        let direct = t.add_node(NodeKind::ProbeHost, GeoPoint::new(-0.1, -0.3), "XX");
        t.connect_with_delay(direct, a, LinkClass::Access, 2.5);
        probes.push(direct);
        let wants: Vec<(NodeId, Vec<NodeId>)> =
            probes.iter().map(|&p| (p, vec![dc, d, up, down])).collect();

        let (chains, searches) = group_by_head(&t, &wants, &HashSet::new());
        assert_eq!(searches.len(), 1, "every chain ends at the diamond's head");
        assert_eq!(searches[0].head, a);
        let chain_lens: Vec<usize> = chains.iter().map(|(c, _)| c.nodes.len()).collect();
        assert_eq!(chain_lens, [3, 3, 3, 2]);

        let table = RouteTable::build(&t, &wants, 1);
        assert_matches_router(&t, &wants, &HashSet::new(), |from, to| table.path(from, to));
        assert_eq!(table.route_count(), probes.len() * 4);
        for &p in &probes {
            assert!(
                table.path(p, d).unwrap().nodes.contains(&up),
                "tie-break picks `up`"
            );
        }
        assert_eq!(RouteTable::build(&t, &wants, 3), table);
    }

    /// probe — router — metro, where the metro branches to two hubs that
    /// also meet directly, and a datacenter hangs off the first hub. The
    /// metro—h1 link is the short way to the datacenter. Returns the
    /// topology and `[probe, router, metro, h1, h2, dc]`.
    fn probe_behind_a_fork() -> (Topology, [NodeId; 6]) {
        let mut t = Topology::new();
        let metro = t.add_node(NodeKind::MetroPop, GeoPoint::new(0.0, 0.0), "XX");
        let h1 = t.add_node(NodeKind::IxpHub, GeoPoint::new(0.0, 3.0), "XX");
        let h2 = t.add_node(NodeKind::IxpHub, GeoPoint::new(2.0, 2.0), "XX");
        let dc = t.add_node(NodeKind::Datacenter, GeoPoint::new(0.0, 3.1), "XX");
        t.connect(metro, h1, LinkClass::TerrestrialBackbone, 1.4);
        t.connect(metro, h2, LinkClass::TerrestrialBackbone, 1.1);
        t.connect(h2, h1, LinkClass::TerrestrialBackbone, 1.1);
        t.connect(h1, dc, LinkClass::DatacenterFabric, 1.0);
        let p = attach_probe(&mut t, metro, 0.5, 3.0);
        let router = t.neighbors(p).next().unwrap().0;
        (t, [p, router, metro, h1, h2, dc])
    }

    #[test]
    fn reroutes_match_the_router_when_a_cut_severs_or_extends_a_chain() {
        let (t, [p, router, metro, h1, h2, dc]) = probe_behind_a_fork();
        let wants = vec![(p, vec![dc, h2, metro]), (metro, vec![dc, p])];
        // Returns how many crossing pairs re-route and how many are severed.
        let reroute = |cut: HashSet<LinkId>| {
            let table = RouteTable::build(&t, &wants, 1);
            let reroutes = table.reroute(&t, &cut);
            assert_matches_router(&t, &wants, &cut, |from, to| {
                reroutes
                    .path(from, to)
                    .unwrap_or_else(|| table.path(from, to))
            });
            (reroutes.routes.route_count(), reroutes.severed.len())
        };
        // A cut on a chain link severs every route across it.
        let chain_link = t.link_between(router, metro).unwrap();
        assert_eq!(reroute(HashSet::from([chain_link])), (0, 4));
        // With metro—h1 cut, the metro's one exit is h2 and h2's is h1, so
        // the chain runs on to h1, whose one exit is a stub.
        let cut = HashSet::from([t.link_between(metro, h1).unwrap()]);
        assert_eq!(
            Chain::walk(&t, p, &[dc], &cut).nodes,
            [p, router, metro, h2, h1]
        );
        assert_eq!(reroute(cut), (2, 0), "p -> dc and metro -> dc re-route");
    }

    #[test]
    fn chains_stop_before_targets_stubs_and_branches() {
        let (mut t, [p, router, metro, h1, h2, dc]) = probe_behind_a_fork();
        // A host whose only neighbour is the datacenter: a search from it
        // reaches the datacenter and stops there (stubs never transit).
        let behind_dc = t.add_node(NodeKind::ProbeHost, GeoPoint::new(0.1, 3.2), "XX");
        t.connect_with_delay(behind_dc, dc, LinkClass::Access, 1.0);

        let none = HashSet::new();
        let chain = |targets: &[NodeId]| Chain::walk(&t, p, targets, &none).nodes;
        assert_eq!(chain(&[dc]), [p, router, metro], "stops where it branches");
        assert_eq!(chain(&[dc, metro]), [p, router], "stops before a target");
        assert_eq!(chain(&[router, dc]), [p], "even the first step");
        assert_eq!(
            Chain::walk(&t, behind_dc, &[metro], &none).nodes,
            [behind_dc],
            "stub"
        );

        let wants = vec![
            (p, vec![dc, metro, h2, p]),
            (p, vec![router, h1]),
            (behind_dc, vec![dc, metro, behind_dc]),
            (router, vec![dc, p]),
            (metro, vec![p, dc]),
        ];
        let table = RouteTable::build(&t, &wants, 2);
        assert_matches_router(&t, &wants, &HashSet::new(), |from, to| table.path(from, to));
        assert!(
            table.path(behind_dc, metro).is_none(),
            "no transit through the stub"
        );
        assert_eq!(table.path(p, p).unwrap().hop_count(), 0);
        assert_eq!(table.path(behind_dc, behind_dc).unwrap().hop_count(), 0);
    }
}
