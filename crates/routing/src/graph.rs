//! The switch-level view of a subnet that routing engines compute over,
//! plus the flat-array compute substrate every engine's hot path runs on:
//! a CSR adjacency, a reusable zero-allocation BFS workspace
//! (`BfsScratch`), a row-major `DistanceMatrix`, a deterministic
//! scoped-thread fan-out (`parallel_for_each`), and the host distance
//! field the fat-tree and Min-Hop engines route on, which a repair patches
//! per lost link instead of recomputing (`HostDistances`).

use std::collections::VecDeque;

use ib_subnet::{NodeId, Subnet};
use ib_types::{IbError, IbResult, Lid, PortNum};
use rustc_hash::FxHashMap;

/// A routing destination: one LID, the switch it is reached through, and the
/// port on that switch that delivers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Destination {
    /// The destination LID.
    pub lid: Lid,
    /// The switch the LID terminates at or hangs off.
    pub switch: usize,
    /// Delivery port on that switch: `PortNum::MANAGEMENT` if the LID is the
    /// switch's own, otherwise the port cabled to the HCA.
    pub port: PortNum,
}

/// Dense adjacency view over the switches of a subnet, in CSR form.
///
/// Engines work in switch-index space (`0..num_switches`) for cache-friendly
/// BFS; [`SwitchGraph::node_id`] maps back to subnet handles. Both physical
/// switches and vSwitches participate: a vSwitch routes packets between its
/// VFs and its uplink like any other switch.
///
/// The adjacency is one flat edge array plus per-switch offsets — the whole
/// graph is two contiguous allocations, so an all-pairs BFS streams the edge
/// array instead of chasing one heap `Vec` per switch.
#[derive(Clone, Debug)]
pub struct SwitchGraph {
    switches: Vec<NodeId>,
    index_of: FxHashMap<NodeId, usize>,
    /// CSR edge array: `edges[offsets[s]..offsets[s + 1]]` holds the
    /// (neighbor switch index, output port on `s`) pairs of switch `s`.
    edges: Vec<(u32, PortNum)>,
    offsets: Vec<u32>,
    /// `peer[s * peer_stride + port]`: the switch index the port leads to,
    /// `NO_PEER` for a port that leaves the switch fabric.
    peer: Vec<u32>,
    peer_stride: usize,
    destinations: Vec<Destination>,
}

const NO_PEER: u32 = u32::MAX;

impl SwitchGraph {
    /// Extracts the switch graph and the destination list from a subnet.
    ///
    /// Fails if an HCA carries a LID but is not cabled to a switch, or if a
    /// registered LID has no endpoint behind it.
    pub fn build(subnet: &Subnet) -> IbResult<Self> {
        let switches: Vec<NodeId> = subnet.switches().map(|n| n.id).collect();
        let index_of: FxHashMap<NodeId, usize> = switches
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();

        // Two passes build the CSR arrays without intermediate per-switch
        // vectors: count degrees, prefix-sum into offsets, then fill.
        let mut offsets = vec![0u32; switches.len() + 1];
        for (i, &sw) in switches.iter().enumerate() {
            let degree = subnet
                .node(sw)
                .connected_ports()
                .filter(|(_, remote)| index_of.contains_key(&remote.node))
                .count();
            offsets[i + 1] = offsets[i] + degree as u32;
        }
        let mut edges = vec![(0u32, PortNum::MANAGEMENT); offsets[switches.len()] as usize];
        for (i, &sw) in switches.iter().enumerate() {
            let mut at = offsets[i] as usize;
            for (port, remote) in subnet.node(sw).connected_ports() {
                if let Some(&j) = index_of.get(&remote.node) {
                    edges[at] = (j as u32, port);
                    at += 1;
                }
            }
        }

        let peer_stride = 1 + edges
            .iter()
            .map(|&(_, p)| p.raw() as usize)
            .max()
            .unwrap_or(0);
        let mut peer = vec![NO_PEER; peer_stride * switches.len()];
        for s in 0..switches.len() {
            for &(v, p) in &edges[offsets[s] as usize..offsets[s + 1] as usize] {
                peer[s * peer_stride + p.raw() as usize] = v;
            }
        }

        let mut destinations = Vec::with_capacity(subnet.num_lids());
        for lid in subnet.lids() {
            destinations.push(resolve_destination(subnet, &index_of, lid)?);
        }

        Ok(Self {
            switches,
            index_of,
            edges,
            offsets,
            peer,
            peer_stride,
            destinations,
        })
    }

    /// Number of switches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// Whether there are no switches.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// Subnet handle of switch index `s`.
    #[must_use]
    pub fn node_id(&self, s: usize) -> NodeId {
        self.switches[s]
    }

    /// Switch index of a subnet node, if it is a switch.
    #[must_use]
    pub fn index(&self, id: NodeId) -> Option<usize> {
        self.index_of.get(&id).copied()
    }

    /// Adjacency of switch `s`: (neighbor switch index, output port) pairs.
    #[must_use]
    pub fn neighbors(&self, s: usize) -> &[(u32, PortNum)] {
        &self.edges[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Highest port number used by any switch-switch link (sizes the flat
    /// per-port load and weight arrays engines keep).
    #[must_use]
    pub fn neighbors_max_port(&self) -> Option<PortNum> {
        self.edges.iter().map(|&(_, p)| p).max()
    }

    /// The switch index port `port` of switch `s` leads to; `None` for a
    /// port that leaves the switch fabric (an HCA, nothing, a downed link).
    #[must_use]
    pub(crate) fn peer(&self, s: usize, port: PortNum) -> Option<usize> {
        let p = port.raw() as usize;
        if p >= self.peer_stride {
            return None;
        }
        let v = self.peer[s * self.peer_stride + p];
        (v != NO_PEER).then_some(v as usize)
    }

    /// The table behind [`Self::peer`]: its stride and, at
    /// `s * stride + port`, the switch index or `NO_PEER`.
    pub(crate) fn peer_table(&self) -> (usize, &[u32]) {
        (self.peer_stride, &self.peer)
    }

    /// Where an LFT entry of switch `s` forwards to inside the switch
    /// fabric: (out port, neighbor switch), `None` for an unset entry or
    /// one that delivers or drops.
    #[must_use]
    pub(crate) fn next_hop(&self, s: usize, entry: Option<PortNum>) -> Option<(u8, usize)> {
        let p = entry?;
        Some((p.raw(), self.peer(s, p)?))
    }

    /// All destinations (every registered LID).
    #[must_use]
    pub fn destinations(&self) -> &[Destination] {
        &self.destinations
    }

    /// BFS hop distances from switch `from` to every switch
    /// (`u32::MAX` = unreachable). Allocates; the engines' hot paths fill
    /// reused rows instead.
    #[must_use]
    pub fn bfs_distances(&self, from: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        BfsScratch::for_graph(self).fill_into(self, from, &mut dist);
        dist
    }

    /// Connected-component labeling of the switch graph: deterministic
    /// (components are numbered by their lowest switch index, in index
    /// order), computed with one BFS pass over the CSR arrays. Engines use
    /// this to route per component on a split fabric; the SM uses it to
    /// detect the split and count the unreachable side.
    #[must_use]
    pub fn components(&self) -> Components {
        let mut label = vec![u32::MAX; self.len()];
        let mut queue: Vec<u32> = Vec::with_capacity(self.len());
        let mut count = 0u32;
        for root in 0..self.len() {
            if label[root] != u32::MAX {
                continue;
            }
            label[root] = count;
            queue.clear();
            queue.push(root as u32);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &(v, _) in self.neighbors(u) {
                    if label[v as usize] == u32::MAX {
                        label[v as usize] = count;
                        queue.push(v);
                    }
                }
            }
            count += 1;
        }
        Components {
            label,
            count: count as usize,
        }
    }

    /// The bridge (cut) edges of the switch graph: unordered switch-index
    /// pairs `(a, b)` with `a < b`, sorted, whose removal would disconnect
    /// the component containing them. Parallel cables between the same two
    /// switches are never bridges — cutting one leaves the twin. Computed
    /// with an iterative Tarjan low-link pass, so deep fabrics cannot
    /// overflow the call stack.
    #[must_use]
    pub fn bridges(&self) -> Vec<(usize, usize)> {
        let n = self.len();
        // Collapse parallel cables: unique neighbor + multiplicity.
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (u, row) in adj.iter_mut().enumerate() {
            let mut nbrs: Vec<u32> = self.neighbors(u).iter().map(|&(v, _)| v).collect();
            nbrs.sort_unstable();
            let mut i = 0;
            while i < nbrs.len() {
                let v = nbrs[i];
                let mut m = 0u32;
                while i < nbrs.len() && nbrs[i] == v {
                    m += 1;
                    i += 1;
                }
                row.push((v, m));
            }
        }
        let mut disc = vec![u32::MAX; n];
        let mut low = vec![u32::MAX; n];
        let mut timer = 0u32;
        let mut out = Vec::new();
        // One explicit DFS frame per switch: (node, parent, next edge).
        let mut stack: Vec<(u32, u32, usize)> = Vec::new();
        for root in 0..n {
            if disc[root] != u32::MAX {
                continue;
            }
            disc[root] = timer;
            low[root] = timer;
            timer += 1;
            stack.push((root as u32, u32::MAX, 0));
            while let Some(frame) = stack.last_mut() {
                let (u, parent) = (frame.0 as usize, frame.1);
                if frame.2 < adj[u].len() {
                    let (v, mult) = adj[u][frame.2];
                    frame.2 += 1;
                    let v = v as usize;
                    if disc[v] == u32::MAX {
                        disc[v] = timer;
                        low[v] = timer;
                        timer += 1;
                        stack.push((v as u32, u as u32, 0));
                    } else if v as u32 != parent || mult > 1 {
                        // Back edge — or a parallel cable to the parent,
                        // which counts as one (the tree edge used one of
                        // the cables; its twin is a genuine cycle).
                        low[u] = low[u].min(disc[v]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _, _)) = stack.last() {
                        let p = p as usize;
                        low[p] = low[p].min(low[u]);
                        if low[u] > disc[p] {
                            out.push((p.min(u), p.max(u)));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Rank of each switch as hop distance to the nearest endpoint-bearing
    /// (leaf) switch: leaves are rank 0, their neighbors rank 1, and so on.
    /// This is the rank structure fat-tree routing keys off.
    #[must_use]
    pub fn ranks(&self) -> Vec<u32> {
        let mut rank = vec![u32::MAX; self.len()];
        let mut queue = VecDeque::new();
        for d in &self.destinations {
            if d.port != PortNum::MANAGEMENT && rank[d.switch] != 0 {
                rank[d.switch] = 0;
                queue.push_back(d.switch);
            }
        }
        // No endpoints at all: treat switch 0 as the single leaf.
        if queue.is_empty() && !self.is_empty() {
            rank[0] = 0;
            queue.push_back(0);
        }
        while let Some(u) = queue.pop_front() {
            for &(v, _) in self.neighbors(u) {
                if rank[v as usize] == u32::MAX {
                    rank[v as usize] = rank[u] + 1;
                    queue.push_back(v as usize);
                }
            }
        }
        rank
    }
}

/// Connected-component labels over a [`SwitchGraph`], as produced by
/// [`SwitchGraph::components`]. Labels are dense (`0..count`) and
/// deterministic: component `k` is the one whose lowest switch index is the
/// `k`-th lowest among component representatives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    label: Vec<u32>,
    count: usize,
}

impl Components {
    /// Number of connected components (`1` on a healthy fabric).
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the graph is split into more than one component.
    #[must_use]
    pub fn is_partitioned(&self) -> bool {
        self.count > 1
    }

    /// Component label of switch index `s`.
    #[must_use]
    pub fn label_of(&self, s: usize) -> u32 {
        self.label[s]
    }

    /// Whether switches `a` and `b` share a component.
    #[must_use]
    pub fn same(&self, a: usize, b: usize) -> bool {
        self.label[a] == self.label[b]
    }

    /// The full label array, indexed by switch index.
    #[must_use]
    pub fn labels(&self) -> &[u32] {
        &self.label
    }
}

/// Resolves one LID to its delivery switch and port.
fn resolve_destination(
    subnet: &Subnet,
    index_of: &FxHashMap<NodeId, usize>,
    lid: Lid,
) -> IbResult<Destination> {
    let ep = subnet
        .endpoint_of(lid)
        .ok_or_else(|| IbError::Topology(format!("LID {lid} is registered but has no endpoint")))?;
    if let Some(&s) = index_of.get(&ep.node) {
        // The LID belongs to a switch itself.
        return Ok(Destination {
            lid,
            switch: s,
            port: PortNum::MANAGEMENT,
        });
    }
    // The LID belongs to an HCA port; find the switch it hangs off (the
    // far end of its cable).
    let hca = subnet.node(ep.node);
    // A down uplink counts as uncabled: the routing engine must not
    // compute paths that end on a dead link.
    let remote = hca
        .ports
        .get(ep.port.raw() as usize)
        .and_then(|p| if p.down { None } else { p.remote })
        .ok_or_else(|| {
            IbError::Topology(format!("{} carries LID {lid} but is not cabled", hca.name))
        })?;
    let &s = index_of.get(&remote.node).ok_or_else(|| {
        IbError::Topology(format!(
            "{} (LID {lid}) is cabled to a non-switch",
            hca.name
        ))
    })?;
    Ok(Destination {
        lid,
        switch: s,
        port: remote.port,
    })
}

/// Reusable BFS workspace: a flat FIFO queue (each switch enters once, so a
/// `Vec` with a head cursor is the ring). One scratch serves every source a
/// worker sweeps — per-source BFS allocates nothing.
#[derive(Clone, Debug)]
pub(crate) struct BfsScratch {
    queue: Vec<u32>,
}

impl BfsScratch {
    /// A scratch sized for `g`.
    #[must_use]
    pub fn for_graph(g: &SwitchGraph) -> Self {
        Self {
            queue: Vec::with_capacity(g.len()),
        }
    }

    /// Computes hop distances from `from` directly into `dist`
    /// (`u32::MAX` = unreachable), using only the scratch queue.
    pub fn fill_into(&mut self, g: &SwitchGraph, from: usize, dist: &mut [u32]) {
        dist.fill(u32::MAX);
        self.queue.clear();
        dist[from] = 0;
        self.queue.push(from as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let du = dist[u];
            for &(v, _) in g.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    self.queue.push(v);
                }
            }
        }
    }
}

/// A flat row-major distance matrix: row `i` holds the hop distances from
/// the `i`-th requested source to every switch. One contiguous allocation
/// replaces the `Vec<Vec<u32>>` the engines used to build per sweep.
#[derive(Clone, Debug)]
pub(crate) struct DistanceMatrix {
    cols: usize,
    data: Vec<u32>,
}

impl DistanceMatrix {
    /// Distances from a source list: row `i` = distances from `sources[i]`,
    /// fanned across up to `workers` scoped threads. Row contents depend
    /// only on the source, so the matrix is identical for every worker
    /// count.
    #[must_use]
    pub fn for_sources(g: &SwitchGraph, sources: &[usize], workers: usize) -> Self {
        let cols = g.len();
        let mut data = vec![u32::MAX; sources.len() * cols];
        let mut rows: Vec<&mut [u32]> = data.chunks_mut(cols.max(1)).collect();
        parallel_for_each(
            &mut rows,
            workers,
            || BfsScratch::for_graph(g),
            |scratch, i, row| scratch.fill_into(g, sources[i], row),
        );
        Self { cols, data }
    }

    /// Number of rows (sources).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Row `i`: distances from the `i`-th source to every switch.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// The hop distances toward the delivery switches of host (HCA-destined)
/// LIDs — the distance field of the fat-tree and Min-Hop kernels —
/// together with the adjacency they describe, so they can ride with the
/// tables routed on them and follow the fabric as links go down instead of
/// being recomputed.
///
/// One row per *source*. A delivery switch whose cables all lead to one
/// switch is a *stub* (a vSwitch under its leaf): it reads that neighbour's
/// row plus one, and zero at itself, so a vSwitch fabric keeps one row per
/// leaf rather than one per vSwitch. Every other delivery switch is its own
/// source.
///
/// Since the build, [`Self::follow`] has only ever removed links: `changed`
/// holds, per row, exactly the switches whose distance moved, and `cut` the
/// endpoints of every removed link. Together they bound which cells a
/// repair can move (see `ftree`).
#[derive(Clone)]
pub(crate) struct HostDistances {
    /// The switches and the port -> peer table of the adjacency the rows
    /// describe (`SwitchGraph::peer_table`'s layout).
    switches: Vec<NodeId>,
    peer_stride: usize,
    peer: Vec<u32>,
    /// Per switch: its row (`NO_ROW` when it delivers no host LID) and
    /// whether it is a stub of that row's source.
    slot: Vec<(u32, bool)>,
    rows: DistanceMatrix,
    /// Per row: the switches whose distance moved since the build, sorted.
    changed: Vec<Vec<u32>>,
    /// The endpoints of every link removed since the build, sorted.
    cut: Vec<u32>,
}

const NO_ROW: u32 = u32::MAX;

impl std::fmt::Debug for HostDistances {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostDistances")
            .field("switches", &self.switches.len())
            .field("rows", &self.rows.rows())
            .field("cut", &self.cut)
            .finish_non_exhaustive()
    }
}

/// One delivery switch's distances, as [`HostDistances::toward`] reads them.
#[derive(Clone, Copy)]
pub(crate) struct HostRow<'a> {
    row: &'a [u32],
    /// The stub delivery switch this row is read for, if it is one.
    stub: Option<usize>,
}

impl HostRow<'_> {
    /// Hops from `s` to the delivery switch (`u32::MAX` = unreachable).
    #[inline]
    pub fn at(&self, s: usize) -> u32 {
        match self.stub {
            None => self.row[s],
            Some(l) if s == l => 0,
            // The stub's last cable is gone: nothing reaches it.
            Some(l) if self.row[l] == u32::MAX => u32::MAX,
            Some(_) => self.row[s].saturating_add(1),
        }
    }
}

impl HostDistances {
    /// Rows for the delivery switches of the host LIDs among `dests`, one
    /// BFS per source fanned across `workers` (rows depend only on their
    /// source, so the result is identical for any worker count).
    pub fn build(g: &SwitchGraph, dests: &[Destination], workers: usize) -> Self {
        let mut delivery: Vec<usize> = dests
            .iter()
            .filter(|d| d.port != PortNum::MANAGEMENT)
            .map(|d| d.switch)
            .collect();
        delivery.sort_unstable();
        delivery.dedup();
        let source_of = |l: usize| match g.neighbors(l) {
            [(u, _), rest @ ..] if rest.iter().all(|&(v, _)| v == *u) => (*u as usize, true),
            _ => (l, false),
        };
        let mut sources: Vec<usize> = delivery.iter().map(|&l| source_of(l).0).collect();
        sources.sort_unstable();
        sources.dedup();
        let mut slot = vec![(NO_ROW, false); g.len()];
        for &l in &delivery {
            let (source, stub) = source_of(l);
            let row = sources.binary_search(&source).expect("listed above");
            slot[l] = (row as u32, stub);
        }
        let (peer_stride, peer) = g.peer_table();
        Self {
            switches: g.switches.clone(),
            peer_stride,
            peer: peer.to_vec(),
            slot,
            rows: DistanceMatrix::for_sources(g, &sources, workers),
            changed: vec![Vec::new(); sources.len()],
            cut: Vec::new(),
        }
    }

    /// The distances toward delivery switch `l`; `None` when no row was
    /// built for it.
    pub fn toward(&self, l: usize) -> Option<HostRow<'_>> {
        let (row, stub) = *self.slot.get(l)?;
        (row != NO_ROW).then(|| HostRow {
            row: self.rows.row(row as usize),
            stub: stub.then_some(l),
        })
    }

    /// The switches at which a column delivered at `l` can pick differently
    /// from a column that was minimal on any graph between the build's and
    /// `g`: the switches whose distance moved, their neighbours, and the
    /// endpoints of every removed link, sorted. `None` means every switch:
    /// `l` has no row, or is a stub whose last cable went down.
    pub fn scope(&self, g: &SwitchGraph, l: usize) -> Option<Vec<u32>> {
        let (row, stub) = *self.slot.get(l)?;
        if row == NO_ROW || (stub && self.rows.row(row as usize)[l] == u32::MAX) {
            return None;
        }
        let changed = &self.changed[row as usize];
        let mut out = self.cut.clone();
        for &x in changed {
            out.push(x);
            out.extend(g.neighbors(x as usize).iter().map(|&(v, _)| v));
        }
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    /// Follows the rows to `g`. When `g` differs from the adjacency they
    /// describe by removed links only, every row is patched by a
    /// decremental BFS and the removed links and moved switches join
    /// `cut` / `changed`; any added link, or a different switch set, drops
    /// the rows (`None`) — only a fresh build describes that graph.
    pub fn follow(mut self, g: &SwitchGraph, workers: usize) -> Option<Self> {
        if self.switches != g.switches {
            return None;
        }
        let (stride, peer) = g.peer_table();
        let at = |table: &[u32], stride: usize, s: usize, p: usize| {
            if p < stride {
                table[s * stride + p]
            } else {
                NO_PEER
            }
        };
        let mut removed: Vec<(u32, u32)> = Vec::new();
        for s in 0..g.len() {
            for p in 0..stride.max(self.peer_stride) {
                let (old, new) = (
                    at(&self.peer, self.peer_stride, s, p),
                    at(peer, stride, s, p),
                );
                if old == new {
                    continue;
                }
                if old == NO_PEER || new != NO_PEER {
                    return None;
                }
                removed.push((s as u32, old));
            }
        }
        if removed.is_empty() {
            return Some(self);
        }
        self.peer_stride = stride;
        self.peer = peer.to_vec();
        self.cut.extend(removed.iter().flat_map(|&(a, b)| [a, b]));
        self.cut.sort_unstable();
        self.cut.dedup();

        let cols = self.rows.cols;
        let mut work: Vec<(&mut [u32], &mut Vec<u32>)> = self
            .rows
            .data
            .chunks_mut(cols.max(1))
            .zip(&mut self.changed)
            .collect();
        parallel_for_each(
            &mut work,
            workers,
            || PatchScratch::new(cols),
            |scratch, _, (row, changed)| {
                let moved = scratch.patch(g, row, &removed);
                if !moved.is_empty() {
                    changed.extend_from_slice(moved);
                    changed.sort_unstable();
                    changed.dedup();
                }
            },
        );
        Some(self)
    }
}

/// One worker's state for [`PatchScratch::patch`].
struct PatchScratch {
    affected: Vec<bool>,
    list: Vec<u32>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, u32)>>,
}

impl PatchScratch {
    fn new(n: usize) -> Self {
        Self {
            affected: vec![false; n],
            list: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// Patches one BFS row `d` (exact for `g` plus the `removed` links,
    /// listed from both ends) to `g`, and returns the switches whose
    /// distance moved — each strictly grew.
    ///
    /// A decremental unit-weight BFS: the seeds are the far ends of tight
    /// removed links; in level order a switch is *affected* when no
    /// unaffected neighbour one level closer is left to it; affected
    /// switches then re-settle from their unaffected neighbours. Every
    /// unaffected switch keeps a shortest path of unaffected switches, so
    /// only the affected ones move.
    fn patch(&mut self, g: &SwitchGraph, d: &mut [u32], removed: &[(u32, u32)]) -> &[u32] {
        use std::cmp::Reverse;
        self.list.clear();
        for &(a, b) in removed {
            let (a, b) = (a as usize, b as usize);
            if d[a] != u32::MAX && d[b] == d[a] + 1 {
                self.heap.push(Reverse((d[b], b as u32)));
            }
        }
        while let Some(Reverse((level, x))) = self.heap.pop() {
            let x = x as usize;
            let parented = |&(w, _): &(u32, PortNum)| {
                !self.affected[w as usize] && d[w as usize].wrapping_add(1) == level
            };
            if self.affected[x] || g.neighbors(x).iter().any(parented) {
                continue;
            }
            self.affected[x] = true;
            self.list.push(x as u32);
            for &(y, _) in g.neighbors(x) {
                if d[y as usize] == level + 1 && !self.affected[y as usize] {
                    self.heap.push(Reverse((level + 1, y)));
                }
            }
        }
        for &x in &self.list {
            d[x as usize] = u32::MAX;
        }
        for &x in &self.list {
            let x = x as usize;
            let best = g
                .neighbors(x)
                .iter()
                .filter(|&&(w, _)| !self.affected[w as usize])
                .map(|&(w, _)| d[w as usize].saturating_add(1))
                .min()
                .unwrap_or(u32::MAX);
            if best != u32::MAX {
                d[x] = best;
                self.heap.push(Reverse((best, x as u32)));
            }
        }
        while let Some(Reverse((dx, x))) = self.heap.pop() {
            let x = x as usize;
            if dx > d[x] {
                continue;
            }
            for &(y, _) in g.neighbors(x) {
                let y = y as usize;
                if self.affected[y] && dx + 1 < d[y] {
                    d[y] = dx + 1;
                    self.heap.push(Reverse((dx + 1, y as u32)));
                }
            }
        }
        for &x in &self.list {
            self.affected[x as usize] = false;
        }
        &self.list
    }
}

/// Runs `f(state, index, item)` over every item, fanned across up to
/// `workers` scoped threads in contiguous chunks; `init` builds one
/// per-worker scratch state. `workers` is a resolved count
/// ([`crate::RoutingOptions::effective_workers`]); it is only clamped to
/// `1..=items.len()` here. Deterministic by construction: `f` sees only its
/// own item and index, never the partition, so outputs are identical for
/// every worker count.
pub(crate) fn parallel_for_each<T, S, I, F>(items: &mut [T], workers: usize, init: I, f: F)
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    let jobs = items.len();
    if jobs == 0 {
        return;
    }
    let workers = workers.min(jobs).max(1);
    if workers <= 1 {
        let mut state = init();
        for (i, item) in items.iter_mut().enumerate() {
            f(&mut state, i, item);
        }
        return;
    }
    let chunk = jobs.div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, block) in items.chunks_mut(chunk).enumerate() {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut state = init();
                for (j, item) in block.iter_mut().enumerate() {
                    f(&mut state, ci * chunk + j, item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_subnet::topology::basic::linear;
    use ib_subnet::topology::fattree::two_level;

    fn lid(raw: u16) -> Lid {
        Lid::from_raw(raw)
    }

    fn managed_linear() -> (ib_subnet::topology::BuiltTopology, SwitchGraph) {
        let mut t = linear(3, 1);
        // Switch LIDs 1..=3, host LIDs 4..=6.
        for (i, &sw) in t.switch_levels[0].clone().iter().enumerate() {
            t.subnet.assign_switch_lid(sw, lid(i as u16 + 1)).unwrap();
        }
        for (i, &h) in t.hosts.clone().iter().enumerate() {
            t.subnet
                .assign_port_lid(h, PortNum::new(1), lid(i as u16 + 4))
                .unwrap();
        }
        let g = SwitchGraph::build(&t.subnet).unwrap();
        (t, g)
    }

    #[test]
    fn graph_shape() {
        let (t, g) = managed_linear();
        assert_eq!(g.len(), 3);
        assert_eq!(g.destinations().len(), 6);
        assert_eq!(g.neighbors(1).len(), 2);
        assert_eq!(g.index(t.switch_levels[0][2]), Some(2));
    }

    #[test]
    fn destination_ports_resolved() {
        let (_, g) = managed_linear();
        // Switch LIDs terminate at port 0; host LIDs at the cable port.
        let d1 = g.destinations().iter().find(|d| d.lid == lid(1)).unwrap();
        assert_eq!(d1.port, PortNum::MANAGEMENT);
        let d4 = g.destinations().iter().find(|d| d.lid == lid(4)).unwrap();
        assert_eq!(d4.switch, 0);
        assert_eq!(d4.port, PortNum::new(3));
    }

    #[test]
    fn peer_agrees_with_the_adjacency_and_nothing_else() {
        let (_, g) = managed_linear();
        for s in 0..g.len() {
            for raw in 0..=u8::MAX {
                let port = PortNum::new(raw);
                let listed = g.neighbors(s).iter().find(|&&(_, p)| p == port);
                assert_eq!(g.peer(s, port), listed.map(|&(v, _)| v as usize));
            }
        }
        // The host-facing port of `destination_ports_resolved`.
        assert_eq!(g.peer(0, PortNum::new(3)), None);
    }

    #[test]
    fn bfs_distances_linear() {
        let (_, g) = managed_linear();
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2]);
        assert_eq!(g.bfs_distances(2), vec![2, 1, 0]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_bfs() {
        let mut t = two_level(4, 3, 2);
        crate::testutil::assign_lids(&mut t);
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let mut scratch = BfsScratch::for_graph(&g);
        let mut dist = vec![0; g.len()];
        for s in 0..g.len() {
            scratch.fill_into(&g, s, &mut dist);
            assert_eq!(dist, g.bfs_distances(s));
        }
    }

    #[test]
    fn distance_matrix_rows_match_bfs_for_any_worker_count() {
        let mut t = two_level(4, 3, 2);
        crate::testutil::assign_lids(&mut t);
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let all: Vec<usize> = (0..g.len()).collect();
        for workers in [1, 2, 0] {
            let m = DistanceMatrix::for_sources(&g, &all, workers);
            assert_eq!(m.rows(), g.len());
            for s in 0..g.len() {
                assert_eq!(m.row(s), g.bfs_distances(s).as_slice(), "row {s}");
            }
        }
        // Subset form: one row per requested source, in request order.
        let m = DistanceMatrix::for_sources(&g, &[3, 1], 2);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), g.bfs_distances(3).as_slice());
        assert_eq!(m.row(1), g.bfs_distances(1).as_slice());
    }

    /// The fixture fabrics of the ordering and distance-field properties:
    /// fat trees with and without vSwitch stubs, tori, a hypercube and
    /// seeded irregular graphs, LIDs assigned.
    fn fixtures() -> Vec<(String, ib_subnet::topology::BuiltTopology)> {
        use crate::testutil::{assign_lids, virtualize_hosts};
        use ib_subnet::topology::fattree::three_level;
        use ib_subnet::topology::irregular::{irregular, IrregularSpec};
        use ib_subnet::topology::{hypercube::hypercube, torus::torus_2d};
        let mut out = vec![
            ("two_level".to_string(), two_level(4, 3, 3)),
            ("three_level".to_string(), three_level(3, 2, 2, 2)),
            ("torus".to_string(), torus_2d(4, 4, 1, true)),
            ("hypercube".to_string(), hypercube(3, 1)),
        ];
        let mut virt = two_level(4, 3, 3);
        virtualize_hosts(&mut virt);
        out.push(("two_level+vswitches".into(), virt));
        let mut virt = three_level(2, 2, 2, 2);
        virtualize_hosts(&mut virt);
        out.push(("three_level+vswitches".into(), virt));
        for seed in 0..4 {
            let spec = IrregularSpec {
                num_switches: 12,
                num_hosts: 18,
                extra_links: 8,
                seed,
            };
            out.push((format!("irregular/{seed}"), irregular(spec)));
        }
        for (_, t) in &mut out {
            assign_lids(t);
        }
        out
    }

    /// `SwitchGraph::build` fills each switch's CSR slice in
    /// `connected_ports` order, so neighbour lists are strictly ascending by
    /// port — what the engines' modular picks rely on instead of sorting.
    #[test]
    fn neighbours_are_in_strictly_ascending_port_order() {
        for (name, mut t) in fixtures() {
            let links = crate::testutil::switch_links(&t.subnet);
            for phase in ["healthy", "degraded"] {
                let g = SwitchGraph::build(&t.subnet).unwrap();
                for s in 0..g.len() {
                    let ports: Vec<PortNum> = g.neighbors(s).iter().map(|&(_, p)| p).collect();
                    assert!(
                        ports.windows(2).all(|w| w[0] < w[1]),
                        "{name} ({phase}): switch {s} lists ports {ports:?}"
                    );
                }
                for &(node, port) in links.iter().step_by(3) {
                    t.subnet.set_link_down(node, port).unwrap();
                }
            }
        }
    }

    /// The carried distance field over random removal sequences (splits
    /// included): every followed row equals a fresh BFS, each row's
    /// `changed` is exactly the switches whose distance differs from the
    /// build's, stubs hold no row of their own, and an added link drops the
    /// rows.
    #[test]
    fn followed_host_distances_equal_a_fresh_bfs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut splits = 0;
        for (seed, (name, mut t)) in fixtures().into_iter().enumerate() {
            let g0 = SwitchGraph::build(&t.subnet).unwrap();
            let mut field = HostDistances::build(&g0, g0.destinations(), 2);
            let delivery: Vec<usize> = (0..g0.len())
                .filter(|&l| field.slot[l].0 != NO_ROW)
                .collect();
            // A stub reads its neighbour's row; only the rest have their own.
            let source = |l: usize| match field.slot[l] {
                (_, true) => g0.neighbors(l)[0].0 as usize,
                _ => l,
            };
            let mut sources: Vec<usize> = delivery.iter().map(|&l| source(l)).collect();
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(field.rows.rows(), sources.len(), "{name}");
            if name.contains("vswitches") {
                assert!(sources.len() < delivery.len(), "{name}: stubs carry no row");
            }
            let built: Vec<Vec<u32>> = sources.iter().map(|&src| g0.bfs_distances(src)).collect();

            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut links = crate::testutil::switch_links(&t.subnet);
            let mut downed = Vec::new();
            for step in 0..links.len().min(10) {
                let (node, port) = links.swap_remove(rng.gen_range(0..links.len()));
                t.subnet.set_link_down(node, port).unwrap();
                downed.push((node, port));
                let g = SwitchGraph::build(&t.subnet).unwrap();
                field = field.follow(&g, 1 + step % 2).expect("removals only");
                for &l in &delivery {
                    let row = field.toward(l).unwrap();
                    let got: Vec<u32> = (0..g.len()).map(|s| row.at(s)).collect();
                    assert_eq!(got, g.bfs_distances(l), "{name}, step {step}, delivery {l}");
                }
                for (i, &src) in sources.iter().enumerate() {
                    let now = g.bfs_distances(src);
                    let moved: Vec<u32> = (0..g.len() as u32)
                        .filter(|&s| now[s as usize] != built[i][s as usize])
                        .collect();
                    let row = field.slot[src].0;
                    let row = if row == NO_ROW { i } else { row as usize };
                    assert_eq!(
                        field.changed[row], moved,
                        "{name}, step {step}, source {src}"
                    );
                }
                splits += usize::from(g.components().is_partitioned());
            }
            // Bringing one cable back is an added link: only a fresh build
            // describes that graph.
            let (node, port) = downed[0];
            t.subnet.set_link_up(node, port).unwrap();
            let g = SwitchGraph::build(&t.subnet).unwrap();
            assert!(
                field.follow(&g, 1).is_none(),
                "{name}: an added link drops the rows"
            );
        }
        assert!(splits > 0, "no removal sequence split a fabric");
    }

    #[test]
    fn ranks_on_fat_tree() {
        let mut t = two_level(4, 2, 2);
        for (i, &h) in t.hosts.clone().iter().enumerate() {
            t.subnet
                .assign_port_lid(h, PortNum::new(1), lid(i as u16 + 1))
                .unwrap();
        }
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let ranks = g.ranks();
        for &leaf in &t.switch_levels[0] {
            assert_eq!(ranks[g.index(leaf).unwrap()], 0);
        }
        for &spine in &t.switch_levels[1] {
            assert_eq!(ranks[g.index(spine).unwrap()], 1);
        }
    }

    #[test]
    fn uncabled_lid_bearing_hca_rejected() {
        let mut s = Subnet::new();
        let _sw = s.add_switch("sw", 2);
        let h = s.add_hca("h");
        s.assign_port_lid(h, PortNum::new(1), lid(1)).unwrap();
        assert!(SwitchGraph::build(&s).is_err());
    }

    #[test]
    fn unregistered_lid_resolves_to_error_not_panic() {
        // The LID-to-endpoint lookup is an `IbError`, not an `expect`:
        // a registered-but-endpointless LID must degrade the result.
        let s = Subnet::new();
        let err = resolve_destination(&s, &FxHashMap::default(), lid(7)).unwrap_err();
        assert!(
            err.to_string().contains("no endpoint"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn components_on_connected_and_split_graphs() {
        let (mut t, g) = managed_linear();
        let c = g.components();
        assert_eq!(c.count(), 1);
        assert!(!c.is_partitioned());
        assert!(c.same(0, 2));

        // Cut the middle link: two components, labeled in index order.
        let s0 = t.switch_levels[0][0];
        let s1 = t.switch_levels[0][1];
        let (port, _) = t
            .subnet
            .node(s0)
            .connected_ports()
            .find(|(_, r)| r.node == s1)
            .unwrap();
        t.subnet.set_link_down(s0, port).unwrap();
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let c = g.components();
        assert_eq!(c.count(), 2);
        assert!(c.is_partitioned());
        assert_eq!(c.label_of(0), 0);
        assert_eq!(c.label_of(1), 1);
        assert_eq!(c.label_of(2), 1);
        assert!(!c.same(0, 1));
        assert!(c.same(1, 2));
    }

    #[test]
    fn bridges_on_a_linear_chain() {
        // Every link of a chain is a bridge.
        let (_, g) = managed_linear();
        assert_eq!(g.bridges(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn fat_tree_with_redundant_spines_has_no_bridges() {
        let mut t = two_level(3, 2, 2);
        crate::testutil::assign_lids(&mut t);
        let g = SwitchGraph::build(&t.subnet).unwrap();
        assert!(g.bridges().is_empty());
    }

    #[test]
    fn losing_spine_redundancy_creates_bridges() {
        // Cut every leaf->spine1 uplink: the remaining leaf->spine0 links
        // are each the only path out of their leaf.
        let mut t = two_level(3, 2, 2);
        crate::testutil::assign_lids(&mut t);
        let spine1 = t.switch_levels[1][1];
        for &leaf in &t.switch_levels[0] {
            let (port, _) = t
                .subnet
                .node(leaf)
                .connected_ports()
                .find(|(_, r)| r.node == spine1)
                .unwrap();
            t.subnet.set_link_down(leaf, port).unwrap();
        }
        let g = SwitchGraph::build(&t.subnet).unwrap();
        assert_eq!(g.bridges().len(), 3, "each surviving uplink is a bridge");
        assert_eq!(g.components().count(), 2, "spine1 is its own component");
    }

    #[test]
    fn parallel_cables_are_never_bridges() {
        let mut s = Subnet::new();
        let a = s.add_switch("a", 4);
        let b = s.add_switch("b", 4);
        s.connect(a, PortNum::new(1), b, PortNum::new(1)).unwrap();
        s.connect(a, PortNum::new(2), b, PortNum::new(2)).unwrap();
        let g = SwitchGraph::build(&s).unwrap();
        assert!(g.bridges().is_empty());
        // Cut one of the twins: the survivor becomes a bridge.
        s.set_link_down(a, PortNum::new(1)).unwrap();
        let g = SwitchGraph::build(&s).unwrap();
        assert_eq!(g.bridges(), vec![(0, 1)]);
    }

    #[test]
    fn parallel_for_each_is_partition_independent() {
        let n = 23;
        let mut reference: Vec<u64> = vec![0; n];
        parallel_for_each(&mut reference, 1, || (), |(), i, out| *out = (i * i) as u64);
        // `0` is not resolved here (callers pass `effective_workers`): it
        // is clamped to one worker.
        for workers in [2, 4, 0] {
            let mut items: Vec<u64> = vec![0; n];
            parallel_for_each(
                &mut items,
                workers,
                || (),
                |(), i, out| {
                    *out = (i * i) as u64;
                },
            );
            assert_eq!(items, reference, "workers={workers}");
        }
    }
}
