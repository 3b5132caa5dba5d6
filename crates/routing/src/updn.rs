//! Up*/Down* routing, and the one up*/down* router every engine that
//! routes by it shares.
//!
//! Links are oriented toward a root switch; a legal path climbs zero or
//! more *up* links, then descends zero or more *down* links, and never
//! turns upward again. The up/down restriction breaks every cycle in the
//! channel dependency graph, making Up*/Down* deadlock-free on a single
//! virtual lane on any topology — the baseline deadlock argument the
//! paper's §VI-C discussion builds on. `Orientation` owns that
//! orientation and fills the legal distance rows toward a delivery
//! switch; `Columns` is the one column kernel over it. Its two callers
//! differ only in the root order and the spread they pass: this engine
//! roots each component at a switch of maximal rank and picks the
//! `lid mod k`-th legal port; the switch lane of Min-Hop and the
//! fat-tree engine (`swcols`) roots at the highest index and staggers
//! the spread by source.
//!
//! A worker of the kernel fills one delivery switch's legal row into
//! scratch and walks every switch against it while it is in cache; no
//! matrix of rows is held. The engines then copy the finished columns
//! into their switch-major rows, each row independent.

use std::cmp::Reverse;

use ib_observe::Observer;
use ib_types::{IbError, IbResult, Lid, PortNum};

use crate::engine::{RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, Components, Destination, SwitchGraph};
use crate::tables::{Splice, VlAssignment};

/// The Up*/Down* engine. Every component is rooted at a switch of maximal
/// rank (a core switch in a fat tree), tie-broken by lowest index.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpDown;

/// The engine's root order: ranked switches above unranked ones, higher
/// rank first, then *lower* index — so a component with no ranked switch
/// is rooted at its lowest index.
pub(crate) fn root_key(ranks: &[u32]) -> impl Fn(usize) -> (Option<u32>, Reverse<usize>) + '_ {
    |s| ((ranks[s] != u32::MAX).then_some(ranks[s]), Reverse(s))
}

/// The engine's spread: the `lid mod k`-th of `k` legal ports, the same
/// at every switch.
pub(crate) fn by_lid(lid: Lid, _: usize) -> usize {
    lid.raw() as usize
}

impl RoutingEngine for UpDown {
    fn name(&self) -> &'static str {
        "up-down"
    }

    /// Orient the graph (one ranks pass plus one BFS per component), route
    /// the dirty columns with the column kernel, and copy them into the
    /// rows.
    ///
    /// The pick is *sticky*: the installed port is kept wherever it is
    /// still a legal minimal candidate, and the modular spread decides
    /// only the entries with nothing (still) valid installed — on a
    /// repair, re-running the formula outright would rotate every pick
    /// whose candidate set shrank and inflate the dirty-block diff past
    /// the full sweep's.
    fn route(
        &self,
        splice: &mut Splice<'_>,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<(VlAssignment, u64)> {
        let g = splice.graph();
        let n = g.len();
        // The orientation is computed from scratch on the graph as it is:
        // reusing a root or label set from before a fault would silently
        // diverge from what a full sweep would install.
        let ranks = g.ranks();
        // Grouped by delivery switch, in switch order: the order each row
        // writes, and a repair logs, its cells in.
        let dests: Vec<Destination> = (splice.dirty_groups().into_iter())
            .flat_map(|(_, group)| group.into_iter().map(|di| g.destinations()[di]))
            .collect();
        let workers = opts.effective_workers(n);
        let columns = {
            let _span = observer.span("routing.up-down.columns");
            Columns::new(splice, &dests, root_key(&ranks), by_lid, workers)?
        };
        // Each switch copies its own row from the finished columns.
        let _span = observer.span("routing.up-down.assign");
        parallel_for_each(
            splice.rows(),
            workers,
            || (),
            |(), s, row| {
                for (i, dest) in dests.iter().enumerate() {
                    row.set(dest.lid, columns.pick(i, s));
                }
            },
        );
        Ok((VlAssignment::SingleVl, (dests.len() * n) as u64))
    }
}

/// An up*/down* orientation of a switch graph: every component rooted at
/// its switch of greatest `root_key` and labelled (BFS level from that
/// root, index); "up" is lexicographically decreasing. Labels are only
/// ever compared across an edge, and edges never cross components, so
/// independent level ranges are safe; they are kept as each switch's
/// position in label order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Orientation {
    /// Each switch's position in (level, index) label order: `s -> v` is
    /// an up-move exactly when `pos[v] < pos[s]`.
    pos: Vec<u32>,
    /// The switches in label order: the relaxation order of every row.
    order: Vec<u32>,
    /// Switch `s`'s neighbours at `adj[offsets[s]..offsets[s + 1]]`: its
    /// up-moves, then from `split[s]` on its down-moves, each part in port
    /// order. A row's BFS and relaxation follow up-moves only, and a legal
    /// hop is one or the other, so neither scans the whole adjacency.
    adj: Vec<(u32, PortNum)>,
    offsets: Vec<u32>,
    split: Vec<u32>,
}

impl Orientation {
    /// Orients `g` from each component's switch of greatest `root_key`.
    pub fn new<K: Ord>(g: &SwitchGraph, comps: &Components, root_key: impl Fn(usize) -> K) -> Self {
        let n = g.len();
        let mut roots: Vec<Option<usize>> = vec![None; comps.count()];
        for s in 0..n {
            let root = &mut roots[comps.label_of(s) as usize];
            if root.is_none_or(|r| root_key(s) > root_key(r)) {
                *root = Some(s);
            }
        }
        let mut level = vec![u32::MAX; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for root in roots.into_iter().flatten() {
            level[root] = 0;
            queue.clear();
            queue.push(root as u32);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &(v, _) in g.neighbors(u) {
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = level[u] + 1;
                        queue.push(v);
                    }
                }
            }
        }
        // Relaxation order: increasing label, so every up-move goes to an
        // already-final switch. The same for every row.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&s| (level[s as usize], s));
        let mut pos = vec![0; n];
        for (i, &s) in order.iter().enumerate() {
            pos[s as usize] = i as u32;
        }
        let mut adj = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut split = Vec::with_capacity(n);
        offsets.push(0);
        for s in 0..n {
            let up = |&&(v, _): &&(u32, PortNum)| pos[v as usize] < pos[s];
            adj.extend(g.neighbors(s).iter().filter(up));
            split.push(adj.len() as u32);
            adj.extend(g.neighbors(s).iter().filter(|e| !up(e)));
            offsets.push(adj.len() as u32);
        }
        Self {
            pos,
            order,
            adj,
            offsets,
            split,
        }
    }

    /// The neighbours `s` climbs to, in port order.
    fn ups(&self, s: usize) -> &[(u32, PortNum)] {
        &self.adj[self.offsets[s] as usize..self.split[s] as usize]
    }

    /// The neighbours `s` descends to, in port order.
    fn downs(&self, s: usize) -> &[(u32, PortNum)] {
        &self.adj[self.split[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Writes the rows toward delivery switch `dsw` into `down` and `full`
    /// (one slot per switch, overwritten whole); `queue` is scratch. A
    /// pure function of the graph and the orientation.
    pub fn fill_row(&self, dsw: usize, queue: &mut Vec<u32>, down: &mut [u32], full: &mut [u32]) {
        // The down cone: reverse BFS along down edges (expand y where
        // y -> x is down), so the path y..dsw stays all-down. The root is
        // in every cone of its component.
        down.fill(u32::MAX);
        down[dsw] = 0;
        queue.clear();
        queue.push(dsw as u32);
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head] as usize;
            head += 1;
            for &(y, _) in self.ups(x) {
                let y = y as usize;
                if down[y] == u32::MAX {
                    down[y] = down[x] + 1;
                    queue.push(y as u32);
                }
            }
        }
        // Outside the cone a route climbs. A switch inside it only
        // descends (see `legal_hop`), so it keeps its cone distance:
        // relaxing it through an up-move would price a route the rows
        // never take.
        full.copy_from_slice(down);
        for &s in &self.order {
            let s = s as usize;
            if down[s] != u32::MAX {
                continue;
            }
            for &(v, _) in self.ups(s) {
                let v = v as usize;
                if full[v] != u32::MAX {
                    full[s] = full[s].min(full[v] + 1);
                }
            }
        }
    }

    /// The rows `fill_row` wrote, read through this orientation.
    pub fn row<'a>(&'a self, down: &'a [u32], full: &'a [u32]) -> LegalRow<'a> {
        LegalRow {
            orient: self,
            down,
            full,
        }
    }
}

/// One delivery switch's rows, as [`Orientation::row`] reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LegalRow<'a> {
    orient: &'a Orientation,
    down: &'a [u32],
    full: &'a [u32],
}

impl<'a> LegalRow<'a> {
    /// Hops of the legal route from `s` (`u32::MAX`: another component).
    pub fn full(&self, s: usize) -> u32 {
        self.full[s]
    }

    /// Whether `s -> v` is a legal minimal hop toward the delivery switch.
    ///
    /// The rule must compose: a packet that descended into `s` follows the
    /// same LFT row as one that just arrived climbing, so the row itself
    /// must never turn a descent back upward. Hence: **descend whenever the
    /// destination is down-reachable** (every switch on the down chain is
    /// then also down-reachable and keeps descending), and climb toward
    /// the root otherwise (the root down-reaches everything, so the climb
    /// terminates).
    pub fn legal_hop(&self, s: usize, v: usize) -> bool {
        let up = self.orient.pos[v] < self.orient.pos[s];
        if self.down[s] != u32::MAX {
            !up && self.down[v] != u32::MAX && self.down[v] + 1 == self.down[s]
        } else {
            up && self.full[v] != u32::MAX && self.full[v] + 1 == self.full[s]
        }
    }

    /// The legal minimal egress ports of `s` — the neighbours
    /// [`Self::legal_hop`] allows — in port order, scanning only the side
    /// `s` may take: its down-moves inside the down cone, its up-moves
    /// outside it.
    pub fn ports(self, s: usize) -> impl Iterator<Item = PortNum> + 'a {
        let (side, dist) = if self.down[s] != u32::MAX {
            (self.orient.downs(s), self.down)
        } else {
            (self.orient.ups(s), self.full)
        };
        let here = dist[s];
        side.iter()
            .filter(move |&&(v, _)| {
                let there = dist[v as usize];
                there != u32::MAX && there + 1 == here
            })
            .map(|&(_, p)| p)
    }
}

/// The column kernel's picks for a set of destination columns. Each
/// delivery switch's columns sit in one switch-major block of `picks`, so
/// a row copy reads a block's entries for its switch side by side.
pub(crate) struct Columns {
    /// `dests[i]`'s entry at switch `s` is `picks[start + s * stride]`,
    /// with `(start, stride) = at[i]`.
    at: Vec<(usize, usize)>,
    picks: Vec<Option<PortNum>>,
}

impl Columns {
    /// Routes the columns of `dests` against the entries the cells of
    /// `splice` hold now, on the orientation rooted at each component's
    /// switch of greatest `root_key`, picking the `spread(lid, s) mod k`-th
    /// of `k` legal ports: byte-identical for any worker count. A
    /// cross-component pick is an explicit `None` hole; a switch its own
    /// delivery switch's component cannot reach is an `Err`.
    pub fn new<K: Ord>(
        splice: &Splice<'_>,
        dests: &[Destination],
        root_key: impl Fn(usize) -> K,
        spread: impl Fn(Lid, usize) -> usize + Sync,
        workers: usize,
    ) -> IbResult<Self> {
        let g = splice.graph();
        let n = g.len();
        let mut at = vec![(0, 0); dests.len()];
        let mut picks = vec![None; dests.len() * n];
        if dests.is_empty() {
            return Ok(Self { at, picks });
        }
        let comps = g.components();
        let orient = Orientation::new(g, &comps, root_key);
        let mut order: Vec<usize> = (0..dests.len()).collect();
        order.sort_by_key(|&i| dests[i].switch);
        let mut blocks = Vec::new();
        let (mut start, mut rest) = (0, picks.as_mut_slice());
        for group in order.chunk_by(|&a, &b| dests[a].switch == dests[b].switch) {
            for (j, &i) in group.iter().enumerate() {
                at[i] = (start + j, group.len());
            }
            let (block, tail) = rest.split_at_mut(group.len() * n);
            blocks.push((group, block, false));
            (start, rest) = (start + group.len() * n, tail);
        }
        // One block per worker at a time: fill the delivery switch's rows,
        // then walk every switch against them.
        parallel_for_each(
            &mut blocks,
            workers,
            || Scratch::new(n),
            |scratch, _, (group, block, broken)| {
                let dsw = dests[group[0]].switch;
                let Scratch {
                    queue,
                    down,
                    full,
                    ports,
                } = scratch;
                orient.fill_row(dsw, queue, down, full);
                let row = orient.row(down, full);
                ports.clear();
                let holes = walk(splice, row, dests, group, &spread, ports, block);
                // A cross-component hole is honest; one inside the delivery
                // switch's component, a broken orientation.
                *broken = holes && (0..n).any(|s| row.full(s) == u32::MAX && comps.same(s, dsw));
            },
        );
        if let Some((group, ..)) = blocks.iter().find(|&&(.., broken)| broken) {
            let dsw = dests[group[0]].switch;
            return Err(IbError::Topology(format!(
                "no legal up*/down* path to switch {dsw}"
            )));
        }
        Ok(Self { at, picks })
    }

    /// The entry of column `dests[i]` at switch `s`.
    pub fn pick(&self, i: usize, s: usize) -> Option<PortNum> {
        let (start, stride) = self.at[i];
        self.picks[start + s * stride]
    }
}

/// Writes [`sticky_pick`] for the columns `dests[i]`, `i` in `group`, of
/// one delivery switch into `block`, column by column; returns whether
/// some switch has no legal route. A function of its own, with `block` a
/// parameter: the same loop over a block borrowed inside the kernel's
/// closure measured about 1.5× slower.
fn walk(
    splice: &Splice<'_>,
    row: LegalRow<'_>,
    dests: &[Destination],
    group: &[usize],
    spread: impl Fn(Lid, usize) -> usize,
    ports: &mut Ports,
    block: &mut [Option<PortNum>],
) -> bool {
    let g = splice.graph();
    // Fresh rows hold nothing yet: not reading them spares a pass over
    // every LFT.
    let fresh = splice.is_fresh();
    let mut holes = false;
    for (j, dest) in group.iter().map(|&i| &dests[i]).enumerate() {
        let installed = |s| if fresh { None } else { splice.get(s, dest.lid) };
        let cells = block.iter_mut().skip(j).step_by(group.len());
        for (s, out) in cells.enumerate() {
            *out = if s == dest.switch {
                Some(dest.port)
            } else if row.full(s) == u32::MAX {
                holes = true;
                None
            } else if let Some(p) = installed(s).filter(|&p| legal(g, row, s, p)) {
                Some(p)
            } else {
                let ports = ports.of(s, row);
                ports.get(spread(dest.lid, s) % ports.len().max(1)).copied()
            };
        }
    }
    holes
}

/// One worker's rows toward one delivery switch, and its switches' legal
/// ports under them.
struct Scratch {
    queue: Vec<u32>,
    down: Vec<u32>,
    full: Vec<u32>,
    ports: Ports,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            queue: Vec::with_capacity(n),
            down: vec![0; n],
            full: vec![0; n],
            ports: Ports {
                at: vec![NOT_SCANNED; n],
                list: Vec::new(),
            },
        }
    }
}

/// Each switch's legal ports toward one delivery switch, scanned on first
/// use: switch `s`'s are `list[at[s].0..at[s].1]`.
struct Ports {
    at: Vec<(u32, u32)>,
    list: Vec<PortNum>,
}

/// The `at` entry of a switch not scanned yet.
const NOT_SCANNED: (u32, u32) = (u32::MAX, 0);

impl Ports {
    /// Forgets every scan, for the next delivery switch.
    fn clear(&mut self) {
        self.at.fill(NOT_SCANNED);
        self.list.clear();
    }

    /// `s`'s legal ports under `row`, in port order.
    fn of(&mut self, s: usize, row: LegalRow<'_>) -> &[PortNum] {
        if self.at[s] == NOT_SCANNED {
            let start = self.list.len() as u32;
            self.list.extend(row.ports(s));
            self.at[s] = (start, self.list.len() as u32);
        }
        let (start, end) = self.at[s];
        &self.list[start as usize..end as usize]
    }
}

/// Whether port `p` of `s` is a legal hop of `row`.
fn legal(g: &SwitchGraph, row: LegalRow<'_>, s: usize, p: PortNum) -> bool {
    g.peer(s, p).is_some_and(|v| row.legal_hop(s, v))
}

/// The kernel's rule for one cell, on the row toward `dest`'s delivery
/// switch: the delivery port there; `None` across a split (an explicit
/// hole); `installed` while it is still legal — so a splice rewrites only
/// the entries a fault broke; else the `spread(lid, s) mod k`-th of the
/// `k` legal ports in port order.
#[cfg(any(test, debug_assertions))]
pub(crate) fn sticky_pick(
    g: &SwitchGraph,
    row: LegalRow<'_>,
    dest: &Destination,
    s: usize,
    installed: Option<PortNum>,
    spread: impl Fn(Lid, usize) -> usize,
) -> Option<PortNum> {
    assert_eq!(row.full(dest.switch), 0, "not the row toward {dest:?}");
    if s == dest.switch {
        return Some(dest.port);
    }
    if row.full(s) == u32::MAX {
        return None;
    }
    if let Some(p) = installed.filter(|&p| legal(g, row, s, p)) {
        return Some(p);
    }
    // The candidates by definition: every neighbour `legal_hop` allows.
    let ports = || {
        (g.neighbors(s).iter())
            .filter(move |&&(v, _)| row.legal_hop(s, v as usize))
            .map(|&(_, p)| p)
    };
    let want = spread(dest.lid, s) % ports().count().max(1);
    ports().nth(want)
}

#[cfg(any(test, debug_assertions))]
impl Orientation {
    /// The rows toward `dsw`, `(down, full)`, as [`Self::fill_row`]
    /// writes them, in fresh buffers.
    pub fn rows_toward(&self, dsw: usize) -> (Vec<u32>, Vec<u32>) {
        let n = self.pos.len();
        let (mut down, mut full) = (vec![0; n], vec![0; n]);
        self.fill_row(dsw, &mut Vec::new(), &mut down, &mut full);
        (down, full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::Cdg;
    use crate::graph::Destination;
    use crate::minhop::MinHop;
    use crate::swcols::hub;
    use crate::tables::RoutingTables;
    use crate::testutil::{assert_full_reachability, assign_lids, switch_links};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::irregular::{irregular, IrregularSpec};
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn routes_fat_tree() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = UpDown.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn routes_torus_without_deadlock() {
        let mut t = torus_2d(3, 3, 1, true);
        assign_lids(&mut t);
        let tables = UpDown.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        // The defining property: the CDG of the whole routing on one VL is
        // acyclic.
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let cdg = Cdg::from_tables(&g, &tables, |_| true);
        assert!(
            cdg.find_cycle(0).is_none(),
            "up*/down* produced a cyclic CDG"
        );
    }

    #[test]
    fn routes_irregular_without_deadlock() {
        for seed in 0..5 {
            let mut t = irregular(IrregularSpec {
                num_switches: 10,
                num_hosts: 20,
                extra_links: 7,
                seed,
            });
            assign_lids(&mut t);
            let tables = UpDown.compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
            let g = SwitchGraph::build(&t.subnet).unwrap();
            let cdg = Cdg::from_tables(&g, &tables, |_| true);
            assert!(cdg.find_cycle(0).is_none(), "seed {seed} deadlocks");
        }
    }

    #[test]
    fn default_root_tie_breaks_to_lowest_index_core() {
        // Multi-core fat tree: every spine has the same (maximal) rank, so
        // the documented tie-break must pick the lowest-index one — not the
        // last maximal element `max_by_key` would keep on its own.
        let mut t = two_level(3, 2, 3);
        assign_lids(&mut t);
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let ranks = g.ranks();
        let max_rank = *ranks.iter().max().unwrap();
        let lowest_core = ranks.iter().position(|&r| r == max_rank).unwrap();
        let spine_indices: Vec<usize> = t.switch_levels[1]
            .iter()
            .map(|&s| g.index(s).unwrap())
            .collect();
        assert!(
            spine_indices
                .iter()
                .filter(|&&s| ranks[s] == max_rank)
                .count()
                > 1,
            "test needs a real tie among core switches"
        );
        let orient = Orientation::new(&g, &g.components(), root_key(&ranks));
        // One component: its root is first in label order.
        let roots: Vec<usize> = (0..g.len()).filter(|&s| orient.pos[s] == 0).collect();
        assert_eq!(roots, vec![lowest_core]);
    }

    /// Hops of `d`'s route from `s` under `tables`.
    fn walk(g: &SwitchGraph, tables: &RoutingTables, s: usize, d: &Destination) -> u32 {
        let (mut at, mut hops) = (s, 0);
        while at != d.switch {
            let port = tables.lfts[&g.node_id(at)].get(d.lid).expect("routed");
            at = g.peer(at, port).expect("a switch port");
            hops += 1;
            assert!(hops as usize <= g.len(), "{d:?} loops from {s}");
        }
        hops
    }

    /// The relaxation prices only routes the rows take: on non-bipartite
    /// fabrics (same-level cables, so a down cone need not be the shortest
    /// way down), every Up*/Down* route and every switch-lane route is
    /// exactly as long as its `full` entry. The degraded 5x5 torus is where
    /// relaxing cone switches through up-moves used to price a 5-hop route
    /// for a 6-hop one.
    #[test]
    fn every_route_is_as_long_as_its_full_row() {
        let degraded_torus = || {
            let mut t = torus_2d(5, 5, 1, true);
            let links = switch_links(&t.subnet);
            for &(node, port) in [links[0], links[16]].iter() {
                t.subnet.set_link_down(node, port).unwrap();
            }
            t
        };
        let fabrics = [
            ("torus 5x5", torus_2d(5, 5, 1, true)),
            ("torus 5x5, two cables down", degraded_torus()),
            (
                "irregular seed 3",
                irregular(IrregularSpec {
                    num_switches: 10,
                    num_hosts: 20,
                    extra_links: 7,
                    seed: 3,
                }),
            ),
        ];
        for (name, mut t) in fabrics {
            assign_lids(&mut t);
            let g = SwitchGraph::build(&t.subnet).unwrap();
            let comps = g.components();
            let ranks = g.ranks();
            let switch_lid = |d: &&Destination| d.port == PortNum::MANAGEMENT;
            let all = g.destinations().to_vec();
            let lane: Vec<Destination> = all.iter().filter(switch_lid).copied().collect();
            let runs = [
                (
                    UpDown.compute(&t.subnet).unwrap(),
                    Orientation::new(&g, &comps, root_key(&ranks)),
                    &all,
                ),
                (
                    MinHop.compute(&t.subnet).unwrap(),
                    Orientation::new(&g, &comps, hub),
                    &lane,
                ),
            ];
            for (tables, orient, dests) in &runs {
                for d in dests.iter() {
                    let (down, full) = orient.rows_toward(d.switch);
                    let row = orient.row(&down, &full);
                    for s in (0..g.len()).filter(|&s| s != d.switch) {
                        let what = format!("{name}, {}: {d:?} from {s}", tables.engine);
                        assert_eq!(walk(&g, tables, s, d), row.full(s), "{what}");
                    }
                }
            }
        }
    }
}
