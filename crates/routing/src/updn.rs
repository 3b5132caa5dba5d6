//! Up*/Down* routing, and the one up*/down* orientation every engine that
//! routes by it shares.
//!
//! Links are oriented toward a root switch; a legal path climbs zero or
//! more *up* links, then descends zero or more *down* links, and never
//! turns upward again. The up/down restriction breaks every cycle in the
//! channel dependency graph, making Up*/Down* deadlock-free on a single
//! virtual lane on any topology — the baseline deadlock argument the
//! paper's §VI-C discussion builds on. `LegalRows` owns that
//! orientation and its legal distance rows: the Up*/Down* engine routes
//! every column on them, Min-Hop and the fat-tree engine their switch
//! lane (`swcols`), each with its own root.
//!
//! Both hot phases fan across the configured workers: the per-delivery-
//! switch legal-distance sweeps (each row depends only on the labels) and
//! the per-switch LFT fill (each switch's row is independent).

use std::cmp::Reverse;

use ib_observe::Observer;
use ib_types::{IbError, IbResult, PortNum};

use crate::engine::{RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, Components, SwitchGraph};
use crate::tables::{Splice, VlAssignment};

/// The Up*/Down* engine. Every component is rooted at a switch of maximal
/// rank (a core switch in a fat tree), tie-broken by lowest index.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpDown;

/// The engine's root order: ranked switches above unranked ones, higher
/// rank first, then *lower* index — so a component with no ranked switch
/// is rooted at its lowest index.
fn root_key(ranks: &[u32]) -> impl Fn(usize) -> (Option<u32>, Reverse<usize>) + '_ {
    |s| ((ranks[s] != u32::MAX).then_some(ranks[s]), Reverse(s))
}

impl RoutingEngine for UpDown {
    fn name(&self) -> &'static str {
        "up-down"
    }

    /// Orient the graph (one ranks pass plus one BFS per component), run
    /// the legal-distance sweep for the dirty delivery-switch groups, and
    /// fill their columns.
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
        let comps = g.components();
        let ranks = g.ranks();
        // Legal distances are computed once per delivery switch.
        let groups = splice.dirty_groups();
        let workers = opts.effective_workers(n);

        // Phase 1, fanned per delivery switch.
        let legal = {
            let _span = observer.span("routing.up-down.distances");
            let delivery: Vec<usize> = groups.iter().map(|&(dsw, _)| dsw).collect();
            LegalRows::new(g, &comps, root_key(&ranks), &delivery, workers)
        };
        // A cross-component `MAX` is an honest hole (the column entry stays
        // `None`); one inside the delivery switch's component would be a
        // broken orientation.
        for &(dsw, _) in &groups {
            let row = legal.row(dsw).expect("a row per group");
            if (0..n).any(|s| comps.same(s, dsw) && row.full(s) == u32::MAX) {
                return Err(IbError::Topology(format!(
                    "no legal up*/down* path to switch {dsw}"
                )));
            }
        }

        // Phase 2, fanned per switch: each switch fills its own row from
        // the read-only rows. The candidate set for a (switch, delivery
        // switch) pair is shared by every LID the group delivers, so it is
        // built once per pair.
        let _span = observer.span("routing.up-down.assign");
        parallel_for_each(
            splice.rows(),
            workers,
            Vec::<PortNum>::new,
            |candidates, s, row| {
                for (dsw, dest_indices) in &groups {
                    let legal = legal.row(*dsw).expect("a row per group");
                    // Split fabric: a group whose delivery switch lives in
                    // another component is cleared — explicit holes, not
                    // stale routes into the lost component. Neighbours come
                    // in port order, so the candidates are sorted.
                    candidates.clear();
                    if s != *dsw && legal.full(s) != u32::MAX {
                        candidates.extend(legal.ports(g, s));
                    }
                    for &di in dest_indices {
                        let dest = g.destinations()[di];
                        let pick = if s == *dsw {
                            Some(dest.port)
                        } else {
                            // Keep the installed port while it is still a
                            // legal minimal candidate (a port into a
                            // failed link never is); the modular spread
                            // decides the rest.
                            let spread = dest.lid.raw() as usize % candidates.len().max(1);
                            row.get(dest.lid)
                                .filter(|p| candidates.binary_search(p).is_ok())
                                .or_else(|| candidates.get(spread).copied())
                        };
                        row.set(dest.lid, pick);
                    }
                }
            },
        );
        let dirty: usize = groups.iter().map(|(_, dests)| dests.len()).sum();
        Ok((VlAssignment::SingleVl, (dirty * n) as u64))
    }
}

/// An up*/down* orientation of a switch graph plus, per requested delivery
/// switch, the legal distance rows toward it.
///
/// Every component is rooted at its switch of greatest `root_key` and
/// labelled (BFS level from that root, index); "up" is lexicographically
/// decreasing. Labels are only ever compared across an edge, and edges
/// never cross components, so independent level ranges are safe; they are
/// kept as each switch's position in label order. Rows are
/// fanned across workers and are pure functions of the graph and the root
/// order: a row is byte-identical for any worker count and any set of
/// sibling rows.
pub(crate) struct LegalRows {
    /// Each switch's position in (level, index) label order: `s -> v` is
    /// an up-move exactly when `pos[v] < pos[s]`.
    pos: Vec<u32>,
    /// Delivery switch -> row index into `down`/`full`; `NO_ROW` for a
    /// switch no row was built for.
    row_of: Vec<u32>,
    /// Row r: length of the shortest all-down path to delivery switch r
    /// (`u32::MAX` outside its *down cone*).
    down: Vec<u32>,
    /// Row r: length of the legal route the composed rows take to delivery
    /// switch r (`u32::MAX` = another component).
    full: Vec<u32>,
    n: usize,
}

const NO_ROW: u32 = u32::MAX;

impl LegalRows {
    /// Orients `g` from each component's switch of greatest `root_key` and
    /// builds the rows toward each switch of `delivery` (sorted, distinct).
    pub fn new<K: Ord>(
        g: &SwitchGraph,
        comps: &Components,
        root_key: impl Fn(usize) -> K,
        delivery: &[usize],
        workers: usize,
    ) -> Self {
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
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&s| (level[s], s));
        let mut pos = vec![0; n];
        for (i, &s) in order.iter().enumerate() {
            pos[s] = i as u32;
        }
        let is_up = |from: usize, to: usize| pos[to] < pos[from];
        let mut row_of = vec![NO_ROW; n];
        for (r, &dsw) in delivery.iter().enumerate() {
            row_of[dsw] = r as u32;
        }
        let mut down = vec![u32::MAX; delivery.len() * n];
        let mut full = vec![u32::MAX; delivery.len() * n];
        let mut rows: Vec<(&mut [u32], &mut [u32])> =
            down.chunks_mut(n).zip(full.chunks_mut(n)).collect();
        parallel_for_each(
            &mut rows,
            workers,
            || Vec::<u32>::with_capacity(n),
            |queue, r, (down, full)| {
                // The down cone: reverse BFS along down edges (expand y
                // where y -> x is down), so the path y..dsw stays all-down.
                // The root is in every cone of its component.
                let dsw = delivery[r];
                down[dsw] = 0;
                queue.clear();
                queue.push(dsw as u32);
                let mut head = 0;
                while head < queue.len() {
                    let x = queue[head] as usize;
                    head += 1;
                    for &(y, _) in g.neighbors(x) {
                        let y = y as usize;
                        if is_up(x, y) && down[y] == u32::MAX {
                            down[y] = down[x] + 1;
                            queue.push(y as u32);
                        }
                    }
                }
                // Outside the cone a route climbs. A switch inside it only
                // descends (see `legal_hop`), so it keeps its cone distance:
                // relaxing it through an up-move would price a route the
                // rows never take.
                full.copy_from_slice(down);
                for &s in &order {
                    if down[s] != u32::MAX {
                        continue;
                    }
                    for &(v, _) in g.neighbors(s) {
                        let v = v as usize;
                        if is_up(s, v) && full[v] != u32::MAX {
                            full[s] = full[s].min(full[v] + 1);
                        }
                    }
                }
            },
        );
        Self {
            pos,
            row_of,
            down,
            full,
            n,
        }
    }

    /// The rows toward delivery switch `dsw`; `None` when none was built.
    pub fn row(&self, dsw: usize) -> Option<LegalRow<'_>> {
        let r = *self.row_of.get(dsw)?;
        (r != NO_ROW).then(|| {
            let span = r as usize * self.n..(r as usize + 1) * self.n;
            LegalRow {
                pos: &self.pos,
                down: &self.down[span.clone()],
                full: &self.full[span],
            }
        })
    }
}

/// One delivery switch's rows, as [`LegalRows::row`] reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LegalRow<'a> {
    pos: &'a [u32],
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
        let up = self.pos[v] < self.pos[s];
        if self.down[s] != u32::MAX {
            !up && self.down[v] != u32::MAX && self.down[v] + 1 == self.down[s]
        } else {
            up && self.full[v] != u32::MAX && self.full[v] + 1 == self.full[s]
        }
    }

    /// The legal minimal egress ports of `s`, in port order.
    pub fn ports(self, g: &'a SwitchGraph, s: usize) -> impl Iterator<Item = PortNum> + 'a {
        let neighbors = g.neighbors(s).iter();
        neighbors
            .filter(move |&&(v, _)| self.legal_hop(s, v as usize))
            .map(|&(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::Cdg;
    use crate::graph::Destination;
    use crate::minhop::MinHop;
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
        let legal = LegalRows::new(&g, &g.components(), root_key(&ranks), &[], 1);
        // One component: its root is first in label order.
        let roots: Vec<usize> = (0..g.len()).filter(|&s| legal.pos[s] == 0).collect();
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
            let delivery = |dests: &[Destination]| {
                let mut dsws: Vec<usize> = dests.iter().map(|d| d.switch).collect();
                dsws.sort_unstable();
                dsws.dedup();
                dsws
            };
            let all = g.destinations().to_vec();
            let lane: Vec<Destination> = all.iter().filter(switch_lid).copied().collect();
            let runs = [
                (
                    UpDown.compute(&t.subnet).unwrap(),
                    LegalRows::new(&g, &comps, root_key(&ranks), &delivery(&all), 1),
                    &all,
                ),
                (
                    MinHop.compute(&t.subnet).unwrap(),
                    LegalRows::new(&g, &comps, |s| s, &delivery(&lane), 1),
                    &lane,
                ),
            ];
            for (tables, legal, dests) in &runs {
                for d in dests.iter() {
                    let row = legal.row(d.switch).unwrap();
                    for s in (0..g.len()).filter(|&s| s != d.switch) {
                        let what = format!("{name}, {}: {d:?} from {s}", tables.engine);
                        assert_eq!(walk(&g, tables, s, d), row.full(s), "{what}");
                    }
                }
            }
        }
    }
}
