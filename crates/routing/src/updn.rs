//! Up*/Down* routing.
//!
//! Links are oriented toward a root switch; a legal path climbs zero or
//! more *up* links, then descends zero or more *down* links, and never
//! turns upward again. The up/down restriction breaks every cycle in the
//! channel dependency graph, making Up*/Down* deadlock-free on a single
//! virtual lane on any topology — the baseline deadlock argument the
//! paper's §VI-C discussion builds on.
//!
//! Both hot phases fan across the configured workers: the per-delivery-
//! switch legal-distance sweeps (each group's rows depend only on the
//! labels) and the per-switch LFT fill (each switch's row is independent).

use std::collections::VecDeque;

use ib_observe::Observer;
use ib_types::{IbError, IbResult, PortNum};

use crate::engine::{RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, Components, SwitchGraph};
use crate::tables::{Splice, VlAssignment};

/// The Up*/Down* engine. Every component is rooted at a switch of maximal
/// rank (a core switch in a fat tree), tie-broken by lowest index.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpDown;

/// Per-switch (level, id) label; "up" is lexicographically decreasing.
/// Every component gets its own root and its own BFS levels, so a split
/// fabric still carries a complete up*/down* orientation. Labels are only
/// ever compared across an edge, and edges never cross components, so
/// independent level ranges are safe.
fn component_labels(g: &SwitchGraph, comps: &Components) -> Vec<(u32, usize)> {
    let ranks = g.ranks();
    let mut level = vec![u32::MAX; g.len()];
    let mut queue = VecDeque::new();
    for c in 0..comps.count() as u32 {
        // The component's root: the maximal-rank switch (`max_by_key`
        // keeps the *last* maximal element, so the key prefers higher
        // rank, then *lower* index), else — for a component with no
        // ranked switch — the lowest index.
        let root = (0..g.len())
            .filter(|&s| comps.label_of(s) == c && ranks[s] != u32::MAX)
            .max_by_key(|&s| (ranks[s], std::cmp::Reverse(s)))
            .or_else(|| (0..g.len()).find(|&s| comps.label_of(s) == c));
        let Some(root) = root else { continue };
        level[root] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in g.neighbors(u) {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = level[u] + 1;
                    queue.push_back(v as usize);
                }
            }
        }
    }
    level.into_iter().enumerate().map(|(i, l)| (l, i)).collect()
}

/// Whether the move `from -> to` is an *up* move under the labels.
fn is_up(labels: &[(u32, usize)], from: usize, to: usize) -> bool {
    labels[to] < labels[from]
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
        let lab = component_labels(g, &comps);
        // Legal distances are computed once per delivery switch.
        let groups = splice.dirty_groups();
        let workers = opts.effective_workers(n);

        // Phase 1, fanned per delivery switch.
        let (down_data, full_data) = {
            let _span = observer.span("routing.up-down.distances");
            legal_distances(g, &comps, &lab, &groups, workers)?
        };

        // Phase 2, fanned per switch: each switch fills its own row from
        // the read-only distance matrices. The candidate set for a
        // (switch, delivery switch) pair is shared by every LID the group
        // delivers, so it is built once per pair.
        let _span = observer.span("routing.up-down.assign");
        parallel_for_each(
            splice.rows(),
            workers,
            Vec::<PortNum>::new,
            |candidates, s, row| {
                for (gi, (dsw, dest_indices)) in groups.iter().enumerate() {
                    let full = &full_data[gi * n..(gi + 1) * n];
                    // Split fabric: a group whose delivery switch lives in
                    // another component is cleared — explicit holes, not
                    // stale routes into the lost component.
                    candidates.clear();
                    if s != *dsw && full[s] != u32::MAX {
                        let down = &down_data[gi * n..(gi + 1) * n];
                        legal_candidates(g, &lab, down, full, s, candidates);
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

/// The per-group legal distance rows, fanned per delivery switch: row gi of
/// the first matrix holds the shortest all-down distances to `groups[gi]`'s
/// switch, row gi of the second the shortest legal up*/down* distances.
/// Rows depend only on the shared labels, never on other rows. `Err` when
/// some switch of a delivery switch's own component has no legal path to
/// it — a cross-component `MAX` is an honest hole (the column entry stays
/// `None`), not a broken orientation.
fn legal_distances(
    g: &SwitchGraph,
    comps: &Components,
    lab: &[(u32, usize)],
    groups: &[(usize, Vec<usize>)],
    workers: usize,
) -> IbResult<(Vec<u32>, Vec<u32>)> {
    let n = g.len();
    // Relaxation order for the up-phase: increasing label, so every
    // up-move goes to an already-finalized switch. Identical for every
    // delivery switch, so it is computed once, outside the fan-out.
    let order = {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&s| lab[s]);
        order
    };
    let mut down_data = vec![u32::MAX; groups.len() * n];
    let mut full_data = vec![u32::MAX; groups.len() * n];
    let mut rows: Vec<(&mut [u32], &mut [u32])> = down_data
        .chunks_mut(n)
        .zip(full_data.chunks_mut(n))
        .collect();
    parallel_for_each(
        &mut rows,
        workers,
        || Vec::<u32>::with_capacity(n),
        |queue, gi, (down, full)| {
            let dsw = groups[gi].0;
            down[dsw] = 0;
            // Reverse BFS along down edges: expand y where y->x is
            // down, so the path y..dsw stays all-down.
            queue.clear();
            queue.push(dsw as u32);
            let mut head = 0;
            while head < queue.len() {
                let x = queue[head] as usize;
                head += 1;
                for &(y, _) in g.neighbors(x) {
                    let y = y as usize;
                    if !is_up(lab, y, x) && down[y] == u32::MAX {
                        down[y] = down[x] + 1;
                        queue.push(y as u32);
                    }
                }
            }
            full.copy_from_slice(down);
            for &s in &order {
                for &(v, _) in g.neighbors(s) {
                    let v = v as usize;
                    if is_up(lab, s, v) && full[v] != u32::MAX {
                        full[s] = full[s].min(full[v].saturating_add(1));
                    }
                }
            }
        },
    );
    for (gi, (dsw, _)) in groups.iter().enumerate() {
        let full = &full_data[gi * n..(gi + 1) * n];
        if (0..n).any(|s| comps.same(s, *dsw) && full[s] == u32::MAX) {
            return Err(IbError::Topology(format!(
                "no legal up*/down* path to switch {dsw}"
            )));
        }
    }
    Ok((down_data, full_data))
}

/// Fills `candidates` (sorted) with the legal minimal egress ports of
/// switch `s` toward the delivery switch the `down`/`full` rows belong to.
///
/// The rule must compose: a packet that descended into `s` follows the
/// same LFT row as one that just arrived climbing, so the row itself must
/// never turn a descent back upward. Hence: **descend whenever the
/// destination is down-reachable** (every switch on the down chain is then
/// also down-reachable and keeps descending), and climb toward the root
/// otherwise (the root down-reaches everything, so the climb terminates).
fn legal_candidates(
    g: &SwitchGraph,
    lab: &[(u32, usize)],
    down: &[u32],
    full: &[u32],
    s: usize,
    candidates: &mut Vec<PortNum>,
) {
    candidates.clear();
    if down[s] != u32::MAX {
        for &(v, p) in g.neighbors(s) {
            let v = v as usize;
            if !is_up(lab, s, v) && down[v] != u32::MAX && down[v] + 1 == down[s] {
                candidates.push(p);
            }
        }
    } else {
        for &(v, p) in g.neighbors(s) {
            let v = v as usize;
            if is_up(lab, s, v) && full[v] != u32::MAX && full[v] + 1 == full[s] {
                candidates.push(p);
            }
        }
    }
    candidates.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::Cdg;
    use crate::testutil::{assert_full_reachability, assign_lids};
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
        let lab = component_labels(&g, &g.components());
        let roots: Vec<usize> = (0..g.len()).filter(|&s| lab[s].0 == 0).collect();
        assert_eq!(roots, vec![lowest_core]);
    }
}
