//! LASH: LAyered SHortest-path routing.
//!
//! Every ordered pair of switches gets a shortest path (drawn from one BFS
//! in-tree per destination switch, so the result is expressible as
//! destination-based LFTs), and each pair is packed into the first virtual
//! lane whose channel dependency graph stays acyclic with the path's
//! dependencies added; a new lane is opened when no existing one fits.
//!
//! The per-destination in-tree extraction and the LFT fill fan across the
//! configured workers (each tree and each switch row is independent); the
//! pair packing cannot — each placement depends on every earlier one. Each
//! lane is a one-lane [`Cdg`], acyclic before every placement, so a
//! placement's cycle search starts only from the dependencies it adds (any
//! new cycle runs through one of them). The packing's cost is the
//! placements plus those scoped searches, and it lands in the
//! `routing.lash.vl_partition` span. The paper's LASH cost (39145 s at
//! 11664 nodes in its Fig. 7) is OpenSM's dense per-pair check, which is
//! not reproduced here.

use ib_observe::Observer;
use ib_subnet::Subnet;
use ib_types::{IbError, IbResult, PortNum, VirtualLane};
use rustc_hash::FxHashMap;

use crate::cdg::Cdg;
use crate::engine::{RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, Destination, SwitchGraph};
use crate::tables::{RoutingTables, Splice, VlAssignment};

/// The LASH engine.
#[derive(Clone, Copy, Debug)]
pub struct Lash {
    /// Number of data VLs available for layering.
    pub max_vls: u8,
}

impl Default for Lash {
    fn default() -> Self {
        Self { max_vls: 8 }
    }
}

const NO_TREE: usize = usize::MAX;

impl RoutingEngine for Lash {
    fn name(&self) -> &'static str {
        "lash"
    }

    /// BFS in-trees for the dirty delivery switches, their columns
    /// written, then just the re-routed switch pairs placed into the lane
    /// structure. Each layer's CDG is first re-seeded from the clean
    /// pairs' installed paths — they coexisted acyclically before, so the
    /// seed is booked unchecked (debug builds check every seeded layer,
    /// since a placement searches only from what it adds). A dirty pair
    /// first tries its prior lane, escalates to the CDG-checked first-fit
    /// search on conflict, opens a new lane within the budget, and only
    /// errors out (for a repair: a *counted* fallback at the SM, the
    /// columns put back) when the budget is exhausted — a repair never
    /// re-layers the whole fabric. With no clean pair and no prior lane
    /// that is exactly first-fit packing from lane 0.
    fn route(
        &self,
        splice: &mut Splice<'_>,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<(VlAssignment, u64)> {
        // A usable baseline carries a per-pair (or single-lane) assignment
        // to re-seed the layers from.
        if !matches!(
            splice.vls(),
            VlAssignment::SingleVl | VlAssignment::PerSwitchPair(_)
        ) {
            return Err(IbError::Management(
                "LASH repair baseline carries a foreign VL assignment".into(),
            ));
        }
        let g = splice.graph();
        let n = g.len();
        let workers = opts.effective_workers(n);
        let dirty_cols = splice.dirty_dests();

        // Per-switch witness destination: the installed column each clean
        // pair's path is read back from (all pairs toward one delivery
        // switch ride the same in-tree, so one column per switch
        // suffices).
        let mut first_dest: Vec<Option<Destination>> = vec![None; n];
        for d in g.destinations() {
            first_dest[d.switch].get_or_insert(*d);
        }

        // The switches whose pairs are (re-)placed: the dirty columns'
        // delivery switches, plus every switch that delivers no column at
        // all — its pairs' paths live in no LFT to read them back from, so
        // they are re-derived every time. `tree_of[dsw]` indexes `trees`.
        let mut delivers_dirty = vec![false; n];
        for d in &dirty_cols {
            delivers_dirty[d.switch] = true;
        }
        let dirty_switches: Vec<usize> = (0..n)
            .filter(|&s| delivers_dirty[s] || first_dest[s].is_none())
            .collect();
        let mut tree_of = vec![NO_TREE; n];
        for (ti, &s) in dirty_switches.iter().enumerate() {
            tree_of[s] = ti;
        }

        // One deterministic BFS in-tree per dirty switch, row-major:
        // trees[ti * n + s] = the port s uses toward dirty_switches[ti]
        // (lowest-index parent wins ties). Trees are independent, so the
        // extraction fans across workers; each worker reuses one distance
        // buffer and one queue for all its trees.
        let mut trees: Vec<Option<PortNum>> = vec![None; dirty_switches.len() * n];
        {
            let _span = observer.span("routing.lash.distances");
            let mut rows: Vec<&mut [Option<PortNum>]> = trees.chunks_mut(n).collect();
            parallel_for_each(
                &mut rows,
                workers,
                || (vec![u32::MAX; n], Vec::<u32>::with_capacity(n)),
                |(dist, queue), ti, port_toward| {
                    let dsw = dirty_switches[ti];
                    dist.fill(u32::MAX);
                    dist[dsw] = 0;
                    queue.clear();
                    queue.push(dsw as u32);
                    let mut head = 0;
                    while head < queue.len() {
                        let v = queue[head] as usize;
                        head += 1;
                        // Deterministic order: neighbors as stored
                        // (builder order).
                        for &(s, _) in g.neighbors(v) {
                            let s = s as usize;
                            if dist[s] == u32::MAX {
                                dist[s] = dist[v] + 1;
                                // The port s uses toward v (first matching
                                // entry).
                                let p = g
                                    .neighbors(s)
                                    .iter()
                                    .find(|&&(x, _)| x as usize == v)
                                    .map(|&(_, p)| p)
                                    .expect("symmetric adjacency");
                                port_toward[s] = Some(p);
                                queue.push(s as u32);
                            }
                        }
                    }
                },
            );
        }
        // A `None` tree entry for s != dsw means the fabric is split and s
        // cannot reach dsw: the fill below *clears* that entry (an explicit
        // hole, no stale route into the lost component) and the lane
        // placement drops the pair — every reachable pair still gets a
        // path and a lane.

        // The dirty columns straight from the trees: each switch's row is
        // independent, so the fill fans across workers too.
        parallel_for_each(
            splice.rows(),
            workers,
            || (),
            |(), s, row| {
                for dest in &dirty_cols {
                    let port = if s == dest.switch {
                        Some(dest.port)
                    } else {
                        trees[tree_of[dest.switch] * n + s]
                    };
                    row.set(dest.lid, port);
                }
            },
        );
        let mut decisions = (dirty_cols.len() * n) as u64;

        // Pack each dirty ordered switch pair into a lane that stays
        // acyclic. Strictly serial: whether a pair fits lane l depends on
        // every pair placed before it. Each layer is a one-lane `Cdg`.
        let _span = observer.span("routing.lash.vl_partition");
        let mut pair_lane: FxHashMap<(u32, u32), VirtualLane> = match splice.vls() {
            VlAssignment::PerSwitchPair(map) => map.clone(),
            _ => FxHashMap::default(),
        };
        let max_lane = pair_lane.values().map(|l| l.raw()).max().unwrap_or(0);
        let mut layers: Vec<Cdg> = (0..=max_lane).map(|_| Cdg::new(g, 1)).collect();

        // Re-seed the layers from the clean pairs' installed paths. A walk
        // that dead-ends — the entry is cleared, or the port leads into a
        // link the degraded graph no longer has — is *pre-existing damage*
        // on a pair whose own trap has not been answered yet (mid-burst,
        // serial repairs see later faults' black holes, exactly like the
        // SM's scoped verifier gate does). The surviving prefix still
        // carries in-flight traffic, so its channel dependencies are
        // seeded and the pair is otherwise left to the trap that owns it.
        // A forwarding *loop*, by contrast, means the baseline itself is
        // corrupt: error out so the SM takes its counted fallback and
        // rebuilds from scratch (keeping the reverse route index honest —
        // a silent internal recompute here would be misread as a splice).
        for dsw in (0..n).filter(|&dsw| tree_of[dsw] == NO_TREE) {
            let dest = first_dest[dsw].expect("a switch with no column is dirty");
            let next = |s: usize| g.next_hop(s, splice.get(s, dest.lid));
            for src in (0..n).filter(|&src| src != dsw) {
                let lane = splice.vls().lane_for(src as u32, dsw as u32, dest.lid);
                if !layers[lane.raw() as usize].book_path(0, (src, dsw), next, false, true) {
                    return Err(IbError::Topology(
                        "forwarding loop in the lash repair baseline".into(),
                    ));
                }
            }
        }
        // The placements below search only from what they add, so they
        // rely on every seeded layer being acyclic.
        debug_assert!(
            layers.iter().all(|layer| layer.find_cycle(0).is_none()),
            "the lash repair baseline seeds a cyclic layer"
        );

        // Place the dirty pairs: prior lane first (most repaired paths
        // still fit where they lived), then first-fit, then a new lane.
        let stride = g.peer_table().0;
        let (mut path, mut heads) = (Vec::new(), Vec::new());
        for (tree, &dsw) in trees.chunks(n).zip(&dirty_switches) {
            for src in (0..n).filter(|&src| src != dsw) {
                let pair = (src as u32, dsw as u32);
                let prior_lane = pair_lane.remove(&pair).map_or(0, |l| l.raw() as usize);
                if tree[src].is_none() {
                    // Split fabric: src cannot reach dsw, so the pair has
                    // no path and holds no lane.
                    continue;
                }
                // The channel ids of the path src -> dsw along the tree.
                // (Every switch on the walk is reachable once src is: the
                // in-tree is connected toward dsw.)
                path.clear();
                let mut cur = src;
                while cur != dsw {
                    let p = tree[cur].expect("on the in-tree toward dsw");
                    path.push((cur * stride + p.raw() as usize) as u32);
                    decisions += 1;
                    cur = g.peer(cur, p).expect("port leads somewhere");
                }
                let mut fits = |layer: &mut Cdg| place(layer, &path, &mut heads);
                let placed = if fits(&mut layers[prior_lane]) {
                    Some(prior_lane)
                } else {
                    (0..layers.len()).find(|&l| l != prior_lane && fits(&mut layers[l]))
                };
                let lane = match placed {
                    Some(l) => l,
                    None => {
                        if layers.len() >= self.max_vls as usize {
                            return Err(IbError::Topology(format!(
                                "lash: virtual lanes exhausted ({})",
                                self.max_vls
                            )));
                        }
                        let mut fresh = Cdg::new(g, 1);
                        let ok = fits(&mut fresh);
                        debug_assert!(ok, "single path cannot be cyclic");
                        layers.push(fresh);
                        layers.len() - 1
                    }
                };
                if lane != 0 {
                    pair_lane.insert(pair, VirtualLane::new(lane as u8).expect("lane < 15"));
                }
            }
        }

        let vls = if pair_lane.is_empty() {
            VlAssignment::SingleVl
        } else {
            VlAssignment::PerSwitchPair(pair_lane)
        };
        Ok((vls, decisions))
    }
}

/// Books the consecutive dependencies of a channel-id path on an acyclic
/// layer and keeps them when the layer stays acyclic; otherwise retracts
/// exactly what it booked. Any new cycle runs through a dependency the
/// path took from zero, so the search starts only from those heads.
fn place(layer: &mut Cdg, path: &[u32], heads: &mut Vec<u32>) -> bool {
    heads.clear();
    for w in path.windows(2) {
        if layer.book(0, w[0], w[1], true) {
            heads.push(w[1]);
        }
    }
    let cyclic = !heads.is_empty() && layer.find_cycle_from(0, heads.iter().copied()).is_some();
    if cyclic {
        for w in path.windows(2) {
            layer.book(0, w[0], w[1], false);
        }
    }
    !cyclic
}

/// Verifies deadlock freedom of a LASH result: for every lane, re-derive
/// the CDG from the per-pair assignment and check acyclicity.
pub fn verify_pair_layers_acyclic(subnet: &Subnet, tables: &RoutingTables) -> IbResult<()> {
    let g = SwitchGraph::build(subnet)?;
    if matches!(
        tables.vls,
        VlAssignment::PerDestination(_) | VlAssignment::PerSourceDestination(_)
    ) {
        return Err(IbError::Topology(
            "expected a per-pair assignment from LASH".into(),
        ));
    }

    let lanes = tables.vls.lanes();
    let mut cdg = Cdg::new(&g, lanes.last().map_or(1, |l| l.raw() as usize + 1));
    // Every switch pair once: one destination per delivery switch stands
    // for the pair's path. An unrouted pair (a split fabric) books nothing.
    let dests = (0..g.len()).filter_map(|dsw| g.destinations().iter().find(|d| d.switch == dsw));
    cdg.add_paths(&g, tables, &tables.vls, dests)
        .map_err(|lid| IbError::Topology(format!("routing loop for LID {lid}")))?;
    for lane in lanes {
        if let Some(cycle) = cdg.find_cycle(lane.raw() as usize) {
            return Err(IbError::Topology(format!(
                "LASH lane {} has a {}-channel cycle",
                lane.raw(),
                cycle.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_full_reachability, assign_lids};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::irregular::{irregular, IrregularSpec};
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn fat_tree_routes_on_one_lane() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = Lash::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        assert_eq!(tables.vls, VlAssignment::SingleVl);
    }

    #[test]
    fn torus_needs_multiple_lanes_and_stays_acyclic() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = Lash::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        assert!(
            matches!(tables.vls, VlAssignment::PerSwitchPair(_)),
            "a 4x4 torus cannot fit one lane under shortest-path routing"
        );
        verify_pair_layers_acyclic(&t.subnet, &tables).unwrap();
    }

    #[test]
    fn irregular_layers_acyclic() {
        for seed in 0..3 {
            let mut t = irregular(IrregularSpec {
                num_switches: 8,
                num_hosts: 16,
                extra_links: 6,
                seed,
            });
            assign_lids(&mut t);
            let tables = Lash::default().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
            verify_pair_layers_acyclic(&t.subnet, &tables).unwrap();
        }
    }

    #[test]
    fn single_vl_budget_fails_on_torus() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let engine = Lash { max_vls: 1 };
        assert!(engine.compute(&t.subnet).is_err());
    }
}
