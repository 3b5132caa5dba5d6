//! DFSSSP: deadlock-free single-source-shortest-path routing.
//!
//! Two phases, mirroring Domke et al. (reference [28] of the paper, the
//! same work the paper cites for multi-minute path computation times):
//!
//! 1. **SSSP routing** — one weighted Dijkstra per delivery switch, with
//!    link weights incremented as destinations are routed so later
//!    destinations avoid loaded links.
//! 2. **VL partitioning** — paths start on VL0; while a lane's channel
//!    dependency graph contains a cycle, one dependency per cycle is
//!    dissolved by lifting every path that books it to the next lane. Each
//!    lane ends up acyclic, hence deadlock-free. A lane's dependencies are
//!    counted once ([`Cdg`]); lifting retracts the lifted paths' bookings
//!    instead of rebuilding the graph.
//!
//! Both phases cost markedly more than Min-Hop's BFS — the reason DFSSSP
//! sits an order of magnitude above Min-Hop in Fig. 7. Phase timings land
//! in the `routing.dfsssp.distances` / `routing.dfsssp.vl_partition`
//! observe spans. The weight-feedback loop makes phase 1 inherently
//! serial (each group's Dijkstra reads the weights every earlier group
//! wrote), so only the next-hop precompute of phase 2 fans across
//! workers; the tables are identical for every worker count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ib_observe::Observer;
use ib_subnet::Subnet;
use ib_types::{IbError, IbResult, PortNum, VirtualLane};
use rustc_hash::FxHashMap;

use crate::cdg::Cdg;
use crate::engine::{RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, SwitchGraph};
use crate::tables::{RoutingTables, Splice, VlAssignment};

/// The DFSSSP engine.
#[derive(Clone, Copy, Debug)]
pub struct Dfsssp {
    /// Number of data VLs available for layering.
    pub max_vls: u8,
}

impl Default for Dfsssp {
    fn default() -> Self {
        // The full IBA data-VL range. OpenSM defaults to 8 data VLs but
        // the lane budget is configurable; 3-level fat trees with
        // switch-LID destinations need more than 8 under this layer-
        // assignment heuristic (see EXPERIMENTS.md).
        Self { max_vls: 15 }
    }
}

impl RoutingEngine for Dfsssp {
    fn name(&self) -> &'static str {
        "dfsssp"
    }

    /// Dijkstra from the dirty destinations' delivery switches (weights
    /// seeded from the clean columns), the dirty columns written, then the
    /// layer assignment over the resulting tables — clean paths start on
    /// their prior lanes, dirty paths on the base lane, and the usual
    /// cycle-lifting restores per-lane acyclicity or errors out when lanes
    /// are exhausted (a repair's columns are then put back and the SM falls
    /// back to a full sweep).
    fn route(
        &self,
        splice: &mut Splice<'_>,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<(VlAssignment, u64)> {
        let g = splice.graph();
        let n = g.len();

        // Phase 1 is the order-sensitive serial spine of DFSSSP: each
        // group must see exactly the weight increments of every earlier
        // group, in group order.
        let phase1 = observer.span("routing.dfsssp.distances");

        // Incoming adjacency: in_edges[v] = (source switch s, s's port to v).
        let mut in_edges: Vec<Vec<(usize, PortNum)>> = vec![Vec::new(); n];
        for s in 0..n {
            for &(v, p) in g.neighbors(s) {
                in_edges[v as usize].push((s, p));
            }
        }

        // Directed link weights in a flat array keyed (switch, out-port):
        // every slot starts at the implicit weight 1, so `weight[idx] += 1`
        // is the `or_insert(1) += 1` of a map without the hashing. Seeded
        // with the clean columns' picks, so the dirty destinations balance
        // against the traffic that stays put — the same feedback routing
        // those columns would have applied.
        let stride = 1 + g.neighbors_max_port().unwrap_or(PortNum::MANAGEMENT).raw() as usize;
        let widx = move |s: usize, p: PortNum| s * stride + p.raw() as usize;
        let mut weight: Vec<u64> = vec![1; stride * n];
        let clean_dests = splice.clean_dests();
        for (s, row) in splice.rows().iter().enumerate() {
            for dest in clean_dests.iter().filter(|d| d.switch != s) {
                if let Some(w) = row.get(dest.lid).and_then(|p| weight.get_mut(widx(s, p))) {
                    *w += 1;
                }
            }
        }

        let mut decisions = 0u64;
        let mut dist: Vec<(u32, u64)> = vec![(u32::MAX, u64::MAX); n];
        let mut heap = BinaryHeap::new();
        let mut candidates: Vec<PortNum> = Vec::new();
        // The weight slots this group's picks load, applied once the group
        // is routed.
        let mut picked: Vec<usize> = Vec::new();
        for (dsw, dest_indices) in splice.dirty_groups() {
            // A group routes against the weights as they stood before it:
            // its own picks only influence later groups (OpenSM's dfsssp
            // updates weights per routed node the same way).
            //
            // Dijkstra from the delivery switch over reversed edges with
            // lexicographic (hops, accumulated weight) cost: paths stay
            // minimal-hop (so the per-destination trees remain cycle-lean)
            // and the weights only arbitrate among equal-hop options —
            // DFSSSP's balancing without sacrificing minimality.
            dist.fill((u32::MAX, u64::MAX));
            dist[dsw] = (0, 0);
            heap.clear();
            heap.push(Reverse(((0u32, 0u64), dsw)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                for &(s, p) in &in_edges[v] {
                    let nd = (d.0 + 1, d.1 + weight[widx(s, p)]);
                    if nd < dist[s] {
                        dist[s] = nd;
                        heap.push(Reverse((nd, s)));
                    }
                }
            }
            for di in dest_indices {
                let dest = g.destinations()[di];
                let lid_idx = dest.lid.raw() as usize;
                for (s, row) in splice.rows().iter_mut().enumerate() {
                    decisions += 1;
                    if s == dsw {
                        row.set(dest.lid, Some(dest.port));
                        continue;
                    }
                    if dist[s].0 == u32::MAX {
                        // Split fabric: `s` sits in another component. Its
                        // entry is cleared — an explicit hole, not a route
                        // into the lost component — and every reachable
                        // pair still gets routed.
                        row.set(dest.lid, None);
                        continue;
                    }
                    candidates.clear();
                    candidates.extend(
                        g.neighbors(s)
                            .iter()
                            .filter(|&&(v, p)| {
                                dist[v as usize].0 + 1 == dist[s].0
                                    && dist[v as usize].1 + weight[widx(s, p)] == dist[s].1
                            })
                            .map(|&(_, p)| p),
                    );
                    candidates.sort_unstable();
                    if candidates.is_empty() {
                        return Err(IbError::Topology("distance inversion in dfsssp".into()));
                    }
                    // Sticky: keep the installed port when it is still on
                    // a lexicographically-shortest path — a repair's diff
                    // stays minimal and only rows the fault actually
                    // invalidated get rewritten.
                    let pick = row
                        .get(dest.lid)
                        .filter(|p| candidates.contains(p))
                        .unwrap_or_else(|| candidates[lid_idx % candidates.len()]);
                    picked.push(widx(s, pick));
                    row.set(dest.lid, Some(pick));
                }
            }
            for at in picked.drain(..) {
                weight[at] += 1;
            }
        }
        phase1.end();

        // Phase 2: Domke et al.'s layer assignment. Paths live in
        // virtual layers; while a layer's channel dependency graph has a
        // cycle, pick one edge per (edge-disjoint) cycle and move EVERY
        // path crossing that edge to the next layer — the edge vanishes
        // from this layer, so each pass makes guaranteed progress and the
        // moved sets stay small (one channel-pair's worth of paths, not
        // whole destination trees).
        //
        // Two deviations from a literal transcription, both conservative:
        // switch-LID paths (the only source of down-up turns on up*-down*
        // fabrics) start on lane 1 so the compute lane is clean from the
        // outset, and within a cycle the dissolved edge is the one with
        // the fewest contributing paths (Domke's edge weight), preferring
        // edges carrying switch-LID paths.
        let _phase2 = observer.span("routing.dfsssp.vl_partition");
        let nexts = build_nexts(g, opts.effective_workers(g.destinations().len()), splice);

        // Per-lane worklists of (source switch, destination index): clean
        // pairs keep their prior lane, dirty pairs start on the base lane;
        // lifting then repairs any cycle the new columns introduced.
        let mut lane_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.max_vls as usize];
        for (di, dest) in g.destinations().iter().enumerate() {
            let start_lane = usize::from(self.max_vls > 1 && dest.port.is_management());
            for src in 0..n {
                // Unroutable cross-component pairs have no path and hence
                // no channel dependencies: they never enter the layering.
                if src == dest.switch || splice.get(src, dest.lid).is_none() {
                    continue;
                }
                let lane = if splice.is_dirty(di) {
                    start_lane
                } else {
                    (splice
                        .vls()
                        .lane_for(src as u32, dest.switch as u32, dest.lid)
                        .raw() as usize)
                        .min(self.max_vls as usize - 1)
                };
                lane_pairs[lane].push((src as u32, di as u32));
            }
        }
        let lane_of = lift_lanes(g, &nexts, &mut lane_pairs, self.max_vls)?;
        Ok((lanes_to_assignment(lane_of), decisions))
    }
}

/// Precomputes per-destination next-hop tables (`nexts[di][s]` = (out port,
/// neighbor switch) for destination `di` at switch `s`, if it stays in the
/// switch fabric) from the splice's rows, fanned across workers.
fn build_nexts(
    g: &SwitchGraph,
    workers: usize,
    splice: &Splice<'_>,
) -> Vec<Vec<Option<(u8, usize)>>> {
    let mut nexts: Vec<Vec<Option<(u8, usize)>>> =
        vec![vec![None; g.len()]; g.destinations().len()];
    parallel_for_each(
        &mut nexts,
        workers,
        || (),
        |(), di, next| {
            let dest = &g.destinations()[di];
            for (s, slot) in next.iter_mut().enumerate() {
                *slot = g.next_hop(s, splice.get(s, dest.lid));
            }
        },
    );
    nexts
}

/// Domke et al.'s layer assignment over precomputed next-hop tables: while
/// a lane's CDG has a cycle, dissolve one edge per cycle and move every
/// path crossing it up a lane. Mutates `lane_pairs` in place and returns
/// the final `(source switch, destination LID) -> lane` map (lane 0
/// implicit). Errors when the lane budget is exhausted.
///
/// Each lane's dependencies are counted once, then a second walk indexes
/// which of its pairs book each one ([`Bookings`]). A lifting pass is one
/// depth-first sweep ([`Cdg::visit_cycles`]: channels in id order,
/// successors in port order, every back-edge cycle of the sweep) plus the
/// retraction of the paths it lifts. Per cycle not already broken this
/// pass, the dissolved dependency is the first one with the fewest
/// bookings, preferring those a switch-LID path books.
fn lift_lanes(
    g: &SwitchGraph,
    nexts: &[Vec<Option<(u8, usize)>>],
    lane_pairs: &mut [Vec<(u32, u32)>],
    max_vls: u8,
) -> IbResult<FxHashMap<(u32, u16), u8>> {
    let lanes = max_vls as usize;
    // One pair's path: its endpoints and next hops.
    let path = |(src, di): (u32, u32)| {
        let (dest, next) = (&g.destinations()[di as usize], &nexts[di as usize]);
        ((src as usize, dest.switch), move |s: usize| next[s])
    };
    let book = |cdg: &mut Cdg, pair: (u32, u32), up: bool| {
        let (ends, next) = path(pair);
        let switch_lid = g.destinations()[pair.1 as usize].port.is_management();
        cdg.book_path(0, ends, next, switch_lid, up);
    };
    let mut cdg = Cdg::new(g, 1);
    let mut bookings = Bookings::default();
    // `broken[slot]`: the dependency is dissolved this pass.
    let mut broken = vec![false; cdg.slots_per_lane()];
    let mut dissolved: Vec<usize> = Vec::new();
    for lane in 0..lanes {
        let pairs = std::mem::take(&mut lane_pairs[lane]);
        for &pair in &pairs {
            book(&mut cdg, pair, true);
        }
        bookings.index(&cdg, pairs.iter().map(|&pair| path(pair)));
        let mut lifted = vec![false; pairs.len()];
        loop {
            cdg.visit_cycles(0, 0..cdg.channels(), |cycle| {
                let edges =
                    (0..cycle.len()).map(|i| cdg.slot(cycle[i], cycle[(i + 1) % cycle.len()]));
                if !edges.clone().any(|at| broken[at]) {
                    let cheapest = edges
                        .min_by_key(|&at| {
                            let (count, switch_lid) = cdg.booked(0, at);
                            (switch_lid == 0, count)
                        })
                        .expect("cycle is non-empty");
                    broken[cheapest] = true;
                    dissolved.push(cheapest);
                }
                true
            });
            if dissolved.is_empty() {
                break;
            }
            if lane + 1 >= lanes {
                return Err(IbError::Topology(format!(
                    "dfsssp: virtual lanes exhausted ({max_vls}) breaking cycles"
                )));
            }
            // Lift every path crossing a dissolved dependency: its
            // bookings leave the lane.
            for at in dissolved.drain(..) {
                broken[at] = false;
                for &i in bookings.of(at) {
                    if !std::mem::replace(&mut lifted[i as usize], true) {
                        book(&mut cdg, pairs[i as usize], false);
                    }
                }
            }
            if cfg!(debug_assertions) {
                let mut recount = Cdg::new(g, 1);
                for (&pair, _) in pairs.iter().zip(&lifted).filter(|(_, &l)| !l) {
                    book(&mut recount, pair, true);
                }
                assert!(
                    recount == cdg,
                    "lane {lane}: retracted counts differ from a recount of its live pairs"
                );
            }
        }
        for (pair, lifted) in pairs.into_iter().zip(lifted) {
            lane_pairs[lane + usize::from(lifted)].push(pair);
        }
        cdg.clear();
    }

    // Assemble the final assignment (lane 0 stays implicit).
    let mut lane_of: FxHashMap<(u32, u16), u8> = FxHashMap::default();
    for (lane, pairs) in lane_pairs.iter().enumerate().skip(1) {
        for &(src, di) in pairs {
            lane_of.insert((src, g.destinations()[di as usize].lid.raw()), lane as u8);
        }
    }
    Ok(lane_of)
}

/// Which of a lane's pairs book each of its dependencies: a CSR index over
/// the slots the lane touched, filled by a second walk of the pairs once the
/// count walk has sized it (`pairs[offsets[k]..offsets[k + 1]]` for the
/// slot whose key is `k`).
#[derive(Default)]
struct Bookings {
    key: Vec<u32>,
    offsets: Vec<u32>,
    pairs: Vec<u32>,
}

impl Bookings {
    /// Indexes `paths` — the lane's pairs in order, as `(ends, next hops)`
    /// — whose dependencies, and nothing else since the last
    /// [`Cdg::clear`], `cdg` has counted.
    fn index<F: Fn(usize) -> Option<(u8, usize)>>(
        &mut self,
        cdg: &Cdg,
        paths: impl Iterator<Item = ((usize, usize), F)>,
    ) {
        self.key.resize(cdg.slots_per_lane(), 0);
        self.offsets.clear();
        self.offsets.push(0);
        for (k, &at) in cdg.touched().iter().enumerate() {
            self.key[at as usize] = k as u32;
            self.offsets
                .push(self.offsets[k] + cdg.booked(0, at as usize).0);
        }
        let mut cursor = self.offsets.clone();
        self.pairs.clear();
        self.pairs
            .resize(*self.offsets.last().unwrap_or(&0) as usize, 0);
        for (i, (ends, next)) in paths.enumerate() {
            cdg.path_slots(ends, next, |at| {
                let k = self.key[at] as usize;
                self.pairs[cursor[k] as usize] = i as u32;
                cursor[k] += 1;
            });
        }
    }

    /// The pairs that book the dependency in slot `at`.
    fn of(&self, at: usize) -> &[u32] {
        let k = self.key[at] as usize;
        &self.pairs[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

/// Wraps a lane map into the [`VlAssignment`] DFSSSP reports.
fn lanes_to_assignment(lane_of: FxHashMap<(u32, u16), u8>) -> VlAssignment {
    if lane_of.is_empty() {
        VlAssignment::SingleVl
    } else {
        VlAssignment::PerSourceDestination(
            lane_of
                .into_iter()
                .map(|(k, l)| (k, VirtualLane::new(l).expect("lane < 15")))
                .collect(),
        )
    }
}

/// Verifies that every VL layer of a DFSSSP result has an acyclic CDG,
/// re-deriving every lane's dependencies from the tables in one walk.
pub fn verify_layers_acyclic(subnet: &Subnet, tables: &RoutingTables) -> IbResult<()> {
    let g = SwitchGraph::build(subnet)?;
    let vls = &tables.vls;
    let lanes = vls.lanes();
    let mut cdg = Cdg::new(&g, lanes.last().map_or(1, |l| l.raw() as usize + 1));
    match vls {
        VlAssignment::PerSwitchPair(_) => {
            return Err(IbError::Topology(
                "per-switch-pair assignments are verified by the LASH module".into(),
            ));
        }
        VlAssignment::SingleVl | VlAssignment::PerDestination(_) => {
            cdg.add_tables(&g, tables, |d| {
                Some(vls.lane_for(0, 0, d.lid).raw() as usize)
            });
        }
        VlAssignment::PerSourceDestination(_) => {
            cdg.add_paths(&g, tables, vls, g.destinations().iter())
                .map_err(|lid| IbError::Topology(format!("routing loop for LID {lid}")))?;
        }
    }
    for lane in lanes {
        if let Some(cycle) = cdg.find_cycle(lane.raw() as usize) {
            return Err(IbError::Topology(format!(
                "VL{} CDG has a {}-channel cycle",
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
    fn fat_tree_keeps_host_traffic_on_vl0() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = Dfsssp::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        // Host destinations never leave VL0 on a fat tree; only the
        // switch-LID management paths ride the separated lane 1.
        match &tables.vls {
            VlAssignment::PerSourceDestination(map) => {
                // Switch LIDs are 1..=6 under assign_lids (6 switches).
                assert!(
                    map.keys().all(|&(_, lid)| lid <= 6),
                    "a host pair left VL0: {map:?}"
                );
                assert!(map.values().all(|l| l.raw() == 1));
            }
            other => panic!("unexpected assignment {other:?}"),
        }
        verify_layers_acyclic(&t.subnet, &tables).unwrap();
    }

    #[test]
    fn torus_gets_layered_and_each_layer_acyclic() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = Dfsssp::default().compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
        match &tables.vls {
            VlAssignment::PerSourceDestination(map) => {
                assert!(map.values().any(|l| l.raw() > 0), "no lifting happened");
            }
            VlAssignment::SingleVl => {
                // Acceptable only if the single layer is truly acyclic.
            }
            other => panic!("unexpected VL assignment {other:?}"),
        }
        verify_layers_acyclic(&t.subnet, &tables).unwrap();
    }

    #[test]
    fn irregular_layers_acyclic() {
        for seed in 0..3 {
            let mut t = irregular(IrregularSpec {
                num_switches: 9,
                num_hosts: 18,
                extra_links: 6,
                seed,
            });
            assign_lids(&mut t);
            let tables = Dfsssp::default().compute(&t.subnet).unwrap();
            assert_full_reachability(&t.subnet, &tables);
            verify_layers_acyclic(&t.subnet, &tables).unwrap();
        }
    }

    #[test]
    fn exhausting_vls_is_an_error_not_a_panic() {
        // With a single VL, a torus cannot be made deadlock-free by
        // lifting; the engine must report failure.
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let engine = Dfsssp { max_vls: 1 };
        let err = engine.compute(&t.subnet);
        assert!(err.is_err());
    }

    #[test]
    fn emits_phase_spans() {
        let mut t = two_level(2, 2, 2);
        assign_lids(&mut t);
        let observer = Observer::metrics();
        Dfsssp::default()
            .compute_with(&t.subnet, RoutingOptions::default(), &observer)
            .unwrap();
        let snap = observer.snapshot().expect("metrics enabled");
        for span in ["routing.dfsssp.distances", "routing.dfsssp.vl_partition"] {
            assert!(
                snap.spans.iter().any(|s| s.name == span),
                "missing span {span}: {:?}",
                snap.spans
            );
        }
    }
}
