//! Min-Hop routing: OpenSM's default engine.
//!
//! All-pairs shortest switch distances — one BFS per source switch, fanned
//! across the configured workers since each row is independent — then for
//! every destination LID each switch picks the least-loaded among its
//! minimal next-hop ports. Load balancing is the sequential,
//! destination-ordered port-counting scheme OpenSM uses, so the computation
//! has an inherently serial phase on top of the parallel distance matrix —
//! one reason Min-Hop costs more than structured fat-tree routing in
//! Fig. 7.
//!
//! Switch-destined LIDs are routed up*/down*-legally on a dedicated
//! lane (see [`crate::swcols`]) — least-loaded valleys between sibling
//! spines would otherwise close credit loops on the host lane.

use ib_observe::Observer;
use ib_subnet::Subnet;
use ib_types::{IbError, IbResult, PortNum};
use rustc_hash::FxHashMap;

use crate::engine::{RoutingEngine, RoutingOptions};
use crate::graph::{Destination, DistanceMatrix, SwitchGraph};
use crate::swcols::{switch_dest_vls, SwitchColumns};
use crate::tables::{stages_to_lfts, RoutingTables, Splice, SpliceLog, VlAssignment};

/// The Min-Hop engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinHop;

impl RoutingEngine for MinHop {
    fn name(&self) -> &'static str {
        "minhop"
    }

    fn compute_with(
        &self,
        subnet: &Subnet,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<RoutingTables> {
        let g = SwitchGraph::build(subnet)?;
        if g.is_empty() {
            return Ok(RoutingTables {
                lfts: FxHashMap::default(),
                vls: VlAssignment::SingleVl,
                engine: self.name(),
                decisions: 0,
            });
        }

        // Parallel all-pairs BFS: row s = distances from switch s. Rows
        // depend only on their source, so the matrix is identical for any
        // worker count.
        let dist = {
            let _span = observer.span("routing.minhop.distances");
            DistanceMatrix::all_pairs(&g, opts.effective_workers(g.len()))
        };

        // Switch-destined columns are valley-routed via the hub on their
        // own lane instead of load-balanced: a spine-to-spine route must
        // dip through a leaf, and two such valleys through different
        // leaves close a credit loop (see `swcols`). They take no part
        // in the port-load accounting below.
        let swcols = SwitchColumns::new(&g, opts.effective_workers(g.len()), g.destinations());

        // Serial assignment: OpenSM's destination-ordered port-load
        // balancing. Each pick reads the loads left by every earlier pick,
        // so this phase stays single-threaded to keep tables byte-identical
        // whatever `opts.workers` says.
        let _span = observer.span("routing.minhop.assign");
        let mut stages: Vec<Vec<Option<PortNum>>> = vec![vec![None; g.lid_bound()]; g.len()];
        // port_load[s * stride + p] = destinations already routed out port
        // p of switch s.
        let stride = 2 + g.neighbors_max_port().unwrap_or(PortNum::MANAGEMENT).raw() as usize;
        let mut port_load: Vec<u64> = vec![0; stride * g.len()];
        let mut decisions = 0u64;

        for dest in g.destinations() {
            let lid_idx = dest.lid.raw() as usize;
            for s in 0..g.len() {
                decisions += 1;
                if s == dest.switch {
                    stages[s][lid_idx] = Some(dest.port);
                    continue;
                }
                if dest.port == PortNum::MANAGEMENT {
                    // Switch LID: legal pick (None across a split).
                    stages[s][lid_idx] = swcols.pick(dest.switch, dest.lid, s);
                    continue;
                }
                let d_here = dist.row(s)[dest.switch];
                if d_here == u32::MAX {
                    // The destination sits in another component (a split
                    // fabric): the column stays `None` here — an explicit
                    // hole, not a stale route — and routing proceeds for
                    // every reachable pair.
                    continue;
                }
                // Minimal candidates: neighbors exactly one hop closer.
                let mut best: Option<(u64, PortNum)> = None;
                for &(v, p) in g.neighbors(s) {
                    if dist.row(v as usize)[dest.switch] + 1 == d_here {
                        let load = port_load[s * stride + p.raw() as usize];
                        let better = match best {
                            None => true,
                            Some((bl, bp)) => load < bl || (load == bl && p < bp),
                        };
                        if better {
                            best = Some((load, p));
                        }
                    }
                }
                let (_, port) =
                    best.ok_or_else(|| IbError::Topology("distance inversion".into()))?;
                port_load[s * stride + port.raw() as usize] += 1;
                stages[s][lid_idx] = Some(port);
            }
        }

        Ok(RoutingTables {
            lfts: stages_to_lfts(&g, stages),
            vls: switch_dest_vls(&g),
            engine: self.name(),
            decisions,
        })
    }

    /// Incremental repair: BFS only from the dirty destinations' delivery
    /// switches, re-assign only the dirty columns, write them over `tables`
    /// in place.
    ///
    /// Port loads are seeded from the clean columns, so the repaired picks
    /// balance against the traffic that stays put. The result approximates
    /// (it is not byte-equal to) a full recompute — which is exactly why
    /// the SM gates every repair behind the fabric verifier before
    /// trusting it.
    fn repair_with_graph(
        &self,
        g: &SwitchGraph,
        opts: RoutingOptions,
        tables: &mut RoutingTables,
        dirty_dests: &[ib_types::Lid],
        observer: &Observer,
    ) -> IbResult<SpliceLog> {
        let mut splice = Splice::begin(g, tables)?;
        let _span = observer.span("routing.minhop.repair");
        let dirty: rustc_hash::FxHashSet<u16> = dirty_dests.iter().map(|l| l.raw()).collect();
        // Destination order is preserved from the full compute, so the
        // serial balancing below stays deterministic for any worker count.
        let (dirty_dests, mut clean_hosts): (Vec<Destination>, Vec<Destination>) = g
            .destinations()
            .iter()
            .partition(|d| dirty.contains(&d.lid.raw()));
        // Switch-destined columns take no part in the full compute's load
        // accounting, so they must not seed the repair's either.
        clean_hosts.retain(|d| d.port != PortNum::MANAGEMENT);

        // Switch-destined dirty columns rebuild their valley routes on
        // the degraded graph (see `swcols`) — rows for their delivery
        // switches only; they never touch the port loads.
        let swcols = SwitchColumns::new(g, opts.effective_workers(g.len()), &dirty_dests);

        let (dist, dist_row) = DistanceMatrix::for_host_dests(g, &dirty_dests, opts.workers);

        // Switch-major: a switch's port loads depend only on its own
        // earlier picks, so each LFT row is visited once and the columns
        // are still assigned in destination order within it.
        let stride = 2 + g.neighbors_max_port().unwrap_or(PortNum::MANAGEMENT).raw() as usize;
        let mut port_load: Vec<u64> = vec![0; stride];
        for s in 0..g.len() {
            // Seed the loads from the clean host columns (delivery rows
            // never increment load in the full compute).
            port_load.fill(0);
            let row = splice.row(s);
            for dest in clean_hosts.iter().filter(|d| d.switch != s) {
                if let Some(load) = row
                    .get(dest.lid)
                    .and_then(|p| port_load.get_mut(p.raw() as usize))
                {
                    *load += 1;
                }
            }
            for (dest, &dist_row) in dirty_dests.iter().zip(&dist_row) {
                let installed = splice.get(s, dest.lid);
                let pick = if s == dest.switch {
                    Some(dest.port)
                } else if dest.port == PortNum::MANAGEMENT {
                    // Sticky: keep the installed port while it is still
                    // valley-legal on the degraded graph, so the splice
                    // rewrites only what the fault broke.
                    swcols.sticky_pick(dest.switch, dest.lid, s, installed)
                } else if dist.row(dist_row)[s] == u32::MAX {
                    // The fault split the fabric: this switch can no longer
                    // reach the destination, so its row is cleared rather
                    // than left pointing into the lost component.
                    None
                } else {
                    let drow = dist.row(dist_row);
                    // Sticky selection: a repair's job is the smallest diff,
                    // not a global rebalance — keep the installed port
                    // whenever it is still on a shortest path (a port into
                    // the failed link never is: the link is gone from the
                    // graph), and fall back to least-loaded only when not.
                    let mut best: Option<(u64, PortNum)> = None;
                    for &(v, p) in g.neighbors(s) {
                        if drow[v as usize] + 1 == drow[s] {
                            if installed == Some(p) {
                                best = Some((0, p));
                                break;
                            }
                            let load = port_load[p.raw() as usize];
                            if best.is_none_or(|(bl, bp)| load < bl || (load == bl && p < bp)) {
                                best = Some((load, p));
                            }
                        }
                    }
                    let (_, port) =
                        best.ok_or_else(|| IbError::Topology("distance inversion".into()))?;
                    port_load[port.raw() as usize] += 1;
                    Some(port)
                };
                splice.set(s, dest.lid, pick);
            }
        }
        let decisions = (g.len() * dirty_dests.len()) as u64;
        Ok(splice.commit(switch_dest_vls(g), self.name(), decisions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_full_reachability, assign_lids};
    use ib_subnet::topology::basic::linear;
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn routes_linear_chain() {
        let mut t = linear(3, 2);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn routes_fat_tree() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn routes_torus() {
        let mut t = torus_2d(3, 3, 1, true);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn balances_uplinks() {
        // 1 leaf pair, 2 spines: the two distinct cross-leaf destinations
        // must not pile onto a single uplink.
        let mut t = two_level(2, 4, 2);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        let leaf0 = t.switch_levels[0][0];
        let lft = &tables.lfts[&leaf0];
        // Destinations on leaf 1 (hosts 4..8 => LIDs computed by helper):
        // collect the uplink ports used and expect both uplinks present.
        let mut ports: Vec<u8> = t.hosts[4..]
            .iter()
            .map(|&h| {
                let lid = t.subnet.node(h).ports[1].lid.unwrap();
                lft.get(lid).unwrap().raw()
            })
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert!(
            ports.len() >= 2,
            "all cross traffic on one uplink: {ports:?}"
        );
    }

    #[test]
    fn decisions_scale_with_lids_times_switches() {
        let mut t = linear(3, 2);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        // 9 LIDs (3 switches + 6 hosts) x 3 switches.
        assert_eq!(tables.decisions, 27);
    }

    #[test]
    fn empty_subnet_is_ok() {
        let s = Subnet::new();
        let tables = MinHop.compute(&s).unwrap();
        assert!(tables.lfts.is_empty());
    }

    #[test]
    fn emits_phase_spans() {
        let mut t = two_level(2, 2, 2);
        assign_lids(&mut t);
        let observer = Observer::metrics();
        MinHop
            .compute_with(&t.subnet, RoutingOptions::default(), &observer)
            .unwrap();
        let snap = observer.snapshot().expect("metrics enabled");
        for span in ["routing.minhop.distances", "routing.minhop.assign"] {
            assert!(
                snap.spans.iter().any(|s| s.name == span),
                "missing span {span}: {:?}",
                snap.spans
            );
        }
    }
}
