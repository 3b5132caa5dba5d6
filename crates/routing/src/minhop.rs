//! Min-Hop routing: OpenSM's default engine.
//!
//! Shortest switch distances — the host distance field the fat-tree
//! engine routes on too (`HostDistances`: one BFS per delivery switch,
//! fanned across the configured workers, carried with the tables and
//! followed per lost link by a repair) — then for every destination LID
//! each switch picks the least-loaded among its minimal next-hop ports.
//! Load balancing is the sequential, destination-ordered port-counting
//! scheme OpenSM uses, so the computation has an inherently serial phase
//! on top of the parallel distance rows — one reason Min-Hop costs more
//! than structured fat-tree routing in Fig. 7.
//!
//! Switch-destined LIDs are routed up*/down*-legally on a dedicated
//! lane (see `swcols`) — least-loaded valleys between sibling
//! spines would otherwise close credit loops on the host lane.

use ib_observe::Observer;
use ib_types::{IbError, IbResult, PortNum};

use crate::engine::{RoutingEngine, RoutingOptions};
use crate::graph::{Destination, HostRow};
use crate::swcols::{switch_dest_vls, SwitchColumns};
use crate::tables::{Splice, VlAssignment};

/// The Min-Hop engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinHop;

impl RoutingEngine for MinHop {
    fn name(&self) -> &'static str {
        "minhop"
    }

    /// The distance field toward the dirty destinations' delivery
    /// switches, then the destination-ordered least-loaded assignment of
    /// the dirty columns.
    ///
    /// Port loads are seeded from the clean columns, so repaired picks
    /// balance against the traffic that stays put. Every cell of a dirty
    /// column is visited: a pick reads the loads of every earlier pick of
    /// its switch, so the fat-tree engine's scoped visit does not carry
    /// over as it is.
    fn route(
        &self,
        splice: &mut Splice<'_>,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<(VlAssignment, u64)> {
        let g = splice.graph();
        let workers = opts.effective_workers(g.len());
        // Destination order is the graph's, so the serial balancing below
        // is deterministic for any worker count.
        let dirty_dests = splice.dirty_dests();
        // Switch-destined columns take no part in the load accounting
        // (below), so they must not seed it either.
        let mut clean_hosts: Vec<Destination> = splice.clean_dests();
        clean_hosts.retain(|d| d.port != PortNum::MANAGEMENT);

        // Carried and followed, or built: exact for `g` either way, so
        // the picks do not depend on which.
        let (field, carried) = {
            let _span = observer.span("routing.minhop.distances");
            splice.host_distances(&dirty_dests, workers)
        };
        let toward: Vec<Option<HostRow>> = dirty_dests
            .iter()
            .map(|d| match d.port {
                PortNum::MANAGEMENT => None,
                _ => field.toward(d.switch),
            })
            .collect();

        // Switch-destined columns are valley-routed via the hub on their
        // own lane instead of load-balanced: a spine-to-spine route must
        // dip through a leaf, and two such valleys through different
        // leaves close a credit loop (see `swcols`) — rows for the dirty
        // columns' delivery switches only.
        let swcols = SwitchColumns::new(g, workers, &dirty_dests);

        // Serial assignment: OpenSM's destination-ordered port-load
        // balancing. Each pick reads the loads left by every earlier pick
        // of its switch — and only of its switch, so the rows are visited
        // switch-major, each once, with the columns still assigned in
        // destination order within it.
        let _span = observer.span("routing.minhop.assign");
        let stride = 2 + g.neighbors_max_port().unwrap_or(PortNum::MANAGEMENT).raw() as usize;
        let mut port_load: Vec<u64> = vec![0; stride];
        for (s, row) in splice.rows().iter_mut().enumerate() {
            // Seed the loads from the clean host columns (delivery rows
            // never count toward load).
            port_load.fill(0);
            for dest in clean_hosts.iter().filter(|d| d.switch != s) {
                if let Some(load) = row
                    .get(dest.lid)
                    .and_then(|p| port_load.get_mut(p.raw() as usize))
                {
                    *load += 1;
                }
            }
            for (dest, toward) in dirty_dests.iter().zip(&toward) {
                let installed = row.get(dest.lid);
                let pick = match toward {
                    _ if s == dest.switch => Some(dest.port),
                    None => swcols.sticky_pick(dest.switch, dest.lid, s, installed),
                    // The destination sits in another component (a split
                    // fabric): the entry is cleared — an explicit hole, not
                    // a stale route into the lost component — and routing
                    // proceeds for every reachable pair.
                    Some(d) if d.at(s) == u32::MAX => None,
                    Some(d) => {
                        // Minimal candidates: neighbors exactly one hop
                        // closer. Sticky selection: a repair's job is the
                        // smallest diff, not a global rebalance — keep the
                        // installed port whenever it is still on a shortest
                        // path (a port into a failed link never is: the
                        // link is gone from the graph), and fall back to
                        // least-loaded only when not.
                        let mut best: Option<(u64, PortNum)> = None;
                        for &(v, p) in g.neighbors(s) {
                            if d.at(v as usize).wrapping_add(1) == d.at(s) {
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
                    }
                };
                row.set(dest.lid, pick);
            }
        }
        splice.keep_host_distances(field, carried);
        let decisions = (g.len() * dirty_dests.len()) as u64;
        Ok((switch_dest_vls(g), decisions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_full_reachability, assign_lids};
    use ib_subnet::topology::basic::linear;
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::torus::torus_2d;
    use ib_subnet::Subnet;

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
