//! Structured fat-tree routing.
//!
//! Exploits the layered structure of a fat tree: one BFS per *leaf switch*
//! (instead of per switch, as Min-Hop needs) and deterministic d-mod-k
//! spreading of destinations across uplinks (instead of sequential load
//! accounting). That structural shortcut is why OpenSM's `ftree` is the
//! fastest engine in the paper's Fig. 7 — a property this implementation
//! reproduces by construction. Every phase is independent per unit of
//! work and fans across the configured workers, on a repair as on a full
//! compute. In order: the per-delivery-switch BFS sweep; the switch lane,
//! routed one column at a time (`swcols`); then the LFT fill, switch by
//! switch, which picks each host cell and copies the switch lane's cells
//! into the row.
//!
//! Like OpenSM's engine, it refuses topologies that are not layered
//! fat trees (edges must connect adjacent ranks, endpoints must live on
//! leaves); callers fall back to Min-Hop in that case.
//!
//! Switch-destined LIDs are routed up*/down*-legally on a dedicated
//! lane (see `swcols`) — d-mod-k valleys between sibling
//! spines would otherwise close credit loops, the caveat OpenSM's own
//! ftree documents for switch-to-switch paths.

use ib_observe::Observer;
use ib_types::{IbError, IbResult, PortNum};

use rustc_hash::FxHashMap;

use crate::engine::{RoutingEngine, RoutingOptions};
use crate::graph::{parallel_for_each, Destination, HostDistances, HostRow, SwitchGraph};
use crate::swcols::{switch_dest_vls, SwitchColumns};
use crate::tables::{Splice, VlAssignment};

/// The fat-tree engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct FatTree;

impl RoutingEngine for FatTree {
    fn name(&self) -> &'static str {
        "fat-tree"
    }

    /// Rank the graph (one BFS — the tree structure is what the engine
    /// exploits, so it is validated on every run), then the
    /// per-delivery-switch distance field and the d-mod-k fill of the dirty
    /// columns.
    ///
    /// The pick is *sticky*: the installed port is kept wherever it is
    /// still a minimal candidate, and the d-mod-k spread decides only the
    /// entries with nothing (still) valid installed. On a repair, a plain
    /// re-run of the formula would rotate every pick whose candidate
    /// *count* shrank — churning entries whose installed path never crossed
    /// the failed link and inflating the dirty-block diff past the full
    /// sweep's.
    ///
    /// The distance field rides with the tables: a full compute keeps the
    /// rows it built, and a repair follows them to its graph (removed links
    /// only) instead of re-running the BFSs, then visits a host column only
    /// at the switches whose pick the removals can have moved
    /// (`HostDistances::scope`). Sound because every carried column is
    /// minimal on some graph between the rows' build and this one, and only
    /// links were removed in between: outside the scope a switch and its
    /// installed next hop keep their distances and their cable, so the
    /// sticky pick keeps the entry there too. Without carried rows (a fresh
    /// compute, or rows an added link dropped) the scope is every switch —
    /// the same loop is the full compute.
    fn route(
        &self,
        splice: &mut Splice<'_>,
        opts: RoutingOptions,
        observer: &Observer,
    ) -> IbResult<(VlAssignment, u64)> {
        let g = splice.graph();
        // A fault cannot un-layer a fat tree, but it can disconnect a
        // switch — a broken tree errors out to the SM's fallback instead
        // of producing silent holes.
        validate_fat_tree(g, &g.ranks())?;
        let dirty_dests = splice.dirty_dests();

        // Phase 1: the distance field toward every delivery switch of a
        // host column — carried and patched, or one BFS per (non-stub)
        // delivery switch fanned across workers: the structural shortcut
        // that makes fat-tree routing the cheapest engine in Fig. 7.
        let workers = opts.effective_workers(g.len());
        let (field, carried) = {
            let _span = observer.span("routing.fat-tree.distances");
            splice.host_distances(&dirty_dests, workers)
        };
        let toward: Vec<Option<HostRow>> = dirty_dests
            .iter()
            .map(|d| match d.port {
                PortNum::MANAGEMENT => None,
                _ => field.toward(d.switch),
            })
            .collect();

        // Switch-destined columns are valley-routed via the hub on
        // their own lane instead of d-mod-k: a spine-to-spine route
        // must dip through a leaf, and two such valleys through
        // different leaves close a credit loop (see `swcols`). They are
        // routed a column at a time, before the fill copies them into
        // the rows. The hub's orientation is fault-stable, so the sticky
        // picks churn only near a lost link; those columns keep their
        // full visit.
        let swcols = {
            let _span = observer.span("routing.fat-tree.switch-lane");
            SwitchColumns::new(splice, workers, &dirty_dests)?
        };

        // The pick for one cell: the delivery port at the delivery switch,
        // the installed port while it is still minimal (one peer lookup),
        // else the (lid + switch mod count)-th minimal candidate. The
        // switch stagger keeps the spread but breaks the fabric-wide
        // symmetry of pure d-mod-k: without it, uniformly-cabled switches
        // all point the same destination at the same spine, so one lost
        // cable breaks that column at every switch at once and an
        // incremental repair can never beat a full sweep's block diff.
        let pick = |cands: &mut Candidates, s: usize, di: usize, installed: Option<PortNum>| {
            let dest = &dirty_dests[di];
            if s == dest.switch {
                return Some(dest.port);
            }
            let Some(d) = toward[di] else {
                return swcols.pick(di, s);
            };
            let here = d.at(s);
            // Split fabric: the destination lives in another component.
            // The entry is cleared rather than left pointing into it.
            if here == u32::MAX {
                return None;
            }
            let minimal = |v: usize| d.at(v).wrapping_add(1) == here;
            // Still minimal (a port into a failed link never is — the link
            // is gone from the graph).
            if installed.and_then(|p| g.peer(s, p)).is_some_and(minimal) {
                return installed;
            }
            // (No candidate is caught by layering validation for real fat
            // trees; be defensive anyway.)
            let ports = cands.of(g, s, dest.switch, minimal);
            let want = (dest.lid.raw() as usize + s) % ports.len().max(1);
            ports.get(want).copied()
        };

        // Phase 2: every switch fills its own row independently — no
        // sequential load-balancing state, so this parallelizes
        // perfectly (each worker writes only its own rows).
        let _span = observer.span("routing.fat-tree.assign");
        let visit = Visit::new(g, &dirty_dests, carried.then_some(&field));
        parallel_for_each(
            splice.rows(),
            workers,
            Candidates::default,
            |cands, s, row| {
                for &di in visit.at(s) {
                    let lid = dirty_dests[di as usize].lid;
                    row.set(lid, pick(cands, s, di as usize, row.get(lid)));
                }
            },
        );
        // The scope's oracle: a full visit after the scoped one changes
        // nothing — the switch lane checked cell by cell, by the rule its
        // column kernel computes, on one hub row per lane column.
        #[cfg(debug_assertions)]
        if carried {
            use crate::{swcols, updn};
            let orient = updn::Orientation::new(g, &g.components(), swcols::hub);
            let mut cands = Candidates::default();
            for (di, dest) in dirty_dests.iter().enumerate() {
                let lane = dest.port == PortNum::MANAGEMENT;
                let rows = lane.then(|| orient.rows_toward(dest.switch));
                for s in 0..g.len() {
                    let now = splice.get(s, dest.lid);
                    let want = match &rows {
                        Some((down, full)) => {
                            let row = orient.row(down, full);
                            updn::sticky_pick(g, row, dest, s, now, swcols::stagger)
                        }
                        None => pick(&mut cands, s, di, now),
                    };
                    debug_assert_eq!(want, now, "scoped visit missed switch {s}, {dest:?}");
                }
            }
        }
        splice.keep_host_distances(field, carried);
        let decisions = (g.len() * dirty_dests.len()) as u64;
        Ok((switch_dest_vls(g), decisions))
    }
}

/// One worker's minimal candidates of one (switch, delivery switch), in
/// port order: built once and reused for every host LID of that delivery
/// switch the switch visits in a row.
#[derive(Default)]
struct Candidates {
    key: Option<(usize, usize)>,
    ports: Vec<PortNum>,
}

impl Candidates {
    fn of(
        &mut self,
        g: &SwitchGraph,
        s: usize,
        delivery: usize,
        minimal: impl Fn(usize) -> bool,
    ) -> &[PortNum] {
        if self.key != Some((s, delivery)) {
            self.key = Some((s, delivery));
            self.ports.clear();
            let neighbors = g.neighbors(s).iter();
            let candidates = neighbors.filter(|&&(v, _)| minimal(v as usize));
            self.ports.extend(candidates.map(|&(_, p)| p));
        }
        &self.ports
    }
}

/// The dirty columns the fill visits at each switch, as indices into the
/// dirty destinations in their order: all of them, or — with a carried
/// distance field — every switch-destined column plus each host column
/// at the switches of its delivery switch's scope.
enum Visit {
    All(Vec<u32>),
    Scoped(Vec<Vec<u32>>),
}

impl Visit {
    fn new(g: &SwitchGraph, dests: &[Destination], field: Option<&HostDistances>) -> Self {
        let Some(field) = field else {
            return Self::All((0..dests.len() as u32).collect());
        };
        let mut at = vec![Vec::new(); g.len()];
        let mut scopes: FxHashMap<usize, Option<Vec<u32>>> = FxHashMap::default();
        for (di, d) in dests.iter().enumerate() {
            let scope = (d.port != PortNum::MANAGEMENT)
                .then(|| {
                    scopes
                        .entry(d.switch)
                        .or_insert_with(|| field.scope(g, d.switch))
                })
                .and_then(|scope| scope.as_deref());
            match scope {
                Some(switches) => switches
                    .iter()
                    .for_each(|&s| at[s as usize].push(di as u32)),
                None => at.iter_mut().for_each(|cols| cols.push(di as u32)),
            }
        }
        Self::Scoped(at)
    }

    fn at(&self, s: usize) -> &[u32] {
        match self {
            Self::All(all) => all,
            Self::Scoped(at) => &at[s],
        }
    }
}

/// A fat tree must be layered: every switch-switch edge joins adjacent
/// ranks. (Endpoints may sit on any rank-0 switch; `SwitchGraph::ranks`
/// already guarantees endpoint-bearing switches are rank 0.)
fn validate_fat_tree(g: &SwitchGraph, ranks: &[u32]) -> IbResult<()> {
    for s in 0..g.len() {
        if ranks[s] == u32::MAX {
            // A split fabric: `s` sits in a component with no ranked
            // seed. Its edges all stay inside that component (a BFS
            // would have crossed any cable to a ranked switch), so
            // there is nothing to validate — the reachable part of the
            // tree is still layered and still routable.
            continue;
        }
        for &(v, _) in g.neighbors(s) {
            let (a, b) = (ranks[s], ranks[v as usize]);
            if a.abs_diff(b) != 1 {
                return Err(IbError::Topology(format!(
                    "not a layered fat tree: edge joins ranks {a} and {b}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_full_reachability, assign_lids, host_lid};
    use ib_subnet::topology::fattree::{three_level, two_level};
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn routes_two_level() {
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn routes_three_level() {
        let mut t = three_level(2, 2, 2, 2);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        assert_full_reachability(&t.subnet, &tables);
    }

    #[test]
    fn rejects_torus() {
        let mut t = torus_2d(3, 3, 1, true);
        assign_lids(&mut t);
        assert!(FatTree.compute(&t.subnet).is_err());
    }

    #[test]
    fn spreads_destinations_over_uplinks() {
        let mut t = two_level(2, 6, 3);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        let leaf0 = t.switch_levels[0][0];
        let lft = &tables.lfts[&leaf0];
        let mut ports: Vec<u8> = (6..12)
            .map(|i| lft.get(host_lid(&t, i)).unwrap().raw())
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert!(
            ports.len() == 3,
            "six cross-leaf destinations over three uplinks, got {ports:?}"
        );
    }

    #[test]
    fn different_vms_on_same_leaf_can_take_different_spines() {
        // §V-A: prepopulated LIDs imitate LMC — distinct paths to different
        // LIDs on the same hypervisor/leaf. With d-mod-k spreading, two
        // consecutive LIDs on the same destination leaf use different
        // uplinks from a remote leaf.
        let mut t = two_level(2, 4, 2);
        assign_lids(&mut t);
        let tables = FatTree.compute(&t.subnet).unwrap();
        let leaf0 = t.switch_levels[0][0];
        let lft = &tables.lfts[&leaf0];
        let p_a = lft.get(host_lid(&t, 4)).unwrap();
        let p_b = lft.get(host_lid(&t, 5)).unwrap();
        assert_ne!(p_a, p_b);
    }

    #[test]
    fn fewer_bfs_than_minhop_decisions_equal() {
        // Both engines make |switches| x |LIDs| decisions; the fat-tree
        // engine just reaches them with fewer BFS sweeps.
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let ft = FatTree.compute(&t.subnet).unwrap();
        let mh = crate::minhop::MinHop.compute(&t.subnet).unwrap();
        assert_eq!(ft.decisions, mh.decisions);
    }
}
