//! The reverse route index: per-(switch, port) destination sets.
//!
//! [`affected_destinations`](crate::affected_destinations) answers "which
//! destination columns cross this link?" with a two-row scan over every
//! registered LID — O(LIDs) per fault, re-done from scratch on every trap.
//! The [`ReverseRouteIndex`] inverts the installed tables once —
//! `(switch, out-port) -> { destination LIDs forwarded there }` — so a
//! link-down trap reads its dirty set off two hash-set lookups, O(dirty),
//! and the index is maintained incrementally, cell by changed cell
//! ([`ReverseRouteIndex::apply_changes`]), as repair sweeps splice dirty
//! columns and live migrations swap or copy theirs.
//!
//! What that buys, measured on the 5832-node tree (972 switches, 6804
//! LIDs, a mid–core cable with 684 dirty columns): the two-row scan takes
//! 118–120 µs, the index read 11.5–11.8 µs — against a repair that spends
//! ≈ 10 ms before its verifier gate — while building the index costs
//! 145–150 ms on every full sweep and ≈ 31 MB of resident memory. Whether
//! it earns that is an open decision (ROADMAP); until it is taken the index
//! stays the SM's runtime dirty-set source and the scan its oracle.
//!
//! The index is *derived* state and therefore distrusted by construction:
//! [`ReverseRouteIndex::affected`] is debug-asserted against the two-row
//! scan at every repair, and [`ReverseRouteIndex::mismatches`] rebuilds the
//! index from the installed tables and reports any divergence — the
//! soak harness runs that check after every event.

use ib_routing::CellChange;
use ib_subnet::{NodeId, Subnet};
use ib_types::{Lid, PortNum};
use rustc_hash::{FxHashMap, FxHashSet};

/// Per-switch, per-out-port sets of destination LIDs, mirroring a set of
/// forwarding tables row-for-row. See the module docs for the contract.
#[derive(Clone, Debug, Default)]
pub struct ReverseRouteIndex {
    /// `ports[switch][port.raw()]` = destinations whose row at `switch`
    /// forwards out `port`. The vector is grown on demand; absent entries
    /// mean an empty set.
    ports: FxHashMap<NodeId, Vec<FxHashSet<Lid>>>,
}

impl ReverseRouteIndex {
    /// Builds the index from the LFTs *installed* in the subnet — every
    /// node that holds a table, alive or not, exactly the rows the two-row
    /// scan would read.
    #[must_use]
    pub fn from_installed(subnet: &Subnet) -> Self {
        let mut idx = Self::default();
        for node in subnet.nodes() {
            if let Some(lft) = node.lft() {
                for (lid, port) in lft.iter() {
                    idx.insert(node.id, port, lid);
                }
            }
        }
        idx
    }

    fn insert(&mut self, sw: NodeId, port: PortNum, lid: Lid) {
        let sets = self.ports.entry(sw).or_default();
        let slot = port.raw() as usize;
        if sets.len() <= slot {
            sets.resize_with(slot + 1, FxHashSet::default);
        }
        sets[slot].insert(lid);
    }

    fn remove(&mut self, sw: NodeId, port: PortNum, lid: Lid) {
        if let Some(sets) = self.ports.get_mut(&sw) {
            if let Some(set) = sets.get_mut(port.raw() as usize) {
                set.remove(&lid);
            }
        }
    }

    /// The destinations whose row at `sw` forwards out `port` (one side of
    /// a link only — [`ReverseRouteIndex::affected`] unions both ends).
    #[must_use]
    pub fn destinations_via(&self, sw: NodeId, port: PortNum) -> Option<&FxHashSet<Lid>> {
        self.ports.get(&sw)?.get(port.raw() as usize)
    }

    /// The dirty destination set of a link fault at `(node, port)`:
    /// registered LIDs routed across the link in either direction, sorted
    /// ascending — the O(dirty) answer to the same question
    /// [`affected_destinations`](crate::affected_destinations) scans for.
    ///
    /// Like the scan, this follows the *cabling* (`remote`), not the live
    /// link state, so it works on downed links; and it filters to LIDs
    /// still registered, so rows left behind for released LIDs never
    /// resurrect them.
    #[must_use]
    pub fn affected(&self, subnet: &Subnet, node: NodeId, port: PortNum) -> Vec<Lid> {
        let mut ends: Vec<(NodeId, PortNum)> = vec![(node, port)];
        if let Some(remote) = subnet
            .node(node)
            .ports
            .get(port.raw() as usize)
            .and_then(|p| p.remote)
        {
            ends.push((remote.node, remote.port));
        }
        let mut out: Vec<Lid> = Vec::new();
        for (n, p) in ends {
            if let Some(set) = self.destinations_via(n, p) {
                out.extend(
                    set.iter()
                        .copied()
                        .filter(|&lid| subnet.endpoint_of(lid).is_some()),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Incremental maintenance for an in-place repair or a migration's
    /// direct LFT writes: moves each changed cell's destination from its old
    /// out-port set to its new one — O(changed cells), whatever the
    /// fabric's size.
    pub fn apply_changes(&mut self, cells: &[CellChange]) {
        for cell in cells {
            if let Some(p) = cell.old {
                self.remove(cell.switch, p, cell.lid);
            }
            if let Some(p) = cell.new {
                self.insert(cell.switch, p, cell.lid);
            }
        }
    }

    /// The equivalence audit: rebuilds a fresh index from the installed
    /// tables and reports every `(switch, port)` whose destination set
    /// disagrees — empty iff this index answers every possible
    /// [`ReverseRouteIndex::affected`] query exactly like the two-row scan
    /// would. The chaos soak runs this after every event.
    #[must_use]
    pub fn mismatches(&self, subnet: &Subnet) -> Vec<String> {
        let fresh = Self::from_installed(subnet);
        let mut out = Vec::new();
        let mut switches: Vec<NodeId> = self
            .ports
            .keys()
            .chain(fresh.ports.keys())
            .copied()
            .collect();
        switches.sort_unstable();
        switches.dedup();
        static EMPTY: &[FxHashSet<Lid>] = &[];
        for sw in switches {
            let a = self.ports.get(&sw).map_or(EMPTY, Vec::as_slice);
            let b = fresh.ports.get(&sw).map_or(EMPTY, Vec::as_slice);
            for p in 0..a.len().max(b.len()) {
                let empty = FxHashSet::default();
                let ia = a.get(p).unwrap_or(&empty);
                let ib = b.get(p).unwrap_or(&empty);
                if ia != ib {
                    out.push(format!(
                        "reverse index stale at ({sw:?}, port {p}): index has {} dest(s), installed rows have {}",
                        ia.len(),
                        ib.len()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affected_destinations;
    use ib_routing::testutil::assign_lids;
    use ib_routing::{EngineKind, RoutingTables};
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::torus::torus_2d;

    fn installed(engine: EngineKind) -> (ib_subnet::topology::BuiltTopology, RoutingTables) {
        let mut t = two_level(3, 3, 2);
        assign_lids(&mut t);
        let tables = engine.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        (t, tables)
    }

    /// The index must answer every (switch, port) exactly like the scan.
    fn assert_agrees(idx: &ReverseRouteIndex, subnet: &Subnet) {
        for sw in subnet.switches().map(|n| n.id).collect::<Vec<_>>() {
            let ports = subnet.node(sw).ports.len();
            for p in 1..ports {
                let port = PortNum::new(p as u8);
                assert_eq!(
                    idx.affected(subnet, sw, port),
                    affected_destinations(subnet, sw, port),
                    "({sw:?}, {port})"
                );
            }
        }
    }

    #[test]
    fn fresh_index_equals_the_scan_on_a_fat_tree() {
        let (t, _) = installed(EngineKind::MinHop);
        let idx = ReverseRouteIndex::from_installed(&t.subnet);
        assert_agrees(&idx, &t.subnet);
        assert!(idx.mismatches(&t.subnet).is_empty());
    }

    #[test]
    fn fresh_index_equals_the_scan_on_a_torus() {
        let mut t = torus_2d(3, 3, 1, true);
        assign_lids(&mut t);
        let tables = EngineKind::Dfsssp.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        assert_agrees(&ReverseRouteIndex::from_installed(&t.subnet), &t.subnet);
    }

    #[test]
    fn column_splice_keeps_the_index_in_sync() {
        let (mut t, mut tables) = installed(EngineKind::MinHop);
        let mut idx = ReverseRouteIndex::from_installed(&t.subnet);
        // Re-route one destination column with a degraded recompute and
        // splice it, updating the index incrementally.
        let (node, port) = t
            .subnet
            .switches()
            .flat_map(|n| n.connected_ports().map(move |(p, ep)| (n.id, p, ep.node)))
            .find(|&(_, _, peer)| t.subnet.node(peer).is_switch())
            .map(|(n, p, _)| (n, p))
            .unwrap();
        let dirty = affected_destinations(&t.subnet, node, port);
        assert!(!dirty.is_empty());
        t.subnet.set_link_down(node, port).unwrap();
        let log = EngineKind::MinHop
            .build()
            .repair_with_graph(
                &ib_routing::SwitchGraph::build(&t.subnet).unwrap(),
                ib_routing::RoutingOptions::default(),
                &mut tables,
                &dirty,
                &ib_observe::Observer::disabled(),
            )
            .unwrap();
        assert!(!log.cells.is_empty());
        tables.install(&mut t.subnet).unwrap();
        idx.apply_changes(&log.cells);
        assert!(idx.mismatches(&t.subnet).is_empty());
        assert_agrees(&idx, &t.subnet);
    }

    #[test]
    fn apply_changes_follows_out_of_band_row_edits() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let mut idx = ReverseRouteIndex::from_installed(&t.subnet);
        // Mutate one row behind the index's back (what a migration's
        // direct LFT SMPs do), then hand the index just that cell.
        let lid = t.subnet.lids()[0];
        let sw = t.subnet.switches().next().unwrap().id;
        let old = t.subnet.lft(sw).unwrap().get(lid).unwrap();
        let other = (1..t.subnet.node(sw).ports.len() as u8)
            .map(PortNum::new)
            .find(|&p| p != old)
            .unwrap();
        t.subnet.lft_mut(sw).unwrap().set(lid, other);
        assert!(!idx.mismatches(&t.subnet).is_empty(), "index is now stale");
        idx.apply_changes(&[CellChange {
            switch: sw,
            lid,
            old: Some(old),
            new: Some(other),
        }]);
        assert!(idx.mismatches(&t.subnet).is_empty());
        assert_agrees(&idx, &t.subnet);
    }

    #[test]
    fn released_lids_never_resurface_in_affected_sets() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let idx = ReverseRouteIndex::from_installed(&t.subnet);
        // Deregister a LID while its rows are still installed: the scan
        // skips it (it only walks registered LIDs), so the index must too.
        let lid = t.subnet.lids()[0];
        t.subnet.clear_lid(lid).unwrap();
        assert_agrees(&idx, &t.subnet);
    }
}
