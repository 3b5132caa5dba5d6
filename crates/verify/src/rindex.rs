//! The reverse route index: per-(switch, port) destination sets.
//!
//! [`affected_destinations`](crate::affected_destinations) answers "which
//! destination columns cross this link?" with a two-row scan over every
//! registered LID — O(LIDs) per fault, re-done from scratch on every trap.
//! The [`ReverseRouteIndex`] inverts the installed tables once —
//! `(switch, out-port) -> { destination LIDs forwarded there }`, each set a
//! bitset over raw LIDs — so a link-down trap reads its dirty set off the
//! two ends' bitsets, already in LID order, and the index is maintained
//! incrementally, two bit flips per changed cell
//! ([`ReverseRouteIndex::apply_changes`]), as repair sweeps splice dirty
//! columns and live migrations swap or copy theirs. A cell move stays
//! O(1): sorted LID lists would read as fast but shift hundreds of LIDs
//! per move, which a migration's ≈ 1600 moves feel.
//!
//! What that buys, measured on the 5832-node tree (972 switches, 6804
//! LIDs, a mid–core cable with 685 dirty columns; 2-vCPU x86 box, five
//! runs): the two-row scan takes 102–201 µs, the index read 3.7–7.3 µs —
//! against a repair that spends ≈ 10 ms before its verifier gate — while
//! building the index costs 23–54 ms on every full sweep and 25.6 MB of
//! heap. Whether it earns that is an open decision (ROADMAP); until it is
//! taken the index stays the SM's runtime dirty-set source and the scan
//! its oracle.
//!
//! The index is *derived* state and therefore distrusted by construction:
//! [`ReverseRouteIndex::affected`] is debug-asserted against the two-row
//! scan at every repair, and [`ReverseRouteIndex::mismatches`] rebuilds the
//! index from the installed tables and reports any divergence — the
//! soak harness runs that check after every event.

use ib_routing::CellChange;
use ib_subnet::{NodeId, Subnet};
use ib_types::{Lid, PortNum};
use rustc_hash::FxHashMap;

/// Per-switch, per-out-port sets of destination LIDs, mirroring a set of
/// forwarding tables row-for-row. See the module docs for the contract.
#[derive(Clone, Debug, Default)]
pub struct ReverseRouteIndex {
    /// `ports[switch][port.raw()]` = the bitset, over raw LIDs, of the
    /// destinations whose row at `switch` forwards out `port`: bit
    /// `lid % 64` of word `lid / 64`. Both vectors grow on demand; absent
    /// ports and words are empty.
    ports: FxHashMap<NodeId, Vec<Vec<u64>>>,
}

/// The word and bit of `raw` in a LID bitset.
fn bit(raw: usize) -> (usize, u64) {
    (raw / 64, 1 << (raw % 64))
}

/// `bits` with its trailing empty words cut off: two bitsets hold the same
/// set exactly when their trimmed words are equal.
fn trimmed(bits: &[u64]) -> &[u64] {
    let len = bits.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    &bits[..len]
}

fn count(bits: &[u64]) -> u32 {
    bits.iter().map(|w| w.count_ones()).sum()
}

/// Sets bit `raw` of `sets[slot]`, growing both to hold it; a set that
/// grows is sized for at least `words` words.
fn set_bit(sets: &mut Vec<Vec<u64>>, slot: usize, raw: usize, words: usize) {
    if sets.len() <= slot {
        sets.resize_with(slot + 1, Vec::new);
    }
    let bits = &mut sets[slot];
    let (w, b) = bit(raw);
    if bits.len() <= w {
        bits.resize(words.max(w + 1), 0);
    }
    bits[w] |= b;
}

impl ReverseRouteIndex {
    /// Builds the index from the LFTs *installed* in the subnet — every
    /// node that holds a table, alive or not, exactly the rows the two-row
    /// scan would read: one pass over each row, setting one bit per entry.
    #[must_use]
    pub fn from_installed(subnet: &Subnet) -> Self {
        let mut idx = Self::default();
        for node in subnet.nodes() {
            let Some(lft) = node.lft() else { continue };
            let entries = lft.entries();
            let words = entries.len().div_ceil(64);
            let mut sets: Vec<Vec<u64>> = Vec::new();
            for (raw, port) in entries.iter().enumerate() {
                if let Some(port) = port {
                    set_bit(&mut sets, port.raw() as usize, raw, words);
                }
            }
            if !sets.is_empty() {
                idx.ports.insert(node.id, sets);
            }
        }
        idx
    }

    fn insert(&mut self, sw: NodeId, port: PortNum, lid: Lid) {
        let sets = self.ports.entry(sw).or_default();
        set_bit(sets, port.raw() as usize, lid.raw() as usize, 0);
    }

    fn remove(&mut self, sw: NodeId, port: PortNum, lid: Lid) {
        let (w, b) = bit(lid.raw() as usize);
        if let Some(word) = self.ports.get_mut(&sw).and_then(|sets| {
            let bits = sets.get_mut(port.raw() as usize)?;
            bits.get_mut(w)
        }) {
            *word &= !b;
        }
    }

    /// The bitset of destinations whose row at `sw` forwards out `port`
    /// (one side of a link only — [`ReverseRouteIndex::affected`] unions
    /// both ends).
    fn bits(&self, sw: NodeId, port: PortNum) -> &[u64] {
        let sets = self.ports.get(&sw).map_or(&[][..], Vec::as_slice);
        sets.get(port.raw() as usize).map_or(&[], Vec::as_slice)
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
        let near = self.bits(node, port);
        let remote = (subnet.node(node).ports.get(port.raw() as usize)).and_then(|p| p.remote);
        let far = remote.map_or(&[][..], |r| self.bits(r.node, r.port));
        let mut out: Vec<Lid> = Vec::new();
        for w in 0..near.len().max(far.len()) {
            // The union of both ends, read in LID order: sorted and
            // distinct by construction.
            let mut word = near.get(w).copied().unwrap_or(0) | far.get(w).copied().unwrap_or(0);
            while word != 0 {
                let lid = Lid::from_raw((w * 64 + word.trailing_zeros() as usize) as u16);
                word &= word - 1;
                if subnet.endpoint_of(lid).is_some() {
                    out.push(lid);
                }
            }
        }
        out
    }

    /// Incremental maintenance for an in-place repair or a migration's
    /// direct LFT writes: moves each changed cell's destination from its old
    /// out-port set to its new one — two bit flips per cell, whatever the
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
        let no_sets: &[Vec<u64>] = &[];
        for sw in switches {
            let a = self.ports.get(&sw).map_or(no_sets, Vec::as_slice);
            let b = fresh.ports.get(&sw).map_or(no_sets, Vec::as_slice);
            for p in 0..a.len().max(b.len()) {
                let ia = trimmed(a.get(p).map_or(&[], Vec::as_slice));
                let ib = trimmed(b.get(p).map_or(&[], Vec::as_slice));
                if ia != ib {
                    out.push(format!(
                        "reverse index stale at ({sw:?}, port {p}): index has {} dest(s), installed rows have {}",
                        count(ia),
                        count(ib)
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

    /// `installed` with hosts 0..4 moved to the LIDs either side of the
    /// first two word boundaries.
    fn at_word_edges() -> (ib_subnet::topology::BuiltTopology, [Lid; 4]) {
        let mut t = two_level(3, 3, 2);
        assign_lids(&mut t);
        let edges = [63, 64, 127, 128].map(Lid::from_raw);
        for (&h, &lid) in t.hosts.clone().iter().zip(&edges) {
            t.subnet.assign_port_lid(h, PortNum::new(1), lid).unwrap();
        }
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        (t, edges)
    }

    /// The cells of `lid` at every switch, moved to another cabled port
    /// (what a migration's direct LFT writes do), applied to the subnet.
    fn move_column(subnet: &mut Subnet, lid: Lid) -> Vec<CellChange> {
        let mut cells = Vec::new();
        for sw in subnet.switches().map(|n| n.id).collect::<Vec<_>>() {
            let old = subnet.lft(sw).unwrap().get(lid);
            let new = (subnet.node(sw).connected_ports())
                .map(|(p, _)| p)
                .find(|&p| Some(p) != old);
            subnet.lft_mut(sw).unwrap().assign(lid, new);
            cells.push(CellChange {
                switch: sw,
                lid,
                old,
                new,
            });
        }
        cells
    }

    #[test]
    fn lids_either_side_of_a_word_boundary() {
        let (mut t, edges) = at_word_edges();
        let mut idx = ReverseRouteIndex::from_installed(&t.subnet);
        assert_agrees(&idx, &t.subnet);
        let sw = t.subnet.switches().next().unwrap().id;
        for lid in edges {
            let port = t.subnet.lft(sw).unwrap().get(lid).unwrap();
            let (w, b) = bit(lid.raw() as usize);
            assert_ne!(idx.bits(sw, port)[w] & b, 0, "{lid}");
        }
        for lid in edges {
            let cells = move_column(&mut t.subnet, lid);
            idx.apply_changes(&cells);
            assert!(idx.mismatches(&t.subnet).is_empty(), "{lid}");
            assert_agrees(&idx, &t.subnet);
        }
    }

    /// A dynamic-LID VM creation registers a LID past every table's end
    /// and grows the rows to hold it: the index grows with the cells.
    #[test]
    fn apply_changes_grows_past_the_built_table() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let mut idx = ReverseRouteIndex::from_installed(&t.subnet);
        let sw = t.subnet.switches().next().unwrap().id;
        let built = t.subnet.lft(sw).unwrap().entries().len();
        let (old, new) = (t.subnet.lids()[0], Lid::from_raw(built as u16 + 100));
        let host = t.subnet.endpoint_of(old).unwrap();
        t.subnet.assign_port_lid(host.node, host.port, new).unwrap();
        let mut cells = Vec::new();
        for sw in t.subnet.switches().map(|n| n.id).collect::<Vec<_>>() {
            let lft = t.subnet.lft_mut(sw).unwrap();
            let port = lft.get(old);
            lft.assign(new, port);
            lft.clear(old);
            cells.push(CellChange {
                switch: sw,
                lid: new,
                old: None,
                new: port,
            });
            cells.push(CellChange {
                switch: sw,
                lid: old,
                old: port,
                new: None,
            });
        }
        assert!(t.subnet.lft(sw).unwrap().entries().len() > built);
        idx.apply_changes(&cells);
        assert!(idx.mismatches(&t.subnet).is_empty());
        assert_agrees(&idx, &t.subnet);
    }

    #[test]
    fn removing_a_cell_that_was_never_indexed_is_a_no_op() {
        let (t, _) = installed(EngineKind::MinHop);
        let mut idx = ReverseRouteIndex::from_installed(&t.subnet);
        let before = idx.ports.clone();
        let sw = t.subnet.switches().next().unwrap().id;
        let host = t.subnet.hcas().next().unwrap().id;
        let lid = t.subnet.lids()[0];
        let port = t.subnet.lft(sw).unwrap().get(lid).unwrap();
        let other = (1..=u8::MAX)
            .map(PortNum::new)
            .find(|&p| p != port)
            .unwrap();
        let never = [
            (host, port, lid),               // a node with no row
            (sw, PortNum::new(200), lid),    // a port past the sets
            (sw, port, Lid::from_raw(5000)), // a LID past the words
            (sw, other, lid),                // a port the LID leaves by
        ];
        let cells: Vec<CellChange> = (never.iter())
            .map(|&(switch, p, lid)| CellChange {
                switch,
                lid,
                old: Some(p),
                new: None,
            })
            .collect();
        idx.apply_changes(&cells);
        assert_eq!(idx.ports, before);
        assert!(idx.mismatches(&t.subnet).is_empty());
    }

    #[test]
    fn mismatches_name_one_flipped_cell() {
        let (t, _) = at_word_edges();
        let mut idx = ReverseRouteIndex::from_installed(&t.subnet);
        let sw = t.subnet.switches().next().unwrap().id;
        let lid = Lid::from_raw(64);
        let port = t.subnet.lft(sw).unwrap().get(lid).unwrap();
        let n = count(idx.bits(sw, port));
        idx.remove(sw, port, lid);
        assert_eq!(
            idx.mismatches(&t.subnet),
            vec![format!(
                "reverse index stale at ({sw:?}, port {}): index has {} dest(s), installed rows have {n}",
                port.raw(),
                n - 1
            )]
        );
    }

    /// A column that bounces across one cable — out `p` at one end, back
    /// out the far port at the other — is listed once.
    #[test]
    fn affected_is_sorted_distinct_and_registered() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let mut idx = ReverseRouteIndex::from_installed(&t.subnet);
        let (a, p, far) = (t.subnet.switches())
            .flat_map(|n| n.connected_ports().map(move |(p, r)| (n.id, p, r)))
            .find(|&(_, _, r)| t.subnet.node(r.node).is_switch())
            .unwrap();
        let lid = (t.subnet.lids().into_iter())
            .find(|&lid| t.subnet.lft(a).unwrap().get(lid) == Some(p))
            .unwrap();
        let old = t.subnet.lft(far.node).unwrap().get(lid);
        t.subnet.lft_mut(far.node).unwrap().set(lid, far.port);
        idx.apply_changes(&[CellChange {
            switch: far.node,
            lid,
            old,
            new: Some(far.port),
        }]);
        let released = t.subnet.lids()[1];
        t.subnet.clear_lid(released).unwrap();
        let got = idx.affected(&t.subnet, a, p);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "{got:?}");
        assert!(got.iter().all(|&l| t.subnet.endpoint_of(l).is_some()));
        assert_eq!(got.iter().filter(|&&l| l == lid).count(), 1);
        assert_eq!(got, affected_destinations(&t.subnet, a, p));
        assert_agrees(&idx, &t.subnet);
    }
}
