//! Channel dependency graphs (CDGs) and cycle search.
//!
//! A *channel* is a directed switch-to-switch link `(switch, out-port)`. A
//! dependency `A → B` exists when some routed packet may hold channel `A`
//! while requesting channel `B`. Deadlock freedom on a virtual lane is
//! equivalent to the acyclicity of that lane's CDG (Duato, 1996 — reference
//! [20] of the paper); DFSSSP and LASH both enforce it constructively, and
//! §VI-C's transition analysis asks the same question of the *union*
//! `R_old ∪ R_new` while a live migration is in flight.

use rustc_hash::{FxHashMap, FxHashSet};

use crate::graph::{Destination, SwitchGraph};
use crate::tables::RoutingTables;

/// A directed switch-to-switch channel.
pub type Channel = (u32, u8);

/// A channel dependency graph with interned channels, edge witnesses, and
/// cycle search.
#[derive(Clone, Debug, Default)]
pub struct Cdg {
    channels: Vec<Channel>,
    index: FxHashMap<Channel, usize>,
    /// Adjacency sets (dedup'd).
    out: Vec<FxHashSet<usize>>,
    /// One destination LID that contributes each edge (first writer wins) —
    /// the handle DFSSSP uses to lift a flow out of a cycle.
    witness: FxHashMap<(usize, usize), u16>,
    /// Finer-grained witness: one (source switch, destination LID) path
    /// per edge, for per-path lifting.
    pair_witness: FxHashMap<(usize, usize), (u32, u16)>,
    /// A switch-LID-destination witness per edge, when one exists — the
    /// productive kind to lift, since host in-trees are jointly acyclic on
    /// up*-down* fabrics and only switch-LID paths close cycles there.
    switch_witness: FxHashMap<(usize, usize), (u32, u16)>,
    /// Number of paths contributing each edge (Domke's edge weight: the
    /// cheapest edge of a cycle to dissolve is the least-used one).
    edge_count: FxHashMap<(usize, usize), u32>,
    num_edges: usize,
}

impl Cdg {
    /// An empty CDG.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a channel, returning its dense id.
    pub fn intern(&mut self, ch: Channel) -> usize {
        if let Some(&i) = self.index.get(&ch) {
            return i;
        }
        let i = self.channels.len();
        self.channels.push(ch);
        self.index.insert(ch, i);
        self.out.push(FxHashSet::default());
        i
    }

    /// The channel behind a dense id.
    #[must_use]
    pub fn channel(&self, id: usize) -> Channel {
        self.channels[id]
    }

    /// Adds a dependency edge; `witness` names one destination LID whose
    /// routes induce it. Returns true if the edge was new.
    pub fn add_edge(&mut self, from: usize, to: usize, witness: u16) -> bool {
        if self.out[from].insert(to) {
            self.witness.insert((from, to), witness);
            self.num_edges += 1;
            true
        } else {
            false
        }
    }

    /// Removes an edge (used by LASH to roll back a tentative path).
    pub fn remove_edge(&mut self, from: usize, to: usize) {
        if self.out[from].remove(&to) {
            self.witness.remove(&(from, to));
            self.pair_witness.remove(&(from, to));
            self.switch_witness.remove(&(from, to));
            self.edge_count.remove(&(from, to));
            self.num_edges -= 1;
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of dependency edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The witness LID of an edge, if recorded.
    #[must_use]
    pub fn witness_of(&self, from: usize, to: usize) -> Option<u16> {
        self.witness.get(&(from, to)).copied()
    }

    /// Adds an edge witnessed by a (source switch, destination LID) path.
    /// Returns true if the edge was new.
    pub fn add_pair_edge(&mut self, from: usize, to: usize, pair: (u32, u16)) -> bool {
        let fresh = self.add_edge(from, to, pair.1);
        if fresh {
            self.pair_witness.insert((from, to), pair);
        }
        *self.edge_count.entry((from, to)).or_insert(0) += 1;
        fresh
    }

    /// Number of paths contributing an edge (only tracked for edges added
    /// through [`Cdg::add_pair_edge`]).
    #[must_use]
    pub fn edge_count_of(&self, from: usize, to: usize) -> u32 {
        self.edge_count.get(&(from, to)).copied().unwrap_or(0)
    }

    /// The (source switch, destination LID) witness of an edge.
    #[must_use]
    pub fn pair_witness_of(&self, from: usize, to: usize) -> Option<(u32, u16)> {
        self.pair_witness.get(&(from, to)).copied()
    }

    /// Records a switch-LID witness for an edge.
    pub fn add_switch_witness(&mut self, from: usize, to: usize, pair: (u32, u16)) {
        self.switch_witness.entry((from, to)).or_insert(pair);
    }

    /// The switch-LID witness of an edge, if any path to a switch LID
    /// contributes it.
    #[must_use]
    pub fn switch_pair_witness_of(&self, from: usize, to: usize) -> Option<(u32, u16)> {
        self.switch_witness.get(&(from, to)).copied()
    }

    /// Finds a dependency cycle, returned as a channel-id sequence where
    /// each element depends on the next and the last depends on the first.
    /// Returns `None` when the CDG is acyclic.
    #[must_use]
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.channels.len();
        let mut color = vec![WHITE; n];
        let mut parent = vec![usize::MAX; n];

        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            // Iterative DFS with explicit stack of (node, iterator state).
            let mut stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
            color[start] = GRAY;
            let succ: Vec<usize> = self.out[start].iter().copied().collect();
            stack.push((start, succ, 0));
            while let Some((u, succ, i)) = stack.last_mut() {
                if *i >= succ.len() {
                    color[*u] = BLACK;
                    stack.pop();
                    continue;
                }
                let v = succ[*i];
                *i += 1;
                let u = *u;
                match color[v] {
                    WHITE => {
                        color[v] = GRAY;
                        parent[v] = u;
                        let next: Vec<usize> = self.out[v].iter().copied().collect();
                        stack.push((v, next, 0));
                    }
                    GRAY => {
                        // Back edge u -> v: cycle v .. u.
                        let mut cycle = vec![u];
                        let mut cur = u;
                        while cur != v {
                            cur = parent[cur];
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Collects every back edge found in one full DFS sweep — one edge per
    /// reachable cycle family. Lifting one witness per back edge (rather
    /// than one per [`Cdg::find_cycle`] invocation) lets DFSSSP converge
    /// in a handful of passes instead of one rebuild per lifted path.
    #[must_use]
    pub fn find_back_edges(&self) -> Vec<(usize, usize)> {
        self.find_cycles()
            .into_iter()
            .map(|c| c[c.len() - 1])
            .collect()
    }

    /// Like [`Cdg::find_back_edges`], but returns the *full edge list* of
    /// each detected cycle (reconstructed from the DFS parent chain; the
    /// closing back edge is last). Callers can then pick the most
    /// productive edge of each cycle to lift.
    #[must_use]
    pub fn find_cycles(&self) -> Vec<Vec<(usize, usize)>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.channels.len();
        let mut color = vec![WHITE; n];
        let mut parent = vec![usize::MAX; n];
        let mut cycles = Vec::new();
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            let mut stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
            color[start] = GRAY;
            let succ: Vec<usize> = self.out[start].iter().copied().collect();
            stack.push((start, succ, 0));
            while let Some((u, succ, i)) = stack.last_mut() {
                if *i >= succ.len() {
                    color[*u] = BLACK;
                    stack.pop();
                    continue;
                }
                let v = succ[*i];
                *i += 1;
                let u = *u;
                match color[v] {
                    WHITE => {
                        color[v] = GRAY;
                        parent[v] = u;
                        let next: Vec<usize> = self.out[v].iter().copied().collect();
                        stack.push((v, next, 0));
                    }
                    GRAY => {
                        // Back edge u -> v closes the cycle v ..-> u -> v.
                        let mut nodes = vec![u];
                        let mut cur = u;
                        while cur != v {
                            cur = parent[cur];
                            nodes.push(cur);
                        }
                        nodes.reverse(); // v .. u
                        let mut edges: Vec<(usize, usize)> =
                            nodes.windows(2).map(|w| (w[0], w[1])).collect();
                        edges.push((u, v));
                        cycles.push(edges);
                    }
                    _ => {}
                }
            }
        }
        cycles
    }

    /// Builds the CDG induced by `tables` over the destinations passing
    /// `filter` (e.g. "destinations on VL 2").
    #[must_use]
    pub fn from_tables(
        g: &SwitchGraph,
        tables: &RoutingTables,
        filter: impl Fn(&Destination) -> bool,
    ) -> Self {
        let mut cdg = Self::new();
        cdg.absorb_tables(g, tables, filter);
        cdg
    }

    /// Builds the CDG of the *union* of several routing functions — the
    /// §VI-C transition analysis: `R_old ∪ R_new` may deadlock even when
    /// each is deadlock-free alone.
    #[must_use]
    pub fn from_union(
        g: &SwitchGraph,
        tables: &[&RoutingTables],
        filter: impl Fn(&Destination) -> bool,
    ) -> Self {
        let mut cdg = Self::new();
        for t in tables {
            cdg.absorb_tables(g, t, &filter);
        }
        cdg
    }

    /// Adds the dependencies induced by one routing function.
    pub fn absorb_tables(
        &mut self,
        g: &SwitchGraph,
        tables: &RoutingTables,
        filter: impl Fn(&Destination) -> bool,
    ) {
        for dest in g.destinations().iter().filter(|d| filter(d)) {
            // next[s]: the out-port switch s uses for this LID and the
            // switch it leads to, if it stays in the switch fabric.
            let next: Vec<Option<(u8, usize)>> = (0..g.len())
                .map(|s| g.next_hop(s, tables.lfts.get(&g.node_id(s))?.get(dest.lid)))
                .collect();
            for s in 0..g.len() {
                let Some((p, v)) = next[s] else { continue };
                let Some((p2, _)) = next[v] else { continue };
                // A packet to `dest` may hold (s, p) while requesting
                // (v, p2).
                let a = self.intern((s as u32, p));
                let b = self.intern((v as u32, p2));
                self.add_edge(a, b, dest.lid.raw());
            }
        }
    }

    /// Whether `to` is reachable from `from` along dependency edges.
    #[must_use]
    pub fn reachable(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut seen = FxHashSet::default();
        let mut stack = vec![from];
        seen.insert(from);
        while let Some(u) = stack.pop() {
            for &v in &self.out[u] {
                if v == to {
                    return true;
                }
                if seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        false
    }

    /// Tentatively adds the consecutive dependencies of a channel path.
    /// If a cycle would result, rolls back the newly-added edges and
    /// returns `false`. (The LASH layer-packing primitive.)
    ///
    /// Assumes the CDG is acyclic on entry (the invariant LASH maintains):
    /// a new cycle must then pass through a new edge `(a, b)`, which exists
    /// exactly when `a` was already reachable from `b`.
    pub fn try_add_path(&mut self, path: &[Channel], witness: u16) -> bool {
        let mut new_edges = Vec::new();
        for pair in path.windows(2) {
            let a = self.intern(pair[0]);
            let b = self.intern(pair[1]);
            if self.out[a].contains(&b) {
                continue;
            }
            if self.reachable(b, a) {
                for (x, y) in new_edges {
                    self.remove_edge(x, y);
                }
                return false;
            }
            self.add_edge(a, b, witness);
            new_edges.push((a, b));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhop::MinHop;
    use crate::testutil::assign_lids;
    use crate::RoutingEngine;
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::torus::torus_2d;

    #[test]
    fn manual_cycle_detection() {
        let mut cdg = Cdg::new();
        let a = cdg.intern((0, 1));
        let b = cdg.intern((1, 1));
        let c = cdg.intern((2, 1));
        cdg.add_edge(a, b, 1);
        cdg.add_edge(b, c, 2);
        assert!(cdg.find_cycle().is_none());
        cdg.add_edge(c, a, 3);
        let cycle = cdg.find_cycle().unwrap();
        assert_eq!(cycle.len(), 3);
        // Each element must depend on the next (cyclically).
        for i in 0..cycle.len() {
            let from = cycle[i];
            let to = cycle[(i + 1) % cycle.len()];
            assert!(cdg.out[from].contains(&to));
        }
    }

    #[test]
    fn witnesses_recorded() {
        let mut cdg = Cdg::new();
        let a = cdg.intern((0, 1));
        let b = cdg.intern((1, 2));
        assert!(cdg.add_edge(a, b, 42));
        assert!(!cdg.add_edge(a, b, 43), "duplicate edge");
        assert_eq!(cdg.witness_of(a, b), Some(42));
        cdg.remove_edge(a, b);
        assert_eq!(cdg.num_edges(), 0);
        assert_eq!(cdg.witness_of(a, b), None);
    }

    #[test]
    fn fat_tree_minhop_is_acyclic_per_lane() {
        // Host routes ascend then descend the tree (acyclic on VL0);
        // switch-destined columns are up*/down*-legal on their own lane
        // (acyclic on VL1). Only the per-lane CDGs matter for deadlock —
        // a cycle cannot span two lanes.
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        let g = SwitchGraph::build(&t.subnet).unwrap();
        for lane in [0u8, 1] {
            let cdg = Cdg::from_tables(&g, &tables, |d| {
                tables.vls.lane_for(0, 0, d.lid).raw() == lane
            });
            assert!(cdg.num_edges() > 0, "lane {lane}");
            assert!(cdg.find_cycle().is_none(), "lane {lane}");
        }
    }

    #[test]
    fn torus_minhop_is_cyclic() {
        // Plain shortest-path routing on a ring deadlocks: the CDG around
        // each ring closes on itself.
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let cdg = Cdg::from_tables(&g, &tables, |_| true);
        assert!(
            cdg.find_cycle().is_some(),
            "min-hop on a 4x4 torus should produce a cyclic CDG"
        );
    }

    #[test]
    fn try_add_path_rolls_back() {
        let mut cdg = Cdg::new();
        assert!(cdg.try_add_path(&[(0, 1), (1, 1), (2, 1)], 7));
        let edges_before = cdg.num_edges();
        // Closing the loop must be refused and leave the CDG unchanged.
        assert!(!cdg.try_add_path(&[(2, 1), (0, 1), (1, 1)], 8));
        assert_eq!(cdg.num_edges(), edges_before);
        assert!(cdg.find_cycle().is_none());
    }
}
