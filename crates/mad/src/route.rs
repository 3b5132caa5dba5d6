//! SMP addressing: directed routes and destination (LID) routing.
//!
//! OpenSM uses directed routing for all SMPs because it must work before any
//! LFT exists (initial discovery) and while routes are in flux. §VI-B of the
//! paper observes that during a vSwitch live migration the *switch* LIDs are
//! untouched, so destination-based routing can address the switches and the
//! per-hop directed-route processing overhead `r` disappears from the cost
//! model (equation 5).

use std::collections::VecDeque;

use ib_subnet::{NodeId, Subnet};
use ib_types::{Lid, PortNum};

/// An explicit hop-by-hop source route: the sequence of output ports taken
/// from the SM's node to the target.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirectedRoute {
    hops: Vec<PortNum>,
}

impl DirectedRoute {
    /// The empty route (target is the local node).
    #[must_use]
    pub fn local() -> Self {
        Self::default()
    }

    /// A route from an explicit port list.
    #[must_use]
    pub fn from_hops(hops: Vec<PortNum>) -> Self {
        Self { hops }
    }

    /// The output-port sequence.
    #[must_use]
    pub fn hops(&self) -> &[PortNum] {
        &self.hops
    }

    /// Number of link traversals.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Computes a shortest directed route from `from` to `to` by BFS over
    /// the physical graph. Returns `None` if unreachable.
    #[must_use]
    pub fn compute(subnet: &Subnet, from: NodeId, to: NodeId) -> Option<Self> {
        if from == to {
            return Some(Self::local());
        }
        let mut prev: Vec<Option<(NodeId, PortNum)>> = vec![None; subnet.num_nodes()];
        let mut seen = vec![false; subnet.num_nodes()];
        let mut queue = VecDeque::new();
        seen[from.index()] = true;
        queue.push_back(from);
        while let Some(id) = queue.pop_front() {
            for (out_port, remote) in subnet.node(id).connected_ports() {
                if !seen[remote.node.index()] {
                    seen[remote.node.index()] = true;
                    prev[remote.node.index()] = Some((id, out_port));
                    if remote.node == to {
                        // Reconstruct the port sequence.
                        let mut rev = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let (p_node, p_port) = prev[cur.index()].expect("BFS parent chain");
                            rev.push(p_port);
                            cur = p_node;
                        }
                        rev.reverse();
                        return Some(Self::from_hops(rev));
                    }
                    queue.push_back(remote.node);
                }
            }
        }
        None
    }

    /// Walks the route from `from` and returns the node it lands on, or
    /// `None` if a hop points at an uncabled port.
    #[must_use]
    pub fn resolve(&self, subnet: &Subnet, from: NodeId) -> Option<NodeId> {
        let mut cur = from;
        for &port in &self.hops {
            cur = subnet.neighbor(cur, port)?.node;
        }
        Some(cur)
    }
}

/// Every shortest directed route out of one node, from a single BFS: the
/// per-operation replacement for one [`DirectedRoute::compute`] per target.
///
/// The search keeps `compute`'s queue discipline and `connected_ports()`
/// order, and a search that stops at its target is a prefix of the one that
/// does not — so every node's parent chain, hence its route and hop count,
/// is exactly what the per-target search returns.
#[derive(Clone, Debug)]
pub struct RouteTree {
    /// `(parent, out-port at the parent)`; `None` at the root and at nodes
    /// the search never reached.
    prev: Vec<Option<(NodeId, PortNum)>>,
    /// Link traversals from the root; [`RouteTree::UNREACHED`] when there
    /// is no live path.
    hops: Vec<u32>,
}

impl RouteTree {
    const UNREACHED: u32 = u32::MAX;

    /// Searches the whole live fabric from `root`.
    #[must_use]
    pub fn build(subnet: &Subnet, root: NodeId) -> Self {
        let mut prev = vec![None; subnet.num_nodes()];
        let mut hops = vec![Self::UNREACHED; subnet.num_nodes()];
        let mut queue = VecDeque::new();
        hops[root.index()] = 0;
        queue.push_back(root);
        while let Some(id) = queue.pop_front() {
            let next = hops[id.index()] + 1;
            for (out_port, remote) in subnet.node(id).connected_ports() {
                let to = remote.node.index();
                if hops[to] == Self::UNREACHED {
                    hops[to] = next;
                    prev[to] = Some((id, out_port));
                    queue.push_back(remote.node);
                }
            }
        }
        Self { prev, hops }
    }

    /// Link traversals from the root to `to`; `None` if unreachable.
    #[must_use]
    pub fn hops(&self, to: NodeId) -> Option<usize> {
        match self.hops[to.index()] {
            Self::UNREACHED => None,
            h => Some(h as usize),
        }
    }

    /// The directed route from the root to `to`; `None` if unreachable.
    #[must_use]
    pub fn directed(&self, to: NodeId) -> Option<DirectedRoute> {
        let mut rev = Vec::with_capacity(self.hops(to)?);
        let mut cur = to;
        while let Some((parent, port)) = self.prev[cur.index()] {
            rev.push(port);
            cur = parent;
        }
        rev.reverse();
        Some(DirectedRoute::from_hops(rev))
    }
}

/// Where an operation reads its SM-to-target routes from.
#[derive(Clone, Copy, Debug)]
pub enum Routes<'a> {
    /// One early-exit search from this node per lookup — the cheaper choice
    /// for an operation that addresses a single target.
    Search(NodeId),
    /// One tree built for the whole operation.
    Tree(&'a RouteTree),
}

impl Routes<'_> {
    /// Link traversals to `to`; `None` if unreachable.
    #[must_use]
    pub fn hops(self, subnet: &Subnet, to: NodeId) -> Option<usize> {
        match self {
            Self::Search(from) => DirectedRoute::compute(subnet, from, to).map(|r| r.hop_count()),
            Self::Tree(tree) => tree.hops(to),
        }
    }

    /// The directed route to `to`; `None` if unreachable.
    #[must_use]
    pub fn directed(self, subnet: &Subnet, to: NodeId) -> Option<DirectedRoute> {
        match self {
            Self::Search(from) => DirectedRoute::compute(subnet, from, to),
            Self::Tree(tree) => tree.directed(to),
        }
    }
}

/// How an SMP is addressed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmpRouting {
    /// Source-routed hop by hop; every intermediate switch must process and
    /// rewrite the packet header (hop pointer, return path) — the paper's
    /// per-SMP overhead `r`.
    Directed(DirectedRoute),
    /// Destination-routed to a LID through the existing LFTs; forwarded in
    /// the data path with no header rewriting.
    Destination(Lid),
}

impl SmpRouting {
    /// Whether the packet pays the directed-route processing overhead.
    #[must_use]
    pub fn is_directed(&self) -> bool {
        matches!(self, Self::Directed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_subnet::topology::basic::linear;

    #[test]
    fn bfs_route_reaches_target() {
        let t = linear(4, 1);
        let s = &t.subnet;
        let first = t.switch_levels[0][0];
        let last = t.switch_levels[0][3];
        let route = DirectedRoute::compute(s, first, last).unwrap();
        assert_eq!(route.hop_count(), 3);
        assert_eq!(route.resolve(s, first), Some(last));
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = linear(2, 1);
        let sw = t.switch_levels[0][0];
        let route = DirectedRoute::compute(&t.subnet, sw, sw).unwrap();
        assert_eq!(route.hop_count(), 0);
        assert_eq!(route.resolve(&t.subnet, sw), Some(sw));
    }

    #[test]
    fn unreachable_is_none() {
        let mut s = Subnet::new();
        let a = s.add_switch("a", 2);
        let b = s.add_switch("b", 2);
        assert!(DirectedRoute::compute(&s, a, b).is_none());
    }

    #[test]
    fn resolve_rejects_bad_hops() {
        let t = linear(2, 1);
        let sw = t.switch_levels[0][0];
        let bogus = DirectedRoute::from_hops(vec![PortNum::new(7)]);
        assert_eq!(bogus.resolve(&t.subnet, sw), None);
    }

    /// The tree must answer every node exactly like the per-target search:
    /// same route hop for hop, same hop count, unreachable iff `None`.
    fn assert_tree_equals_search(subnet: &Subnet, root: NodeId, tag: &str) {
        let tree = RouteTree::build(subnet, root);
        for to in subnet.node_ids() {
            let searched = DirectedRoute::compute(subnet, root, to);
            assert_eq!(
                tree.hops(to),
                searched.as_ref().map(DirectedRoute::hop_count),
                "{tag}: hops to {to:?}"
            );
            assert_eq!(tree.directed(to), searched, "{tag}: route to {to:?}");
            for routes in [Routes::Tree(&tree), Routes::Search(root)] {
                assert_eq!(routes.hops(subnet, to), tree.hops(to), "{tag}: {to:?}");
                assert_eq!(routes.directed(subnet, to), searched, "{tag}: {to:?}");
            }
        }
    }

    /// Every switch-to-switch cable, one `(node, port)` end per cable.
    fn trunk_ends(subnet: &Subnet) -> Vec<(NodeId, PortNum)> {
        subnet
            .physical_switches()
            .flat_map(|sw| {
                sw.connected_ports()
                    .filter(|(_, ep)| subnet.node(ep.node).is_physical_switch() && sw.id < ep.node)
                    .map(|(port, _)| (sw.id, port))
            })
            .collect()
    }

    #[test]
    fn tree_equals_per_target_search_on_every_node() {
        use ib_subnet::topology::fattree::{paper_324, three_level};
        use ib_subnet::topology::torus::torus_2d;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let t = paper_324();
        assert_tree_equals_search(&t.subnet, t.hosts[0], "324 tree");
        assert_tree_equals_search(&t.subnet, t.switch_levels[1][3], "324 tree, from a spine");

        // What `virtualize_host` builds: a vSwitch spliced in front of every
        // host, one VF cabled to it and one dormant (reachable by no one).
        let mut t = three_level(4, 4, 4, 4);
        for (i, &host) in t.hosts.clone().iter().enumerate() {
            let (host_port, leaf) = t.subnet.node(host).connected_ports().next().unwrap();
            t.subnet.disconnect(host, host_port).unwrap();
            let vsw = t.subnet.add_vswitch(format!("vsw{i}"), 4);
            t.subnet
                .connect(leaf.node, leaf.port, vsw, PortNum::new(1))
                .unwrap();
            t.subnet
                .connect(vsw, PortNum::new(2), host, host_port)
                .unwrap();
            let vf = t.subnet.add_vhca(format!("vf{i}"));
            t.subnet
                .connect(vsw, PortNum::new(3), vf, PortNum::new(1))
                .unwrap();
            t.subnet.add_vhca(format!("dormant{i}"));
        }
        assert_tree_equals_search(&t.subnet, t.hosts[0], "virtualized 3-level tree");

        let t = torus_2d(4, 4, 1, true);
        assert_tree_equals_search(&t.subnet, t.hosts[5], "4x4 torus");

        // Seeded link failures reshuffle which parent reaches a node first.
        for seed in [1u64, 2, 3] {
            let mut t = paper_324();
            let mut rng = StdRng::seed_from_u64(seed);
            let ends = trunk_ends(&t.subnet);
            for _ in 0..40 {
                let (node, port) = ends[rng.gen_range(0..ends.len())];
                t.subnet.set_link_down(node, port).unwrap();
            }
            assert_tree_equals_search(&t.subnet, t.hosts[0], "324 tree, 40 links down");
        }

        // A split: one leaf loses every uplink, stranding it and its hosts.
        let mut t = paper_324();
        let stranded = t.switch_levels[0][7];
        for (node, port) in trunk_ends(&t.subnet) {
            let far = t.subnet.neighbor(node, port).unwrap().node;
            if node == stranded || far == stranded {
                t.subnet.set_link_down(node, port).unwrap();
            }
        }
        let tree = RouteTree::build(&t.subnet, t.hosts[0]);
        assert_eq!(tree.hops(stranded), None);
        assert_eq!(tree.directed(stranded), None);
        assert_tree_equals_search(&t.subnet, t.hosts[0], "split 324 tree");
    }

    #[test]
    fn routing_kind_flags() {
        assert!(SmpRouting::Directed(DirectedRoute::local()).is_directed());
        assert!(!SmpRouting::Destination(Lid::from_raw(1)).is_directed());
    }
}
