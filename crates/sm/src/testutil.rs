//! Fixtures shared by the trap, re-sweep and repair unit tests: a small
//! 2-level fat tree under a perfect SM, plus link-fault helpers.

use ib_subnet::topology::fattree::two_level;
use ib_subnet::topology::BuiltTopology;
use ib_subnet::{NodeId, Subnet};
use ib_types::{Lid, PortNum};

use crate::sm::{SmConfig, SubnetManager};
use crate::traps::Trap;

/// Bring up a 2-level fat tree (3 leaves, 2 spines) with a perfect SM.
pub(crate) fn bring_up() -> (BuiltTopology, SubnetManager) {
    let mut t = two_level(3, 2, 2);
    let mut sm = SubnetManager::new(t.hosts[0], SmConfig::default());
    sm.bring_up(&mut t.subnet).unwrap();
    (t, sm)
}

pub(crate) fn all_lids(subnet: &Subnet) -> Vec<Lid> {
    subnet.lids()
}

pub(crate) fn assert_all_pairs_connected(t: &BuiltTopology, skip: &[NodeId]) {
    for &a in &t.hosts {
        if skip.contains(&a) {
            continue;
        }
        for &b in &t.hosts {
            if skip.contains(&b) || a == b {
                continue;
            }
            let lid = t.subnet.node(b).ports[1].lid.unwrap();
            let path = t.subnet.trace_route(a, lid, 32).unwrap();
            assert_eq!(*path.last().unwrap(), b);
        }
    }
}

/// Downs every physical uplink of leaf `idx`, returning the ports.
pub(crate) fn isolate_leaf(t: &mut BuiltTopology, idx: usize) -> Vec<PortNum> {
    let leaf = t.switch_levels[0][idx];
    let uplinks: Vec<PortNum> = t
        .subnet
        .node(leaf)
        .connected_ports()
        .filter(|(_, r)| t.subnet.node(r.node).is_physical_switch())
        .map(|(p, _)| p)
        .collect();
    for p in &uplinks {
        t.subnet.set_link_down(leaf, *p).unwrap();
    }
    uplinks
}

/// The leaf0 -> spine0 uplink, downed, plus its trap.
pub(crate) fn down_first_uplink(t: &mut BuiltTopology) -> Trap {
    down_uplink(t, 0, 0)
}

/// A named leaf->spine uplink and its down trap.
pub(crate) fn down_uplink(t: &mut BuiltTopology, leaf_idx: usize, spine_idx: usize) -> Trap {
    let leaf = t.switch_levels[0][leaf_idx];
    let spine = t.switch_levels[1][spine_idx];
    let (port, _) = t
        .subnet
        .node(leaf)
        .connected_ports()
        .find(|(_, r)| r.node == spine)
        .unwrap();
    t.subnet.set_link_down(leaf, port).unwrap();
    Trap::LinkStateChange { node: leaf, port }
}
