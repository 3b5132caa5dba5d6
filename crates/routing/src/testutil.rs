//! Test support shared by engine unit tests and integration tests.

#![allow(missing_docs)]

use ib_subnet::topology::BuiltTopology;
use ib_subnet::Subnet;
use ib_types::{Lid, PortNum};

use crate::tables::RoutingTables;

/// Assigns LIDs the way the subnet manager would: switches first (in
/// builder order), then host ports, densely from 1.
pub fn assign_lids(t: &mut BuiltTopology) {
    let mut next = 1u16;
    for sw in t.all_switches() {
        t.subnet
            .assign_switch_lid(sw, Lid::from_raw(next))
            .expect("switch LID");
        next += 1;
    }
    for &h in &t.hosts.clone() {
        t.subnet
            .assign_port_lid(h, PortNum::new(1), Lid::from_raw(next))
            .expect("host LID");
        next += 1;
    }
}

/// Hangs every host off a vSwitch of its own, cabled into the host's old
/// switch port — the vSwitch architecture's shape, in which every host's
/// delivery switch has one switch neighbour. Call before [`assign_lids`].
pub fn virtualize_hosts(t: &mut BuiltTopology) {
    let host_port = PortNum::new(1);
    for (i, &h) in t.hosts.clone().iter().enumerate() {
        let up = t.subnet.node(h).ports[1].remote.expect("cabled host");
        t.subnet.disconnect(h, host_port).expect("host cable");
        let vsw = t.subnet.add_vswitch(format!("vsw{i}"), 2);
        let (uplink, down) = (PortNum::new(1), PortNum::new(2));
        t.subnet
            .connect(up.node, up.port, vsw, uplink)
            .expect("vSwitch uplink");
        t.subnet
            .connect(vsw, down, h, host_port)
            .expect("vSwitch downlink");
    }
}

/// Every live switch-to-switch cable of `subnet`, named once from its
/// lower-indexed end.
pub fn switch_links(subnet: &Subnet) -> Vec<(ib_subnet::NodeId, PortNum)> {
    let mut out = Vec::new();
    for sw in subnet.switches() {
        for (port, remote) in sw.connected_ports() {
            if subnet.node(remote.node).is_switch() && sw.id.index() < remote.node.index() {
                out.push((sw.id, port));
            }
        }
    }
    out
}

/// LID of a host node assigned by [`assign_lids`].
pub fn host_lid(t: &BuiltTopology, host_index: usize) -> Lid {
    t.subnet.node(t.hosts[host_index]).ports[1]
        .lid
        .expect("host LID assigned")
}

/// Asserts every destination LID is reachable from every switch under the
/// given tables, panicking with the offending pairs otherwise.
pub fn assert_full_reachability(subnet: &Subnet, tables: &RoutingTables) {
    let failures = tables.unreachable_pairs(subnet, 64);
    assert!(
        failures.is_empty(),
        "{} unreachable (switch, LID) pairs under {}: first few: {:?}",
        failures.len(),
        tables.engine,
        &failures[..failures.len().min(5)]
    );
}
