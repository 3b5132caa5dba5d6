//! The fat-tree engine's scoped repair: the distance field rides with the
//! tables, a repair follows it to the degraded graph and visits a host
//! column only where a removed link can have moved its pick. (Min-Hop
//! carries and follows the same field, and is checked against fresh BFSs
//! through the same fault sequences.) In debug
//! builds every scoped repair also runs the kernel's oracle (a full visit
//! afterwards changes nothing); these tests drive it over single faults,
//! fault sequences that split the fabric, a batched burst against its
//! serial twin, LID-swap migrations between repairs, and a gate-rejected
//! repair followed by the next fault — and check the results against a
//! full visit, the twin, or the verifier.

use std::collections::HashSet;

use ib_core::{DataCenter, DataCenterConfig, VirtArch};
use ib_mad::SmpTransport;
use ib_observe::Observer;
use ib_routing::ftree::FatTree;
use ib_routing::minhop::MinHop;
use ib_routing::testutil::{assign_lids, switch_links, virtualize_hosts};
use ib_routing::{
    CellChange, EngineKind, RoutingEngine, RoutingOptions, RoutingTables, SwitchGraph,
};
use ib_sm::{SmConfig, SubnetManager, Trap};
use ib_subnet::topology::fattree::{three_level, two_level};
use ib_subnet::topology::BuiltTopology;
use ib_subnet::{NodeId, Subnet};
use ib_types::{Lid, PortNum};
use ib_verify::FabricVerifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The LIDs whose rows in `tables` leave through `(node, port)` or its far
/// end — the columns a repair of that link re-routes.
fn crossing(subnet: &Subnet, tables: &RoutingTables, node: NodeId, port: PortNum) -> Vec<Lid> {
    let mut ends = vec![(node, port)];
    let far = subnet.node(node).ports[port.raw() as usize].remote;
    ends.extend(far.map(|r| (r.node, r.port)));
    let uses = |lid: Lid| {
        ends.iter().any(|&(n, p)| {
            tables
                .lfts
                .get(&n)
                .is_some_and(|lft| lft.get(lid) == Some(p))
        })
    };
    subnet.lids().into_iter().filter(|&lid| uses(lid)).collect()
}

/// A named fabric builder.
type Fabric = (&'static str, fn() -> BuiltTopology);

/// Random switch-link removals, one repair each, until the tree breaks
/// (fat-tree) or every cable is gone (Min-Hop): every repair on followed
/// rows equals the repair of the same columns on tables without a distance
/// field — cells, order and all — and keeps its field. For the fat-tree
/// engine that is the scoped visit against the full one; Min-Hop visits
/// every cell either way, so it pins the followed rows against fresh BFSs.
#[test]
fn scoped_repairs_equal_full_visits_through_splits() {
    let fabrics: [Fabric; 3] = [
        ("two_level(6,4,3)", || two_level(6, 4, 3)),
        ("three_level(3,3,3,3)", || three_level(3, 3, 3, 3)),
        ("three_level(2,3,2,2)+vswitches", || {
            let mut t = three_level(2, 3, 2, 2);
            virtualize_hosts(&mut t);
            t
        }),
    ];
    let engines: [&dyn RoutingEngine; 2] = [&FatTree, &MinHop];
    let (opts, obs) = (RoutingOptions::default(), Observer::disabled());
    for engine in engines {
        let mut splits = 0;
        for (seed, (name, build)) in fabrics.into_iter().enumerate() {
            let name = format!("{name}, {}", engine.name());
            let mut t = build();
            assign_lids(&mut t);
            let mut tables = engine.compute(&t.subnet).expect("compute");
            assert!(
                tables.carries_distances(),
                "{name}: a full compute keeps its rows"
            );
            let mut links = switch_links(&t.subnet);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut repaired = 0;
            while !links.is_empty() {
                let (node, port) = links.swap_remove(rng.gen_range(0..links.len()));
                t.subnet.set_link_down(node, port).unwrap();
                let g = SwitchGraph::build(&t.subnet).unwrap();
                let dirty = crossing(&t.subnet, &tables, node, port);
                let mut full = RoutingTables::from_lfts(tables.lfts.clone(), engine.name());
                let scoped = engine.repair_with_graph(&g, opts, &mut tables, &dirty, &obs);
                let visited = engine.repair_with_graph(&g, opts, &mut full, &dirty, &obs);
                let (Ok(scoped), Ok(visited)) = (scoped, visited) else {
                    // The tree lost its layering: both refuse, and the
                    // sequence ends where a fresh compute would take over.
                    assert_eq!(engine.name(), "fat-tree", "{name}: a refused repair");
                    break;
                };
                assert_eq!(scoped.cells, visited.cells, "{name}, repair {repaired}");
                assert_eq!(tables.lfts, full.lfts, "{name}, repair {repaired}");
                assert!(
                    tables.carries_distances(),
                    "{name}: a removal keeps the rows"
                );
                splits += usize::from(g.components().is_partitioned());
                repaired += 1;
            }
            assert!(repaired >= 3, "{name}: only {repaired} repairs ran");
        }
        assert!(splits > 0, "{}: no sequence split a fabric", engine.name());
    }
}

/// A repairing fat-tree SM, brought up on `t`; `verify` adds the deadlock
/// check to its gate and audits.
fn fat_tree_sm(t: &mut BuiltTopology, verify: bool) -> SubnetManager {
    let mut sm = SubnetManager::new(
        t.hosts[0],
        SmConfig {
            engine: EngineKind::FatTree,
            repair: true,
            verify,
            ..SmConfig::default()
        },
    );
    sm.set_observer(Observer::metrics());
    sm.bring_up(&mut t.subnet).expect("verified bring-up");
    sm
}

fn counter(sm: &SubnetManager, name: &str) -> u64 {
    sm.observer().snapshot().expect("metrics").counter(name)
}

fn trap(sm: &mut SubnetManager, subnet: &mut Subnet, node: NodeId, port: PortNum) {
    let mut transport = SmpTransport::perfect(sm.sm_node);
    let trap = Trap::LinkStateChange { node, port };
    sm.handle_trap(subnet, trap, &mut transport)
        .expect("trap answered");
}

/// No black hole, loop or stale route on the SM's side. The deadlock check
/// is the gate's business: a degraded three-level tree can need a valley
/// the fat-tree engine's VL0 does not order, a known engine limit (ROADMAP).
fn assert_clean(subnet: &Subnet, sm: &SubnetManager, what: &str) {
    let report = FabricVerifier::new()
        .with_deadlock(false)
        .with_viewpoint(sm.sm_node)
        .verify_with_vls(subnet, sm.installed_vls().expect("tables"))
        .expect("verify");
    assert!(report.is_clean(), "{what}: {}", report.summary());
}

/// A burst of three faults answered by one batched sweep installs what
/// three serial repairs install, both through scoped repairs. (No deadlock
/// gate: with several cables down a spine can need a valley the fat-tree
/// engine's VL0 does not order — a known engine limit, see ROADMAP.)
#[test]
fn a_scoped_burst_equals_its_serial_twin() {
    let build = || three_level(3, 3, 3, 3);
    let (mut a, mut b) = (build(), build());
    let (mut serial, mut batch) = (fat_tree_sm(&mut a, false), fat_tree_sm(&mut b, false));
    let faults: Vec<(NodeId, PortNum)> = switch_links(&a.subnet)
        .into_iter()
        .step_by(7)
        .take(3)
        .collect();
    for &(node, port) in &faults {
        a.subnet.set_link_down(node, port).unwrap();
        b.subnet.set_link_down(node, port).unwrap();
    }
    for &(node, port) in &faults {
        trap(&mut serial, &mut a.subnet, node, port);
    }
    let mut transport = SmpTransport::perfect(batch.sm_node);
    batch
        .repair_sweep_batch(&mut b.subnet, &faults, &mut transport)
        .expect("batch");
    for sw in a.subnet.switches() {
        assert_eq!(a.subnet.lft(sw.id), b.subnet.lft(sw.id), "{}", sw.name);
    }
    assert_eq!(counter(&serial, "repair.success"), 3);
    assert_eq!(counter(&batch, "repair.success"), 1);
    assert_clean(&b.subnet, &batch, "batch");
}

/// Cutting every uplink of one leaf, one repair per cable, splits the
/// fabric; the repairs keep the SM's side clean and a later fault
/// elsewhere is still repaired.
#[test]
fn scoped_repairs_across_a_split() {
    let mut t = three_level(3, 3, 3, 3);
    let mut sm = fat_tree_sm(&mut t, false);
    let leaf = *t.switch_levels[0].last().expect("a leaf");
    let uplinks: Vec<PortNum> = (t.subnet.node(leaf).connected_ports())
        .filter(|(_, r)| t.subnet.node(r.node).is_switch())
        .map(|(p, _)| p)
        .collect();
    for port in uplinks {
        t.subnet.set_link_down(leaf, port).unwrap();
        trap(&mut sm, &mut t.subnet, leaf, port);
        assert_clean(&t.subnet, &sm, "leaf uplink cut");
    }
    let (node, port) = switch_links(&t.subnet)[0];
    t.subnet.set_link_down(node, port).unwrap();
    trap(&mut sm, &mut t.subnet, node, port);
    assert_clean(&t.subnet, &sm, "fault after the split");
    assert!(counter(&sm, "sm.partitioned") > 0, "the fabric split");
    assert!(counter(&sm, "repair.success") > 0);
}

/// LID-swap migrations between repairs: the swapped columns are carried
/// columns of the moved LIDs' new delivery switches, so the scope holds.
#[test]
fn migrations_between_scoped_repairs() {
    let config = DataCenterConfig {
        arch: VirtArch::VSwitchPrepopulated,
        engine: EngineKind::FatTree,
        vfs_per_hypervisor: 3,
        ..DataCenterConfig::default()
    };
    let mut dc = DataCenter::from_topology(three_level(3, 3, 3, 3), config).expect("bring-up");
    dc.sm.set_repair(true);
    dc.sm.set_observer(Observer::metrics());
    let hyps = dc.hypervisors.len();
    let vms: Vec<_> = (0..hyps)
        .map(|h| dc.create_vm(format!("vm{h}"), h).expect("create"))
        .collect();
    let physical: HashSet<NodeId> = dc.subnet.physical_switches().map(|n| n.id).collect();
    let mut links: Vec<(NodeId, PortNum)> = switch_links(&dc.subnet)
        .into_iter()
        .filter(|&(node, port)| {
            let far = dc.subnet.neighbor(node, port).expect("live");
            physical.contains(&node) && physical.contains(&far.node)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5C0FE);
    for step in 0..6 {
        for _ in 0..3 {
            let vm = vms[rng.gen_range(0..vms.len())];
            let from = dc.vm(vm).expect("vm").hypervisor;
            dc.migrate_vm(vm, (from + rng.gen_range(1..hyps)) % hyps)
                .expect("migrate");
        }
        let (node, port) = links.swap_remove(rng.gen_range(0..links.len()));
        dc.subnet.set_link_down(node, port).unwrap();
        trap(&mut dc.sm, &mut dc.subnet, node, port);
        assert_clean(&dc.subnet, &dc.sm, &format!("step {step}"));
    }
    assert!(counter(&dc.sm, "repair.success") > 0);
}

/// A repair the gate rejects (the baseline holds a drop the switch does
/// not, in a block the repair re-sends) falls back to a full sweep; once
/// the link heals, the fresh rows carry the next fault's scoped repair.
#[test]
fn a_gate_rejected_repair_then_the_next_fault() {
    let mut t = three_level(4, 4, 4, 4);
    let mut sm = fat_tree_sm(&mut t, true);
    let links = switch_links(&t.subnet);
    let (node, port, victim) = links
        .iter()
        .find_map(|&(node, port)| {
            let dirty = sm.route_index()?.affected(&t.subnet, node, port);
            let lft = t.subnet.lft(node)?;
            let sent: HashSet<usize> = (dirty.iter())
                .filter(|&&lid| lft.get(lid) == Some(port))
                .map(|lid| lid.lft_block())
                .collect();
            let victim = t.subnet.lids().into_iter().find(|lid| {
                let entry = lft.get(*lid);
                !dirty.contains(lid)
                    && sent.contains(&lid.lft_block())
                    && entry.is_some_and(|p| !p.is_management() && !p.is_drop())
            })?;
            Some((node, port, victim))
        })
        .expect("a stale-baseline victim");
    let good = t.subnet.lft(node).and_then(|l| l.get(victim));
    t.subnet
        .lft_mut(node)
        .expect("LFT")
        .set(victim, PortNum::DROP);
    let told = CellChange {
        switch: node,
        lid: victim,
        old: good,
        new: Some(PortNum::DROP),
    };
    sm.note_cells_changed(&t.subnet, &[told], None);
    t.subnet.lft_mut(node).expect("LFT").assign(victim, good);

    t.subnet.set_link_down(node, port).unwrap();
    trap(&mut sm, &mut t.subnet, node, port);
    assert_eq!(counter(&sm, "repair.verify_rejected"), 1);
    assert_clean(&t.subnet, &sm, "after the fallback sweep");

    t.subnet.set_link_up(node, port).unwrap();
    trap(&mut sm, &mut t.subnet, node, port);
    let core = t.switch_levels[2][0];
    let (next_port, _) = t
        .subnet
        .node(core)
        .connected_ports()
        .next()
        .expect("a core cable");
    let next = core;
    t.subnet.set_link_down(next, next_port).unwrap();
    trap(&mut sm, &mut t.subnet, next, next_port);
    assert_eq!(counter(&sm, "repair.success"), 1);
    assert_clean(&t.subnet, &sm, "the next fault");
}
