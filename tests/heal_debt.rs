//! A link that comes back pays off its repair's heal debt: the SM undoes
//! the repair it logged instead of recomputing the fabric.
//!
//! The exactness pins drive every inter-switch link of a three-level fat
//! tree (fat-tree, Min-Hop, Up*/Down*) and of a wrapped torus (DFSSSP,
//! LASH) through fault → repair → heal and demand the bring-up's fabric
//! back byte for byte: installed LFTs and lanes, the reverse route index,
//! the carried channel dependency graph — patched, never rebuilt — and as
//! many SMPs back as the repair sent. A twin fabric that answers the same
//! fault and heal with full sweeps lands on the bring-up's tables too, so
//! the heal equals the full sweep it replaces. The fallback pins name the
//! heals no debt matches: each is one counted `repair.heal_no_debt` full
//! sweep that leaves a converged, verifier-clean fabric.

use ib_core::{DataCenter, DataCenterConfig};
use ib_mad::SmpTransport;
use ib_observe::Observer;
use ib_routing::{EngineKind, VlAssignment};
use ib_sm::{ResweepReport, SmConfig, SubnetManager, SweepKind, Trap};
use ib_subnet::topology::fattree::{three_level, two_level};
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::topology::BuiltTopology;
use ib_subnet::{Lft, NodeId, Subnet};
use ib_types::PortNum;
use ib_verify::FabricVerifier;

/// Every switch-to-switch cable, named once from its lower-indexed end.
fn inter_switch_links(subnet: &Subnet) -> Vec<(NodeId, PortNum)> {
    let mut out = Vec::new();
    for sw in subnet.physical_switches() {
        for (port, remote) in sw.connected_ports() {
            if subnet.node(remote.node).is_physical_switch() && sw.id.index() < remote.node.index()
            {
                out.push((sw.id, port));
            }
        }
    }
    out
}

/// The installed rows of every switch and the lanes they ride.
fn installed(subnet: &Subnet, sm: &SubnetManager) -> (Vec<Option<Lft>>, VlAssignment) {
    let rows = subnet
        .switches()
        .map(|n| subnet.lft(n.id).cloned())
        .collect();
    (rows, sm.installed_vls().expect("tables installed").clone())
}

fn bring_up(
    mut t: BuiltTopology,
    engine: EngineKind,
    repair: bool,
) -> (BuiltTopology, SubnetManager) {
    let mut sm = SubnetManager::new(
        t.hosts[0],
        SmConfig {
            engine,
            repair,
            verify: true,
            ..SmConfig::default()
        },
    );
    sm.set_observer(Observer::metrics());
    sm.bring_up(&mut t.subnet).expect("bring-up");
    (t, sm)
}

/// Sets `(node, port)` down or up and answers its trap.
fn toggle(
    t: &mut BuiltTopology,
    sm: &mut SubnetManager,
    (node, port): (NodeId, PortNum),
    up: bool,
) -> ResweepReport {
    if up {
        t.subnet.set_link_up(node, port).expect("link up");
    } else {
        t.subnet.set_link_down(node, port).expect("link down");
    }
    let mut transport = SmpTransport::perfect(sm.sm_node);
    let trap = Trap::LinkStateChange { node, port };
    sm.handle_trap(&mut t.subnet, trap, &mut transport)
        .expect("trap handled")
}

fn counter(sm: &SubnetManager, name: &str) -> u64 {
    sm.observer().snapshot().expect("metrics on").counter(name)
}

/// The installed tables verify clean under the installed lanes, the
/// reverse route index mirrors them and the carried dependency graph is
/// theirs.
fn assert_converged(t: &BuiltTopology, sm: &SubnetManager, tag: &str) {
    let vls = sm.installed_vls().expect("tables installed");
    let verifier = FabricVerifier::new();
    let report = verifier.verify_with_vls(&t.subnet, vls).expect("verifier");
    assert!(report.is_clean(), "{tag}: {report}");
    assert_eq!(
        sm.verify_route_index(&t.subnet),
        Vec::<String>::new(),
        "{tag}"
    );
    let fresh = verifier.channel_deps(&t.subnet, vls).expect("rebuild");
    assert_eq!(sm.channel_deps(), Some(&fresh), "{tag}");
}

/// Fault → repair → heal on every inter-switch link, one at a time.
///
/// A cable whose repair the gate rejects — on the fat tree, each switch's
/// cable toward the switch-lane hub, whose sticky picks close a lane cycle
/// — is answered by a counted full sweep, which leaves no debt: its heal
/// is a counted no-debt full sweep, and lands on the same tables.
fn every_link_heals_exactly(build: fn() -> BuiltTopology, engine: EngineKind) {
    let (mut t, mut sm) = bring_up(build(), engine, true);
    assert_converged(&t, &sm, engine.name());
    let pristine = installed(&t.subnet, &sm);
    let pristine_deps = FabricVerifier::new()
        .channel_deps(&t.subnet, &pristine.1)
        .expect("rebuild");
    let links = inter_switch_links(&t.subnet);
    assert!(!links.is_empty());

    // The twin answers a fault and its heal with full sweeps and lands on
    // the bring-up's tables, so every exact heal below equals its full
    // sweep too.
    let (mut twin, mut twin_sm) = bring_up(build(), engine, false);
    assert_eq!(
        toggle(&mut twin, &mut twin_sm, links[0], false).kind,
        SweepKind::Light
    );
    assert_eq!(
        toggle(&mut twin, &mut twin_sm, links[0], true).kind,
        SweepKind::Light
    );
    assert!(
        installed(&twin.subnet, &twin_sm) == pristine,
        "{}",
        engine.name()
    );

    let mut rejected = 0;
    for (i, &link) in links.iter().enumerate() {
        let tag = format!("{} link {i} {link:?}", engine.name());
        let lane_rebuilds = counter(&sm, "verify.full_deps.vls");
        let repair = toggle(&mut t, &mut sm, link, false);
        let repair_rebuilds = counter(&sm, "verify.full_deps.vls") - lane_rebuilds;
        let heal = toggle(&mut t, &mut sm, link, true);
        assert_eq!(heal.kind, repair.kind, "{tag}");
        // The bring-up's tables, which verified clean, under the bring-up's
        // index and dependency graph.
        assert!(
            installed(&t.subnet, &sm) == pristine,
            "{tag}: not the pre-fault tables"
        );
        assert_eq!(
            sm.verify_route_index(&t.subnet),
            Vec::<String>::new(),
            "{tag}"
        );
        assert_eq!(sm.channel_deps(), Some(&pristine_deps), "{tag}");
        if repair.kind == SweepKind::Light {
            rejected += 1;
            continue;
        }
        assert_eq!(repair.kind, SweepKind::Repair, "{tag}");
        assert_eq!(
            heal.distribution.lft_smps, repair.distribution.lft_smps,
            "{tag}: the heal sends back what the repair sent"
        );
        // A repair that re-layered the lanes rebuilt the graph under the
        // new ones; its heal puts the old lanes back and rebuilds again.
        let heal_rebuilds = counter(&sm, "verify.full_deps.vls") - lane_rebuilds - repair_rebuilds;
        assert_eq!(heal_rebuilds, repair_rebuilds, "{tag}");
    }
    let (n, tag) = (links.len() as u64, engine.name());
    assert!(
        rejected * 8 < n,
        "{tag}: {rejected} of {n} repairs rejected"
    );
    assert_eq!(counter(&sm, "repair.heal_debt"), n - rejected, "{tag}");
    assert_eq!(counter(&sm, "repair.heal_no_debt"), rejected, "{tag}");
    assert_eq!(counter(&sm, "repair.fallback"), rejected, "{tag}");
    assert_eq!(counter(&sm, "repair.verify_rejected"), rejected, "{tag}");
    for reason in ["no-state", "topology", "split"] {
        let name = format!("verify.full_deps.{reason}");
        assert_eq!(counter(&sm, &name), 0, "{tag}: {name}");
    }
}

fn tree() -> BuiltTopology {
    three_level(6, 6, 6, 6)
}

fn torus() -> BuiltTopology {
    torus_2d(4, 4, 1, true)
}

#[test]
fn fat_tree_heals_every_link_exactly() {
    every_link_heals_exactly(tree, EngineKind::FatTree);
}

#[test]
fn minhop_heals_every_link_exactly() {
    every_link_heals_exactly(tree, EngineKind::MinHop);
}

#[test]
fn updown_heals_every_link_exactly() {
    every_link_heals_exactly(tree, EngineKind::UpDown);
}

#[test]
fn dfsssp_heals_every_torus_link_exactly() {
    every_link_heals_exactly(torus, EngineKind::Dfsssp);
}

#[test]
fn lash_heals_every_torus_link_exactly() {
    every_link_heals_exactly(torus, EngineKind::Lash);
}

/// Three links go down one after another, each repaired as it goes, so
/// all three are down at once; they come back last-down first-up, each
/// paying off the top debt, and the fabric is the bring-up's again.
/// Downed together and only then repaired, the same three cannot be
/// undone exactly (each repair routed around links it did not log): those
/// heals are counted full sweeps, and land on the same tables.
#[test]
fn a_three_link_burst_healed_last_down_first_up_returns_to_the_pre_fault_tables() {
    for engine in [EngineKind::FatTree, EngineKind::MinHop] {
        let (mut t, mut sm) = bring_up(tree(), engine, true);
        let pristine = installed(&t.subnet, &sm);
        let links = inter_switch_links(&t.subnet);
        let burst = [links[36], links[115], links[194]];
        for link in burst {
            assert_eq!(toggle(&mut t, &mut sm, link, false).kind, SweepKind::Repair);
        }
        for link in burst.into_iter().rev() {
            assert_eq!(toggle(&mut t, &mut sm, link, true).kind, SweepKind::Repair);
            assert_converged(&t, &sm, engine.name());
        }
        assert!(installed(&t.subnet, &sm) == pristine, "{}", engine.name());
        assert_eq!(counter(&sm, "repair.heal_debt"), 3);
        assert_eq!(counter(&sm, "repair.heal_no_debt"), 0);

        for link in burst {
            t.subnet.set_link_down(link.0, link.1).expect("link down");
        }
        let mut transport = SmpTransport::perfect(sm.sm_node);
        for (node, port) in burst {
            let trap = Trap::LinkStateChange { node, port };
            let report = sm
                .handle_trap(&mut t.subnet, trap, &mut transport)
                .expect("trap");
            assert_eq!(report.kind, SweepKind::Repair);
        }
        for link in burst.into_iter().rev() {
            assert_eq!(toggle(&mut t, &mut sm, link, true).kind, SweepKind::Light);
            assert_converged(&t, &sm, engine.name());
        }
        assert!(installed(&t.subnet, &sm) == pristine, "{}", engine.name());
        assert_eq!(counter(&sm, "repair.heal_debt"), 3);
        assert_eq!(counter(&sm, "repair.heal_no_debt"), 3);
        assert_eq!(counter(&sm, "repair.fallback"), 0);
    }
}

/// A heal answered by the counted no-debt full sweep: one
/// `repair.heal_no_debt`, not a `repair.fallback`, and a clean fabric.
fn assert_no_debt_heal(t: &BuiltTopology, sm: &SubnetManager, report: &ResweepReport, tag: &str) {
    assert_eq!(report.kind, SweepKind::Light, "{tag}");
    assert!(report.failed_blocks.is_empty(), "{tag}");
    assert_eq!(counter(sm, "repair.heal_no_debt"), 1, "{tag}");
    assert_eq!(counter(sm, "repair.heal_debt"), 0, "{tag}");
    assert_eq!(counter(sm, "repair.fallback"), 0, "{tag}");
    assert_converged(t, sm, tag);
}

/// A down, B down, A up: the top debt is B's, so A's return finds none.
#[test]
fn an_out_of_order_heal_is_a_counted_full_sweep() {
    let (mut t, mut sm) = bring_up(tree(), EngineKind::FatTree, true);
    let links = inter_switch_links(&t.subnet);
    let (a, b) = (links[0], links[6]);
    assert_eq!(toggle(&mut t, &mut sm, a, false).kind, SweepKind::Repair);
    let r = toggle(&mut t, &mut sm, b, false);
    eprintln!(
        "{:?}",
        sm.observer()
            .snapshot()
            .unwrap()
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("repair") || k.starts_with("verify.v"))
            .collect::<Vec<_>>()
    );
    assert_eq!(r.kind, SweepKind::Repair);
    let heal = toggle(&mut t, &mut sm, a, true);
    assert_no_debt_heal(&t, &sm, &heal, "out of order");
}

/// A migration rewrites baseline cells behind the repair's log, so the
/// log no longer undoes to what the switches hold.
#[test]
fn a_migration_between_a_fault_and_its_heal_is_a_counted_full_sweep() {
    let t = two_level(3, 3, 3);
    let (leaf, spine) = (t.switch_levels[0][0], t.switch_levels[1][0]);
    let mut dc = DataCenter::from_topology_observed(
        t,
        DataCenterConfig {
            engine: EngineKind::UpDown,
            verify: true,
            ..DataCenterConfig::default()
        },
        Observer::metrics(),
    )
    .expect("bring-up");
    dc.sm.set_repair(true);
    let vm = dc.create_vm("vm", 1).expect("create");
    let (port, _) = dc
        .subnet
        .node(leaf)
        .connected_ports()
        .find(|(_, r)| r.node == spine)
        .expect("uplink");
    let trap = Trap::LinkStateChange { node: leaf, port };
    let mut transport = SmpTransport::perfect(dc.sm.sm_node);
    dc.subnet.set_link_down(leaf, port).expect("link down");
    let repair = dc
        .sm
        .handle_trap(&mut dc.subnet, trap, &mut transport)
        .expect("trap");
    assert_eq!(repair.kind, SweepKind::Repair);

    assert!(dc.migrate_vm(vm, 7).expect("migrate").committed);
    dc.subnet.set_link_up(leaf, port).expect("link up");
    let heal = dc
        .sm
        .handle_trap(&mut dc.subnet, trap, &mut transport)
        .expect("trap");
    assert_eq!(heal.kind, SweepKind::Light);
    let snap = dc.sm.observer().snapshot().expect("metrics on");
    assert_eq!(snap.counter("repair.heal_no_debt"), 1);
    assert_eq!(snap.counter("repair.heal_debt"), 0);
    assert_eq!(snap.counter("repair.fallback"), 0);
    let vls = dc.sm.installed_vls().expect("tables");
    let report = FabricVerifier::new()
        .verify_with_vls(&dc.subnet, vls)
        .expect("verifier");
    assert!(report.is_clean(), "{report}");
    assert_eq!(dc.sm.verify_route_index(&dc.subnet), Vec::<String>::new());
    dc.verify_connectivity().expect("every VM reachable");
}

/// A burst repaired as one batch owes one debt for all its links: the
/// first of them to come back cannot settle it while the others are still
/// down.
#[test]
fn the_first_link_of_a_coalesced_batch_coming_back_is_a_counted_full_sweep() {
    let mut t = tree();
    let mut sm = SubnetManager::new(
        t.hosts[0],
        SmConfig {
            engine: EngineKind::FatTree,
            repair: true,
            verify: true,
            ..SmConfig::default()
        },
    );
    sm.set_observer(Observer::metrics());
    sm.bring_up(&mut t.subnet).expect("bring-up");
    let links = inter_switch_links(&t.subnet);
    let burst = [links[0], links[6]];
    let mut transport = SmpTransport::perfect(sm.sm_node);
    for (node, port) in burst {
        t.subnet.set_link_down(node, port).expect("link down");
    }
    let batch = sm
        .repair_sweep_batch(&mut t.subnet, &burst, &mut transport)
        .expect("batch");
    assert_eq!(batch.kind, SweepKind::Repair);

    let heal = toggle(&mut t, &mut sm, burst[0], true);
    assert_no_debt_heal(&t, &sm, &heal, "first of a batch");
}
