//! Cross-crate integration: every routing engine brings up real fabrics,
//! every architecture survives migration storms, and the §V-A balance
//! claim holds — LID swaps preserve the link-load multiset of the initial
//! routing.

use ib_core::{DataCenter, DataCenterConfig, MigrationOptions, VirtArch};
use ib_routing::balance::LinkLoad;
use ib_routing::EngineKind;
use ib_sm::{SmConfig, SmpMode, SubnetManager};
use ib_subnet::topology::{basic, fattree, irregular, torus};

fn all_pairs_reachable(subnet: &ib_subnet::Subnet, hosts: &[ib_subnet::NodeId]) {
    for &a in hosts {
        for &b in hosts {
            let lid = subnet.node(b).ports[1].lid.unwrap();
            let path = subnet.trace_route(a, lid, 64).unwrap();
            assert_eq!(*path.last().unwrap(), b);
        }
    }
}

#[test]
fn every_engine_brings_up_a_fat_tree() {
    for engine in [
        EngineKind::MinHop,
        EngineKind::FatTree,
        EngineKind::UpDown,
        EngineKind::Dfsssp,
        EngineKind::Lash,
    ] {
        let mut t = fattree::two_level(4, 3, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine,
                smp_mode: SmpMode::Directed,
                ..SmConfig::default()
            },
        );
        let report = sm.bring_up(&mut t.subnet).unwrap();
        assert_eq!(report.engine, engine.name());
        all_pairs_reachable(&t.subnet, &t.hosts);
    }
}

#[test]
fn deadlock_free_engines_bring_up_a_torus() {
    for engine in [EngineKind::UpDown, EngineKind::Dfsssp, EngineKind::Lash] {
        let mut t = torus::torus_2d(3, 3, 1, true);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine,
                smp_mode: SmpMode::Directed,
                ..SmConfig::default()
            },
        );
        sm.bring_up(&mut t.subnet).unwrap();
        all_pairs_reachable(&t.subnet, &t.hosts);
    }
}

#[test]
fn deadlock_free_engines_handle_exotic_topologies() {
    use ib_routing::cdg::Cdg;
    use ib_routing::graph::SwitchGraph;
    use ib_subnet::topology::dragonfly::{dragonfly, DragonflySpec};
    use ib_subnet::topology::hypercube::hypercube;

    let builds: Vec<(&str, ib_subnet::topology::BuiltTopology)> = vec![
        ("hypercube-3d", hypercube(3, 1)),
        ("dragonfly", dragonfly(DragonflySpec::default())),
        ("torus3d", torus::torus_3d(2, 2, 3, 1)),
    ];
    for (name, t) in builds {
        for engine in [EngineKind::UpDown, EngineKind::Dfsssp, EngineKind::Lash] {
            let mut t = t.clone();
            let mut sm = SubnetManager::new(
                t.hosts[0],
                SmConfig {
                    engine,
                    smp_mode: SmpMode::Directed,
                    ..SmConfig::default()
                },
            );
            sm.bring_up(&mut t.subnet).unwrap();
            all_pairs_reachable(&t.subnet, &t.hosts);
            if engine == EngineKind::UpDown {
                // Single-lane deadlock freedom is Up*/Down*'s contract on
                // *any* topology.
                let g = SwitchGraph::build(&t.subnet).unwrap();
                let tables = engine.build().compute(&t.subnet).unwrap();
                let cdg = Cdg::from_tables(&g, &tables, |_| true);
                assert!(cdg.find_cycle(0).is_none(), "{name}: up*/down* cyclic");
            }
        }
    }
}

#[test]
fn engines_handle_irregular_fabrics() {
    let spec = irregular::IrregularSpec {
        num_switches: 8,
        num_hosts: 12,
        extra_links: 5,
        seed: 7,
    };
    for engine in [EngineKind::MinHop, EngineKind::UpDown, EngineKind::Dfsssp] {
        let mut t = irregular::irregular(spec);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine,
                smp_mode: SmpMode::Directed,
                ..SmConfig::default()
            },
        );
        sm.bring_up(&mut t.subnet).unwrap();
        all_pairs_reachable(&t.subnet, &t.hosts);
    }
}

#[test]
fn swap_migrations_preserve_the_load_multiset() {
    // §V-A: prepopulated LIDs keep the balancing of the initial routing —
    // a swap permutes LFT rows, so the multiset of per-channel loads is
    // invariant.
    let mut dc = DataCenter::from_topology(
        fattree::two_level(3, 3, 3),
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 2,
            engine: EngineKind::FatTree,
            ..DataCenterConfig::default()
        },
    )
    .unwrap();
    let before = LinkLoad::from_subnet(&dc.subnet).unwrap().load_multiset();

    let vm_a = dc.create_vm("a", 0).unwrap();
    let vm_b = dc.create_vm("b", 3).unwrap();
    dc.migrate_vm(vm_a, 8).unwrap();
    dc.migrate_vm(vm_b, 6).unwrap();
    dc.migrate_vm(vm_a, 1).unwrap();

    let after = LinkLoad::from_subnet(&dc.subnet).unwrap().load_multiset();
    assert_eq!(before, after, "LID swapping must preserve balance");
    dc.verify_connectivity().unwrap();
}

#[test]
fn dynamic_vm_rides_the_pf_path_by_construction() {
    // §V-B compromises balance: the VM's path *is* the PF's path. Check
    // the invariant directly after a chain of migrations.
    let mut dc = DataCenter::from_topology(
        fattree::two_level(3, 3, 3),
        DataCenterConfig {
            arch: VirtArch::VSwitchDynamic,
            vfs_per_hypervisor: 2,
            engine: EngineKind::FatTree,
            ..DataCenterConfig::default()
        },
    )
    .unwrap();
    let vm = dc.create_vm("wanderer", 0).unwrap();
    for dest in [4, 8, 2, 7] {
        dc.migrate_vm(vm, dest).unwrap();
        let lid = dc.vm(vm).unwrap().lid;
        let pf = dc.hypervisors[dest].pf_lid(&dc.subnet).unwrap();
        for sw in dc.subnet.physical_switches() {
            let lft = sw.lft().unwrap();
            assert_eq!(lft.get(lid), lft.get(pf), "VM path == PF path");
        }
        dc.verify_connectivity().unwrap();
    }
}

#[test]
fn migration_storm_under_every_architecture() {
    for arch in [VirtArch::VSwitchPrepopulated, VirtArch::VSwitchDynamic] {
        let mut dc = DataCenter::from_topology(
            fattree::two_level(3, 2, 2),
            DataCenterConfig {
                arch,
                vfs_per_hypervisor: 3,
                ..DataCenterConfig::default()
            },
        )
        .unwrap();
        let vms: Vec<_> = (0..4)
            .map(|i| dc.create_vm(format!("vm{i}"), i).unwrap())
            .collect();
        // 12 migrations round-robin across the fabric.
        for (round, &vm) in (0..3).flat_map(|r| vms.iter().map(move |v| (r, v))) {
            let dest = (dc.vm(vm).unwrap().hypervisor + round + 1) % dc.hypervisors.len();
            if dc.vm(vm).unwrap().hypervisor != dest {
                if let Ok(report) = dc.migrate_vm(vm, dest) {
                    assert!(report.lft.max_blocks_per_switch <= 2);
                }
            }
            dc.verify_connectivity().unwrap();
        }
        assert_eq!(dc.num_vms(), 4, "{arch}: no VM lost in the storm");
    }
}

#[test]
fn invalidate_first_variant_end_to_end() {
    let mut dc = DataCenter::from_topology(
        basic::fig5_fabric(),
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 2,
            migration: MigrationOptions {
                invalidate_first: true,
                ..MigrationOptions::default()
            },
            ..DataCenterConfig::default()
        },
    )
    .unwrap();
    let vm = dc.create_vm("vm", 0).unwrap();
    let report = dc.migrate_vm(vm, 2).unwrap();
    assert_eq!(
        report.lft.invalidation_smps, report.lft.switches_updated,
        "§VI-C: invalidation adds one SMP per updated switch"
    );
    dc.verify_connectivity().unwrap();
}

#[test]
fn smaller_initial_configuration_for_dynamic_mode() {
    // §V-B: the dynamic model's initial path computation covers only the
    // physical endpoints — measurably fewer decisions and SMPs.
    let build = || fattree::two_level(3, 3, 2);
    let prepop = DataCenter::from_topology(
        build(),
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 8,
            ..DataCenterConfig::default()
        },
    )
    .unwrap();
    let dynamic = DataCenter::from_topology(
        build(),
        DataCenterConfig {
            arch: VirtArch::VSwitchDynamic,
            vfs_per_hypervisor: 8,
            ..DataCenterConfig::default()
        },
    )
    .unwrap();
    assert!(dynamic.bring_up.decisions < prepop.bring_up.decisions);
    assert!(dynamic.bring_up.distribution.lft_smps <= prepop.bring_up.distribution.lft_smps);
    assert!(dynamic.subnet.num_lids() < prepop.subnet.num_lids());
}
