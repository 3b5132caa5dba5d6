//! A LID swap moves its lanes with its rows. Under DFSSSP's per-path
//! layering the lane of a (source switch, LID) path belongs to the column
//! the swap moves, so the SM's VL assignment must move the same way: after
//! every migration, the installed tables verify deadlock-free under
//! [`ib_sm::SubnetManager::installed_vls`].
//!
//! A committed swap exchanges two whole columns, each with its delivery
//! switch and its lanes, so it leaves every lane's channel dependency
//! graph as it was. That is pinned under all five engines: after every
//! committed migration the graph rebuilt from the installed rows equals
//! the one taken just before it with the two LIDs' lanes traded
//! (`ChannelDeps::swap_lids`), and equals the graph the SM carries across
//! the swap. (Dynamic-mode copies re-cable a VF and the intra-leaf
//! shortcut rewrites one leaf row; neither is a whole-column swap, and
//! neither is covered here.)

use ib_core::{DataCenter, DataCenterConfig, VirtArch};
use ib_routing::EngineKind;
use ib_subnet::topology::fattree::two_level;
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::topology::BuiltTopology;
use ib_verify::FabricVerifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Brings `fabric` up prepopulated under `engine`, boots two VMs per
/// hypervisor and makes `moves` seeded migration attempts. After each
/// committed one: the installed tables verify deadlock-free on the
/// installed lanes, every lane's dependency graph equals the one before
/// the move (its two LIDs' lanes traded), and — when the SM `verify`s, so
/// that it carries a graph — the SM carries that graph. Returns the
/// committed migrations.
fn swap_and_check(
    fabric: BuiltTopology,
    engine: EngineKind,
    verify: bool,
    seed: u64,
    moves: usize,
) -> usize {
    let name = format!("{} ({} hosts, {engine:?})", fabric.name, fabric.hosts.len());
    let config = DataCenterConfig {
        arch: VirtArch::VSwitchPrepopulated,
        engine,
        verify,
        ..DataCenterConfig::default()
    };
    let mut dc = DataCenter::from_topology(fabric, config).expect("bring-up");
    let hyps = dc.hypervisors.len();
    let vms: Vec<_> = (0..hyps)
        .flat_map(|h| [h, h])
        .enumerate()
        .map(|(i, h)| dc.create_vm(format!("vm{i}"), h).expect("create"))
        .collect();
    let deps = |dc: &DataCenter| {
        let vls = dc.sm.installed_vls().expect("installed tables");
        FabricVerifier::new()
            .channel_deps(&dc.subnet, vls)
            .expect("dependency graph")
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut committed = 0;
    let mut before = deps(&dc);
    for step in 0..moves {
        let vm = vms[rng.gen_range(0..vms.len())];
        let from = dc.vm(vm).expect("vm").hypervisor;
        let dest = (from + rng.gen_range(1..hyps)) % hyps;
        let Some(slot) = dc.hypervisors[dest].free_slot() else {
            continue;
        };
        // The swap's operands: the VM's LID and the free VF's.
        let mover = dc.vm(vm).expect("vm").lid;
        let other = dc.hypervisors[dest]
            .vf_lid(&dc.subnet, slot)
            .expect("VF LID");
        if !dc.migrate_vm(vm, dest).expect("migrate").committed {
            continue;
        }
        before.swap_lids(mover, other);
        committed += 1;
        let at = format!("{name}, move {step} ({vm} {from} -> {dest})");
        let vls = dc.sm.installed_vls().expect("installed tables");
        let report = FabricVerifier::new()
            .with_deadlock(true)
            .verify_with_vls(&dc.subnet, vls)
            .expect("verify");
        assert!(report.is_clean(), "{at}: {}", report.summary());
        let after = deps(&dc);
        assert!(after == before, "{at}: a lane's dependency graph changed");
        assert!(
            !verify || dc.sm.channel_deps() == Some(&after),
            "{at}: the SM did not carry the graph across the swap"
        );
        before = after;
    }
    committed
}

#[test]
fn dfsssp_swap_migrations_keep_the_installed_lanes_acyclic() {
    let fabrics: [fn() -> BuiltTopology; 2] =
        [|| torus_2d(4, 4, 2, true), || torus_2d(8, 8, 1, true)];
    for (seed, build) in fabrics.into_iter().enumerate() {
        assert!(swap_and_check(build(), EngineKind::Dfsssp, false, seed as u64, 200) > 0);
    }
}

#[test]
fn a_swap_leaves_every_lanes_dependency_graph_unchanged_under_every_engine() {
    let cases: [(fn() -> BuiltTopology, EngineKind); 6] = [
        (|| two_level(4, 4, 3), EngineKind::FatTree),
        (|| two_level(4, 4, 3), EngineKind::MinHop),
        (|| two_level(4, 4, 3), EngineKind::UpDown),
        (|| torus_2d(4, 4, 2, true), EngineKind::Dfsssp),
        (|| torus_2d(4, 4, 2, true), EngineKind::Lash),
        (|| torus_2d(4, 4, 2, true), EngineKind::UpDown),
    ];
    for (build, engine) in cases {
        assert!(
            swap_and_check(build(), engine, true, 7, 60) > 0,
            "{engine:?}"
        );
    }
}
