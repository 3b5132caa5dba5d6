//! A LID swap moves its lanes with its rows. Under DFSSSP's per-path
//! layering the lane of a (source switch, LID) path belongs to the column
//! the swap moves, so the SM's VL assignment must move the same way: after
//! every migration, the installed tables verify deadlock-free under
//! [`ib_sm::SubnetManager::installed_vls`].

use ib_core::{DataCenter, DataCenterConfig, VirtArch};
use ib_routing::EngineKind;
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::topology::BuiltTopology;
use ib_verify::FabricVerifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn dfsssp_swap_migrations_keep_the_installed_lanes_acyclic() {
    let fabrics: [fn() -> BuiltTopology; 2] =
        [|| torus_2d(4, 4, 2, true), || torus_2d(8, 8, 1, true)];
    for (seed, build) in fabrics.into_iter().enumerate() {
        let fabric = build();
        let name = format!("{} ({} hosts)", fabric.name, fabric.hosts.len());
        let config = DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            engine: EngineKind::Dfsssp,
            ..DataCenterConfig::default()
        };
        let mut dc = DataCenter::from_topology(fabric, config).expect("bring-up");
        let hyps = dc.hypervisors.len();
        let vms: Vec<_> = (0..hyps)
            .flat_map(|h| [h, h])
            .enumerate()
            .map(|(i, h)| dc.create_vm(format!("vm{i}"), h).expect("create"))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed as u64);
        for step in 0..200 {
            let vm = vms[rng.gen_range(0..vms.len())];
            let from = dc.vm(vm).expect("vm").hypervisor;
            let dest = (from + rng.gen_range(1..hyps)) % hyps;
            if dc.hypervisors[dest].free_slot().is_none() {
                continue;
            }
            dc.migrate_vm(vm, dest).expect("migrate");
            let vls = dc.sm.installed_vls().expect("installed tables");
            let report = FabricVerifier::new()
                .with_deadlock(true)
                .verify_with_vls(&dc.subnet, vls)
                .expect("verify");
            assert!(
                report.is_clean(),
                "{name}, move {step} ({vm} {from} -> {dest}): {}",
                report.summary()
            );
        }
    }
}
