//! # ib-vswitch
//!
//! A from-scratch reproduction of *Towards the InfiniBand SR-IOV vSwitch
//! Architecture* (Tasoulas, Gran, Johnsen, Begnum, Skeie — IEEE CLUSTER
//! 2015): the vSwitch SR-IOV addressing architectures and their
//! topology-agnostic live-migration reconfiguration method, together with
//! every substrate they need — an InfiniBand subnet model, an OpenSM-analog
//! subnet manager, five routing engines, an SMP ledger and cost model, a
//! discrete-event simulator, and an OpenStack-like orchestration layer.
//!
//! ## Quick start
//!
//! ```
//! use ib_vswitch::prelude::*;
//!
//! // A 2-level fat tree of 36 hosts, every host virtualized into an
//! // SR-IOV hypervisor with prepopulated VF LIDs.
//! let built = ib_vswitch::topology::fattree::two_level(6, 6, 3);
//! let mut dc = DataCenter::from_topology(built, DataCenterConfig {
//!     arch: VirtArch::VSwitchPrepopulated,
//!     vfs_per_hypervisor: 4,
//!     ..DataCenterConfig::default()
//! }).unwrap();
//!
//! // Boot a VM and live-migrate it across the fabric: zero path
//! // recomputation, and only one or two SMPs per updated switch.
//! let vm = dc.create_vm("webserver", 0).unwrap();
//! let report = dc.migrate_vm(vm, 35).unwrap();
//! assert_eq!(report.lid_before, report.lid_after); // addresses follow the VM
//! assert!(report.lft.max_blocks_per_switch <= 2);  // m' ∈ {1, 2}
//! dc.verify_connectivity().unwrap();
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `ib-types` | LID/GUID/GID newtypes, LID space |
//! | [`subnet`] | `ib-subnet` | subnet graph, LFTs, topology builders |
//! | [`mad`] | `ib-mad` | SMPs, directed routes, ledger, cost model |
//! | [`observe`] | `ib-observe` | spans, counters, histograms, metrics export |
//! | [`routing`] | `ib-routing` | Min-Hop, Fat-Tree, Up*/Down*, DFSSSP, LASH, CDG |
//! | [`sm`] | `ib-sm` | discovery, LID assignment, LFT distribution |
//! | [`core`] | `ib-core` | **the paper**: vSwitch architectures + reconfiguration |
//! | [`sim`] | `ib-sim` | event queue, SMP replay, downtime |
//! | [`cloud`] | `ib-cloud` | placement, §VII-B workflow, scenarios |
//! | [`verify`] | `ib-verify` | fabric invariant verifier over installed LFTs |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ib_cloud as cloud;
pub use ib_core as core;
pub use ib_mad as mad;
pub use ib_observe as observe;
pub use ib_routing as routing;
pub use ib_sim as sim;
pub use ib_sm as sm;
pub use ib_subnet as subnet;
pub use ib_types as types;
pub use ib_verify as verify;

/// Topology builders, re-exported at the top level for convenience.
pub use ib_subnet::topology;

/// The names almost every user needs.
pub mod prelude {
    pub use ib_cloud::{Inventory, LiveMigrationWorkflow, PlacementPolicy, VmFlavor};
    pub use ib_core::{
        DataCenter, DataCenterConfig, MigrationOptions, MigrationReport, VirtArch, VmId,
    };
    pub use ib_mad::{CostModel, SmpLedger};
    pub use ib_observe::Observer;
    pub use ib_routing::{EngineKind, RoutingEngine};
    pub use ib_sm::{SmConfig, SmpMode, SubnetManager};
    pub use ib_subnet::{topology::BuiltTopology, Subnet};
    pub use ib_types::{Gid, Guid, Lid, PortNum};
    pub use ib_verify::{FabricVerifier, VerifyReport};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let _ = EngineKind::MinHop;
        let _ = VirtArch::SharedPort;
        let _ = CostModel::default();
        let _ = Lid::from_raw(1);
    }
}
