//! Multi-tenant partitioning over the vSwitch architecture.
//!
//! The cloud scenario of §I — HPC-as-a-Service with VMs for many customers
//! on one fabric — needs more than addressing: tenants must be *isolated*.
//! InfiniBand does it with partition keys; the SM programs each port's
//! P_Key table and HCAs drop packets whose P_Key does not match.
//!
//! The vSwitch architecture composes naturally: every VF is a complete
//! vHCA with its own P_Key table, and because a migrating VM keeps its
//! addresses, the *partition follows the VM* too — one more
//! `SubnSet(P_KeyTable)` SMP to the destination hypervisor, piggybacking
//! on step (a) of Algorithm 1.

use rustc_hash::FxHashMap;

use ib_mad::{Routes, Smp};
use ib_sm::distribution::address;
use ib_sm::SmpMode;
use ib_types::{IbError, IbResult, PKey, PortNum};

use crate::datacenter::DataCenter;
use crate::vm::VmId;

/// Membership grade within a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Membership {
    /// May talk to every member.
    Full,
    /// May talk to full members only.
    Limited,
}

/// A named partition (tenant).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Partition number (15 bits).
    pub number: u16,
    /// Human-readable tenant name.
    pub name: String,
}

/// The tenancy directory: partitions, VM enrollments, and the SMP
/// accounting for P_Key table programming.
///
/// ```
/// use ib_core::{DataCenter, DataCenterConfig, Membership, Tenancy, VirtArch};
/// use ib_subnet::topology::fattree;
///
/// let mut dc = DataCenter::from_topology(
///     fattree::two_level(2, 2, 2),
///     DataCenterConfig::default(),
/// ).unwrap();
/// let mut tenancy = Tenancy::new();
/// tenancy.create_partition(0x10, "acme").unwrap();
///
/// let web = dc.create_vm("web", 0).unwrap();
/// let db = dc.create_vm("db", 1).unwrap();
/// tenancy.enroll(&mut dc, web, 0x10, Membership::Full).unwrap();
/// tenancy.enroll(&mut dc, db, 0x10, Membership::Limited).unwrap();
/// assert!(tenancy.can_communicate(web, db));
///
/// // The partition follows the VM across a live migration.
/// dc.migrate_vm(web, 3).unwrap();
/// tenancy.after_migration(&mut dc, web).unwrap();
/// assert!(tenancy.can_communicate(web, db));
/// ```
#[derive(Debug, Default)]
pub struct Tenancy {
    partitions: FxHashMap<u16, Partition>,
    enrollment: FxHashMap<VmId, (u16, Membership)>,
    /// `SubnSet(P_KeyTable)` SMPs sent.
    pub pkey_smps: usize,
}

impl Tenancy {
    /// An empty tenancy directory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a partition.
    pub fn create_partition(&mut self, number: u16, name: impl Into<String>) -> IbResult<()> {
        // Validate the number through PKey construction.
        let _ = PKey::new(number, true).map_err(IbError::from)?;
        if self.partitions.contains_key(&number) {
            return Err(IbError::Virtualization(format!(
                "partition {number:#06x} already exists"
            )));
        }
        self.partitions.insert(
            number,
            Partition {
                number,
                name: name.into(),
            },
        );
        Ok(())
    }

    /// Enrolls a VM into a partition, programming the P_Key table of the
    /// VM's current VF through one SMP to the hosting hypervisor.
    pub fn enroll(
        &mut self,
        dc: &mut DataCenter,
        vm: VmId,
        partition: u16,
        membership: Membership,
    ) -> IbResult<()> {
        if !self.partitions.contains_key(&partition) {
            return Err(IbError::Virtualization(format!(
                "partition {partition:#06x} does not exist"
            )));
        }
        let rec = dc
            .vm(vm)
            .ok_or_else(|| IbError::Virtualization(format!("{vm} does not exist")))?;
        let pf = dc.hypervisors[rec.hypervisor].pf;
        self.enrollment.insert(vm, (partition, membership));
        self.send_table(dc, vm, pf)?;
        Ok(())
    }

    /// The P_Key a VM currently operates with.
    #[must_use]
    pub fn pkey_of(&self, vm: VmId) -> Option<PKey> {
        // The number was validated at enrollment; if it somehow went bad,
        // the VM reads as unenrolled rather than panicking.
        self.enrollment
            .get(&vm)
            .and_then(|&(num, m)| PKey::new(num, m == Membership::Full).ok())
    }

    /// Whether two VMs may communicate under the partition rules.
    #[must_use]
    pub fn can_communicate(&self, a: VmId, b: VmId) -> bool {
        match (self.pkey_of(a), self.pkey_of(b)) {
            (Some(ka), Some(kb)) => ka.matches(kb),
            // Unenrolled VMs ride the default partition together.
            (None, None) => true,
            _ => false,
        }
    }

    /// Re-programs a VM's P_Key table after a migration (call with the
    /// migration report's destination). One more SMP to the destination
    /// hypervisor — the partition follows the VM.
    pub fn after_migration(&mut self, dc: &mut DataCenter, vm: VmId) -> IbResult<()> {
        if !self.enrollment.contains_key(&vm) {
            return Ok(());
        }
        let rec = dc
            .vm(vm)
            .ok_or_else(|| IbError::Virtualization(format!("{vm} does not exist")))?;
        let pf = dc.hypervisors[rec.hypervisor].pf;
        self.send_table(dc, vm, pf)
    }

    /// Drops a VM's enrollment (call from VM destruction).
    pub fn expel(&mut self, vm: VmId) {
        self.enrollment.remove(&vm);
    }

    /// Members of a partition.
    #[must_use]
    pub fn members(&self, partition: u16) -> Vec<(VmId, Membership)> {
        let mut v: Vec<(VmId, Membership)> = self
            .enrollment
            .iter()
            .filter(|(_, &(p, _))| p == partition)
            .map(|(&vm, &(_, m))| (vm, m))
            .collect();
        v.sort_unstable_by_key(|&(vm, _)| vm);
        v
    }

    fn send_table(&mut self, dc: &mut DataCenter, vm: VmId, pf: ib_subnet::NodeId) -> IbResult<()> {
        let key = self
            .pkey_of(vm)
            .ok_or_else(|| IbError::Virtualization(format!("{vm} is not enrolled")))?;
        let routes = Routes::Search(dc.sm.sm_node);
        let (routing, hops) = address(&dc.subnet, routes, pf, SmpMode::Directed)?;
        let smp = Smp::set_pkey_table(
            pf,
            routing,
            PortNum::new(1),
            vec![key.raw(), ib_types::DEFAULT_PKEY.raw()],
        );
        dc.sm.ledger.record(&smp, hops);
        self.pkey_smps += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataCenterConfig, VirtArch};
    use ib_mad::AttributeKind;
    use ib_subnet::topology::fattree::two_level;

    fn dc() -> DataCenter {
        DataCenter::from_topology(
            two_level(2, 3, 2),
            DataCenterConfig {
                arch: VirtArch::VSwitchPrepopulated,
                vfs_per_hypervisor: 2,
                ..DataCenterConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn enrollment_programs_pkey_tables() {
        let mut dc = dc();
        let mut tenancy = Tenancy::new();
        tenancy.create_partition(0x10, "acme").unwrap();
        let a = dc.create_vm("a", 0).unwrap();
        let b = dc.create_vm("b", 1).unwrap();
        tenancy.enroll(&mut dc, a, 0x10, Membership::Full).unwrap();
        tenancy.enroll(&mut dc, b, 0x10, Membership::Full).unwrap();
        assert_eq!(tenancy.pkey_smps, 2);
        assert_eq!(dc.sm.ledger.count_attribute(AttributeKind::PKeyTable), 2);
        assert!(tenancy.can_communicate(a, b));
    }

    #[test]
    fn tenants_are_isolated() {
        let mut dc = dc();
        let mut tenancy = Tenancy::new();
        tenancy.create_partition(0x10, "acme").unwrap();
        tenancy.create_partition(0x20, "globex").unwrap();
        let a = dc.create_vm("a", 0).unwrap();
        let b = dc.create_vm("b", 1).unwrap();
        tenancy.enroll(&mut dc, a, 0x10, Membership::Full).unwrap();
        tenancy.enroll(&mut dc, b, 0x20, Membership::Full).unwrap();
        assert!(!tenancy.can_communicate(a, b));
        // An unenrolled VM cannot reach either tenant.
        let c = dc.create_vm("c", 2).unwrap();
        assert!(!tenancy.can_communicate(a, c));
    }

    #[test]
    fn limited_members_need_a_full_peer() {
        let mut dc = dc();
        let mut tenancy = Tenancy::new();
        tenancy.create_partition(0x30, "storage").unwrap();
        let server = dc.create_vm("server", 0).unwrap();
        let c1 = dc.create_vm("client-1", 1).unwrap();
        let c2 = dc.create_vm("client-2", 2).unwrap();
        tenancy
            .enroll(&mut dc, server, 0x30, Membership::Full)
            .unwrap();
        tenancy
            .enroll(&mut dc, c1, 0x30, Membership::Limited)
            .unwrap();
        tenancy
            .enroll(&mut dc, c2, 0x30, Membership::Limited)
            .unwrap();
        assert!(tenancy.can_communicate(c1, server));
        assert!(!tenancy.can_communicate(c1, c2), "limited-limited blocked");
        assert_eq!(tenancy.members(0x30).len(), 3);
    }

    #[test]
    fn partition_follows_the_vm_across_migration() {
        let mut dc = dc();
        let mut tenancy = Tenancy::new();
        tenancy.create_partition(0x10, "acme").unwrap();
        let a = dc.create_vm("a", 0).unwrap();
        tenancy.enroll(&mut dc, a, 0x10, Membership::Full).unwrap();
        let before = tenancy.pkey_smps;

        dc.migrate_vm(a, 5).unwrap();
        tenancy.after_migration(&mut dc, a).unwrap();

        assert_eq!(tenancy.pkey_smps, before + 1, "one SMP to the destination");
        assert_eq!(tenancy.pkey_of(a).unwrap().number(), 0x10);
        dc.verify_connectivity().unwrap();
    }

    #[test]
    fn duplicate_partition_and_bad_numbers_rejected() {
        let mut tenancy = Tenancy::new();
        tenancy.create_partition(0x10, "acme").unwrap();
        assert!(tenancy.create_partition(0x10, "again").is_err());
        assert!(tenancy.create_partition(0x8000, "too-big").is_err());
    }

    #[test]
    fn expel_removes_membership() {
        let mut dc = dc();
        let mut tenancy = Tenancy::new();
        tenancy.create_partition(0x10, "acme").unwrap();
        let a = dc.create_vm("a", 0).unwrap();
        tenancy.enroll(&mut dc, a, 0x10, Membership::Full).unwrap();
        tenancy.expel(a);
        assert!(tenancy.pkey_of(a).is_none());
        assert!(tenancy.members(0x10).is_empty());
    }
}
