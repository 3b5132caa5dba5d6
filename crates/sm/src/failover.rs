//! Subnet-manager redundancy: election and failover.
//!
//! Production IB fabrics run several SM instances; exactly one is MASTER,
//! the rest sit in STANDBY polling the master. On master death a standby
//! with the highest (priority, GUID) pair takes over, re-sweeps the
//! fabric, and — crucially for this paper's story — *adopts* the existing
//! LID and LFT state rather than renumbering: a failover must not be a
//! full reconfiguration, for the same reason a migration must not be.
//! (§V-A's capacity discussion counts "dedicated SM nodes" among the LID
//! consumers; this module is what those nodes run.)

use ib_subnet::{NodeId, Subnet};
use ib_types::{IbError, IbResult};

use crate::{SmConfig, SubnetManager};

/// SM instance states, after IBA's SMInfo state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmState {
    /// Actively managing the subnet.
    Master,
    /// Alive, monitoring the master.
    Standby,
    /// Configured not to take over.
    NotActive,
}

/// One SM instance in the redundancy group.
#[derive(Debug)]
pub struct SmInstance {
    /// The node this instance runs on.
    pub node: NodeId,
    /// Election priority (higher wins; ties broken by node GUID).
    pub priority: u8,
    /// Current state.
    pub state: SmState,
    /// The manager proper (holds ledger + LID space when master).
    pub manager: SubnetManager,
}

/// A group of SM instances with exactly one master after election.
#[derive(Debug)]
pub struct SmGroup {
    instances: Vec<SmInstance>,
    master: Option<usize>,
}

impl SmGroup {
    /// Creates a group; call [`SmGroup::elect`] to pick the master.
    #[must_use]
    pub fn new(config: SmConfig, members: Vec<(NodeId, u8)>) -> Self {
        let instances = members
            .into_iter()
            .map(|(node, priority)| SmInstance {
                node,
                priority,
                state: SmState::Standby,
                manager: SubnetManager::new(node, config),
            })
            .collect();
        Self {
            instances,
            master: None,
        }
    }

    /// Elects the master: highest priority, ties broken by highest node
    /// GUID — the IBA rule.
    pub fn elect(&mut self, subnet: &Subnet) -> IbResult<NodeId> {
        let winner = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.state != SmState::NotActive)
            .max_by_key(|(_, i)| (i.priority, subnet.node(i.node).guid.raw()))
            .map(|(idx, _)| idx)
            .ok_or_else(|| IbError::Management("no electable SM instance".into()))?;
        for (idx, inst) in self.instances.iter_mut().enumerate() {
            inst.state = if idx == winner {
                SmState::Master
            } else if inst.state != SmState::NotActive {
                SmState::Standby
            } else {
                SmState::NotActive
            };
        }
        self.master = Some(winner);
        Ok(self.instances[winner].node)
    }

    /// The current master instance.
    #[must_use]
    pub fn master(&self) -> Option<&SmInstance> {
        self.master.map(|i| &self.instances[i])
    }

    /// Mutable master access (to run bring-ups and reconfigurations).
    pub fn master_mut(&mut self) -> IbResult<&mut SmInstance> {
        let idx = self
            .master
            .ok_or_else(|| IbError::Management("no master elected".into()))?;
        Ok(&mut self.instances[idx])
    }

    /// All members and their states.
    #[must_use]
    pub fn members(&self) -> Vec<(NodeId, SmState)> {
        self.instances.iter().map(|i| (i.node, i.state)).collect()
    }

    /// Kills the master (models node failure) and fails over: the next
    /// standby is elected and **adopts** fabric state — it re-sweeps to
    /// learn the topology and registers the already-assigned LIDs in its
    /// own allocator, sending zero `SubnSet` SMPs.
    ///
    /// Returns the new master's node and the number of (read-only,
    /// `SubnGet`) discovery SMPs the takeover cost.
    pub fn fail_over(&mut self, subnet: &mut Subnet) -> IbResult<(NodeId, usize)> {
        let dead = self
            .master
            .ok_or_else(|| IbError::Management("no master to fail".into()))?;
        self.instances[dead].state = SmState::NotActive;
        self.master = None;

        let new_master = self.elect(subnet)?;
        let inst = self.master_mut()?;
        // Adopt, don't renumber: a discovery sweep plus LID-space resync.
        let before = inst.manager.ledger.total();
        let disc = crate::discovery::sweep(subnet, inst.manager.sm_node, &mut inst.manager.ledger)?;
        let _ = disc;
        for lid in subnet.lids() {
            if !inst.manager.lid_space.is_allocated(lid) {
                inst.manager.lid_space.claim(lid)?;
            }
        }
        let takeover_smps = inst.manager.ledger.total() - before;
        Ok((new_master, takeover_smps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_mad::AttributeKind;
    use ib_subnet::topology::fattree::two_level;

    fn fabric_with_group() -> (ib_subnet::topology::BuiltTopology, SmGroup) {
        let t = two_level(2, 3, 2);
        // Three SM candidates on three hosts with distinct priorities.
        let group = SmGroup::new(
            SmConfig::default(),
            vec![(t.hosts[0], 5), (t.hosts[1], 10), (t.hosts[2], 10)],
        );
        (t, group)
    }

    #[test]
    fn election_prefers_priority_then_guid() {
        let (t, mut group) = fabric_with_group();
        let master = group.elect(&t.subnet).unwrap();
        // Hosts 1 and 2 tie on priority 10; host 2 has the higher GUID
        // (minted later).
        assert_eq!(master, t.hosts[2]);
        let states: Vec<SmState> = group.members().iter().map(|&(_, s)| s).collect();
        assert_eq!(
            states,
            vec![SmState::Standby, SmState::Standby, SmState::Master]
        );
    }

    #[test]
    fn master_brings_up_and_failover_adopts_without_sets() {
        let (mut t, mut group) = fabric_with_group();
        group.elect(&t.subnet).unwrap();
        group
            .master_mut()
            .unwrap()
            .manager
            .bring_up(&mut t.subnet)
            .unwrap();
        let lids_before = t.subnet.lids();

        let (new_master, takeover_smps) = group.fail_over(&mut t.subnet).unwrap();
        assert_eq!(new_master, t.hosts[1], "next best standby takes over");
        // Adoption must not renumber anything.
        assert_eq!(t.subnet.lids(), lids_before);
        assert!(takeover_smps > 0, "a re-sweep costs Get SMPs");
        // And must not have mutated the fabric: the new master's ledger
        // holds Get-only records.
        let inst = group.master().unwrap();
        assert!(inst
            .manager
            .ledger
            .records()
            .iter()
            .all(|r| r.method == ib_mad::SmpMethod::Get));
        // The adopted LID space knows every assigned LID.
        assert_eq!(inst.manager.lid_space.in_use(), lids_before.len());

        // A takeover carries no derived state: the new master's first
        // link-down under repair is a counted no-baseline full sweep.
        let sm = &mut group.master_mut().unwrap().manager;
        sm.set_repair(true);
        sm.set_observer(ib_observe::Observer::metrics());
        let trap = crate::testutil::down_uplink(&mut t, 0, 0);
        let mut transport = ib_mad::SmpTransport::perfect(sm.sm_node);
        let report = sm.handle_trap(&mut t.subnet, trap, &mut transport).unwrap();
        assert_eq!(report.kind, crate::SweepKind::Light);
        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.no_baseline"), 1);
        assert_eq!(snap.counter("repair.fallback"), 1);
    }

    #[test]
    fn failover_chain_exhausts_gracefully() {
        let (mut t, mut group) = fabric_with_group();
        group.elect(&t.subnet).unwrap();
        group
            .master_mut()
            .unwrap()
            .manager
            .bring_up(&mut t.subnet)
            .unwrap();
        group.fail_over(&mut t.subnet).unwrap();
        group.fail_over(&mut t.subnet).unwrap();
        // All three dead now.
        assert!(group.fail_over(&mut t.subnet).is_err());
    }

    #[test]
    fn new_master_can_reconfigure_after_adoption() {
        let (mut t, mut group) = fabric_with_group();
        group.elect(&t.subnet).unwrap();
        group
            .master_mut()
            .unwrap()
            .manager
            .bring_up(&mut t.subnet)
            .unwrap();
        group.fail_over(&mut t.subnet).unwrap();

        // The adopted state is complete enough to run a reconfiguration:
        // nothing changed, so nothing is sent.
        let report = group
            .master_mut()
            .unwrap()
            .manager
            .full_reconfiguration(&mut t.subnet)
            .unwrap();
        assert_eq!(report.distribution.lft_smps, 0);
        // And a fresh allocation continues where the dead master stopped.
        let next = group
            .master_mut()
            .unwrap()
            .manager
            .lid_space
            .allocate()
            .unwrap();
        assert_eq!(next.raw() as usize, t.subnet.num_lids() + 1);
        let _ = AttributeKind::LftBlock;
    }
}
