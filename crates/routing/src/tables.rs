//! Routing-engine output: per-switch LFTs plus a virtual-lane assignment.

use ib_subnet::{Lft, NodeId, Subnet};
use ib_types::{IbResult, Lid, PortNum, VirtualLane};
use rustc_hash::FxHashMap;

use crate::graph::SwitchGraph;

/// Converts per-switch flat staging rows (indexed by raw LID) into the
/// block-structured LFT map routing engines return. One conversion at the
/// end of a compute replaces per-entry `Lft::set` bookkeeping in the hot
/// loops; `stages[s]` becomes the table of switch `s`.
pub(crate) fn stages_to_lfts(
    g: &SwitchGraph,
    stages: Vec<Vec<Option<PortNum>>>,
) -> FxHashMap<NodeId, Lft> {
    stages
        .into_iter()
        .enumerate()
        .map(|(s, stage)| (g.node_id(s), Lft::from_dense(stage)))
        .collect()
}

/// How flows are spread across virtual lanes for deadlock freedom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VlAssignment {
    /// Everything on VL0 (engines whose routes are acyclic by
    /// construction on one lane, like Up*/Down*).
    SingleVl,
    /// Each *destination LID* is served on one VL; the per-destination
    /// routing tree lives entirely in that layer. DFSSSP's layering, and
    /// — with just VL0/VL1 — the minimal engines' isolation of
    /// switch-destined traffic from the host lane.
    PerDestination(FxHashMap<u16, VirtualLane>),
    /// LASH-style: each ordered source→destination *switch pair* is assigned
    /// a layer.
    PerSwitchPair(FxHashMap<(u32, u32), VirtualLane>),
    /// DFSSSP-style fine granularity: each (source switch, destination
    /// LID) *path* is assigned a layer. Unlisted paths ride VL0.
    PerSourceDestination(FxHashMap<(u32, u16), VirtualLane>),
}

impl VlAssignment {
    /// The VL a packet from switch-index `src` to LID `dst` travels on.
    #[must_use]
    pub fn lane_for(&self, src_switch: u32, dst_switch: u32, dst: Lid) -> VirtualLane {
        match self {
            Self::SingleVl => VirtualLane::VL0,
            Self::PerDestination(map) => map.get(&dst.raw()).copied().unwrap_or(VirtualLane::VL0),
            Self::PerSwitchPair(map) => map
                .get(&(src_switch, dst_switch))
                .copied()
                .unwrap_or(VirtualLane::VL0),
            Self::PerSourceDestination(map) => map
                .get(&(src_switch, dst.raw()))
                .copied()
                .unwrap_or(VirtualLane::VL0),
        }
    }

    /// The lanes in use, ascending and distinct. VL0 is always among them:
    /// every destination, pair or path the assignment does not list rides
    /// it ([`Self::lane_for`]'s default).
    #[must_use]
    pub fn lanes(&self) -> Vec<VirtualLane> {
        let mut lanes: Vec<VirtualLane> = match self {
            Self::SingleVl => Vec::new(),
            Self::PerDestination(map) => map.values().copied().collect(),
            Self::PerSwitchPair(map) => map.values().copied().collect(),
            Self::PerSourceDestination(map) => map.values().copied().collect(),
        };
        lanes.push(VirtualLane::VL0);
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }

    /// Number of distinct lanes in use.
    #[must_use]
    pub fn lanes_used(&self) -> usize {
        self.lanes().len()
    }
}

/// The complete output of a routing computation.
#[derive(Clone, Debug)]
pub struct RoutingTables {
    /// New LFT for every switch (physical and virtual).
    pub lfts: FxHashMap<NodeId, Lft>,
    /// VL layering, if the engine produces one.
    pub vls: VlAssignment,
    /// Name of the engine that produced the tables.
    pub engine: &'static str,
    /// Number of (switch, destination) route decisions made — a
    /// machine-independent proxy for `PCt` used in tests where wall-clock
    /// would flake.
    pub decisions: u64,
}

impl RoutingTables {
    /// Snapshots the LFTs *currently installed* in the subnet — the tables
    /// packets would actually follow, as opposed to the ones an engine just
    /// planned. Switches without an installed LFT are omitted. The
    /// verification layer audits this view after sweeps and migrations.
    #[must_use]
    pub fn from_installed(subnet: &Subnet) -> Self {
        let lfts: FxHashMap<NodeId, Lft> = subnet
            .switches()
            .filter_map(|n| subnet.lft(n.id).map(|lft| (n.id, lft.clone())))
            .collect();
        Self {
            lfts,
            vls: VlAssignment::SingleVl,
            engine: "installed",
            decisions: 0,
        }
    }

    /// Overwrites one destination column across every switch's LFT: switch
    /// `sw`'s row for `lid` becomes `f(sw)` (cleared on `None`). The splice
    /// primitive of incremental repair — every other column is untouched,
    /// so a later block-diff against the installed tables only sees the
    /// repaired destinations' blocks.
    pub fn set_column(&mut self, lid: Lid, f: impl Fn(NodeId) -> Option<PortNum>) {
        for (&sw, lft) in &mut self.lfts {
            match f(sw) {
                Some(p) => lft.set(lid, p),
                None => lft.clear(lid),
            }
        }
    }

    /// The precondition every engine's incremental repair shares: these
    /// tables are a splice baseline for `g` only if they hold an LFT for
    /// each of its switches. `Err` otherwise (and for an empty graph, which
    /// has nothing to splice) — the caller's answer is a full compute.
    pub(crate) fn check_covers(&self, g: &SwitchGraph) -> IbResult<()> {
        if g.is_empty() || (0..g.len()).any(|s| !self.lfts.contains_key(&g.node_id(s))) {
            return Err(ib_types::IbError::Management(
                "repair baseline does not cover the switch graph".into(),
            ));
        }
        Ok(())
    }

    /// Installs every LFT into the subnet directly (no SMP accounting —
    /// the subnet manager is the component that distributes with SMPs).
    pub fn install(&self, subnet: &mut Subnet) -> IbResult<()> {
        for (&sw, lft) in &self.lfts {
            subnet.set_lft(sw, lft.clone())?;
        }
        Ok(())
    }

    /// Verifies that, per these tables, every destination LID is reachable
    /// from every switch, by walking LFT hops in table space. Returns the
    /// list of `(switch, lid)` failures.
    #[must_use]
    pub fn unreachable_pairs(&self, subnet: &Subnet, max_hops: usize) -> Vec<(NodeId, Lid)> {
        let mut failures = Vec::new();
        let lids = subnet.lids();
        for &start in self.lfts.keys() {
            'dest: for &lid in &lids {
                let target = subnet.endpoint_of(lid).expect("registered LID");
                let mut cur = start;
                for _ in 0..max_hops {
                    if cur == target.node {
                        continue 'dest;
                    }
                    let Some(lft) = self.lfts.get(&cur) else {
                        failures.push((start, lid));
                        continue 'dest;
                    };
                    let Some(out) = lft.get(lid) else {
                        failures.push((start, lid));
                        continue 'dest;
                    };
                    if out.is_management() {
                        if cur == target.node {
                            continue 'dest;
                        }
                        failures.push((start, lid));
                        continue 'dest;
                    }
                    let Some(remote) = subnet.neighbor(cur, out) else {
                        failures.push((start, lid));
                        continue 'dest;
                    };
                    if remote.node == target.node {
                        continue 'dest;
                    }
                    cur = remote.node;
                }
                failures.push((start, lid));
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_vl_defaults() {
        let vls = VlAssignment::SingleVl;
        assert_eq!(vls.lane_for(0, 1, Lid::from_raw(5)), VirtualLane::VL0);
        assert_eq!(vls.lanes_used(), 1);
    }

    #[test]
    fn per_destination_lookup() {
        let mut map = FxHashMap::default();
        map.insert(5u16, VirtualLane::new(2).unwrap());
        let vls = VlAssignment::PerDestination(map);
        assert_eq!(vls.lane_for(0, 1, Lid::from_raw(5)).raw(), 2);
        assert_eq!(vls.lane_for(0, 1, Lid::from_raw(6)).raw(), 0);
        assert_eq!(vls.lanes_used(), 2);
    }

    #[test]
    fn per_pair_lookup() {
        let mut map = FxHashMap::default();
        map.insert((0u32, 1u32), VirtualLane::new(1).unwrap());
        map.insert((1u32, 0u32), VirtualLane::new(3).unwrap());
        let vls = VlAssignment::PerSwitchPair(map);
        assert_eq!(vls.lane_for(0, 1, Lid::from_raw(9)).raw(), 1);
        assert_eq!(vls.lanes_used(), 3);
    }
}
