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

/// One LFT cell an in-place repair changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellChange {
    /// The switch whose row changed.
    pub switch: NodeId,
    /// The destination column.
    pub lid: Lid,
    /// The entry before the repair.
    pub old: Option<PortNum>,
    /// The entry after it (never equal to `old`).
    pub new: Option<PortNum>,
}

/// What an in-place repair did to a table set — the currency the SM plans
/// distribution with, maintains its reverse route index from, and undoes a
/// rejected splice by.
#[derive(Clone, Debug, Default)]
pub struct SpliceLog {
    /// Every cell whose value differs from before the repair, each listed
    /// once. Nothing else in the LFTs moved.
    pub cells: Vec<CellChange>,
    /// The `(vls, engine, decisions)` the first splice of this log
    /// displaced; `None` when no splice ran.
    displaced: Option<(VlAssignment, &'static str, u64)>,
}

impl SpliceLog {
    /// Appends a later splice of the same tables (over disjoint columns):
    /// its cells join the list, the originally displaced header is kept.
    pub(crate) fn absorb(&mut self, later: SpliceLog) {
        self.cells.extend(later.cells);
        self.displaced = self.displaced.take().or(later.displaced);
    }

    /// Reverts the logged repair: `tables` are again what they were before
    /// it, VL assignment included.
    pub fn undo(self, tables: &mut RoutingTables) {
        for cell in self.cells.iter().rev() {
            if let Some(lft) = tables.lfts.get_mut(&cell.switch) {
                lft.assign(cell.lid, cell.old);
            }
        }
        if let Some((vls, engine, decisions)) = self.displaced {
            tables.vls = vls;
            tables.engine = engine;
            tables.decisions = decisions;
        }
    }
}

/// An engine's handle on the tables it repairs in place: the LFT rows
/// resolved once into switch-index order (no per-cell hashing), every write
/// that changes a cell logged. Dropping it without [`Splice::commit`] — an
/// engine bailing out with `?` after its columns are written — puts every
/// written cell back, so an `Err` repair leaves the tables untouched.
pub(crate) struct Splice<'a> {
    g: &'a SwitchGraph,
    rows: Vec<&'a mut Lft>,
    vls: &'a mut VlAssignment,
    engine: &'a mut &'static str,
    decisions: &'a mut u64,
    cells: Vec<CellChange>,
}

impl<'a> Splice<'a> {
    /// Opens `tables` for an in-place repair over `g`. The precondition
    /// every engine's repair shares is checked here: the tables must hold
    /// an LFT for each of the graph's switches. `Err` otherwise (and for an
    /// empty graph, which has nothing to splice) — the caller's answer is a
    /// full compute.
    pub fn begin(g: &'a SwitchGraph, tables: &'a mut RoutingTables) -> IbResult<Self> {
        let mut slots: Vec<Option<&mut Lft>> = (0..g.len()).map(|_| None).collect();
        for (&id, lft) in &mut tables.lfts {
            if let Some(s) = g.index(id) {
                slots[s] = Some(lft);
            }
        }
        match slots.into_iter().collect::<Option<Vec<_>>>() {
            Some(rows) if !rows.is_empty() => Ok(Self {
                g,
                rows,
                vls: &mut tables.vls,
                engine: &mut tables.engine,
                decisions: &mut tables.decisions,
                cells: Vec::new(),
            }),
            _ => Err(ib_types::IbError::Management(
                "repair baseline does not cover the switch graph".into(),
            )),
        }
    }

    /// The VL assignment the tables carried into the repair.
    pub fn vls(&self) -> &VlAssignment {
        self.vls
    }

    /// The current LFT of switch index `s`.
    pub fn row(&self, s: usize) -> &Lft {
        self.rows[s]
    }

    /// The current entry of switch index `s` for `lid`.
    pub fn get(&self, s: usize, lid: Lid) -> Option<PortNum> {
        self.rows[s].get(lid)
    }

    /// Writes one cell, logging it if the value changes.
    pub fn set(&mut self, s: usize, lid: Lid, new: Option<PortNum>) {
        let old = self.rows[s].get(lid);
        if old != new {
            self.rows[s].assign(lid, new);
            self.cells.push(CellChange {
                switch: self.g.node_id(s),
                lid,
                old,
                new,
            });
        }
    }

    /// Seals the repair: installs the new header and hands back the log.
    pub fn commit(mut self, vls: VlAssignment, engine: &'static str, decisions: u64) -> SpliceLog {
        SpliceLog {
            cells: std::mem::take(&mut self.cells),
            displaced: Some((
                std::mem::replace(self.vls, vls),
                std::mem::replace(self.engine, engine),
                std::mem::replace(self.decisions, decisions),
            )),
        }
    }
}

impl Drop for Splice<'_> {
    fn drop(&mut self) {
        while let Some(cell) = self.cells.pop() {
            if let Some(s) = self.g.index(cell.switch) {
                self.rows[s].assign(cell.lid, cell.old);
            }
        }
    }
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
