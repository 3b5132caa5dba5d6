//! Routing-engine output: per-switch LFTs plus a virtual-lane assignment.

use ib_subnet::{Lft, NodeId, Subnet};
use ib_types::{IbResult, Lid, PortNum, VirtualLane};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::graph::{Destination, HostDistances, SwitchGraph};

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

    /// Moves the lanes the way a migration moved the LFT columns: a swap
    /// exchanges the two LIDs' entries, a copy gives `to` the entries of
    /// `from`. A per-switch-pair layering keys on the delivery switch, which
    /// the moved LID takes with it, so it has nothing to move.
    pub fn apply_move(&mut self, moved: LidMove) {
        match self {
            Self::SingleVl | Self::PerSwitchPair(_) => {}
            Self::PerDestination(map) => move_keys(map, |&lid| lid, |_, lid| lid, moved),
            Self::PerSourceDestination(map) => {
                move_keys(map, |&(_, lid)| lid, |(s, _), lid| (s, lid), moved);
            }
        }
    }
}

/// Re-keys the entries of `map` whose LID `moved` names.
fn move_keys<K: Copy + Eq + std::hash::Hash>(
    map: &mut FxHashMap<K, VirtualLane>,
    lid_of: impl Fn(&K) -> u16,
    with_lid: impl Fn(K, u16) -> K,
    moved: LidMove,
) {
    let (from, to, swap) = match moved {
        LidMove::Swap(a, b) => (a.raw(), b.raw(), true),
        LidMove::Copy { from, to } => (from.raw(), to.raw(), false),
    };
    let hit: Vec<(K, VirtualLane)> = (map.iter())
        .filter(|(k, _)| lid_of(k) == from || lid_of(k) == to)
        .map(|(&k, &vl)| (k, vl))
        .collect();
    for (k, _) in &hit {
        map.remove(k);
    }
    for (k, vl) in hit {
        if lid_of(&k) == from {
            map.insert(with_lid(k, to), vl);
            if !swap {
                map.insert(k, vl);
            }
        } else if swap {
            map.insert(with_lid(k, from), vl);
        }
    }
}

/// How a migration moved LFT columns between two LIDs (Algorithm 1's step
/// (b)): the lanes those columns ride move the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LidMove {
    /// The two LIDs' columns were exchanged (prepopulated vSwitch, §V-C1).
    Swap(Lid, Lid),
    /// `to`'s column became a copy of `from`'s (dynamic vSwitch, §V-C2).
    Copy {
        /// The LID whose column was copied.
        from: Lid,
        /// The LID that received the copy.
        to: Lid,
    },
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
    /// The distance field the engine routed these tables on, when it keeps
    /// one (the fat-tree and Min-Hop engines' host rows): it moves with the
    /// tables, a repair follows it to the degraded graph instead of
    /// recomputing it, and any engine that routes the tables without it
    /// drops it.
    pub(crate) host_distances: Option<HostDistances>,
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

/// One switch's LFT as an engine's kernel writes it: the row cursor. A
/// logged row (a repair of installed tables) records every write that
/// changes a cell; an unlogged one (a fresh table, nothing to undo) just
/// stores. Rows are disjoint, so a kernel may fan them across workers.
pub(crate) struct Row<'a> {
    switch: NodeId,
    lft: &'a mut Lft,
    log: Option<Vec<CellChange>>,
}

impl Row<'_> {
    /// The current entry for `lid`.
    pub fn get(&self, lid: Lid) -> Option<PortNum> {
        self.lft.get(lid)
    }

    /// Writes one cell, logging it if the row is logged and the value
    /// changes.
    pub fn set(&mut self, lid: Lid, new: Option<PortNum>) {
        let Some(log) = &mut self.log else {
            return self.lft.assign(lid, new);
        };
        let old = self.lft.get(lid);
        if old != new {
            self.lft.assign(lid, new);
            log.push(CellChange {
                switch: self.switch,
                lid,
                old,
                new,
            });
        }
    }
}

/// What an engine's kernel routes: the destination columns to (re)compute —
/// `dirty` — over the LFT rows of a table set, resolved once into
/// switch-index order (no per-cell hashing). Every engine has one kernel,
/// [`crate::RoutingEngine::route`], and it only ever sees a `Splice`: a
/// full compute is the kernel over every column of fresh, empty, unlogged
/// rows; a repair is the same kernel over the dirty columns of the installed
/// rows, every changed cell logged.
///
/// Dropping it uncommitted — a kernel bailing out with `?` after its
/// columns are written — puts every logged cell back, so an `Err` repair
/// leaves the tables untouched.
pub struct Splice<'a> {
    g: &'a SwitchGraph,
    rows: Vec<Row<'a>>,
    vls: &'a mut VlAssignment,
    engine: &'a mut &'static str,
    decisions: &'a mut u64,
    /// `dirty[di]`: whether `g.destinations()[di]` is a column to route.
    dirty: Vec<bool>,
    /// The tables' distance field: lent to the kernel by
    /// [`Self::take_host_distances`], back in the tables at commit only if
    /// the kernel kept it ([`Self::keep_host_distances`]).
    host_distances: &'a mut Option<HostDistances>,
    kept: Option<HostDistances>,
    logged: bool,
}

impl<'a> Splice<'a> {
    /// Opens `tables` for an in-place repair of the `dirty` columns over
    /// `g`. The precondition every engine's repair shares is checked here:
    /// the tables must hold an LFT for each of the graph's switches. `Err`
    /// otherwise (and for an empty graph, which has nothing to splice) —
    /// the caller's answer is a full compute.
    pub(crate) fn begin(
        g: &'a SwitchGraph,
        tables: &'a mut RoutingTables,
        dirty: &[Lid],
    ) -> IbResult<Self> {
        let dirty: FxHashSet<Lid> = dirty.iter().copied().collect();
        let dirty = g
            .destinations()
            .iter()
            .map(|d| dirty.contains(&d.lid))
            .collect();
        Self::open(g, tables, dirty, true)
            .filter(|splice| !splice.rows.is_empty())
            .ok_or_else(|| {
                ib_types::IbError::Management(
                    "repair baseline does not cover the switch graph".into(),
                )
            })
    }

    /// Fresh tables for `g` — one empty LFT per switch, sized for the
    /// topmost destination — opened with every column dirty and no cell
    /// log: there is nothing to undo, an `Err` just drops the tables.
    pub(crate) fn fresh(g: &'a SwitchGraph, tables: &'a mut RoutingTables) -> Self {
        let row = match g.destinations().iter().map(|d| d.lid).max() {
            Some(topmost) => Lft::with_topmost(topmost),
            None => Lft::new(),
        };
        tables.lfts = (0..g.len()).map(|s| (g.node_id(s), row.clone())).collect();
        Self::open(g, tables, vec![true; g.destinations().len()], false)
            .expect("the tables were built from the graph")
    }

    fn open(
        g: &'a SwitchGraph,
        tables: &'a mut RoutingTables,
        dirty: Vec<bool>,
        logged: bool,
    ) -> Option<Self> {
        let mut slots: Vec<Option<Row>> = (0..g.len()).map(|_| None).collect();
        for (&switch, lft) in &mut tables.lfts {
            if let Some(s) = g.index(switch) {
                let log = logged.then(Vec::new);
                slots[s] = Some(Row { switch, lft, log });
            }
        }
        Some(Self {
            g,
            rows: slots.into_iter().collect::<Option<_>>()?,
            vls: &mut tables.vls,
            engine: &mut tables.engine,
            decisions: &mut tables.decisions,
            dirty,
            host_distances: &mut tables.host_distances,
            kept: None,
            logged,
        })
    }

    /// Whether these are fresh tables: every column dirty, nothing
    /// installed — a full compute.
    pub(crate) fn is_fresh(&self) -> bool {
        !self.logged
    }

    /// Lends the kernel the distance field toward the delivery switches of
    /// the host columns among `dests`, and says whether it was carried: the
    /// tables' own field followed to [`Self::graph`] when that graph only
    /// lost links since and the field has a row for each of them, else a
    /// fresh build for `dests`. The field returns to the tables only
    /// through [`Self::keep_host_distances`]: a commit without it, or an
    /// `Err` once it was lent, drops it.
    pub(crate) fn host_distances(
        &mut self,
        dests: &[Destination],
        workers: usize,
    ) -> (HostDistances, bool) {
        let g = self.g;
        let carried = (self.host_distances.take())
            .and_then(|field| field.follow(g, workers))
            .filter(|field| {
                let host = |d: &&Destination| d.port != PortNum::MANAGEMENT;
                (dests.iter().filter(host)).all(|d| field.toward(d.switch).is_some())
            });
        match carried {
            Some(field) => (field, true),
            None => (HostDistances::build(g, dests, workers), false),
        }
    }

    /// Hands back the field [`Self::host_distances`] lent: the committed
    /// tables carry it (it is exact for [`Self::graph`]) when it was
    /// carried or the tables are fresh. A field built for a repair's dirty
    /// columns only is dropped; the next full compute builds one for all.
    pub(crate) fn keep_host_distances(&mut self, field: HostDistances, carried: bool) {
        if carried || self.is_fresh() {
            self.kept = Some(field);
        }
    }

    /// Keeps the tables' field as it came in: a splice with no column to
    /// route moves nothing it describes (the next repair follows it).
    pub(crate) fn keep_carried_host_distances(&mut self) {
        self.kept = self.host_distances.take();
    }

    /// The switch graph the columns are routed on.
    pub(crate) fn graph(&self) -> &'a SwitchGraph {
        self.g
    }

    /// The VL assignment the tables carried in.
    pub(crate) fn vls(&self) -> &VlAssignment {
        self.vls
    }

    /// Whether there is no column to route.
    pub(crate) fn is_clean(&self) -> bool {
        !self.dirty.contains(&true)
    }

    /// Whether destination index `di` is a column to route.
    pub(crate) fn is_dirty(&self, di: usize) -> bool {
        self.dirty[di]
    }

    /// The destinations to route, in the graph's destination order — which
    /// keeps the engines' order-sensitive serial phases deterministic.
    pub(crate) fn dirty_dests(&self) -> Vec<Destination> {
        self.dests_where(true)
    }

    /// The destinations whose columns stay as installed (none in fresh
    /// tables): what load- and weight-balancing engines seed from.
    pub(crate) fn clean_dests(&self) -> Vec<Destination> {
        self.dests_where(false)
    }

    fn dests_where(&self, dirty: bool) -> Vec<Destination> {
        let all = self.g.destinations().iter().zip(&self.dirty);
        all.filter(|&(_, &d)| d == dirty).map(|(&d, _)| d).collect()
    }

    /// The destinations to route grouped by delivery switch, in switch
    /// order, as indices into the graph's destination list — the unit the
    /// engines that compute one distance field per delivery switch work in.
    pub(crate) fn dirty_groups(&self) -> Vec<(usize, Vec<usize>)> {
        let mut by_switch: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for (di, d) in self.g.destinations().iter().enumerate() {
            if self.dirty[di] {
                by_switch.entry(d.switch).or_default().push(di);
            }
        }
        let mut groups: Vec<(usize, Vec<usize>)> = by_switch.into_iter().collect();
        groups.sort_unstable_by_key(|(s, _)| *s);
        groups
    }

    /// The rows in switch-index order, each independently writable.
    pub(crate) fn rows(&mut self) -> &mut [Row<'a>] {
        &mut self.rows
    }

    /// The current entry of switch index `s` for `lid`.
    pub(crate) fn get(&self, s: usize, lid: Lid) -> Option<PortNum> {
        self.rows[s].get(lid)
    }

    /// Seals the splice: installs the new header and hands back the log —
    /// the rows' cells in switch order, so it is the same for any worker
    /// count the rows were fanned across.
    pub(crate) fn commit(
        mut self,
        vls: VlAssignment,
        engine: &'static str,
        decisions: u64,
    ) -> SpliceLog {
        *self.host_distances = self.kept.take();
        SpliceLog {
            cells: (self.rows.iter_mut())
                .flat_map(|row| row.log.take().unwrap_or_default())
                .collect(),
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
        for row in &mut self.rows {
            for cell in row.log.take().unwrap_or_default().into_iter().rev() {
                row.lft.assign(cell.lid, cell.old);
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
        Self::from_lfts(lfts, "installed")
    }

    /// Whether the tables carry the distance field their engine routed them
    /// on — what lets the next repair visit only the cells a fault moved.
    #[must_use]
    pub fn carries_distances(&self) -> bool {
        self.host_distances.is_some()
    }

    /// Tables holding `lfts` and nothing an engine derived: one lane, no
    /// decisions, reported as `engine`.
    #[must_use]
    pub fn from_lfts(lfts: FxHashMap<NodeId, Lft>, engine: &'static str) -> Self {
        Self {
            lfts,
            vls: VlAssignment::SingleVl,
            engine,
            decisions: 0,
            host_distances: None,
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
    fn lanes_follow_a_swap_and_a_copy() {
        let vl = |raw| VirtualLane::new(raw).unwrap();
        let (a, b, c) = (Lid::from_raw(5), Lid::from_raw(6), Lid::from_raw(7));
        let map = [
            ((0u32, 5u16), vl(1)),
            ((1, 5), vl(2)),
            ((0, 6), vl(3)),
            ((0, 7), vl(1)),
        ];
        let mut vls = VlAssignment::PerSourceDestination(map.into_iter().collect());
        vls.apply_move(LidMove::Swap(a, b));
        assert_eq!(vls.lane_for(0, 0, a), vl(3));
        assert_eq!(vls.lane_for(0, 0, b), vl(1));
        assert_eq!(vls.lane_for(1, 0, a), VirtualLane::VL0);
        assert_eq!(vls.lane_for(1, 0, b), vl(2));
        vls.apply_move(LidMove::Copy { from: b, to: c });
        assert_eq!(vls.lane_for(0, 0, c), vl(1));
        assert_eq!(vls.lane_for(1, 0, c), vl(2));
        assert_eq!(
            vls.lane_for(1, 0, b),
            vl(2),
            "a copy keeps the source's lanes"
        );

        let mut vls = VlAssignment::PerDestination([(5u16, vl(1))].into_iter().collect());
        vls.apply_move(LidMove::Swap(a, b));
        assert_eq!(
            (vls.lane_for(0, 0, a), vls.lane_for(0, 0, b)),
            (VirtualLane::VL0, vl(1))
        );
        vls.apply_move(LidMove::Copy { from: a, to: b });
        assert_eq!(
            vls.lane_for(0, 0, b),
            VirtualLane::VL0,
            "copying an unlisted LID clears"
        );
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
