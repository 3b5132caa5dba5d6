//! The subnet graph: node arena, cabling, LID registry, validation, and
//! packet tracing.

use ib_types::{
    guid::{GuidFactory, NAMESPACE_HCA, NAMESPACE_SWITCH, NAMESPACE_VGUID},
    Guid, IbError, IbResult, Lid, PortNum,
};
use rustc_hash::FxHashMap;

use crate::lft::Lft;
use crate::node::{Endpoint, Node, NodeId, NodeKind, PortState};

/// A complete InfiniBand subnet.
///
/// Nodes live in an append-only arena indexed by [`NodeId`]; links are stored
/// symmetrically on both ports; LIDs are registered in a LID→endpoint map
/// that answers "who owns this LID" in O(1) — the question every LFT entry
/// ultimately encodes.
///
/// ```
/// use ib_subnet::Subnet;
/// use ib_types::{Lid, PortNum};
///
/// let mut s = Subnet::new();
/// let sw = s.add_switch("sw", 4);
/// let a = s.add_hca("a");
/// let b = s.add_hca("b");
/// s.connect(sw, PortNum::new(1), a, PortNum::new(1)).unwrap();
/// s.connect(sw, PortNum::new(2), b, PortNum::new(1)).unwrap();
/// s.assign_port_lid(b, PortNum::new(1), Lid::from_raw(7)).unwrap();
/// s.lft_mut(sw).unwrap().set(Lid::from_raw(7), PortNum::new(2));
///
/// let path = s.trace_route(a, Lid::from_raw(7), 8).unwrap();
/// assert_eq!(path, vec![a, sw, b]);
/// ```
#[derive(Clone, Debug)]
pub struct Subnet {
    nodes: Vec<Node>,
    lid_map: FxHashMap<u16, Endpoint>,
    switch_guids: GuidFactory,
    hca_guids: GuidFactory,
    vguid_factory: GuidFactory,
    topology_epoch: u64,
}

impl Default for Subnet {
    fn default() -> Self {
        Self::new()
    }
}

impl Subnet {
    /// An empty subnet.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            lid_map: FxHashMap::default(),
            switch_guids: GuidFactory::new(NAMESPACE_SWITCH),
            hca_guids: GuidFactory::new(NAMESPACE_HCA),
            vguid_factory: GuidFactory::new(NAMESPACE_VGUID),
            topology_epoch: 0,
        }
    }

    /// A counter bumped on every change to the subnet's *routable shape* —
    /// node arena growth, cabling, link up/down toggles, node removal, and
    /// LID registry edits. Two observations with the same epoch are
    /// guaranteed to produce the same routing graph, so consumers (the
    /// SM's repair path) can cache derived structures like the CSR switch
    /// graph across quiet-epoch sweeps instead of rebuilding per trap.
    /// LFT edits do **not** bump the epoch: installed tables are routing
    /// output, not graph shape.
    #[must_use]
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a physical switch with `num_external_ports` cable ports.
    pub fn add_switch(&mut self, name: impl Into<String>, num_external_ports: u8) -> NodeId {
        let guid = self.switch_guids.mint();
        self.push_node(name.into(), guid, true, false, num_external_ports)
    }

    /// Adds an SR-IOV vSwitch (the switch an HCA *appears as* under the
    /// vSwitch architecture, §IV-B). It is excluded from physical-switch
    /// iteration and shares its LID with the PF, so none is stored here.
    pub fn add_vswitch(&mut self, name: impl Into<String>, num_external_ports: u8) -> NodeId {
        let guid = self.vguid_factory.mint();
        self.push_node(name.into(), guid, true, true, num_external_ports)
    }

    /// Adds an HCA endpoint with a single external port.
    pub fn add_hca(&mut self, name: impl Into<String>) -> NodeId {
        let guid = self.hca_guids.mint();
        self.push_node(name.into(), guid, false, false, 1)
    }

    /// Adds a virtual HCA (a VF exposed as a vHCA) with an SM-assigned vGUID.
    pub fn add_vhca(&mut self, name: impl Into<String>) -> NodeId {
        let guid = self.vguid_factory.mint();
        self.push_node(name.into(), guid, false, false, 1)
    }

    /// Mints a fresh virtual GUID without creating a node (used when a VM is
    /// given a vGUID before any vHCA exists for it).
    pub fn mint_vguid(&mut self) -> Guid {
        self.vguid_factory.mint()
    }

    fn push_node(
        &mut self,
        name: String,
        guid: Guid,
        is_switch: bool,
        is_vswitch: bool,
        num_external_ports: u8,
    ) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        let kind = if is_switch {
            NodeKind::Switch {
                lft: Lft::new(),
                lid: None,
                is_vswitch,
            }
        } else {
            NodeKind::Hca
        };
        self.nodes.push(Node {
            id,
            guid,
            name,
            kind,
            ports: vec![PortState::default(); usize::from(num_external_ports) + 1],
            dead: false,
        });
        self.topology_epoch += 1;
        id
    }

    /// Cables two ports together. Both must exist, be external, and be free.
    pub fn connect(
        &mut self,
        a: NodeId,
        a_port: PortNum,
        b: NodeId,
        b_port: PortNum,
    ) -> IbResult<()> {
        if a == b {
            return Err(IbError::Topology(format!(
                "self-loop on node {} refused",
                self.nodes[a.index()].name
            )));
        }
        for &(n, p) in &[(a, a_port), (b, b_port)] {
            if !p.is_external() {
                return Err(IbError::Topology(format!("port {p} is not cable-bearing")));
            }
            let node = self
                .nodes
                .get(n.index())
                .ok_or_else(|| IbError::Topology(format!("node {n:?} does not exist")))?;
            let state = node
                .ports
                .get(p.raw() as usize)
                .ok_or_else(|| IbError::Topology(format!("{} has no port {p}", node.name)))?;
            if state.remote.is_some() {
                return Err(IbError::Topology(format!(
                    "{} port {p} is already cabled",
                    node.name
                )));
            }
        }
        self.nodes[a.index()].ports[a_port.raw() as usize].remote = Some(Endpoint::new(b, b_port));
        self.nodes[b.index()].ports[b_port.raw() as usize].remote = Some(Endpoint::new(a, a_port));
        self.topology_epoch += 1;
        Ok(())
    }

    /// Connects using the lowest free external port on each side.
    pub fn connect_free(&mut self, a: NodeId, b: NodeId) -> IbResult<(PortNum, PortNum)> {
        let pa = self
            .first_free_port(a)
            .ok_or_else(|| IbError::Topology(format!("{} has no free port", self.name_of(a))))?;
        let pb = self
            .first_free_port(b)
            .ok_or_else(|| IbError::Topology(format!("{} has no free port", self.name_of(b))))?;
        self.connect(a, pa, b, pb)?;
        Ok((pa, pb))
    }

    /// Removes the cable plugged into `(node, port)`, clearing both ends.
    /// Pulling the cable also clears any down flag — a fresh cable plugged
    /// into the port later starts in the up state.
    pub fn disconnect(&mut self, node: NodeId, port: PortNum) -> IbResult<()> {
        let remote = self
            .nodes
            .get(node.index())
            .and_then(|n| n.ports.get(port.raw() as usize))
            .and_then(|p| p.remote)
            .ok_or_else(|| {
                IbError::Topology(format!("{} port {port} is not cabled", self.name_of(node)))
            })?;
        let near = &mut self.nodes[node.index()].ports[port.raw() as usize];
        near.remote = None;
        near.down = false;
        let far = &mut self.nodes[remote.node.index()].ports[remote.port.raw() as usize];
        far.remote = None;
        far.down = false;
        self.topology_epoch += 1;
        Ok(())
    }

    /// Lowest-numbered free external port on `node`. Returns `None` for a
    /// node that does not exist (degraded-subnet callers may hold stale
    /// handles).
    #[must_use]
    pub fn first_free_port(&self, node: NodeId) -> Option<PortNum> {
        self.nodes
            .get(node.index())?
            .ports
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, p)| p.remote.is_none())
            .map(|(i, _)| PortNum::new(i as u8))
    }

    // ------------------------------------------------------------------
    // Fault state: link and node failures
    // ------------------------------------------------------------------

    /// Takes the link plugged into `(node, port)` down on **both** ends.
    /// The cabling is remembered, so [`Subnet::set_link_up`] restores the
    /// original topology. Discovery, routing, and packet tracing all stop
    /// seeing the link immediately.
    pub fn set_link_down(&mut self, node: NodeId, port: PortNum) -> IbResult<()> {
        let remote = self.cabled_neighbor(node, port).ok_or_else(|| {
            IbError::Topology(format!("{} port {port} is not cabled", self.name_of(node)))
        })?;
        self.nodes[node.index()].ports[port.raw() as usize].down = true;
        self.nodes[remote.node.index()].ports[remote.port.raw() as usize].down = true;
        self.topology_epoch += 1;
        Ok(())
    }

    /// Brings a downed link back up on both ends.
    pub fn set_link_up(&mut self, node: NodeId, port: PortNum) -> IbResult<()> {
        let remote = self.cabled_neighbor(node, port).ok_or_else(|| {
            IbError::Topology(format!("{} port {port} is not cabled", self.name_of(node)))
        })?;
        self.nodes[node.index()].ports[port.raw() as usize].down = false;
        self.nodes[remote.node.index()].ports[remote.port.raw() as usize].down = false;
        self.topology_epoch += 1;
        Ok(())
    }

    /// Whether `(node, port)` is cabled and the link is passing traffic.
    #[must_use]
    pub fn is_link_up(&self, node: NodeId, port: PortNum) -> bool {
        self.nodes
            .get(node.index())
            .and_then(|n| n.ports.get(port.raw() as usize))
            .is_some_and(|p| p.remote.is_some() && !p.down)
    }

    /// The far end of the cable at `(node, port)`, whether or not the link
    /// is up — the physical-cabling view behind the fault toggles.
    #[must_use]
    pub fn cabled_neighbor(&self, node: NodeId, port: PortNum) -> Option<Endpoint> {
        self.nodes
            .get(node.index())?
            .ports
            .get(port.raw() as usize)
            .and_then(|p| p.remote)
    }

    /// Kills a node (switch crash, HCA removal): marks it dead and takes
    /// every one of its links down. The node stays in the arena so
    /// `NodeId`s remain stable, but it disappears from the switch/HCA
    /// iterators, from discovery, and from routing. Its LID registrations
    /// are left for the subnet manager to prune during its re-sweep (the
    /// SM, not the fabric, owns the LID space).
    ///
    /// Returns the number of links taken down.
    pub fn remove_node(&mut self, node: NodeId) -> IbResult<usize> {
        if node.index() >= self.nodes.len() {
            return Err(IbError::Topology(format!("node {node:?} does not exist")));
        }
        let links: Vec<PortNum> = self.nodes[node.index()]
            .cabled_ports()
            .filter(|(p, _)| self.is_link_up(node, *p))
            .map(|(p, _)| p)
            .collect();
        for &port in &links {
            self.set_link_down(node, port)?;
        }
        self.nodes[node.index()].dead = true;
        self.topology_epoch += 1;
        Ok(links.len())
    }

    /// Whether a node exists and is alive.
    #[must_use]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.get(node.index()).is_some_and(Node::is_alive)
    }

    // ------------------------------------------------------------------
    // LID registry
    // ------------------------------------------------------------------

    /// Assigns `lid` to a switch (on its management port 0).
    pub fn assign_switch_lid(&mut self, node: NodeId, lid: Lid) -> IbResult<()> {
        if self.lid_map.contains_key(&lid.raw()) {
            return Err(IbError::Management(format!("LID {lid} already registered")));
        }
        match &mut self.nodes[node.index()].kind {
            NodeKind::Switch { lid: slot, .. } => {
                if let Some(old) = slot.take() {
                    self.lid_map.remove(&old.raw());
                }
                *slot = Some(lid);
            }
            NodeKind::Hca => {
                return Err(IbError::Management(format!(
                    "{} is not a switch",
                    self.nodes[node.index()].name
                )))
            }
        }
        self.lid_map
            .insert(lid.raw(), Endpoint::new(node, PortNum::MANAGEMENT));
        self.topology_epoch += 1;
        Ok(())
    }

    /// Assigns `lid` to an HCA port.
    pub fn assign_port_lid(&mut self, node: NodeId, port: PortNum, lid: Lid) -> IbResult<()> {
        if self.lid_map.contains_key(&lid.raw()) {
            return Err(IbError::Management(format!("LID {lid} already registered")));
        }
        let n = &mut self.nodes[node.index()];
        let state = n
            .ports
            .get_mut(port.raw() as usize)
            .ok_or_else(|| IbError::Management(format!("{} has no port {port}", n.name)))?;
        if let Some(old) = state.lid.take() {
            self.lid_map.remove(&old.raw());
        }
        state.lid = Some(lid);
        self.lid_map.insert(lid.raw(), Endpoint::new(node, port));
        self.topology_epoch += 1;
        Ok(())
    }

    /// Removes a LID assignment from wherever it lives (base or LMC-extra).
    pub fn clear_lid(&mut self, lid: Lid) -> IbResult<()> {
        let ep = self
            .lid_map
            .remove(&lid.raw())
            .ok_or_else(|| IbError::Management(format!("LID {lid} is not registered")))?;
        let n = &mut self.nodes[ep.node.index()];
        if ep.port.is_management() {
            if let NodeKind::Switch { lid: slot, .. } = &mut n.kind {
                *slot = None;
            }
        } else if let Some(state) = n.ports.get_mut(ep.port.raw() as usize) {
            if state.lid == Some(lid) {
                state.lid = None;
            } else {
                state.extra_lids.retain(|&l| l != lid);
            }
        }
        self.topology_epoch += 1;
        Ok(())
    }

    /// Assigns an LMC range to an HCA port: `base` (which must be aligned
    /// to `2^lmc`) plus the following `2^lmc - 1` sequential LIDs, all
    /// answering at the same port.
    ///
    /// This is IBA's multipathing primitive — and the constraint the
    /// paper's §V-A escapes: LMC LIDs must be *sequential and aligned*,
    /// so individual LIDs of the range cannot migrate; prepopulated
    /// vSwitch LIDs provide the same path diversity with no such tie.
    pub fn assign_lmc_range(
        &mut self,
        node: NodeId,
        port: PortNum,
        base: Lid,
        lmc: ib_types::Lmc,
    ) -> IbResult<()> {
        if lmc.base_of(base) != base {
            return Err(IbError::Management(format!(
                "LMC base LID {base} is not aligned to 2^{}",
                lmc.bits()
            )));
        }
        // All-or-nothing: check the whole range first.
        for off in 0..lmc.lid_count() {
            let raw = base.raw() + off;
            let l = Lid::new(raw).map_err(IbError::from)?;
            if self.lid_map.contains_key(&l.raw()) {
                return Err(IbError::Management(format!("LID {l} already registered")));
            }
        }
        self.assign_port_lid(node, port, base)?;
        for off in 1..lmc.lid_count() {
            let l = Lid::from_raw(base.raw() + off);
            self.lid_map.insert(l.raw(), Endpoint::new(node, port));
            self.nodes[node.index()].ports[port.raw() as usize]
                .extra_lids
                .push(l);
        }
        self.topology_epoch += 1;
        Ok(())
    }

    /// Who answers to `lid`.
    #[must_use]
    pub fn endpoint_of(&self, lid: Lid) -> Option<Endpoint> {
        self.lid_map.get(&lid.raw()).copied()
    }

    /// Every registered LID, ascending.
    #[must_use]
    pub fn lids(&self) -> Vec<Lid> {
        let mut v: Vec<Lid> = self.lid_map.keys().map(|&raw| Lid::from_raw(raw)).collect();
        v.sort_unstable();
        v
    }

    /// The highest registered LID.
    #[must_use]
    pub fn topmost_lid(&self) -> Option<Lid> {
        self.lid_map.keys().max().map(|&raw| Lid::from_raw(raw))
    }

    /// Number of registered LIDs.
    #[must_use]
    pub fn num_lids(&self) -> usize {
        self.lid_map.len()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Immutable node access.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node access.
    #[must_use]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Node name, for diagnostics.
    #[must_use]
    pub fn name_of(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].name
    }

    /// The far end of a *live* link. Returns `None` when the port is
    /// uncabled or the link is down, so packet tracing over a degraded
    /// fabric fails exactly where a real packet would be lost. Use
    /// [`Subnet::cabled_neighbor`] for the physical-cabling view.
    #[must_use]
    pub fn neighbor(&self, node: NodeId, port: PortNum) -> Option<Endpoint> {
        self.nodes
            .get(node.index())?
            .ports
            .get(port.raw() as usize)
            .and_then(|p| if p.down { None } else { p.remote })
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// All *live* switches, physical and virtual. Dead switches stay in the
    /// arena but are invisible here, so routing engines compute over the
    /// surviving fabric.
    pub fn switches(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.is_alive() && n.is_switch())
    }

    /// Live physical switches only — the set Algorithm 1 iterates over.
    pub fn physical_switches(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| n.is_alive() && n.is_physical_switch())
    }

    /// All live HCA nodes (physical PFs and virtual vHCAs).
    pub fn hcas(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.is_alive() && n.is_hca())
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of physical switches.
    #[must_use]
    pub fn num_physical_switches(&self) -> usize {
        self.physical_switches().count()
    }

    /// Number of HCAs.
    #[must_use]
    pub fn num_hcas(&self) -> usize {
        self.hcas().count()
    }

    /// Number of cables (each counted once).
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| n.connected_ports().map(move |(_, r)| (n.id, r)))
            .filter(|(a, r)| a.index() < r.node.index())
            .count()
    }

    /// The LFT of a switch.
    #[must_use]
    pub fn lft(&self, switch: NodeId) -> Option<&Lft> {
        self.nodes[switch.index()].lft()
    }

    /// Mutable LFT of a switch.
    #[must_use]
    pub fn lft_mut(&mut self, switch: NodeId) -> Option<&mut Lft> {
        self.nodes[switch.index()].lft_mut()
    }

    /// Replaces the LFT of a switch wholesale.
    pub fn set_lft(&mut self, switch: NodeId, lft: Lft) -> IbResult<()> {
        match self.nodes[switch.index()].lft_mut() {
            Some(slot) => {
                *slot = lft;
                Ok(())
            }
            None => Err(IbError::Management(format!(
                "{} is not a switch",
                self.nodes[switch.index()].name
            ))),
        }
    }

    /// Leaf switches: physical switches with at least one HCA or vSwitch
    /// attached. In the paper's terms these are non-blocking edge switches
    /// where intra-switch migration needs only one LFT update (§VI-D).
    #[must_use]
    pub fn leaf_switches(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_alive() && n.is_physical_switch())
            .filter(|n| {
                n.connected_ports()
                    .any(|(_, r)| !self.nodes[r.node.index()].is_physical_switch())
            })
            .map(|n| n.id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Validation and tracing
    // ------------------------------------------------------------------

    /// Checks structural invariants: symmetric cabling, in-range ports,
    /// LID-map consistency, and (if `require_connected`) a connected graph.
    pub fn validate(&self, require_connected: bool) -> IbResult<()> {
        for node in &self.nodes {
            for (port, remote) in node.connected_ports() {
                let far = self.nodes.get(remote.node.index()).ok_or_else(|| {
                    IbError::Topology(format!("dangling link from {}", node.name))
                })?;
                let back = far
                    .ports
                    .get(remote.port.raw() as usize)
                    .and_then(|p| p.remote)
                    .ok_or_else(|| {
                        IbError::Topology(format!(
                            "{}:{port} -> {}:{} has no return cable",
                            node.name, far.name, remote.port
                        ))
                    })?;
                if back != Endpoint::new(node.id, port) {
                    return Err(IbError::Topology(format!(
                        "asymmetric cable at {}:{port}",
                        node.name
                    )));
                }
            }
        }
        for (&raw, ep) in &self.lid_map {
            let node = self
                .nodes
                .get(ep.node.index())
                .ok_or_else(|| IbError::Management(format!("LID {raw} maps to missing node")))?;
            let found = node.lids().any(|l| l.raw() == raw);
            if !found {
                return Err(IbError::Management(format!(
                    "LID {raw} maps to {} which does not carry it",
                    node.name
                )));
            }
        }
        if require_connected && !self.nodes.is_empty() {
            let reached = self.bfs_reach(NodeId::from_index(0));
            if reached != self.nodes.len() {
                return Err(IbError::Topology(format!(
                    "subnet is disconnected: reached {reached} of {} nodes",
                    self.nodes.len()
                )));
            }
        }
        Ok(())
    }

    /// Checks the invariants of a *degraded* subnet — one with down links
    /// and/or dead nodes. Where [`Subnet::validate`] demands that every node
    /// be reachable, this only demands that the surviving fabric is sane:
    ///
    /// 1. cabling is symmetric (including down flags — a link must be down
    ///    on both ends or neither);
    /// 2. dead nodes have no live links;
    /// 3. every registered LID belongs to a node that actually carries it;
    /// 4. every registered LID is owned by an *alive* node that some
    ///    component of the fabric can still serve: a switch (however
    ///    isolated — a split strands whole components, and a heal restores
    ///    them in place), or an endpoint with at least one live uplink.
    ///    An endpoint whose every cable is down holds a LID no SM in any
    ///    component could ever route to — that one the SM must prune.
    pub fn validate_degraded(&self) -> IbResult<()> {
        for node in &self.nodes {
            for (port, remote) in node.cabled_ports() {
                let far = self.nodes.get(remote.node.index()).ok_or_else(|| {
                    IbError::Topology(format!("dangling link from {}", node.name))
                })?;
                let far_state = far.ports.get(remote.port.raw() as usize).ok_or_else(|| {
                    IbError::Topology(format!(
                        "{}:{port} -> {}:{} has no return port",
                        node.name, far.name, remote.port
                    ))
                })?;
                if far_state.remote != Some(Endpoint::new(node.id, port)) {
                    return Err(IbError::Topology(format!(
                        "asymmetric cable at {}:{port}",
                        node.name
                    )));
                }
                let near_down = node.ports[port.raw() as usize].down;
                if near_down != far_state.down {
                    return Err(IbError::Topology(format!(
                        "link {}:{port} <-> {}:{} is down on only one end",
                        node.name, far.name, remote.port
                    )));
                }
                if node.dead && !near_down {
                    return Err(IbError::Topology(format!(
                        "dead node {} still has live link on port {port}",
                        node.name
                    )));
                }
            }
        }
        for (&raw, ep) in &self.lid_map {
            let node = self
                .nodes
                .get(ep.node.index())
                .ok_or_else(|| IbError::Management(format!("LID {raw} maps to missing node")))?;
            if !node.lids().any(|l| l.raw() == raw) {
                return Err(IbError::Management(format!(
                    "LID {raw} maps to {} which does not carry it",
                    node.name
                )));
            }
            if node.dead {
                return Err(IbError::Management(format!(
                    "LID {raw} still registered on dead node {}",
                    node.name
                )));
            }
            if !node.is_switch() && node.connected_ports().next().is_none() {
                return Err(IbError::Management(format!(
                    "LID {raw} owned by {} which is unreachable on the degraded fabric",
                    node.name
                )));
            }
        }
        Ok(())
    }

    fn bfs_reach(&self, start: NodeId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        let mut count = 1;
        while let Some(id) = queue.pop_front() {
            for (_, remote) in self.nodes[id.index()].connected_ports() {
                if !seen[remote.node.index()] {
                    seen[remote.node.index()] = true;
                    count += 1;
                    queue.push_back(remote.node);
                }
            }
        }
        count
    }

    /// Follows LFTs hop by hop from `from` towards `dst`, returning the node
    /// path (inclusive of endpoints) or an error describing where delivery
    /// failed. This is how tests prove that a reconfiguration actually left
    /// the fabric consistent, rather than trusting the algorithm.
    pub fn trace_route(&self, from: NodeId, dst: Lid, max_hops: usize) -> IbResult<Vec<NodeId>> {
        let target = self
            .endpoint_of(dst)
            .ok_or_else(|| IbError::Management(format!("destination LID {dst} unregistered")))?;
        let mut path = vec![from];
        let mut current = from;
        // An HCA source injects through its only cabled port.
        if self.nodes[current.index()].is_hca() {
            if current == target.node {
                return Ok(path);
            }
            let (_, remote) = self.nodes[current.index()]
                .connected_ports()
                .next()
                .ok_or_else(|| {
                    IbError::Topology(format!("{} is not cabled", self.name_of(from)))
                })?;
            current = remote.node;
            path.push(current);
        }
        for _ in 0..max_hops {
            let node = &self.nodes[current.index()];
            if current == target.node {
                return Ok(path);
            }
            let lft = node.lft().ok_or_else(|| {
                IbError::Topology(format!(
                    "packet for LID {dst} stranded at non-switch {}",
                    node.name
                ))
            })?;
            let out = lft.get(dst).ok_or_else(|| {
                IbError::Management(format!("{} has no LFT entry for LID {dst}", node.name))
            })?;
            if out.is_drop() {
                return Err(IbError::Management(format!(
                    "LID {dst} is dropped at {} (port 255)",
                    node.name
                )));
            }
            if out.is_management() {
                // Port 0 terminates at the switch itself.
                return if current == target.node {
                    Ok(path)
                } else {
                    Err(IbError::Management(format!(
                        "LID {dst} terminates at wrong switch {}",
                        node.name
                    )))
                };
            }
            let remote = self.neighbor(current, out).ok_or_else(|| {
                IbError::Topology(format!("{} LFT points out uncabled port {out}", node.name))
            })?;
            current = remote.node;
            path.push(current);
        }
        Err(IbError::Topology(format!(
            "packet for LID {dst} exceeded {max_hops} hops (loop?)"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// sw0 -- sw1, one HCA on each switch.
    fn two_switch_subnet() -> (Subnet, NodeId, NodeId, NodeId, NodeId) {
        let mut s = Subnet::new();
        let sw0 = s.add_switch("sw0", 4);
        let sw1 = s.add_switch("sw1", 4);
        let h0 = s.add_hca("h0");
        let h1 = s.add_hca("h1");
        s.connect(sw0, PortNum::new(1), sw1, PortNum::new(1))
            .unwrap();
        s.connect(sw0, PortNum::new(2), h0, PortNum::new(1))
            .unwrap();
        s.connect(sw1, PortNum::new(2), h1, PortNum::new(1))
            .unwrap();
        (s, sw0, sw1, h0, h1)
    }

    #[test]
    fn connect_is_symmetric_and_validated() {
        let (s, sw0, sw1, _, _) = two_switch_subnet();
        assert_eq!(
            s.neighbor(sw0, PortNum::new(1)),
            Some(Endpoint::new(sw1, PortNum::new(1)))
        );
        assert_eq!(
            s.neighbor(sw1, PortNum::new(1)),
            Some(Endpoint::new(sw0, PortNum::new(1)))
        );
        s.validate(true).unwrap();
        assert_eq!(s.num_links(), 3);
    }

    #[test]
    fn double_cabling_refused() {
        let (mut s, sw0, sw1, _, _) = two_switch_subnet();
        let err = s.connect(sw0, PortNum::new(1), sw1, PortNum::new(3));
        assert!(err.is_err());
    }

    #[test]
    fn disconnect_clears_both_ends() {
        let (mut s, sw0, sw1, _, _) = two_switch_subnet();
        s.disconnect(sw0, PortNum::new(1)).unwrap();
        assert_eq!(s.neighbor(sw0, PortNum::new(1)), None);
        assert_eq!(s.neighbor(sw1, PortNum::new(1)), None);
        assert!(s.disconnect(sw0, PortNum::new(1)).is_err());
        // The port is reusable afterwards.
        s.connect(sw0, PortNum::new(1), sw1, PortNum::new(1))
            .unwrap();
        s.validate(true).unwrap();
    }

    #[test]
    fn self_loop_refused() {
        let mut s = Subnet::new();
        let sw = s.add_switch("sw", 4);
        assert!(s.connect(sw, PortNum::new(1), sw, PortNum::new(2)).is_err());
    }

    #[test]
    fn lid_registry_roundtrip() {
        let (mut s, sw0, _, h0, _) = two_switch_subnet();
        s.assign_switch_lid(sw0, Lid::from_raw(10)).unwrap();
        s.assign_port_lid(h0, PortNum::new(1), Lid::from_raw(11))
            .unwrap();
        assert_eq!(
            s.endpoint_of(Lid::from_raw(10)),
            Some(Endpoint::new(sw0, PortNum::MANAGEMENT))
        );
        assert_eq!(
            s.endpoint_of(Lid::from_raw(11)),
            Some(Endpoint::new(h0, PortNum::new(1)))
        );
        assert_eq!(s.topmost_lid(), Some(Lid::from_raw(11)));
        s.validate(true).unwrap();
        s.clear_lid(Lid::from_raw(11)).unwrap();
        assert_eq!(s.endpoint_of(Lid::from_raw(11)), None);
        assert_eq!(s.num_lids(), 1);
    }

    #[test]
    fn lmc_range_assignment_and_teardown() {
        let (mut s, _, _, h0, _) = two_switch_subnet();
        let lmc = ib_types::Lmc::new(2).unwrap(); // 4 LIDs
                                                  // Misaligned base refused.
        assert!(s
            .assign_lmc_range(h0, PortNum::new(1), Lid::from_raw(6), lmc)
            .is_err());
        s.assign_lmc_range(h0, PortNum::new(1), Lid::from_raw(8), lmc)
            .unwrap();
        // All four LIDs answer at the same endpoint.
        for raw in 8..12 {
            assert_eq!(
                s.endpoint_of(Lid::from_raw(raw)).unwrap().node,
                h0,
                "LID {raw}"
            );
        }
        assert_eq!(s.num_lids(), 4);
        s.validate(true).unwrap();
        // Clearing an extra LID leaves the base; clearing the base leaves
        // the extras.
        s.clear_lid(Lid::from_raw(10)).unwrap();
        assert_eq!(s.endpoint_of(Lid::from_raw(10)), None);
        assert!(s.endpoint_of(Lid::from_raw(8)).is_some());
        s.clear_lid(Lid::from_raw(8)).unwrap();
        assert!(s.endpoint_of(Lid::from_raw(9)).is_some());
        s.validate(true).unwrap();
    }

    #[test]
    fn lmc_range_is_all_or_nothing() {
        let (mut s, _, _, h0, h1) = two_switch_subnet();
        s.assign_port_lid(h1, PortNum::new(1), Lid::from_raw(10))
            .unwrap();
        let lmc = ib_types::Lmc::new(2).unwrap();
        // 8..12 collides with 10: nothing may be registered.
        assert!(s
            .assign_lmc_range(h0, PortNum::new(1), Lid::from_raw(8), lmc)
            .is_err());
        assert_eq!(s.endpoint_of(Lid::from_raw(8)), None);
        assert_eq!(s.num_lids(), 1);
    }

    #[test]
    fn duplicate_lid_refused() {
        let (mut s, sw0, sw1, _, _) = two_switch_subnet();
        s.assign_switch_lid(sw0, Lid::from_raw(10)).unwrap();
        assert!(s.assign_switch_lid(sw1, Lid::from_raw(10)).is_err());
    }

    #[test]
    fn reassigning_switch_lid_releases_old() {
        let (mut s, sw0, _, _, _) = two_switch_subnet();
        s.assign_switch_lid(sw0, Lid::from_raw(10)).unwrap();
        s.assign_switch_lid(sw0, Lid::from_raw(20)).unwrap();
        assert_eq!(s.endpoint_of(Lid::from_raw(10)), None);
        assert!(s.endpoint_of(Lid::from_raw(20)).is_some());
        s.validate(true).unwrap();
    }

    #[test]
    fn trace_route_delivers_cross_switch() {
        let (mut s, sw0, sw1, h0, h1) = two_switch_subnet();
        s.assign_port_lid(h0, PortNum::new(1), Lid::from_raw(1))
            .unwrap();
        s.assign_port_lid(h1, PortNum::new(1), Lid::from_raw(2))
            .unwrap();
        // Route LID 2: sw0 forwards out port 1 (to sw1), sw1 out port 2.
        s.lft_mut(sw0)
            .unwrap()
            .set(Lid::from_raw(2), PortNum::new(1));
        s.lft_mut(sw1)
            .unwrap()
            .set(Lid::from_raw(2), PortNum::new(2));
        let path = s.trace_route(h0, Lid::from_raw(2), 16).unwrap();
        assert_eq!(path, vec![h0, sw0, sw1, h1]);
    }

    #[test]
    fn trace_route_detects_missing_entry_and_drop() {
        let (mut s, sw0, _, h0, h1) = two_switch_subnet();
        s.assign_port_lid(h1, PortNum::new(1), Lid::from_raw(2))
            .unwrap();
        assert!(s.trace_route(h0, Lid::from_raw(2), 16).is_err());
        s.lft_mut(sw0).unwrap().set(Lid::from_raw(2), PortNum::DROP);
        let err = s.trace_route(h0, Lid::from_raw(2), 16).unwrap_err();
        assert!(err.to_string().contains("dropped"));
    }

    #[test]
    fn trace_route_detects_loop() {
        let (mut s, sw0, sw1, h0, h1) = two_switch_subnet();
        s.assign_port_lid(h1, PortNum::new(1), Lid::from_raw(2))
            .unwrap();
        // Both switches bounce LID 2 back and forth over the trunk; the
        // packet never reaches h1 on sw1 port 2.
        s.lft_mut(sw0)
            .unwrap()
            .set(Lid::from_raw(2), PortNum::new(1));
        s.lft_mut(sw1)
            .unwrap()
            .set(Lid::from_raw(2), PortNum::new(1));
        let err = s.trace_route(h0, Lid::from_raw(2), 16).unwrap_err();
        assert!(err.to_string().contains("exceeded"));
        let _ = (sw0, sw1);
    }

    #[test]
    fn trace_to_switch_lid_terminates_at_port0() {
        let (mut s, sw0, sw1, h0, _) = two_switch_subnet();
        s.assign_switch_lid(sw1, Lid::from_raw(7)).unwrap();
        s.lft_mut(sw0)
            .unwrap()
            .set(Lid::from_raw(7), PortNum::new(1));
        s.lft_mut(sw1)
            .unwrap()
            .set(Lid::from_raw(7), PortNum::MANAGEMENT);
        let path = s.trace_route(h0, Lid::from_raw(7), 16).unwrap();
        assert_eq!(path, vec![h0, sw0, sw1]);
    }

    #[test]
    fn disconnected_subnet_detected() {
        let mut s = Subnet::new();
        s.add_switch("a", 2);
        s.add_switch("b", 2);
        assert!(s.validate(true).is_err());
        assert!(s.validate(false).is_ok());
    }

    #[test]
    fn leaf_switches_have_endpoints() {
        let (s, sw0, sw1, _, _) = two_switch_subnet();
        let mut leaves = s.leaf_switches();
        leaves.sort();
        assert_eq!(leaves, vec![sw0, sw1]);
    }

    #[test]
    fn vswitch_excluded_from_physical() {
        let mut s = Subnet::new();
        let sw = s.add_switch("sw", 4);
        let vsw = s.add_vswitch("hyp0-vsw", 4);
        s.connect_free(sw, vsw).unwrap();
        assert_eq!(s.num_physical_switches(), 1);
        assert_eq!(s.switches().count(), 2);
        let _ = sw;
    }

    #[test]
    fn link_down_up_roundtrip() {
        let (mut s, sw0, sw1, _, _) = two_switch_subnet();
        assert!(s.is_link_up(sw0, PortNum::new(1)));
        s.set_link_down(sw0, PortNum::new(1)).unwrap();
        // Both ends see the link as down; cabling is remembered.
        assert!(!s.is_link_up(sw0, PortNum::new(1)));
        assert!(!s.is_link_up(sw1, PortNum::new(1)));
        assert_eq!(s.neighbor(sw0, PortNum::new(1)), None);
        assert_eq!(
            s.cabled_neighbor(sw0, PortNum::new(1)),
            Some(Endpoint::new(sw1, PortNum::new(1)))
        );
        assert_eq!(s.num_links(), 2);
        s.validate_degraded().unwrap();
        // Full validation fails: the fabric is split.
        assert!(s.validate(true).is_err());
        s.set_link_up(sw0, PortNum::new(1)).unwrap();
        assert!(s.is_link_up(sw1, PortNum::new(1)));
        assert_eq!(s.num_links(), 3);
        s.validate(true).unwrap();
    }

    #[test]
    fn link_down_on_uncabled_port_refused() {
        let (mut s, sw0, _, _, _) = two_switch_subnet();
        assert!(s.set_link_down(sw0, PortNum::new(4)).is_err());
        assert!(s.set_link_up(sw0, PortNum::new(4)).is_err());
    }

    #[test]
    fn trace_route_fails_over_down_link() {
        let (mut s, sw0, sw1, h0, h1) = two_switch_subnet();
        s.assign_port_lid(h1, PortNum::new(1), Lid::from_raw(2))
            .unwrap();
        s.lft_mut(sw0)
            .unwrap()
            .set(Lid::from_raw(2), PortNum::new(1));
        s.lft_mut(sw1)
            .unwrap()
            .set(Lid::from_raw(2), PortNum::new(2));
        s.trace_route(h0, Lid::from_raw(2), 16).unwrap();
        s.set_link_down(sw0, PortNum::new(1)).unwrap();
        let err = s.trace_route(h0, Lid::from_raw(2), 16).unwrap_err();
        assert!(err.to_string().contains("uncabled"), "{err}");
    }

    #[test]
    fn remove_node_kills_links_and_iterators() {
        let (mut s, sw0, sw1, h0, h1) = two_switch_subnet();
        assert_eq!(s.num_physical_switches(), 2);
        let downed = s.remove_node(sw1).unwrap();
        assert_eq!(downed, 2); // trunk + h1 uplink
        assert!(!s.is_alive(sw1));
        assert!(s.is_alive(sw0));
        assert_eq!(s.num_physical_switches(), 1);
        // h1 is alive but unreachable; h0 still is reachable.
        assert_eq!(s.hcas().count(), 2);
        assert_eq!(s.num_links(), 1);
        s.validate_degraded().unwrap();
        let _ = (h0, h1);
    }

    #[test]
    fn degraded_validation_rejects_lid_on_dead_node() {
        let (mut s, _, sw1, _, _) = two_switch_subnet();
        s.assign_switch_lid(sw1, Lid::from_raw(9)).unwrap();
        s.remove_node(sw1).unwrap();
        let err = s.validate_degraded().unwrap_err();
        assert!(err.to_string().contains("dead node"), "{err}");
        // Pruning the LID (what the SM's heavy sweep does) fixes it.
        s.clear_lid(Lid::from_raw(9)).unwrap();
        s.validate_degraded().unwrap();
    }

    #[test]
    fn degraded_validation_rejects_unreachable_lid_owner() {
        let (mut s, sw0, sw1, _, h1) = two_switch_subnet();
        s.assign_port_lid(h1, PortNum::new(1), Lid::from_raw(2))
            .unwrap();
        // A fabric *split* is legal degraded state: h1 keeps its LID in
        // the {sw1, h1} component, to be healed in place.
        s.set_link_down(sw0, PortNum::new(1)).unwrap();
        s.validate_degraded().unwrap();
        // An endpoint with every cable down is not: no component can ever
        // serve that LID, so the SM must prune it.
        s.set_link_down(sw1, PortNum::new(2)).unwrap();
        let err = s.validate_degraded().unwrap_err();
        assert!(err.to_string().contains("unreachable"), "{err}");
    }

    #[test]
    fn disconnect_clears_down_flag() {
        let (mut s, sw0, sw1, _, _) = two_switch_subnet();
        s.set_link_down(sw0, PortNum::new(1)).unwrap();
        s.disconnect(sw0, PortNum::new(1)).unwrap();
        s.connect(sw0, PortNum::new(1), sw1, PortNum::new(1))
            .unwrap();
        assert!(s.is_link_up(sw0, PortNum::new(1)));
        s.validate(true).unwrap();
    }

    #[test]
    fn clone_snapshot_roundtrip() {
        let (mut s, sw0, _, h0, _) = two_switch_subnet();
        s.assign_switch_lid(sw0, Lid::from_raw(3)).unwrap();
        s.assign_port_lid(h0, PortNum::new(1), Lid::from_raw(4))
            .unwrap();
        s.lft_mut(sw0)
            .unwrap()
            .set(Lid::from_raw(4), PortNum::new(2));
        let back = s.clone();
        back.validate(true).unwrap();
        assert_eq!(back.num_lids(), 2);
        assert_eq!(
            back.lft(sw0).unwrap().get(Lid::from_raw(4)),
            Some(PortNum::new(2))
        );
    }
}
