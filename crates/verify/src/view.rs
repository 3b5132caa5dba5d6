//! The dense, read-only view of a subnet's installed forwarding state that
//! the verifier's kernels run on: switches by index, their installed LFT
//! rows borrowed in place, and a flat `(switch, port) → live far end` table.
//! Built once per verification pass; every array is sized from the fabric
//! (`stride` is the highest live switch port + 1, not a fixed 256), so a
//! 64-switch torus pays for 64 switches.

use ib_subnet::{NodeId, Subnet};
use ib_types::{Lid, PortNum, LFT_BLOCK_SIZE};

/// `peer` code: nothing live behind the port (downed or uncabled).
pub(crate) const NO_PEER: u32 = u32::MAX;
/// `peer` flag: the far end is not a live switch; the low bits are its
/// `NodeId` index. Codes below this flag are switch indices.
pub(crate) const NODE: u32 = 1 << 31;
/// `peer` flag (with [`NODE`]): that node is an HCA.
const HCA: u32 = 1 << 30;
/// `Column::chan` code: the cell does not forward onto a switch-to-switch
/// channel.
pub(crate) const NO_CHANNEL: u32 = u32::MAX;
const UNLABELLED: u32 = u32::MAX;

/// Where one switch's LFT sends a packet for one destination.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NextHop {
    /// Arrives at the destination endpoint.
    Deliver,
    /// Forwards to another switch (by dense index).
    To(u32),
    /// Terminal failure.
    Dead(DeadEnd),
}

/// Why a cell drops the packet; rendered only when a violation is pushed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum DeadEnd {
    NoLft,
    MissingRow,
    Drop,
    WrongSwitch,
    DeadPort(PortNum),
    WrongEndpoint(NodeId),
    NonSwitch(NodeId),
}

impl DeadEnd {
    /// The human-readable reason, as reports have always worded it.
    pub(crate) fn reason(self, subnet: &Subnet) -> String {
        match self {
            Self::NoLft => "no LFT installed".into(),
            Self::MissingRow => "missing LFT row".into(),
            Self::Drop => "row is an explicit drop".into(),
            Self::WrongSwitch => "row terminates at the wrong switch".into(),
            Self::DeadPort(port) => format!("row forwards into downed/uncabled port {port}"),
            Self::WrongEndpoint(node) => {
                format!("delivered to wrong endpoint {}", subnet.name_of(node))
            }
            Self::NonSwitch(node) => format!("forwards into non-switch {}", subnet.name_of(node)),
        }
    }
}

/// One destination's column across every switch, classified once and read
/// by both the forwarding and the deadlock check.
pub(crate) struct Column {
    /// `next[s]`: where switch `s` sends the destination.
    pub(crate) next: Vec<NextHop>,
    /// `chan[s]`: the switch-to-switch channel `s * stride + port` switch
    /// `s`'s row forwards onto, whatever the destination — [`NO_CHANNEL`]
    /// when the row is absent, local, or leads to a non-switch.
    pub(crate) chan: Vec<u32>,
    /// The LFT block (the paper's 64-LID `m` unit) `tile` holds, if any.
    block: Option<usize>,
    /// `tile[s * 64 + i]`: switch `s`'s entry for LID `block * 64 + i`.
    /// Rows lie a whole table apart, so reading a column off them is a
    /// cache and TLB miss per switch; one pass copies a block of every row
    /// side by side and its 64 columns are classified from there.
    tile: Vec<Option<PortNum>>,
}

/// See the module docs.
pub(crate) struct FabricView<'a> {
    pub(crate) subnet: &'a Subnet,
    /// Live switches in `subnet.switches()` order.
    pub(crate) switches: Vec<NodeId>,
    /// `NodeId.index() → switch index`, [`NO_PEER`] for everything else.
    switch_of: Vec<u32>,
    /// The installed row of each switch, indexed by raw LID; `None` when
    /// the switch has no LFT.
    rows: Vec<Option<&'a [Option<PortNum>]>>,
    /// Ports per switch in `peer` (highest live switch port + 1).
    pub(crate) stride: usize,
    /// `peer[s * stride + port]`: the live far end of `(s, port)` — exactly
    /// [`Subnet::neighbor`] — as a switch index, a flagged node, or
    /// [`NO_PEER`].
    pub(crate) peer: Vec<u32>,
    /// Live switch component labels, in switch-list order.
    comp: Vec<u32>,
}

impl<'a> FabricView<'a> {
    pub(crate) fn new(subnet: &'a Subnet) -> Self {
        let switches: Vec<NodeId> = subnet.switches().map(|n| n.id).collect();
        let mut switch_of = vec![NO_PEER; subnet.num_nodes()];
        for (i, sw) in switches.iter().enumerate() {
            switch_of[sw.index()] = i as u32;
        }
        let rows = switches
            .iter()
            .map(|&sw| subnet.lft(sw).map(ib_subnet::Lft::entries))
            .collect();
        let stride = switches
            .iter()
            .filter_map(|&sw| subnet.node(sw).connected_ports().last())
            .map(|(port, _)| port.raw() as usize + 1)
            .max()
            .unwrap_or(1);
        let mut view = Self {
            subnet,
            switches,
            switch_of,
            rows,
            stride,
            peer: Vec::new(),
            comp: Vec::new(),
        };
        let mut peer = vec![NO_PEER; view.len() * stride];
        for (s, &sw) in view.switches.iter().enumerate() {
            for (port, remote) in subnet.node(sw).connected_ports() {
                peer[s * stride + port.raw() as usize] = view.code_of(remote.node);
            }
        }
        view.peer = peer;
        view.comp = view.label_components();
        view
    }

    /// Number of switches.
    pub(crate) fn len(&self) -> usize {
        self.switches.len()
    }

    /// The dense index of a live switch.
    pub(crate) fn switch_index(&self, node: NodeId) -> Option<usize> {
        match self.switch_of.get(node.index()) {
            Some(&s) if s != NO_PEER => Some(s as usize),
            _ => None,
        }
    }

    /// The `peer` code of a node: its switch index, or its flagged id.
    pub(crate) fn code_of(&self, node: NodeId) -> u32 {
        match self.switch_index(node) {
            Some(s) => s as u32,
            None if self.subnet.node(node).is_hca() => NODE | HCA | node.index() as u32,
            None => NODE | node.index() as u32,
        }
    }

    /// The switch at the far end of channel `chan`.
    #[inline]
    pub(crate) fn channel_head(&self, chan: u32) -> usize {
        self.peer[chan as usize] as usize
    }

    /// The component label of switch `s`.
    pub(crate) fn component(&self, s: usize) -> u32 {
        self.comp[s]
    }

    /// The switch `lid` terminates at or hangs off, over a live link —
    /// [`ib_routing::Destination::switch`] without building a graph.
    pub(crate) fn delivery_switch(&self, lid: Lid) -> Option<usize> {
        let ep = self.subnet.endpoint_of(lid)?;
        self.switch_index(ep.node).or_else(|| {
            let far = self.subnet.neighbor(ep.node, ep.port)?;
            self.switch_index(far.node)
        })
    }

    /// Whether the live switches fall apart into more than one component.
    pub(crate) fn is_split(&self) -> bool {
        self.comp.iter().any(|&c| c != 0)
    }

    /// Switch `s`'s installed entry for `lid`.
    #[inline]
    pub(crate) fn entry(&self, s: usize, lid: Lid) -> Option<PortNum> {
        self.rows[s]
            .and_then(|row| row.get(lid.raw() as usize))
            .copied()
            .flatten()
    }

    /// Switch `s`'s installed cell for `lid` (whose endpoint has `peer`
    /// code `target`), classified without gathering a column: what a walk
    /// over a handful of cells reads.
    #[inline]
    pub(crate) fn cell(&self, s: usize, lid: Lid, target: u32) -> (NextHop, u32) {
        self.classify(s, self.entry(s, lid), target)
    }

    /// Labels the live switch components: BFS over switch-switch cables
    /// that are up on both ends, in switch-list order (deterministic
    /// labels).
    fn label_components(&self) -> Vec<u32> {
        let mut label = vec![UNLABELLED; self.len()];
        let mut queue: Vec<usize> = Vec::new();
        let mut count = 0u32;
        for root in 0..self.len() {
            if label[root] != UNLABELLED {
                continue;
            }
            label[root] = count;
            queue.clear();
            queue.push(root);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &far in &self.peer[u * self.stride..(u + 1) * self.stride] {
                    if far < NODE && label[far as usize] == UNLABELLED {
                        label[far as usize] = count;
                        queue.push(far as usize);
                    }
                }
            }
            count += 1;
        }
        label
    }

    /// The component a node's traffic is delivered in: a switch's own
    /// label, or — for an HCA — the label of its live attached switch.
    /// `None` when the node is dead or has no live switch uplink
    /// (unreachable from everywhere).
    pub(crate) fn component_of(&self, node: NodeId) -> Option<u32> {
        if !self.subnet.is_alive(node) {
            return None;
        }
        let attached = || {
            self.subnet
                .node(node)
                .connected_ports()
                .find_map(|(_, remote)| self.switch_index(remote.node))
        };
        self.switch_index(node)
            .or_else(attached)
            .map(|s| self.comp[s])
    }

    /// A column's scratch, sized for this fabric.
    pub(crate) fn column(&self) -> Column {
        Column {
            next: vec![NextHop::Deliver; self.len()],
            chan: vec![NO_CHANNEL; self.len()],
            block: None,
            tile: vec![None; self.len() * LFT_BLOCK_SIZE],
        }
    }

    /// Classifies every switch's cell for `lid`, whose endpoint is
    /// `target`, into `col`.
    pub(crate) fn gather(&self, lid: Lid, target: NodeId, col: &mut Column) {
        let (block, i) = (lid.lft_block(), lid.raw() as usize % LFT_BLOCK_SIZE);
        if col.block != Some(block) {
            let at = block * LFT_BLOCK_SIZE;
            for (row, tile) in self
                .rows
                .iter()
                .zip(col.tile.chunks_exact_mut(LFT_BLOCK_SIZE))
            {
                match row.and_then(|r| r.get(at..at + LFT_BLOCK_SIZE)) {
                    Some(src) => tile.copy_from_slice(src),
                    None => tile.fill(None),
                }
            }
            col.block = Some(block);
        }
        let target = self.code_of(target);
        for s in 0..self.len() {
            (col.next[s], col.chan[s]) = self.classify(s, col.tile[s * LFT_BLOCK_SIZE + i], target);
        }
    }

    /// The one cell classifier: switch `s`'s installed entry for one
    /// destination, resolved against the live cabling, as the forwarding
    /// check's [`NextHop`] (`target` is the destination's `peer` code) and
    /// the deadlock check's channel.
    #[inline]
    fn classify(&self, s: usize, entry: Option<PortNum>, target: u32) -> (NextHop, u32) {
        let (hop, chan) = match entry {
            Some(port) => self.follow(s, port, target),
            None if self.rows[s].is_none() => (NextHop::Dead(DeadEnd::NoLft), NO_CHANNEL),
            None => (NextHop::Dead(DeadEnd::MissingRow), NO_CHANNEL),
        };
        // A switch's own LID terminates there, whatever its row says.
        let hop = if s as u32 == target {
            NextHop::Deliver
        } else {
            hop
        };
        (hop, chan)
    }

    /// Follows a set entry out of switch `s` through `port`.
    #[inline]
    fn follow(&self, s: usize, port: PortNum, target: u32) -> (NextHop, u32) {
        let at = s * self.stride + port.raw() as usize;
        let far = far_end(&self.peer, self.stride, s, port);
        let chan = if far < NODE { at as u32 } else { NO_CHANNEL };
        let hop = if port.is_drop() {
            NextHop::Dead(DeadEnd::Drop)
        } else if port.is_management() {
            NextHop::Dead(DeadEnd::WrongSwitch)
        } else if far == NO_PEER {
            NextHop::Dead(DeadEnd::DeadPort(port))
        } else if far == target {
            NextHop::Deliver
        } else if far < NODE {
            NextHop::To(far)
        } else {
            let node = NodeId::from_index((far & !(NODE | HCA)) as usize);
            NextHop::Dead(if far & HCA != 0 {
                DeadEnd::WrongEndpoint(node)
            } else {
                DeadEnd::NonSwitch(node)
            })
        };
        (hop, chan)
    }
}

/// The far end of `(s, port)` in a `peer` table of width `stride`;
/// [`NO_PEER`] for the management port and ports past the table.
#[inline]
pub(crate) fn far_end(peer: &[u32], stride: usize, s: usize, port: PortNum) -> u32 {
    if !port.is_management() && (port.raw() as usize) < stride {
        peer[s * stride + port.raw() as usize]
    } else {
        NO_PEER
    }
}
