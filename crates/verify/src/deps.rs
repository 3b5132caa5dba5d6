//! Invariant 3's store: the channel dependency graph (CDG) of the installed
//! tables, per lane, as dependency *counts* — how many destination columns
//! book each `held → wanted` pair — so a dependency can be retracted as
//! well as added, and a repair gate can patch the graph a full audit left
//! behind instead of rebuilding it from every column.
//!
//! The graph itself is [`ib_routing::cdg::Cdg`] — its layout, counting and
//! cycle search — over the view's far-end table, with one-byte counts
//! ([`ByteCounts`]). What is the verifier's own lives here: which
//! columns book which lane, the far ends the counts are up to date with,
//! how a repair's moved cells patch them, and where the next cycle search
//! must start.
//!
//! A graph whose last search found every lane acyclic can only have
//! gained a cycle through a dependency a patch booked from zero since: a
//! patch books a column's new dependencies before it retracts the old
//! ones, so a dependency that is merely re-booked never passes through
//! zero. The gate's search therefore starts from those dependencies' heads
//! — after a mid–core repair on the 5832-node tree ≈ 300 distinct heads,
//! reaching ≈ 940 of 36 k channels on VL0 and 2 on VL1 — and falls back
//! to the lane-wide search only when that finds a cycle (so a reported
//! cycle is always the lane-wide search's first) or when the graph was
//! not searched clean.

use std::fmt;

use ib_routing::cdg::{ByteCounts, Cdg};
use ib_routing::{Destination, LidMove, VlAssignment};
use ib_subnet::NodeId;
use ib_types::{Lid, PortNum};

use crate::verifier::{InvariantClass, Violation};
use crate::view::{far_end, Column, FabricView, NODE, NO_CHANNEL, NO_PEER};

/// One cell whose channel may differ between the rows a [`ChannelDeps`]
/// last counted and the rows installed now: a cell a repair moved, or one
/// still forwarding into a link the repair's faults took down.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Changed {
    /// The destination column.
    pub(crate) lid: Lid,
    /// Dense switch index.
    pub(crate) switch: usize,
    /// The entry the counts were booked with.
    pub(crate) before: Option<PortNum>,
}

/// The channel dependency graph of a fabric's installed tables under one
/// VL layering, as per-lane dependency counts — built by a full audit
/// ([`crate::FabricVerifier::audit`]) and patched by each repair gate
/// ([`crate::FabricVerifier::verify_moved`]) with the cells that repair
/// moved. Equality is semantic: the same VL assignment, lanes and counted
/// dependencies, however the counts are laid out.
pub struct ChannelDeps {
    lanes: Lanes,
    /// The booked columns: every registered LID, ascending.
    lids: Vec<Lid>,
    /// The live switches the channel ids index, in the view's order.
    switches: Vec<NodeId>,
    peers: Peers,
    /// Lane `k` counts the columns on raw lane `lanes.lanes[k]`.
    graph: Cdg<ByteCounts>,
    /// Whether the last cycle search found every lane acyclic; a freshly
    /// built graph has not been searched.
    acyclic: bool,
    /// `(lane slot, wanted)` of each dependency [`Self::patch`] booked from
    /// zero since the last search: every cycle it can have added runs
    /// through one.
    fresh: Vec<(usize, u32)>,
}

/// Why a gate rebuilds the dependency graph instead of patching it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rebuild {
    /// No graph was carried.
    NoState,
    /// The fabric is split.
    Split,
    /// The VL layering changed.
    Vls,
    /// The fabric differs from the carried graph's by more than the
    /// gate's links going down or coming back.
    Topology,
}

impl Rebuild {
    /// The `verify.full_deps.<reason>` counter that counts it.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            Self::NoState => "verify.full_deps.no-state",
            Self::Split => "verify.full_deps.split",
            Self::Vls => "verify.full_deps.vls",
            Self::Topology => "verify.full_deps.topology",
        }
    }
}

/// How destination columns map onto lanes.
struct Lanes {
    vls: VlAssignment,
    /// Lanes in use, ascending.
    lanes: Vec<u8>,
    /// Raw lane → index into `lanes`.
    slot_of: Vec<usize>,
}

/// The far ends the counts are up to date with: the view's `peer` table
/// when the counts were laid out, minus the channels downed since.
struct Peers {
    stride: usize,
    layout: Vec<u32>,
    /// Channel ids whose link went down since the layout, ascending.
    cut: Vec<u32>,
}

impl ChannelDeps {
    /// An empty graph laid out over `view`, booking the columns of `dests`
    /// (every registered LID, ascending) under `vls`.
    pub(crate) fn new(view: &FabricView<'_>, vls: &VlAssignment, dests: &[Destination]) -> Self {
        let lanes: Vec<u8> = vls.lanes().iter().map(|l| l.raw()).collect();
        let mut slot_of = vec![0; lanes.last().map_or(0, |&l| l as usize) + 1];
        for (slot, &lane) in lanes.iter().enumerate() {
            slot_of[lane as usize] = slot;
        }
        Self {
            lids: dests.iter().map(|d| d.lid).collect(),
            switches: view.switches.clone(),
            peers: Peers {
                stride: view.stride,
                layout: view.peer.clone(),
                cut: Vec::new(),
            },
            // Switch indices sit below `NODE`, so the view's node and
            // `NO_PEER` codes are all "leaves the switch fabric".
            graph: Cdg::with_far_ends(view.stride, &view.peer, lanes.len()),
            lanes: Lanes {
                vls: vls.clone(),
                lanes,
                slot_of,
            },
            acyclic: false,
            fresh: Vec::new(),
        }
    }

    /// Books the dependencies `dest`'s column induces.
    pub(crate) fn absorb(
        &mut self,
        view: &FabricView<'_>,
        dest: &Destination,
        col: &Column,
        max_hops: usize,
    ) {
        let graph = &mut self.graph;
        self.lanes.edges(
            (dest.lid, dest.switch),
            view.len(),
            |s| col.chan[s],
            |c| view.channel_head(c),
            None,
            max_hops,
            |slot, held, wanted| {
                graph.book(slot, held, wanted, true);
            },
        );
    }

    /// Why these counts cannot be patched up to `view`, if they cannot:
    /// the fabric is split, the layering changed, or the live far ends
    /// differ from the counted ones by more than the channels in `cut`
    /// (the links of the gate's faults) going dark or — cut since the
    /// layout — coming back to their old far end: a new link, a switch or
    /// LID that came or went, another fault. Every cell forwarding into a
    /// `cut` channel is among the patch's changed cells, so its dependencies
    /// are recounted whichever way its link went.
    pub(crate) fn blocker(
        &self,
        view: &FabricView<'_>,
        vls: &VlAssignment,
        lids: &[Lid],
        cut: &[u32],
    ) -> Option<Rebuild> {
        if view.is_split() {
            return Some(Rebuild::Split);
        }
        if self.lanes.vls != *vls {
            return Some(Rebuild::Vls);
        }
        let same_far_ends = view.peer.len() == self.peers.layout.len()
            && view.peer.iter().enumerate().all(|(at, &live)| {
                live == self.peers.far(at)
                    || (cut.contains(&(at as u32))
                        && (live == NO_PEER || live == self.peers.layout[at]))
            });
        let same_fabric =
            self.switches == view.switches && self.peers.stride == view.stride && self.lids == lids;
        (!(same_far_ends && same_fabric)).then_some(Rebuild::Topology)
    }

    /// Brings the counts up to the rows `view` sees, given every cell whose
    /// channel may have changed since they were counted (sorted by column,
    /// then switch; [`Self::blocker`] must have passed). A column's
    /// dependencies go in as its rows are now and come out as the counted
    /// rows and far ends had them — in that order, so only a dependency
    /// the column did not book before rises from zero, and it is noted for
    /// the next search. Under a per-destination layering that is only the
    /// dependencies whose tail channel or whose head's channel changed —
    /// the changed switches and the neighbours that forwarded into them —
    /// under a path-granular one the whole column, since a path's lane
    /// follows its source.
    pub(crate) fn patch(&mut self, view: &FabricView<'_>, changed: &[Changed], max_hops: usize) {
        let (peers, graph, lanes) = (&self.peers, &mut self.graph, &self.lanes);
        let fresh = &mut self.fresh;
        for cells in changed.chunk_by(|a, b| a.lid == b.lid) {
            let lid = cells[0].lid;
            let (Ok(_), Some(to)) = (self.lids.binary_search(&lid), view.delivery_switch(lid))
            else {
                continue; // Not a booked column: nothing counted, nothing to count.
            };
            let dest = (lid, to);
            let before = |s: usize| {
                let entry = match cells.binary_search_by_key(&s, |c| c.switch) {
                    Ok(k) => cells[k].before,
                    Err(_) => view.entry(s, lid),
                };
                peers.channel(s, entry)
            };
            let tails = lanes.per_destination().then(|| peers.tails(cells, before));
            let (n, tails) = (view.len(), tails.as_deref());
            let after = |s: usize| view.cell(s, lid, NO_PEER).1;
            let head = |c: u32| view.channel_head(c);
            lanes.edges(dest, n, after, head, tails, max_hops, |slot, h, w| {
                if graph.book(slot, h, w, true) {
                    fresh.push((slot, w));
                }
            });
            let head = |c: u32| peers.layout[c as usize] as usize;
            lanes.edges(dest, n, before, head, tails, max_hops, |slot, h, w| {
                graph.book(slot, h, w, false);
            });
        }
        self.peers.cut = (0..view.peer.len())
            .filter(|&at| view.peer[at] != self.peers.layout[at])
            .map(|at| at as u32)
            .collect();
    }

    /// One dependency cycle per lane (ascending), if any, as a violation:
    /// the first the lane-wide search meets. When the last search found
    /// every lane acyclic, the search first starts only from the heads of
    /// the dependencies booked from zero since; if that meets no cycle,
    /// there is none, nothing is reported and this returns true. Otherwise
    /// every lane is searched from every channel, and this returns false.
    pub(crate) fn report_cycles(
        &mut self,
        view: &FabricView<'_>,
        out: &mut Vec<Violation>,
    ) -> bool {
        self.fresh.sort_unstable();
        self.fresh.dedup();
        let scoped = self.acyclic
            && (self.fresh.chunk_by(|a, b| a.0 == b.0)).all(|heads| {
                let starts = heads.iter().map(|&(_, wanted)| wanted);
                self.graph.find_cycle_from(heads[0].0, starts).is_none()
            });
        self.fresh.clear();
        if scoped {
            return true;
        }
        self.acyclic = true;
        for (slot, lane) in self.lanes.lanes.iter().enumerate() {
            if let Some(cycle) = self.graph.find_cycle(slot) {
                self.acyclic = false;
                let chain: Vec<String> = cycle
                    .iter()
                    .map(|&(s, p)| {
                        format!("{}:p{p}", view.subnet.name_of(view.switches[s as usize]))
                    })
                    .collect();
                out.push(Violation {
                    class: InvariantClass::DeadlockCycle,
                    detail: format!("VL{lane} channel dependency cycle: {}", chain.join(" -> ")),
                    lid: None,
                });
            }
        }
        false
    }

    /// Follows a LID swap that exchanged the whole columns of `a` and `b`
    /// on every switch, each column with its delivery switch: the two
    /// LIDs trade lanes, and every lane's dependency counts, which sum
    /// over the columns, stay as they are (`tests/migration_lanes.rs`
    /// pins this under every engine).
    pub fn swap_lids(&mut self, a: Lid, b: Lid) {
        self.lanes.vls.apply_move(LidMove::Swap(a, b));
    }

    /// Whether the lane-wide search finds every lane acyclic — what a
    /// clean [`Self::report_cycles`] from the fresh heads must agree with.
    pub(crate) fn is_acyclic(&self) -> bool {
        (0..self.lanes.lanes.len()).all(|slot| self.graph.find_cycle(slot).is_none())
    }
}

impl PartialEq for ChannelDeps {
    fn eq(&self, other: &Self) -> bool {
        self.lanes.vls == other.lanes.vls
            && self.lanes.lanes == other.lanes.lanes
            && self.switches == other.switches
            && self.peers.stride == other.peers.stride
            && (0..self.lanes.lanes.len()).all(|k| self.graph.edges(k).eq(other.graph.edges(k)))
    }
}

impl fmt::Debug for ChannelDeps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelDeps")
            .field("lanes", &self.lanes.lanes)
            .field("switches", &self.switches.len())
            .field("columns", &self.lids.len())
            .field("graph", &self.graph)
            .field("cut", &self.peers.cut)
            .field("acyclic", &self.acyclic)
            .field("fresh", &self.fresh.len())
            .finish()
    }
}

impl Lanes {
    /// Whether a column's lane is a function of the destination alone.
    fn per_destination(&self) -> bool {
        matches!(
            self.vls,
            VlAssignment::SingleVl | VlAssignment::PerDestination(_)
        )
    }

    /// Feeds `sink` the `(slot, held, wanted)` dependencies of the column of
    /// `dest` — a LID and its delivery switch — whose switch `s` forwards
    /// onto channel `chan(s)` and whose channel `c` leads to switch
    /// `head(c)`. Lane shapes that are a function of the destination take
    /// every (switch, next switch) cell pair — of the `tails` switches
    /// only, when given; path-granular shapes walk each source's path and
    /// book its channel chain on *its* lane only.
    #[allow(clippy::too_many_arguments)]
    fn edges(
        &self,
        (lid, to): (Lid, usize),
        switches: usize,
        chan: impl Fn(usize) -> u32,
        head: impl Fn(u32) -> usize,
        tails: Option<&[usize]>,
        max_hops: usize,
        mut sink: impl FnMut(usize, u32, u32),
    ) {
        let vls = &self.vls;
        if self.per_destination() {
            let slot = self.slot_of[vls.lane_for(0, 0, lid).raw() as usize];
            let mut book = |s: usize| {
                let held = chan(s);
                if held != NO_CHANNEL {
                    let wanted = chan(head(held));
                    if wanted != NO_CHANNEL {
                        sink(slot, held, wanted);
                    }
                }
            };
            match tails {
                Some(tails) => tails.iter().for_each(|&s| book(s)),
                None => (0..switches).for_each(book),
            }
            return;
        }
        for src in (0..switches).filter(|&s| s != to) {
            let lane = vls.lane_for(src as u32, to as u32, lid);
            let slot = self.slot_of[lane.raw() as usize];
            let mut cur = src;
            let mut held = NO_CHANNEL;
            for _ in 0..max_hops {
                let wanted = chan(cur);
                if wanted == NO_CHANNEL {
                    break;
                }
                if held != NO_CHANNEL {
                    sink(slot, held, wanted);
                }
                held = wanted;
                cur = head(wanted);
                if cur == to {
                    break;
                }
            }
        }
    }
}

impl Peers {
    fn is_cut(&self, at: usize) -> bool {
        self.cut.binary_search(&(at as u32)).is_ok()
    }

    /// The counted far end of port slot `at`.
    fn far(&self, at: usize) -> u32 {
        if self.is_cut(at) {
            NO_PEER
        } else {
            self.layout[at]
        }
    }

    /// The channel switch `s`'s `entry` forwarded onto under the counted
    /// far ends — the deadlock half of the view's cell classifier.
    fn channel(&self, s: usize, entry: Option<PortNum>) -> u32 {
        let Some(port) = entry else {
            return NO_CHANNEL;
        };
        let at = s * self.stride + port.raw() as usize;
        if far_end(&self.layout, self.stride, s, port) < NODE && !self.is_cut(at) {
            at as u32
        } else {
            NO_CHANNEL
        }
    }

    /// The tails of every dependency of one column that a change to
    /// `cells` can alter: the changed switches themselves and each
    /// neighbour whose channel (under `chan`) leads into one of them.
    fn tails(&self, cells: &[Changed], chan: impl Fn(usize) -> u32) -> Vec<usize> {
        let mut tails: Vec<usize> = cells.iter().map(|c| c.switch).collect();
        for c in cells {
            let ports = &self.layout[c.switch * self.stride..(c.switch + 1) * self.stride];
            for &w in ports.iter().filter(|&&w| w < NODE) {
                let held = chan(w as usize);
                if held != NO_CHANNEL && self.layout[held as usize] as usize == c.switch {
                    tails.push(w as usize);
                }
            }
        }
        tails.sort_unstable();
        tails.dedup();
        tails
    }
}
