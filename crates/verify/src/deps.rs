//! Invariant 3's store: the channel dependency graph (CDG) of the installed
//! tables, per lane, as dependency *counts* — how many destination columns
//! book each `held → wanted` pair — so a dependency can be retracted as
//! well as added, and a repair gate can patch the graph a full audit left
//! behind instead of rebuilding it from every column.
//!
//! A channel is `(switch, out-port)` with dense id `switch * stride + port`;
//! it determines the next switch, so its successors are that switch's
//! switch-facing ports. Counts are laid out per channel over exactly those
//! ports (`base`, `rank`): on the 5832-node tree that is 0.63 M slots per
//! lane where a dense `stride²` block per switch would hold 1.33 M. A slot
//! is one byte; the rare count past 254 spills into a side map (on that
//! tree no dependency is booked by more than a few dozen columns).

use std::fmt;

use ib_routing::{Destination, VlAssignment};
use ib_subnet::NodeId;
use ib_types::{Lid, PortNum};
use rustc_hash::FxHashMap;

use crate::verifier::{InvariantClass, Violation};
use crate::view::{far_end, Column, FabricView, NODE, NO_CHANNEL, NO_PEER};

/// `rank` code: the port does not lead to a switch.
const NO_RANK: u8 = u8::MAX;
/// Count slot value: the true count (≥ this) lives in `Counts::spill`.
const SPILLED: u8 = u8::MAX;

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
/// moved. Equality is semantic: the same lanes and the same counted
/// dependencies, however the counts are laid out.
pub struct ChannelDeps {
    lanes: Lanes,
    /// The booked columns: every registered LID, ascending.
    lids: Vec<Lid>,
    /// The live switches the channel ids index, in the view's order.
    switches: Vec<NodeId>,
    peers: Peers,
    graph: Counts,
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

/// The counts, laid out per channel over its head switch's switch-facing
/// ports.
struct Counts {
    /// `rank[t * stride + q]`: port `q`'s index among switch `t`'s
    /// switch-facing ports, [`NO_RANK`] for the others.
    rank: Vec<u8>,
    /// `ports[first[t] + r]`: switch `t`'s switch-facing port of rank `r`.
    ports: Vec<u8>,
    first: Vec<u32>,
    /// `base[c]..base[c + 1]`: channel `c`'s successor slots within a lane.
    base: Vec<u32>,
    /// Slots per lane (`base[channels]`).
    per_lane: usize,
    /// `counts[slot * per_lane + base[held] + rank[wanted]]`, or
    /// [`SPILLED`].
    counts: Vec<u8>,
    /// The counts of [`SPILLED`] slots, by slot index.
    spill: FxHashMap<u32, u32>,
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
        let stride = view.stride;
        let mut rank = vec![NO_RANK; view.peer.len()];
        let (mut ports, mut first) = (Vec::new(), Vec::with_capacity(view.len() + 1));
        for (t, far_ends) in view.peer.chunks_exact(stride).enumerate() {
            first.push(ports.len() as u32);
            for (q, &far) in far_ends.iter().enumerate() {
                if far < NODE {
                    rank[t * stride + q] = (ports.len() - first[t] as usize) as u8;
                    ports.push(q as u8);
                }
            }
        }
        first.push(ports.len() as u32);
        let mut base = Vec::with_capacity(view.peer.len() + 1);
        base.push(0u32);
        for &far in &view.peer {
            let slots = if far < NODE {
                first[far as usize + 1] - first[far as usize]
            } else {
                0
            };
            base.push(base.last().copied().unwrap_or(0) + slots);
        }
        let per_lane = base.last().copied().unwrap_or(0) as usize;
        Self {
            lids: dests.iter().map(|d| d.lid).collect(),
            switches: view.switches.clone(),
            peers: Peers {
                stride,
                layout: view.peer.clone(),
                cut: Vec::new(),
            },
            graph: Counts {
                rank,
                ports,
                first,
                base,
                per_lane,
                counts: vec![0; lanes.len() * per_lane],
                spill: FxHashMap::default(),
            },
            lanes: Lanes {
                vls: vls.clone(),
                lanes,
                slot_of,
            },
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
            |slot, held, wanted| graph.bump(slot, held, wanted, true),
        );
    }

    /// Why these counts cannot be patched up to `view`, if they cannot:
    /// the fabric is split, the layering changed, or the live far ends
    /// differ from the counted ones by more than the channels in `cut`
    /// (the ones the repair's faults took down) going dark — a new link,
    /// a switch or LID that came or went, another fault.
    pub(crate) fn blocker(
        &self,
        view: &FabricView<'_>,
        vls: &VlAssignment,
        lids: &[Lid],
        cut: &[u32],
    ) -> Option<&'static str> {
        if view.is_split() {
            return Some("split");
        }
        if self.lanes.vls != *vls {
            return Some("vls");
        }
        let same_far_ends = view.peer.len() == self.peers.layout.len()
            && view.peer.iter().enumerate().all(|(at, &live)| {
                live == self.peers.far(at) || (live == NO_PEER && cut.contains(&(at as u32)))
            });
        let same_fabric =
            self.switches == view.switches && self.peers.stride == view.stride && self.lids == lids;
        (!(same_far_ends && same_fabric)).then_some("topology")
    }

    /// Brings the counts up to the rows `view` sees, given every cell whose
    /// channel may have changed since they were counted (sorted by column,
    /// then switch; [`Self::blocker`] must have passed). A column's
    /// dependencies come out as the counted rows and far ends had them and
    /// go back in as they are now: under a per-destination layering only
    /// the dependencies whose tail channel or whose head's channel changed
    /// — the changed switches and the neighbours that forwarded into them —
    /// under a path-granular one the whole column, since a path's lane
    /// follows its source.
    pub(crate) fn patch(&mut self, view: &FabricView<'_>, changed: &[Changed], max_hops: usize) {
        let (peers, graph, lanes) = (&self.peers, &mut self.graph, &self.lanes);
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
            let head = |c: u32| peers.layout[c as usize] as usize;
            let tails = lanes.per_destination().then(|| peers.tails(cells, before));
            let (n, tails) = (view.len(), tails.as_deref());
            lanes.edges(dest, n, before, head, tails, max_hops, |slot, h, w| {
                graph.bump(slot, h, w, false);
            });
            let after = |s: usize| view.cell(s, lid, NO_PEER).1;
            let head = |c: u32| view.channel_head(c);
            lanes.edges(dest, n, after, head, tails, max_hops, |slot, h, w| {
                graph.bump(slot, h, w, true);
            });
        }
        self.peers.cut = (0..view.peer.len())
            .filter(|&at| view.peer[at] != self.peers.layout[at])
            .map(|at| at as u32)
            .collect();
    }

    /// One dependency cycle per lane (ascending), if any, as a violation.
    pub(crate) fn report_cycles(&self, view: &FabricView<'_>, out: &mut Vec<Violation>) {
        let stride = self.peers.stride;
        for (slot, lane) in self.lanes.lanes.iter().enumerate() {
            if let Some(cycle) = self.find_cycle(slot) {
                let chain: Vec<String> = cycle
                    .iter()
                    .map(|&c| {
                        let (s, p) = (c as usize / stride, c as usize % stride);
                        format!("{}:p{p}", view.subnet.name_of(view.switches[s]))
                    })
                    .collect();
                out.push(Violation {
                    class: InvariantClass::DeadlockCycle,
                    detail: format!("VL{lane} channel dependency cycle: {}", chain.join(" -> ")),
                    lid: None,
                });
            }
        }
    }

    /// Iterative three-colour DFS over one lane. Returns a channel sequence
    /// where each element depends on the next and the last on the first,
    /// or `None` when the lane is acyclic.
    fn find_cycle(&self, slot: usize) -> Option<Vec<u32>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let channels = self.peers.layout.len();
        let mut color = vec![WHITE; channels];
        // (channel, next successor rank to try); the stack is the gray path.
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..channels {
            if color[start] != WHITE || self.graph.slots(slot, start).iter().all(|&n| n == 0) {
                continue;
            }
            color[start] = GRAY;
            stack.push((start as u32, 0));
            while let Some((held, from)) = stack.last_mut() {
                let Some((r, wanted)) = self.next_successor(slot, *held as usize, *from) else {
                    color[*held as usize] = BLACK;
                    stack.pop();
                    continue;
                };
                *from = r + 1;
                match color[wanted] {
                    WHITE => {
                        color[wanted] = GRAY;
                        stack.push((wanted as u32, 0));
                    }
                    GRAY => {
                        let at = stack.iter().position(|&(c, _)| c as usize == wanted)?;
                        return Some(stack[at..].iter().map(|&(c, _)| c).collect());
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// The first successor of rank `from` or above that `held` depends on
    /// in lane `slot`: its rank and channel.
    fn next_successor(&self, slot: usize, held: usize, from: usize) -> Option<(usize, usize)> {
        let slots = self.graph.slots(slot, held);
        let r = from + slots.get(from..)?.iter().position(|&n| n != 0)?;
        let head = self.peers.layout[held] as usize;
        Some((r, head * self.peers.stride + self.graph.port(head, r)))
    }

    /// Every counted dependency, `(lane slot, held, wanted, count)`, in
    /// ascending order whatever the layout.
    fn edges(&self) -> impl Iterator<Item = (usize, usize, usize, u32)> + '_ {
        (0..self.lanes.lanes.len()).flat_map(move |slot| {
            (0..self.peers.layout.len()).flat_map(move |held| {
                let mut from = 0;
                std::iter::from_fn(move || {
                    let (r, wanted) = self.next_successor(slot, held, from)?;
                    from = r + 1;
                    let count = self.graph.count(slot, held as u32, wanted as u32)?;
                    Some((slot, held, wanted, count))
                })
            })
        })
    }
}

impl PartialEq for ChannelDeps {
    fn eq(&self, other: &Self) -> bool {
        self.lanes.lanes == other.lanes.lanes
            && self.switches == other.switches
            && self.peers.stride == other.peers.stride
            && self.edges().eq(other.edges())
    }
}

impl fmt::Debug for ChannelDeps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelDeps")
            .field("lanes", &self.lanes.lanes)
            .field("switches", &self.switches.len())
            .field("columns", &self.lids.len())
            .field("dependencies", &self.edges().count())
            .field("cut", &self.peers.cut)
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

impl Counts {
    /// Channel `held`'s successor slots in lane `slot` (non-zero where a
    /// dependency is counted).
    fn slots(&self, slot: usize, held: usize) -> &[u8] {
        let lane = slot * self.per_lane;
        &self.counts[lane + self.base[held] as usize..lane + self.base[held + 1] as usize]
    }

    /// Switch `t`'s switch-facing port of rank `r`.
    fn port(&self, t: usize, r: usize) -> usize {
        self.ports[self.first[t] as usize + r] as usize
    }

    /// The slot index of `held → wanted` in lane `slot`; `None` when the
    /// layout has no such pair.
    #[inline]
    fn at(&self, slot: usize, held: u32, wanted: u32) -> Option<usize> {
        let r = self.rank[wanted as usize];
        let (from, to) = (self.base[held as usize], self.base[held as usize + 1]);
        (r != NO_RANK && from + u32::from(r) < to)
            .then(|| slot * self.per_lane + from as usize + r as usize)
    }

    /// How many columns book `held → wanted` in lane `slot`.
    fn count(&self, slot: usize, held: u32, wanted: u32) -> Option<u32> {
        let at = self.at(slot, held, wanted)?;
        Some(match self.counts[at] {
            SPILLED => self.spill.get(&(at as u32)).copied().unwrap_or(0),
            n => u32::from(n),
        })
    }

    /// Adds (`up`) or retracts one booking of "a packet may hold `held`
    /// while requesting `wanted`" on a lane.
    #[inline]
    fn bump(&mut self, slot: usize, held: u32, wanted: u32, up: bool) {
        // `wanted` leaves the switch `held` leads to by construction, so a
        // ranked port is one of `held`'s slots.
        debug_assert!(
            self.at(slot, held, wanted).is_some(),
            "dependency onto a channel the layout lacks"
        );
        let r = self.rank[wanted as usize];
        if r == NO_RANK {
            return;
        }
        let at = slot * self.per_lane + self.base[held as usize] as usize + r as usize;
        let count = &mut self.counts[at];
        match (*count, up) {
            (n, true) if n < SPILLED - 1 => *count += 1,
            (n, false) if n != SPILLED => {
                debug_assert!(n > 0, "retracting a dependency that was never counted");
                *count = n.saturating_sub(1);
            }
            (_, true) => {
                *count = SPILLED;
                *self
                    .spill
                    .entry(at as u32)
                    .or_insert(u32::from(SPILLED) - 1) += 1;
            }
            (_, false) => {
                let spilled = self.spill.entry(at as u32).or_insert(u32::from(SPILLED));
                *spilled -= 1;
                if *spilled < u32::from(SPILLED) {
                    self.spill.remove(&(at as u32));
                    *count = SPILLED - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One channel (0) with one successor (channel 1): a count that
    /// outgrows its byte spills to the side map and comes back.
    #[test]
    fn counts_past_a_byte_spill_and_come_back() {
        let mut graph = Counts {
            rank: vec![NO_RANK, 0],
            ports: vec![1],
            first: vec![0, 0, 1],
            base: vec![0, 1, 1],
            per_lane: 1,
            counts: vec![0],
            spill: FxHashMap::default(),
        };
        for n in 1..=300 {
            graph.bump(0, 0, 1, true);
            assert_eq!(graph.count(0, 0, 1), Some(n));
        }
        assert_eq!(graph.counts[0], SPILLED);
        for n in (0..300).rev() {
            graph.bump(0, 0, 1, false);
            assert_eq!(graph.count(0, 0, 1), Some(n));
        }
        assert!(graph.spill.is_empty());
        assert_eq!(
            graph.count(0, 1, 0),
            None,
            "channel 1 has no successor slots"
        );
    }
}
