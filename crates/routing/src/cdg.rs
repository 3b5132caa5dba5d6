//! Channel dependency graphs (CDGs) and cycle search.
//!
//! A *channel* is a directed switch-to-switch link `(switch, out-port)`. A
//! dependency `A → B` exists when some routed packet may hold channel `A`
//! while requesting channel `B`. Deadlock freedom on a virtual lane is
//! equivalent to the acyclicity of that lane's CDG (Duato, 1996 — reference
//! \[20\] of the paper); DFSSSP and LASH both enforce it constructively, and
//! §VI-C's transition analysis asks the same question of the *union*
//! `R_old ∪ R_new` while a live migration is in flight.
//!
//! The graph is dense and counted. Channel `(switch, port)` has id
//! `switch * stride + port`; it leads to one switch, so the channels it can
//! depend on are that switch's switch-facing ports, and each lane keeps one
//! counter per such `(held, wanted)` slot: how many bookings (paths or
//! destination columns) induce the dependency. A booking can be retracted
//! as well as added — DFSSSP lifts paths out of a lane by retracting them
//! instead of rebuilding the lane, the transition analysis takes `R_old`
//! back out of `R_old ∪ R_new`, and `ib_verify`'s repair gate books a
//! moved column's new dependencies before retracting its old ones.
//!
//! The cycle search is one depth-first sweep from a given set of start
//! channels ([`Cdg::find_cycle_from`]); from every channel in id order it
//! is the lane-wide search ([`Cdg::find_cycle`]). A sweep from a subset
//! finds a cycle exactly when one is reachable from it, so a caller that
//! knows its graph was acyclic can search from the heads of the
//! dependencies it booked since — [`Cdg::book`] reports which bookings
//! took a dependency from zero — instead of from every channel. LASH
//! checks every pair placement that way, and the repair gate every patch.
//!
//! This module is the one place that knows the layout and the search
//! order. Users differ only in how wide a counter is, fixed by the type's
//! [`CountStore`]: routing — DFSSSP's lanes and LASH's layers — and the
//! analyses count in `u32`s ([`WideCounts`], with the switch-LID counts and
//! touched list DFSSSP's lifting reads); the verifier's graph, which the SM
//! carries from repair to repair, counts in bytes with a spill map
//! ([`ByteCounts`]) — on the 5832-node tree that is 0.63 M one-byte slots
//! per lane, and no dependency is booked by more than a few dozen columns.

use std::fmt;

use ib_types::Lid;
use rustc_hash::FxHashMap;

use crate::graph::{Destination, SwitchGraph};
use crate::tables::{RoutingTables, VlAssignment};

/// A directed switch-to-switch channel: (switch index, out-port).
pub type Channel = (u32, u8);

/// `head` code: the port does not lead to a switch.
const NO_SWITCH: u32 = u32::MAX;
/// `rank` code: the port does not lead to a switch.
const NO_RANK: u8 = u8::MAX;
/// [`ByteCounts`] cell: the true count (≥ this) lives in the spill map.
const SPILLED: u8 = u8::MAX;

/// The per-lane, per-dependency booking counts of a switch graph's
/// channels, with depth-first cycle search.
#[derive(Clone)]
pub struct Cdg<S: CountStore = WideCounts> {
    layout: Layout,
    lanes: usize,
    counts: S,
}

/// How a [`Cdg`] keeps its counters: [`WideCounts`] or [`ByteCounts`].
/// The trait is sealed; there is no third store.
pub trait CountStore: store::Store {}

mod store {
    /// A [`super::CountStore`]'s counters, one per lane slot (lane-major).
    pub trait Store: Clone + PartialEq {
        /// One slot's cell: the default (zero) exactly when nothing books it.
        type Cell: Copy + Default + PartialEq;
        /// `slots` counters at zero.
        fn zeroed(slots: usize) -> Self;
        /// Every slot's cell.
        fn cells(&self) -> &[Self::Cell];
        /// Bookings of the slot at `at`.
        fn get(&self, at: usize) -> u32;
        /// Adds (`up`) or retracts one booking of the slot at `at`;
        /// returns whether it took the slot from zero bookings to one.
        fn bump(&mut self, at: usize, up: bool) -> bool;
    }
}

impl CountStore for WideCounts {}
impl CountStore for ByteCounts {}

/// `u32` counts, with the bookings made for a switch-LID destination
/// counted apart and the slots that went from zero to one listed.
#[derive(Clone)]
pub struct WideCounts {
    /// `count[lane * per_lane + slot]`: bookings of the dependency.
    count: Vec<u32>,
    /// The bookings among them made for a switch-LID destination.
    switch_lid: Vec<u32>,
    /// Every counter that went from zero to one since the last
    /// [`Cdg::clear`], in that order.
    touched: Vec<u32>,
}

/// One-byte counts; the rare count past 254 spills into a side map.
#[derive(Clone, PartialEq)]
pub struct ByteCounts {
    /// Each slot's count, or [`SPILLED`].
    count: Vec<u8>,
    /// The counts of [`SPILLED`] slots, by slot index.
    spill: FxHashMap<u32, u32>,
}

/// Which counter a dependency has: the channels of a switch graph and, per
/// channel, the slots of the channels it can depend on.
#[derive(Clone, PartialEq, Eq)]
struct Layout {
    stride: usize,
    /// `head[c]`: the switch channel `c` leads to, [`NO_SWITCH`] for a port
    /// that leaves the switch fabric (or has no cable).
    head: Vec<u32>,
    /// `rank[c]`: channel `c`'s index among its switch's switch-facing
    /// ports, [`NO_RANK`] for the other ports.
    rank: Vec<u8>,
    /// `ports[first[t] + r]`: switch `t`'s switch-facing port of rank `r`
    /// (ranks ascend with port numbers).
    ports: Vec<u8>,
    first: Vec<u32>,
    /// `base[c]..base[c + 1]`: channel `c`'s successor slots within a lane,
    /// one per switch-facing port of `head[c]`, by rank.
    base: Vec<u32>,
}

impl Cdg {
    /// An empty graph over `g`'s channels with `lanes` lanes.
    #[must_use]
    pub fn new(g: &SwitchGraph, lanes: usize) -> Self {
        let (stride, peer) = g.peer_table();
        Self::with_far_ends(stride, peer, lanes)
    }

    /// The one-lane CDG `tables` induce over the destinations passing
    /// `filter` (e.g. "destinations on VL 2").
    #[must_use]
    pub fn from_tables(
        g: &SwitchGraph,
        tables: &RoutingTables,
        filter: impl Fn(&Destination) -> bool,
    ) -> Self {
        let mut cdg = Self::new(g, 1);
        cdg.add_tables(g, tables, |d| filter(d).then_some(0));
        cdg
    }

    /// Books the dependencies a path-granular layering induces: the path of
    /// every source switch toward each of `dests`, on its lane under `vls`.
    /// Errs with the LID of a path that runs into a routing loop.
    pub(crate) fn add_paths<'a>(
        &mut self,
        g: &SwitchGraph,
        tables: &RoutingTables,
        vls: &VlAssignment,
        dests: impl Iterator<Item = &'a Destination>,
    ) -> Result<(), Lid> {
        let mut next: Vec<Option<(u8, usize)>> = Vec::with_capacity(g.len());
        for dest in dests {
            next_hops(&mut next, g, tables, dest);
            for src in (0..g.len()).filter(|&s| s != dest.switch) {
                let lane = vls.lane_for(src as u32, dest.switch as u32, dest.lid);
                let path = (src, dest.switch);
                if !self.book_path(lane.raw() as usize, path, |s| next[s], false, true) {
                    return Err(dest.lid);
                }
            }
        }
        Ok(())
    }

    /// Books (`up`) or retracts the dependencies of one path on `lane` — see
    /// [`Self::path_slots`] — counting it as a switch-LID booking when
    /// `switch_lid`. Returns false on a routing loop (what was walked stays
    /// booked).
    pub(crate) fn book_path(
        &mut self,
        lane: usize,
        path: (usize, usize),
        next: impl Fn(usize) -> Option<(u8, usize)>,
        switch_lid: bool,
        up: bool,
    ) -> bool {
        let offset = lane * self.layout.per_lane();
        let counts = &mut self.counts;
        self.layout.path_slots(path, next, |slot| {
            counts.book(offset + slot, switch_lid, up);
        })
    }

    /// `(bookings, switch-LID bookings)` of an in-lane slot.
    pub(crate) fn booked(&self, lane: usize, slot: usize) -> (u32, u32) {
        let at = lane * self.layout.per_lane() + slot;
        (self.counts.count[at], self.counts.switch_lid[at])
    }

    /// The counters that went from zero to one since the last
    /// [`Self::clear`] (lane-major slot indices), each once unless it fell
    /// back to zero and rose again.
    pub(crate) fn touched(&self) -> &[u32] {
        &self.counts.touched
    }

    /// Zeroes every counter, visiting only the touched ones.
    pub(crate) fn clear(&mut self) {
        let WideCounts {
            count,
            switch_lid,
            touched,
        } = &mut self.counts;
        for at in touched.drain(..) {
            count[at as usize] = 0;
            switch_lid[at as usize] = 0;
        }
    }
}

impl<S: CountStore> Cdg<S> {
    /// An empty graph with `lanes` lanes over the channels of a far-end
    /// table: `far[s * stride + port]` is the switch index `(s, port)`
    /// leads to, and any value at or past the number of switches
    /// (`far.len() / stride`) marks a port that leaves the switch fabric.
    #[must_use]
    pub fn with_far_ends(stride: usize, far: &[u32], lanes: usize) -> Self {
        let layout = Layout::new(stride, far);
        let counts = S::zeroed(lanes * layout.per_lane());
        Self {
            layout,
            lanes,
            counts,
        }
    }

    /// Books the dependencies a destination-based routing function induces:
    /// for every destination `lane_of` places on a lane, each switch's
    /// channel toward it and the channel the next switch forwards onto.
    pub fn add_tables(
        &mut self,
        g: &SwitchGraph,
        tables: &RoutingTables,
        lane_of: impl Fn(&Destination) -> Option<usize>,
    ) {
        let mut next: Vec<Option<(u8, usize)>> = Vec::with_capacity(g.len());
        for dest in g.destinations() {
            let Some(lane) = lane_of(dest) else { continue };
            next_hops(&mut next, g, tables, dest);
            for s in 0..g.len() {
                let Some((p, v)) = next[s] else { continue };
                let Some((p2, _)) = next[v] else { continue };
                // A packet to `dest` may hold (s, p) while requesting
                // (v, p2).
                let held = self.layout.id(s, p);
                let at = self.at(lane, held, self.layout.id(v, p2));
                self.counts.bump(at, true);
            }
        }
    }

    /// Books one more packet that may hold `held` while requesting `wanted`
    /// on `lane`.
    ///
    /// # Panics
    ///
    /// When `wanted` does not leave the switch `held` leads to.
    pub fn add(&mut self, lane: usize, held: Channel, wanted: Channel) {
        let at = self.checked_at(lane, held, wanted);
        self.counts.bump(at, true);
    }

    /// Retracts one booking made by [`Self::add`].
    ///
    /// # Panics
    ///
    /// When `wanted` does not leave the switch `held` leads to, or the
    /// dependency has no booking left.
    pub fn retract(&mut self, lane: usize, held: Channel, wanted: Channel) {
        let at = self.checked_at(lane, held, wanted);
        self.counts.bump(at, false);
    }

    /// [`Self::add`] (`up`) or [`Self::retract`] by channel id, for a caller
    /// whose `wanted` leaves the switch `held` leads to by construction.
    /// Debug builds assert that; release builds check only that `wanted`'s
    /// rank falls among `held`'s slots and book nothing otherwise (a port
    /// that leads to no switch has no rank). Returns whether the booking
    /// took the dependency from zero bookings to one: a dependency the
    /// graph did not have before.
    ///
    /// # Panics
    ///
    /// When `held` or `wanted` is not a channel id of this graph.
    #[inline]
    pub fn book(&mut self, lane: usize, held: u32, wanted: u32, up: bool) -> bool {
        let (held, wanted) = (held as usize, wanted as usize);
        debug_assert!(
            self.layout.depends(held, wanted),
            "dependency onto a channel the layout lacks"
        );
        let r = self.layout.rank[wanted];
        let (from, to) = (self.layout.base[held], self.layout.base[held + 1]);
        if r != NO_RANK && from + u32::from(r) < to {
            let at = lane * self.layout.per_lane() + (from + u32::from(r)) as usize;
            self.counts.bump(at, up)
        } else {
            false
        }
    }

    /// How many bookings induce `held → wanted` on `lane` (zero for a pair
    /// that cannot depend on each other).
    #[must_use]
    pub fn count(&self, lane: usize, held: Channel, wanted: Channel) -> u32 {
        let (held, wanted) = (self.layout.channel_id(held), self.layout.channel_id(wanted));
        match (held, wanted) {
            (Some(h), Some(w)) if self.layout.depends(h, w) => self.counts.get(self.at(lane, h, w)),
            _ => 0,
        }
    }

    /// Every dependency booked on `lane` as `(held, wanted, bookings)`, by
    /// channel id: held ascending, then wanted.
    pub fn edges(&self, lane: usize) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let offset = lane * self.layout.per_lane();
        (0..self.layout.head.len()).flat_map(move |held| {
            let slots = self.layout.base[held] as usize..self.layout.base[held + 1] as usize;
            slots.enumerate().filter_map(move |(r, at)| {
                let n = self.counts.get(offset + at);
                (n != 0).then(|| (held as u32, self.layout.successor(held, r) as u32, n))
            })
        })
    }

    /// Number of distinct dependencies booked on `lane`.
    #[must_use]
    pub fn dependencies(&self, lane: usize) -> usize {
        self.edges(lane).count()
    }

    /// A dependency cycle on `lane` — channels each depending on the next
    /// and the last on the first — or `None` when the lane is acyclic.
    #[must_use]
    pub fn find_cycle(&self, lane: usize) -> Option<Vec<Channel>> {
        self.find_cycle_from(lane, 0..self.channels())
    }

    /// A dependency cycle on `lane` that the channel ids `starts` reach, or
    /// `None` when none of them reaches one. From every channel in id
    /// order this is [`Self::find_cycle`].
    #[must_use]
    pub fn find_cycle_from(
        &self,
        lane: usize,
        starts: impl IntoIterator<Item = u32>,
    ) -> Option<Vec<Channel>> {
        let mut found = None;
        self.visit_cycles(lane, starts, |cycle| {
            found = Some(cycle.iter().map(|&c| self.layout.channel(c)).collect());
            false
        });
        found
    }

    /// Hands `visit` every cycle one depth-first sweep of `lane` closes. The
    /// sweep starts from the channel ids `starts`, in that order, and tries
    /// successors in port order; each back edge `u → v` yields the gray
    /// path `v ..= u` as channel ids (each depends on the next, `u` on
    /// `v`). `visit` returns false to stop the sweep.
    pub(crate) fn visit_cycles(
        &self,
        lane: usize,
        starts: impl IntoIterator<Item = u32>,
        mut visit: impl FnMut(&[u32]) -> bool,
    ) {
        const WHITE: u32 = u32::MAX;
        const BLACK: u32 = u32::MAX - 1;
        let per_lane = self.layout.per_lane();
        let counts = &self.counts.cells()[lane * per_lane..(lane + 1) * per_lane];
        let layout = &self.layout;
        // `state[c]`: WHITE, BLACK, or — gray — c's depth on `path`.
        let mut state = vec![WHITE; layout.head.len()];
        let mut path: Vec<u32> = Vec::new();
        // `tried[d]`: the next successor rank to try from `path[d]`.
        let mut tried: Vec<usize> = Vec::new();
        for start in starts {
            if state[start as usize] != WHITE {
                continue;
            }
            state[start as usize] = 0;
            path.push(start);
            tried.push(0);
            while let Some(&held) = path.last() {
                let depth = path.len() - 1;
                let held = held as usize;
                let slots = &counts[layout.base[held] as usize..layout.base[held + 1] as usize];
                let from = tried[depth];
                let Some(k) = slots[from..].iter().position(|&n| n != S::Cell::default()) else {
                    state[held] = BLACK;
                    path.pop();
                    tried.pop();
                    continue;
                };
                tried[depth] = from + k + 1;
                let wanted = layout.successor(held, from + k);
                match state[wanted] {
                    WHITE => {
                        state[wanted] = path.len() as u32;
                        path.push(wanted as u32);
                        tried.push(0);
                    }
                    BLACK => {}
                    at => {
                        if !visit(&path[at as usize..]) {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Walks the path from switch `src` toward switch `to`, where switch `s`
    /// forwards onto `next(s)` — (out-port, next switch), `None` once the
    /// path leaves the switch fabric — and hands `visit` the in-lane slot of
    /// each consecutive channel pair. Returns false when the path runs more
    /// hops than there are switches without arriving (a routing loop).
    pub(crate) fn path_slots(
        &self,
        (src, to): (usize, usize),
        next: impl Fn(usize) -> Option<(u8, usize)>,
        visit: impl FnMut(usize),
    ) -> bool {
        self.layout.path_slots((src, to), next, visit)
    }

    /// The in-lane slot of `held → wanted` (channel ids; `wanted` must leave
    /// the switch `held` leads to).
    pub(crate) fn slot(&self, held: u32, wanted: u32) -> usize {
        self.layout.slot(held as usize, wanted as usize)
    }

    /// Number of channel ids: every `(switch, port)` slot of the layout.
    pub(crate) fn channels(&self) -> u32 {
        self.layout.head.len() as u32
    }

    /// Slots per lane.
    pub(crate) fn slots_per_lane(&self) -> usize {
        self.layout.per_lane()
    }

    fn at(&self, lane: usize, held: usize, wanted: usize) -> usize {
        lane * self.layout.per_lane() + self.layout.slot(held, wanted)
    }

    fn checked_at(&self, lane: usize, held: Channel, wanted: Channel) -> usize {
        match (self.layout.channel_id(held), self.layout.channel_id(wanted)) {
            (Some(h), Some(w)) if self.layout.depends(h, w) && lane < self.lanes => {
                self.at(lane, h, w)
            }
            _ => panic!("{held:?} -> {wanted:?} on lane {lane} is not a dependency of this graph"),
        }
    }
}

/// Fills `next[s]`: the (out-port, next switch) switch `s` forwards `dest`'s
/// packets onto, `None` where they leave the switch fabric or have no route.
fn next_hops(
    next: &mut Vec<Option<(u8, usize)>>,
    g: &SwitchGraph,
    tables: &RoutingTables,
    dest: &Destination,
) {
    next.clear();
    next.extend((0..g.len()).map(|s| g.next_hop(s, tables.lfts.get(&g.node_id(s))?.get(dest.lid))));
}

impl<S: CountStore> PartialEq for Cdg<S> {
    /// Same channels, lanes and counts, whatever was touched on the way.
    fn eq(&self, other: &Self) -> bool {
        self.layout == other.layout && self.lanes == other.lanes && self.counts == other.counts
    }
}

impl<S: CountStore> fmt::Debug for Cdg<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dependencies: Vec<usize> = (0..self.lanes).map(|l| self.dependencies(l)).collect();
        f.debug_struct("Cdg")
            .field("channels", &self.layout.head.len())
            .field("slots_per_lane", &self.layout.per_lane())
            .field("dependencies", &dependencies)
            .finish()
    }
}

impl Layout {
    fn new(stride: usize, far: &[u32]) -> Self {
        let switches = far.len() / stride;
        let head: Vec<u32> = far
            .iter()
            .map(|&v| {
                if (v as usize) < switches {
                    v
                } else {
                    NO_SWITCH
                }
            })
            .collect();
        let mut rank = vec![NO_RANK; head.len()];
        let (mut ports, mut first) = (Vec::new(), Vec::with_capacity(switches + 1));
        for (t, far_ends) in head.chunks_exact(stride).enumerate() {
            first.push(ports.len() as u32);
            for (q, &far) in far_ends.iter().enumerate() {
                if far != NO_SWITCH {
                    rank[t * stride + q] = (ports.len() - first[t] as usize) as u8;
                    ports.push(q as u8);
                }
            }
        }
        first.push(ports.len() as u32);
        let mut base = Vec::with_capacity(head.len() + 1);
        base.push(0u32);
        for &far in &head {
            let slots = if far == NO_SWITCH {
                0
            } else {
                first[far as usize + 1] - first[far as usize]
            };
            base.push(base.last().copied().unwrap_or(0) + slots);
        }
        Self {
            stride,
            head,
            rank,
            ports,
            first,
            base,
        }
    }

    fn per_lane(&self) -> usize {
        self.base.last().copied().unwrap_or(0) as usize
    }

    fn id(&self, s: usize, port: u8) -> usize {
        s * self.stride + port as usize
    }

    fn channel_id(&self, (s, port): Channel) -> Option<usize> {
        let id = self.id(s as usize, port);
        ((port as usize) < self.stride && id < self.head.len()).then_some(id)
    }

    fn channel(&self, id: u32) -> Channel {
        let id = id as usize;
        ((id / self.stride) as u32, (id % self.stride) as u8)
    }

    /// Whether `wanted` leaves the switch `held` leads to.
    fn depends(&self, held: usize, wanted: usize) -> bool {
        let head = self.head[held];
        head != NO_SWITCH && wanted / self.stride == head as usize && self.rank[wanted] != NO_RANK
    }

    fn slot(&self, held: usize, wanted: usize) -> usize {
        debug_assert!(
            self.depends(held, wanted),
            "dependency onto a channel the layout lacks"
        );
        self.base[held] as usize + self.rank[wanted] as usize
    }

    /// The channel of successor rank `r` of `held`.
    fn successor(&self, held: usize, r: usize) -> usize {
        let head = self.head[held] as usize;
        self.id(head, self.ports[self.first[head] as usize + r])
    }

    /// [`Cdg::path_slots`].
    fn path_slots(
        &self,
        (src, to): (usize, usize),
        next: impl Fn(usize) -> Option<(u8, usize)>,
        mut visit: impl FnMut(usize),
    ) -> bool {
        let limit = self.first.len() - 1;
        let (mut cur, mut held, mut hops) = (src, None, 0);
        while let Some((p, v)) = next(cur) {
            let wanted = self.id(cur, p);
            if let Some(held) = held {
                visit(self.slot(held, wanted));
            }
            held = Some(wanted);
            cur = v;
            hops += 1;
            if cur == to {
                return true;
            }
            if hops > limit {
                return false;
            }
        }
        true
    }
}

impl WideCounts {
    /// Adds (`up`) or retracts one booking of the counter at `at`.
    #[inline]
    fn book(&mut self, at: usize, switch_lid: bool, up: bool) {
        let (count, lid) = (&mut self.count[at], &mut self.switch_lid[at]);
        if up {
            if *count == 0 {
                self.touched.push(at as u32);
            }
            *count += 1;
            *lid += u32::from(switch_lid);
        } else {
            *count = count
                .checked_sub(1)
                .expect("retracting a dependency that was never booked");
            *lid -= u32::from(switch_lid);
        }
    }
}

impl store::Store for WideCounts {
    type Cell = u32;

    fn zeroed(slots: usize) -> Self {
        Self {
            count: vec![0; slots],
            switch_lid: vec![0; slots],
            touched: Vec::new(),
        }
    }

    fn cells(&self) -> &[u32] {
        &self.count
    }

    fn get(&self, at: usize) -> u32 {
        self.count[at]
    }

    #[inline]
    fn bump(&mut self, at: usize, up: bool) -> bool {
        let rose = up && self.count[at] == 0;
        self.book(at, false, up);
        rose
    }
}

impl PartialEq for WideCounts {
    /// Same counts, whatever was touched on the way.
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.switch_lid == other.switch_lid
    }
}

impl store::Store for ByteCounts {
    type Cell = u8;

    fn zeroed(slots: usize) -> Self {
        Self {
            count: vec![0; slots],
            spill: FxHashMap::default(),
        }
    }

    fn cells(&self) -> &[u8] {
        &self.count
    }

    fn get(&self, at: usize) -> u32 {
        match self.count[at] {
            SPILLED => self.spill.get(&(at as u32)).copied().unwrap_or(0),
            n => u32::from(n),
        }
    }

    #[inline]
    fn bump(&mut self, at: usize, up: bool) -> bool {
        let count = &mut self.count[at];
        match (*count, up) {
            (n, true) if n < SPILLED - 1 => {
                *count += 1;
                return n == 0;
            }
            (n, false) if n != SPILLED => {
                debug_assert!(n > 0, "retracting a dependency that was never booked");
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
        false
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::minhop::MinHop;
    use crate::testutil::assign_lids;
    use crate::RoutingEngine;
    use ib_subnet::topology::fattree::two_level;
    use ib_subnet::topology::torus::torus_2d;
    use ib_subnet::Subnet;
    use ib_types::PortNum;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Three switches in a ring: switch `i`'s port 1 leads to switch
    /// `i + 1`'s port 2.
    fn ring() -> SwitchGraph {
        let mut s = Subnet::new();
        let sw: Vec<_> = (0..3).map(|i| s.add_switch(format!("r{i}"), 4)).collect();
        for i in 0..3 {
            s.connect(sw[i], PortNum::new(1), sw[(i + 1) % 3], PortNum::new(2))
                .unwrap();
        }
        SwitchGraph::build(&s).unwrap()
    }

    #[test]
    fn manual_cycle_detection() {
        let mut cdg = Cdg::new(&ring(), 1);
        let (a, b, c) = ((0, 1), (1, 1), (2, 1));
        cdg.add(0, a, b);
        cdg.add(0, b, c);
        assert!(cdg.find_cycle(0).is_none());
        cdg.add(0, c, a);
        let cycle = cdg.find_cycle(0).unwrap();
        assert_eq!(cycle.len(), 3);
        // Each element must depend on the next (cyclically).
        for i in 0..cycle.len() {
            assert_eq!(cdg.count(0, cycle[i], cycle[(i + 1) % cycle.len()]), 1);
        }
        assert_eq!(cdg.dependencies(0), 3);
    }

    #[test]
    fn retracting_the_last_booking_of_a_ring_edge_removes_the_cycle() {
        let mut cdg = Cdg::new(&ring(), 2);
        let (a, b, c) = ((0, 1), (1, 1), (2, 1));
        cdg.add(1, a, b);
        cdg.add(1, b, c);
        cdg.add(1, c, a);
        cdg.add(1, c, a);
        assert!(cdg.find_cycle(0).is_none(), "lanes are separate graphs");
        cdg.retract(1, c, a);
        assert!(cdg.find_cycle(1).is_some(), "one booking of c -> a is left");
        cdg.retract(1, c, a);
        assert_eq!(cdg.count(1, c, a), 0);
        assert!(cdg.find_cycle(1).is_none());
        assert_eq!(cdg.dependencies(1), 2);
    }

    #[test]
    fn clear_zeroes_what_was_touched() {
        let g = ring();
        let mut cdg = Cdg::new(&g, 1);
        // Toward a switch the ring never reaches: the walk loops and stops
        // once it has run more hops than there are switches.
        let around = |s: usize| Some((1, (s + 1) % 3));
        assert!(!cdg.book_path(0, (0, 3), around, true, true));
        assert_eq!(cdg.touched().len(), 3, "the loop booked the ring once");
        // Channel ids: stride 3, so (0, 1) is 1 and (1, 1) is 4.
        assert_eq!(cdg.booked(0, cdg.slot(1, 4)), (1, 1));
        cdg.clear();
        assert_eq!(cdg, Cdg::new(&g, 1));
    }

    /// Release builds skip a booking by id onto a port that leads to no
    /// switch; debug builds assert instead.
    #[cfg(not(debug_assertions))]
    #[test]
    fn booking_onto_a_port_off_the_switch_fabric_books_nothing() {
        let g = ring();
        let mut cdg = Cdg::<ByteCounts>::with_far_ends(g.peer_table().0, g.peer_table().1, 1);
        // Stride 3: (0, 1) is id 1, and (1, 0) — no cable — is id 3.
        cdg.book(0, 1, 3, true);
        assert_eq!(cdg.edges(0).count(), 0);
    }

    /// The byte store: a count that outgrows its byte spills to the side
    /// map and comes back.
    #[test]
    fn counts_past_a_byte_spill_and_come_back() {
        let g = ring();
        let (stride, far) = g.peer_table();
        let fresh = Cdg::<ByteCounts>::with_far_ends(stride, far, 1);
        let mut cdg = fresh.clone();
        let (a, b) = ((0, 1), (1, 1));
        for n in 1..=300 {
            cdg.add(0, a, b);
            assert_eq!(cdg.count(0, a, b), n);
        }
        assert_eq!(cdg.counts.spill.len(), 1);
        for n in (0..300).rev() {
            cdg.retract(0, a, b);
            assert_eq!(cdg.count(0, a, b), n);
        }
        assert!(cdg.counts.spill.is_empty());
        assert_eq!(cdg, fresh);
        assert_eq!(cdg.count(0, a, (2, 1)), 0, "(2, 1) does not leave switch 1");
        assert_eq!(cdg.count(0, (0, 3), a), 0, "port 3 is past the stride");
    }

    #[test]
    fn fat_tree_minhop_is_acyclic_per_lane() {
        // Host routes ascend then descend the tree (acyclic on VL0);
        // switch-destined columns are up*/down*-legal on their own lane
        // (acyclic on VL1). Only the per-lane CDGs matter for deadlock —
        // a cycle cannot span two lanes.
        let mut t = two_level(4, 3, 2);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let mut cdg = Cdg::new(&g, 2);
        cdg.add_tables(&g, &tables, |d| {
            Some(tables.vls.lane_for(0, 0, d.lid).raw() as usize)
        });
        for lane in 0..2 {
            assert!(cdg.dependencies(lane) > 0, "lane {lane}");
            assert!(cdg.find_cycle(lane).is_none(), "lane {lane}");
        }
    }

    #[test]
    fn torus_minhop_is_cyclic() {
        // Plain shortest-path routing on a ring deadlocks: the CDG around
        // each ring closes on itself.
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = MinHop.compute(&t.subnet).unwrap();
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let cdg = Cdg::from_tables(&g, &tables, |_| true);
        let cycle = cdg
            .find_cycle(0)
            .expect("min-hop on a 4x4 torus should produce a cyclic CDG");
        for i in 0..cycle.len() {
            assert!(cdg.count(0, cycle[i], cycle[(i + 1) % cycle.len()]) > 0);
        }
    }

    /// A far-end table over 2–7 switches with 2–5 ports each: ports lead
    /// to a random switch (itself included), to nothing, or to a node.
    fn irregular(rng: &mut StdRng) -> (usize, Vec<u32>) {
        let (switches, stride) = (rng.gen_range(2..8usize), rng.gen_range(2..6usize));
        let far = (0..switches * stride)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => u32::MAX,
                1 => 1 << 31,
                _ => rng.gen_range(0..switches as u32),
            })
            .collect();
        (stride, far)
    }

    /// Whether Kahn's topological sort of `deps` (dependency → bookings)
    /// over `channels` channels leaves one unsorted.
    fn kahn_leaves_a_channel(deps: &BTreeMap<(u32, u32), u32>, channels: usize) -> bool {
        let mut indegree = vec![0usize; channels];
        let mut out = vec![Vec::new(); channels];
        for &(held, wanted) in deps.keys() {
            indegree[wanted as usize] += 1;
            out[held as usize].push(wanted as usize);
        }
        let mut ready: Vec<usize> = (0..channels).filter(|&c| indegree[c] == 0).collect();
        let mut sorted = 0;
        while let Some(c) = ready.pop() {
            sorted += 1;
            for &w in &out[c] {
                indegree[w] -= 1;
                if indegree[w] == 0 {
                    ready.push(w);
                }
            }
        }
        sorted < channels
    }

    /// Random bookings and retractions on one layout, checked after every
    /// step against a plain map of what is booked: the counts, and a
    /// cycle found exactly when Kahn's sort cannot finish, every
    /// consecutive pair of it booked. Retracting everything gives back a
    /// fresh graph.
    fn against_a_model<S: CountStore>(rng: &mut StdRng, stride: usize, far: &[u32]) {
        const LANES: usize = 2;
        let pairs = dependency_pairs(stride, far);
        let channel = |c: usize| ((c / stride) as u32, (c % stride) as u8);
        let fresh = Cdg::<S>::with_far_ends(stride, far, LANES);
        let mut cdg = fresh.clone();
        let mut model: Vec<BTreeMap<(u32, u32), u32>> = vec![BTreeMap::new(); LANES];
        let mut booked: Vec<(usize, usize, usize)> = Vec::new();
        for _ in 0..400 {
            if !booked.is_empty() && rng.gen_bool(0.4) {
                let (lane, h, w) = booked.swap_remove(rng.gen_range(0..booked.len()));
                cdg.retract(lane, channel(h), channel(w));
                let n = model[lane].get_mut(&(h as u32, w as u32)).unwrap();
                *n -= 1;
                if *n == 0 {
                    model[lane].remove(&(h as u32, w as u32));
                }
            } else if !pairs.is_empty() {
                let (lane, (h, w)) = (
                    rng.gen_range(0..LANES),
                    pairs[rng.gen_range(0..pairs.len())],
                );
                // Now and then a burst, so byte counts spill.
                let times = if rng.gen_bool(0.02) { 300 } else { 1 };
                for _ in 0..times {
                    cdg.add(lane, channel(h), channel(w));
                    booked.push((lane, h, w));
                }
                *model[lane].entry((h as u32, w as u32)).or_insert(0) += times;
            }
            for (lane, deps) in model.iter().enumerate() {
                let edges: BTreeMap<(u32, u32), u32> =
                    cdg.edges(lane).map(|(h, w, n)| ((h, w), n)).collect();
                assert_eq!(&edges, deps, "lane {lane}");
                let cycle = cdg.find_cycle(lane);
                let cyclic = kahn_leaves_a_channel(deps, far.len());
                assert_eq!(cycle.is_some(), cyclic, "lane {lane}");
                let cycle = cycle.unwrap_or_default();
                for (i, &held) in cycle.iter().enumerate() {
                    let wanted = cycle[(i + 1) % cycle.len()];
                    assert!(cdg.count(lane, held, wanted) > 0, "{cycle:?}");
                }
            }
        }
        for (lane, h, w) in booked {
            cdg.retract(lane, channel(h), channel(w));
        }
        assert!(
            cdg == fresh,
            "retracting every booking leaves a fresh graph"
        );
    }

    /// Every `(held, wanted)` channel-id pair that can depend on each other
    /// over a far-end table.
    fn dependency_pairs(stride: usize, far: &[u32]) -> Vec<(usize, usize)> {
        let switches = far.len() / stride;
        let to_switch = |c: usize| (far[c] as usize) < switches;
        (0..far.len())
            .filter(|&c| to_switch(c))
            .flat_map(|c| {
                let t = far[c] as usize;
                (t * stride..(t + 1) * stride)
                    .filter(|&w| to_switch(w))
                    .map(move |w| (c, w))
            })
            .collect()
    }

    /// A lane booked acyclic (every dependency ascends a random order of
    /// the channels), then a few random dependencies more: the search from
    /// the heads of the ones booked from zero finds a cycle exactly when
    /// Kahn's sort cannot finish, and `book` reports a rise from zero
    /// exactly when the dependency was not booked.
    fn scoped_against_a_model<S: CountStore>(rng: &mut StdRng, stride: usize, far: &[u32]) {
        let pairs = dependency_pairs(stride, far);
        if pairs.is_empty() {
            return;
        }
        let mut order: Vec<usize> = (0..far.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let mut rank = vec![0; far.len()];
        for (r, &c) in order.iter().enumerate() {
            rank[c] = r;
        }
        let mut cdg = Cdg::<S>::with_far_ends(stride, far, 1);
        let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        let mut book = |cdg: &mut Cdg<S>, (h, w): (usize, usize)| {
            let n = model.entry((h as u32, w as u32)).or_insert(0);
            let rose = cdg.book(0, h as u32, w as u32, true);
            assert_eq!(rose, *n == 0, "{h} -> {w}");
            *n += 1;
            rose
        };
        for _ in 0..rng.gen_range(0..3 * pairs.len()) {
            let (h, w) = pairs[rng.gen_range(0..pairs.len())];
            if rank[h] < rank[w] {
                book(&mut cdg, (h, w));
            }
        }
        assert!(cdg.find_cycle(0).is_none(), "booked along an order");
        let mut heads = Vec::new();
        for _ in 0..rng.gen_range(1..6) {
            let (h, w) = pairs[rng.gen_range(0..pairs.len())];
            if book(&mut cdg, (h, w)) {
                heads.push(w as u32);
            }
        }
        let cycle = cdg.find_cycle_from(0, heads.iter().copied());
        let cyclic = kahn_leaves_a_channel(&model, far.len());
        assert_eq!(cycle.is_some(), cyclic, "from {heads:?}");
        assert_eq!(cdg.find_cycle(0).is_some(), cyclic);
        let cycle = cycle.unwrap_or_default();
        for (i, &held) in cycle.iter().enumerate() {
            let wanted = cycle[(i + 1) % cycle.len()];
            assert!(cdg.count(0, held, wanted) > 0, "{cycle:?}");
        }
    }

    #[test]
    fn cycle_search_agrees_with_kahn_on_random_bookings() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let torus = SwitchGraph::build(&t.subnet).unwrap();
        let ring = ring();
        let mut rng = StdRng::seed_from_u64(0xCD6);
        for round in 0..24 {
            let (stride, far) = match round % 3 {
                0 => (ring.peer_table().0, ring.peer_table().1.to_vec()),
                1 => (torus.peer_table().0, torus.peer_table().1.to_vec()),
                _ => irregular(&mut rng),
            };
            against_a_model::<WideCounts>(&mut rng, stride, &far);
            against_a_model::<ByteCounts>(&mut rng, stride, &far);
            for _ in 0..8 {
                scoped_against_a_model::<WideCounts>(&mut rng, stride, &far);
                scoped_against_a_model::<ByteCounts>(&mut rng, stride, &far);
            }
        }
    }
}
