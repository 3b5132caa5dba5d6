//! The host lane of the minimal engines: one fill, two tie-breaks.
//!
//! Min-Hop and the fat-tree engine route their host columns alike and
//! differ only in which minimal next hop wins a tie: least-loaded against
//! a staggered d-mod-k. Both run [`fill`]: the distance field
//! (`Splice::host_distances`), the switch lane ([`SwitchColumns`]), then
//! every row by one per-cell rule, fanned across workers. A tie-break's
//! state is its own row's, so the rows are independent for both engines.

use ib_observe::Observer;
use ib_types::{IbResult, Lid, PortNum};
use rustc_hash::FxHashMap;

use crate::engine::RoutingOptions;
use crate::graph::{parallel_for_each, Destination, HostDistances, HostRow, SwitchGraph};
use crate::swcols::{switch_dest_vls, SwitchColumns};
use crate::tables::{Row, Splice, VlAssignment};

/// How an engine chooses among a host cell's minimal next hops.
pub(crate) trait TieBreak: Sync {
    /// One worker's scratch, restarted for each row by [`TieBreak::row`].
    type State: Send;

    /// A worker's fresh scratch for `g`.
    fn state(&self, g: &SwitchGraph) -> Self::State;

    /// Starts switch `s`'s row, before any of its cells is written.
    fn row(&self, _state: &mut Self::State, _s: usize, _row: &Row<'_>) {}

    /// The pick for `lid` at switch `s` among its minimal candidates
    /// `ports`: in port order, never empty.
    fn choose(&self, state: &mut Self::State, s: usize, lid: Lid, ports: &[PortNum]) -> PortNum;

    /// Every host pick that leaves the switch, kept or chosen.
    fn took(&self, _state: &mut Self::State, _port: PortNum) {}
}

/// Routes the dirty columns of `splice` with `tie` breaking ties and
/// returns the VL layering and the decision count; `spans` names the
/// phases (`routing.<engine>.distances`, `.switch-lane`, `.assign`).
///
/// The per-cell rule: the delivery port at the delivery switch; a switch
/// LID's lane pick; a hole for a destination across a split; the
/// installed port while it is still minimal (a port into a failed link
/// never is: the link is gone from the graph); else `tie`'s choice.
///
/// With `scoped` and a carried field, a host column is visited only at
/// the switches whose pick the removed links can have moved
/// (`HostDistances::scope`). Sound because every carried column is
/// minimal on some graph between the field's build and this one, and
/// only links were removed in between: outside the scope a switch and its
/// installed next hop keep their distances and their cable, so the
/// sticky pick keeps the entry there too. Otherwise every cell of every
/// dirty column is visited — the same loop is the full compute.
pub(crate) fn fill<T: TieBreak>(
    splice: &mut Splice<'_>,
    opts: RoutingOptions,
    observer: &Observer,
    spans: [&str; 3],
    scoped: bool,
    tie: &T,
) -> IbResult<(VlAssignment, u64)> {
    let [distances_span, lane_span, assign_span] = spans;
    let g = splice.graph();
    let workers = opts.effective_workers(g.len());
    let dests = splice.dirty_dests();

    // Carried and followed, or one BFS per (non-stub) delivery switch:
    // exact for `g` either way, so the picks do not depend on which.
    let (field, carried) = {
        let _span = observer.span(distances_span);
        splice.host_distances(&dests, workers)
    };
    let toward: Vec<Option<HostRow>> = (dests.iter())
        .map(|d| match d.port {
            PortNum::MANAGEMENT => None,
            _ => field.toward(d.switch),
        })
        .collect();

    // Switch LIDs are valley-routed via the hub on their own lane (see
    // `swcols`), a column at a time, before the fill copies them into the
    // rows; they keep their full visit.
    let swcols = {
        let _span = observer.span(lane_span);
        SwitchColumns::new(splice, workers, &dests)?
    };

    let cell = |cands: &mut Candidates, state: &mut T::State, s, di: usize, installed| {
        let dest = &dests[di];
        if s == dest.switch {
            return Some(dest.port);
        }
        let Some(d) = toward[di] else {
            return swcols.pick(di, s);
        };
        let here = d.at(s);
        if here == u32::MAX {
            return None;
        }
        let minimal = |v: usize| d.at(v).wrapping_add(1) == here;
        let port = match installed {
            Some(p) if g.peer(s, p).is_some_and(minimal) => p,
            _ => {
                let ports = cands.of(g, s, dest.switch, minimal);
                // An exact field always has a neighbour one hop closer.
                debug_assert!(!ports.is_empty(), "no minimal hop at {s} toward {dest:?}");
                if ports.is_empty() {
                    return None;
                }
                tie.choose(state, s, dest.lid, ports)
            }
        };
        tie.took(state, port);
        Some(port)
    };

    let _span = observer.span(assign_span);
    let visit = Visit::new(g, &dests, (scoped && carried).then_some(&field));
    parallel_for_each(
        splice.rows(),
        workers,
        || (Candidates::default(), tie.state(g)),
        |(cands, state), s, row| {
            tie.row(state, s, row);
            for &di in visit.at(s) {
                let lid = dests[di as usize].lid;
                row.set(lid, cell(cands, state, s, di as usize, row.get(lid)));
            }
        },
    );
    // The scope's oracle: a full visit after the scoped one changes
    // nothing — the switch lane checked cell by cell, by the rule its
    // column kernel computes, on one hub row per lane column.
    #[cfg(debug_assertions)]
    if matches!(visit, Visit::Scoped(_)) {
        use crate::{swcols, updn};
        let orient = updn::Orientation::new(g, &g.components(), swcols::hub);
        for dest in dests.iter().filter(|d| d.port == PortNum::MANAGEMENT) {
            let (down, full) = orient.rows_toward(dest.switch);
            for s in 0..g.len() {
                let now = splice.get(s, dest.lid);
                let row = orient.row(&down, &full);
                let want = updn::sticky_pick(g, row, dest, s, now, swcols::stagger);
                debug_assert_eq!(want, now, "scoped visit missed switch {s}, {dest:?}");
            }
        }
        let (mut cands, mut state) = (Candidates::default(), tie.state(g));
        for (s, row) in splice.rows().iter().enumerate() {
            tie.row(&mut state, s, row);
            for (di, dest) in dests.iter().enumerate() {
                if dest.port != PortNum::MANAGEMENT {
                    let now = row.get(dest.lid);
                    let want = cell(&mut cands, &mut state, s, di, now);
                    debug_assert_eq!(want, now, "scoped visit missed switch {s}, {dest:?}");
                }
            }
        }
    }
    splice.keep_host_distances(field, carried);
    let decisions = (g.len() * dests.len()) as u64;
    Ok((switch_dest_vls(g), decisions))
}

/// One worker's minimal candidates of one (switch, delivery switch), in
/// port order: built once and reused for every host LID of that delivery
/// switch the switch visits in a row.
#[derive(Default)]
struct Candidates {
    key: Option<(usize, usize)>,
    ports: Vec<PortNum>,
}

impl Candidates {
    fn of(
        &mut self,
        g: &SwitchGraph,
        s: usize,
        delivery: usize,
        minimal: impl Fn(usize) -> bool,
    ) -> &[PortNum] {
        if self.key != Some((s, delivery)) {
            self.key = Some((s, delivery));
            self.ports.clear();
            let neighbors = g.neighbors(s).iter();
            let candidates = neighbors.filter(|&&(v, _)| minimal(v as usize));
            self.ports.extend(candidates.map(|&(_, p)| p));
        }
        &self.ports
    }
}

/// The dirty columns the fill visits at each switch, as indices into the
/// dirty destinations in their order: all of them, or — with a carried
/// distance field — every switch-destined column plus each host column
/// at the switches of its delivery switch's scope.
enum Visit {
    All(Vec<u32>),
    Scoped(Vec<Vec<u32>>),
}

impl Visit {
    fn new(g: &SwitchGraph, dests: &[Destination], field: Option<&HostDistances>) -> Self {
        let Some(field) = field else {
            return Self::All((0..dests.len() as u32).collect());
        };
        let mut at = vec![Vec::new(); g.len()];
        let mut scopes: FxHashMap<usize, Option<Vec<u32>>> = FxHashMap::default();
        for (di, d) in dests.iter().enumerate() {
            let scope = (d.port != PortNum::MANAGEMENT)
                .then(|| {
                    scopes
                        .entry(d.switch)
                        .or_insert_with(|| field.scope(g, d.switch))
                })
                .and_then(|scope| scope.as_deref());
            match scope {
                Some(switches) => switches
                    .iter()
                    .for_each(|&s| at[s as usize].push(di as u32)),
                None => at.iter_mut().for_each(|cols| cols.push(di as u32)),
            }
        }
        Self::Scoped(at)
    }

    fn at(&self, s: usize) -> &[u32] {
        match self {
            Self::All(all) => all,
            Self::Scoped(at) => &at[s],
        }
    }
}
