//! The [`FabricVerifier`]: the four fabric invariants checked against
//! installed LFTs.

use ib_observe::Observer;
use ib_routing::{CellChange, SwitchGraph, VlAssignment};
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, Lid, PortNum};

use crate::deps::{Changed, ChannelDeps, Rebuild};
use crate::view::DeadEnd::{Drop, MissingRow, NoLft};
use crate::view::{FabricView, NextHop};

/// Which invariant a violation breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantClass {
    /// A LID unreachable from some switch: the packet is dropped, delivered
    /// to the wrong endpoint, or dead-ends in a missing/downed row.
    BlackHole,
    /// Following LFT entries for one destination revisits a switch.
    ForwardingLoop,
    /// The channel dependency graph of the installed tables has a cycle on
    /// some virtual lane (Duato's condition violated).
    DeadlockCycle,
    /// vSwitch addressing broken: duplicate LID ownership, or a registered
    /// LID that does not resolve to a live owning endpoint.
    Addressing,
    /// A switch still holds an LFT row toward a destination it cannot
    /// reach (the fabric is split and the row points into the lost
    /// component). The legal degraded states are an *empty* row or an
    /// explicit drop — distribution pads cleared rows to the drop port,
    /// OpenSM-style — so a row toward a real port is stale routing state
    /// that was never cleared.
    StaleRoute,
}

impl InvariantClass {
    /// Stable kebab-case name, used in reports and metrics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::BlackHole => "black-hole",
            Self::ForwardingLoop => "forwarding-loop",
            Self::DeadlockCycle => "deadlock-cycle",
            Self::Addressing => "addressing",
            Self::StaleRoute => "stale-route",
        }
    }
}

impl std::fmt::Display for InvariantClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant, with a human-readable witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The invariant class.
    pub class: InvariantClass,
    /// What exactly is wrong, naming switches/LIDs involved.
    pub detail: String,
    /// The destination column this violation is attributable to, when the
    /// check walks per-destination state (forwarding walks, snapshot
    /// diffs). `None` for fabric-global findings — LID ownership clashes
    /// and deadlock cycles — which no single column owns.
    pub lid: Option<Lid>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.class, self.detail)
    }
}

/// The outcome of one verification pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Switches whose tables were walked.
    pub switches: usize,
    /// Destination LIDs checked.
    pub lids: usize,
    /// Every invariant violation found, in deterministic order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// True when every invariant holds.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one class.
    #[must_use]
    pub fn count(&self, class: InvariantClass) -> usize {
        self.violations.iter().filter(|v| v.class == class).count()
    }

    /// A deterministic one-line verdict: `clean` or the leading violations.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("clean ({} lids x {} switches)", self.lids, self.switches);
        }
        let shown: Vec<String> = self
            .violations
            .iter()
            .take(3)
            .map(Violation::to_string)
            .collect();
        let suffix = if self.violations.len() > 3 {
            format!(" (+{} more)", self.violations.len() - 3)
        } else {
            String::new()
        };
        format!(
            "{} violation(s): {}{}",
            self.violations.len(),
            shown.join("; "),
            suffix
        )
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Hop budget per (switch, destination) walk; beyond it the walk is a loop
/// by definition (matches `trace_route` callers).
const MAX_HOPS: usize = 64;

/// Checks the four fabric invariants against a subnet's *installed* LFTs.
///
/// Construction is free; every check is read-only. The verifier is
/// deliberately independent of `ib-sm` so it can audit any subnet state —
/// planned, installed, or corrupted by a chaos schedule.
#[derive(Clone, Copy, Debug)]
pub struct FabricVerifier {
    /// Whether to run the CDG deadlock check (invariant 3). On by default;
    /// callers verifying a fabric whose VL layering is unknown (e.g. a
    /// torus routed by an engine that relies on lanes they cannot supply)
    /// may disable it rather than report false cycles.
    pub deadlock: bool,
    /// Restrict forwarding checks to the connected component this node
    /// belongs to. A subnet manager that lost part of the fabric can only
    /// govern (and only answer for) its own component: switches beyond the
    /// split keep whatever tables they had, and judging them would drown
    /// the report in violations no SMP can fix. `None` (the default)
    /// verifies every component.
    pub viewpoint: Option<NodeId>,
}

impl Default for FabricVerifier {
    fn default() -> Self {
        Self {
            deadlock: true,
            viewpoint: None,
        }
    }
}

impl FabricVerifier {
    /// A verifier with default bounds.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style deadlock-check toggle.
    #[must_use]
    pub fn with_deadlock(mut self, deadlock: bool) -> Self {
        self.deadlock = deadlock;
        self
    }

    /// Builder-style viewpoint: verify only the component `node` sits in
    /// (the component a subnet manager on that node can actually govern).
    #[must_use]
    pub fn with_viewpoint(mut self, node: NodeId) -> Self {
        self.viewpoint = Some(node);
        self
    }

    /// Verifies all invariants assuming a single virtual lane (correct for
    /// fat-tree / Up*/Down* / Min-Hop tables on tree-like fabrics).
    pub fn verify(&self, subnet: &Subnet) -> IbResult<VerifyReport> {
        self.verify_with_vls(subnet, &VlAssignment::SingleVl)
    }

    /// Verifies all invariants with the virtual-lane layering the routing
    /// engine produced (DFSSSP / LASH tables are only deadlock-free *per
    /// lane*).
    pub fn verify_with_vls(&self, subnet: &Subnet, vls: &VlAssignment) -> IbResult<VerifyReport> {
        self.verify_observed(subnet, vls, &Observer::disabled())
    }

    /// Like [`Self::verify_with_vls`], emitting `verify.*` counters and a
    /// `verify.run` span into `observer`.
    pub fn verify_observed(
        &self,
        subnet: &Subnet,
        vls: &VlAssignment,
        observer: &Observer,
    ) -> IbResult<VerifyReport> {
        self.audit(subnet, vls, observer).map(|(report, _)| report)
    }

    /// The full audit behind [`Self::verify_observed`], handing back the
    /// channel dependency graph it built when the deadlock check is on, so
    /// a later [`Self::verify_moved`] can patch it instead of rebuilding
    /// it.
    pub fn audit(
        &self,
        subnet: &Subnet,
        vls: &VlAssignment,
        observer: &Observer,
    ) -> IbResult<(VerifyReport, Option<ChannelDeps>)> {
        let _span = observer.span("verify.run");
        let view = FabricView::new(subnet);
        let lids = subnet.lids();
        // Invariant 3 keeps `SwitchGraph::build`'s error contract: an HCA
        // holding a LID without a live uplink fails the pass outright.
        let graph = self
            .deadlock
            .then(|| SwitchGraph::build(subnet))
            .transpose()?;

        let mut violations = Vec::new();
        self.check_addressing(subnet, &lids, observer, &mut violations);
        // One pass over the destination columns, each gathered and
        // classified once: the forwarding walks read it, and — with the
        // deadlock check on — so do the channel dependencies it induces.
        let mut deps = graph
            .as_ref()
            .map(|g| ChannelDeps::new(&view, vls, g.destinations()));
        {
            let _span = observer.span("verify.forwarding");
            let mut col = view.column();
            let mut walk = WalkScratch::new(&view, self.viewpoint);
            for (i, &lid) in lids.iter().enumerate() {
                let Some(target) = subnet.endpoint_of(lid) else {
                    continue; // Already reported by the addressing check.
                };
                view.gather(lid, target.node, &mut col);
                let next = |s: usize| col.next[s];
                self.check_column(
                    &view,
                    lid,
                    target.node,
                    0..view.len(),
                    next,
                    &mut walk,
                    &mut violations,
                );
                if let (Some(deps), Some(g)) = (&mut deps, &graph) {
                    deps.absorb(&view, &g.destinations()[i], &col, MAX_HOPS);
                }
            }
        }
        if let Some(deps) = &mut deps {
            let _span = observer.span("verify.deadlock");
            deps.report_cycles(&view, &mut violations);
        }
        Ok((self.report(&view, lids.len(), violations, observer), deps))
    }

    /// The repair gate: the invariants as far as one repair can have moved
    /// them. `moved` is every installed cell the repair's SMPs changed and
    /// `faults` the links it repaired (down) or healed (back up). Addressing is checked whole; the
    /// forwarding walks start only at the moved cells and at cells still
    /// forwarding into a repaired link, so every finding is the repair's
    /// own; the deadlock check runs on `carried` — the graph an earlier
    /// [`Self::audit`] or gate left behind — with exactly those cells'
    /// dependencies re-added and retracted. If the carried graph's last
    /// search found every lane acyclic, any cycle now runs through a
    /// dependency this patch booked from zero, so the cycle search starts
    /// from those dependencies' heads alone; only when it meets a cycle
    /// does the lane-wide search run and name it, as a full audit would.
    /// A full dependency pass (walks still scoped) replaces the patch,
    /// counted as `verify.full_deps.<reason>`, when nothing is carried
    /// (`no-state`), the fabric is split (`split`), the VL layering
    /// changed (`vls`), or the fabric differs from the carried graph's by
    /// more than `faults` going down or coming back (`topology`); a rebuilt
    /// graph is searched lane-wide. Returns the report and — with the
    /// deadlock check on — the graph of the installed rows, for the next
    /// gate to carry.
    pub fn verify_moved(
        &self,
        subnet: &Subnet,
        vls: &VlAssignment,
        moved: &[CellChange],
        faults: &[(NodeId, PortNum)],
        carried: Option<ChannelDeps>,
        observer: &Observer,
    ) -> IbResult<(VerifyReport, Option<ChannelDeps>)> {
        let _span = observer.span("verify.run");
        let view = FabricView::new(subnet);
        let lids = subnet.lids();
        let (changed, cut) = changed_cells(&view, &lids, moved, faults);

        let mut violations = Vec::new();
        self.check_addressing(subnet, &lids, observer, &mut violations);
        {
            let _span = observer.span("verify.forwarding");
            let mut walk = WalkScratch::new(&view, self.viewpoint);
            for cells in changed.chunk_by(|a, b| a.lid == b.lid) {
                let lid = cells[0].lid;
                let Some(target) = subnet.endpoint_of(lid) else {
                    continue; // Already reported by the addressing check.
                };
                let code = view.code_of(target.node);
                let starts = cells.iter().map(|c| c.switch);
                let next = |s: usize| view.cell(s, lid, code).0;
                self.check_column(
                    &view,
                    lid,
                    target.node,
                    starts,
                    next,
                    &mut walk,
                    &mut violations,
                );
            }
            observer.add("verify.delta_cells", changed.len() as u64);
        }
        let deps = if self.deadlock {
            let _span = observer.span("verify.deadlock");
            let out = &mut violations;
            Some(self.gate_deps(&view, vls, &lids, &changed, &cut, carried, observer, out)?)
        } else {
            None
        };
        Ok((self.report(&view, lids.len(), violations, observer), deps))
    }

    /// The channel dependency graph of `subnet`'s installed rows under
    /// `vls`, rebuilt from every column — what a carried graph must equal.
    pub fn channel_deps(&self, subnet: &Subnet, vls: &VlAssignment) -> IbResult<ChannelDeps> {
        self.deps_of(&FabricView::new(subnet), vls)
    }

    fn deps_of(&self, view: &FabricView<'_>, vls: &VlAssignment) -> IbResult<ChannelDeps> {
        let graph = SwitchGraph::build(view.subnet)?;
        let mut deps = ChannelDeps::new(view, vls, graph.destinations());
        let mut col = view.column();
        for dest in graph.destinations() {
            if let Some(target) = view.subnet.endpoint_of(dest.lid) {
                view.gather(dest.lid, target.node, &mut col);
                deps.absorb(view, dest, &col, MAX_HOPS);
            }
        }
        Ok(deps)
    }

    /// The gate's dependency graph — `carried` patched by `changed`, or,
    /// when it cannot be, rebuilt with the reason counted — with its
    /// cycles reported into `out`. The carried graph is dropped before a
    /// rebuild allocates the next one.
    #[allow(clippy::too_many_arguments)]
    fn gate_deps(
        &self,
        view: &FabricView<'_>,
        vls: &VlAssignment,
        lids: &[Lid],
        changed: &[Changed],
        cut: &[u32],
        carried: Option<ChannelDeps>,
        observer: &Observer,
        out: &mut Vec<Violation>,
    ) -> IbResult<ChannelDeps> {
        let reason = match carried {
            None => Rebuild::NoState,
            Some(mut deps) => match deps.blocker(view, vls, lids, cut) {
                None => {
                    deps.patch(view, changed, MAX_HOPS);
                    observer.add("verify.cdg_patched_cells", changed.len() as u64);
                    // Derived state is never trusted: debug builds recount
                    // every column and demand the patch got the same graph,
                    // and back a clean search from the fresh heads with the
                    // lane-wide one.
                    debug_assert!(
                        self.deps_of(view, vls).is_ok_and(|fresh| fresh == deps),
                        "patched channel dependencies diverged from the installed rows"
                    );
                    let scoped = deps.report_cycles(view, out);
                    debug_assert!(
                        !scoped || deps.is_acyclic(),
                        "the search from the fresh dependencies missed a cycle"
                    );
                    return Ok(deps);
                }
                Some(reason) => reason,
            },
        };
        observer.incr(reason.counter());
        let mut deps = self.deps_of(view, vls)?;
        deps.report_cycles(view, out);
        Ok(deps)
    }

    /// Assembles a pass's report and mirrors it into `verify.*` counters.
    fn report(
        &self,
        view: &FabricView<'_>,
        lids: usize,
        violations: Vec<Violation>,
        observer: &Observer,
    ) -> VerifyReport {
        let report = VerifyReport {
            switches: view.len(),
            lids,
            violations,
        };
        if observer.is_enabled() {
            observer.incr("verify.runs");
            observer.add("verify.violations", report.violations.len() as u64);
            observer.add(
                "verify.black_holes",
                report.count(InvariantClass::BlackHole) as u64,
            );
            observer.add(
                "verify.loops",
                report.count(InvariantClass::ForwardingLoop) as u64,
            );
            observer.add(
                "verify.deadlock_cycles",
                report.count(InvariantClass::DeadlockCycle) as u64,
            );
            observer.add(
                "verify.addressing",
                report.count(InvariantClass::Addressing) as u64,
            );
            observer.add(
                "verify.stale_routes",
                report.count(InvariantClass::StaleRoute) as u64,
            );
            if report.is_clean() {
                observer.incr("verify.clean");
            }
        }
        report
    }

    /// Invariant 4: LID ownership. Every LID is held by exactly one node,
    /// the registry resolves it to that node, and the owner is alive.
    /// `lids` is every registered LID, ascending.
    fn check_addressing(
        &self,
        subnet: &Subnet,
        lids: &[Lid],
        observer: &Observer,
        out: &mut Vec<Violation>,
    ) {
        let _span = observer.span("verify.addressing");
        // Ownership scan over every node (dead ones included: a dead node
        // still holding a LID is exactly the corruption we want to catch):
        // each raw LID's first holder in its slot, every later holding of
        // an already-held LID aside, both in node order.
        let top = lids.last().map_or(0, |lid| lid.raw() as usize + 1);
        let mut first: Vec<Option<NodeId>> = vec![None; top];
        let mut more: Vec<(u16, NodeId)> = Vec::new();
        for node in subnet.nodes() {
            for lid in node.lids() {
                let raw = lid.raw() as usize;
                if raw >= first.len() {
                    first.resize(raw + 1, None);
                }
                match first[raw] {
                    None => first[raw] = Some(node.id),
                    Some(_) => more.push((lid.raw(), node.id)),
                }
            }
        }
        // Stable, so each LID's later holders stay in node order.
        more.sort_by_key(|&(raw, _)| raw);
        let mut more = more.as_slice();
        for (raw, holder) in first.iter().enumerate() {
            let Some(holder) = *holder else { continue };
            let raw = raw as u16;
            let others = more.iter().take_while(|&&(r, _)| r == raw).count();
            let (others, rest) = more.split_at(others);
            more = rest;
            if !others.is_empty() {
                let who = std::iter::once(holder).chain(others.iter().map(|&(_, n)| n));
                let names: Vec<&str> = who.map(|n| subnet.name_of(n)).collect();
                out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!(
                        "LID {raw} owned by {} nodes: {}",
                        names.len(),
                        names.join(", ")
                    ),
                    lid: None,
                });
            }
            // Every held LID must be registered back to its holder.
            match subnet.endpoint_of(Lid::from_raw(raw)) {
                None => out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!(
                        "LID {raw} held by {} but absent from the registry",
                        subnet.name_of(holder)
                    ),
                    lid: None,
                }),
                Some(ep) if others.is_empty() && ep.node != holder => out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!(
                        "LID {raw} held by {} but registered to {}",
                        subnet.name_of(holder),
                        subnet.name_of(ep.node)
                    ),
                    lid: None,
                }),
                Some(_) => {}
            }
        }
        // Every registered LID must resolve to a live owner.
        for &lid in lids {
            match subnet.endpoint_of(lid) {
                None => out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!("LID {lid} registered but unresolvable"),
                    lid: None,
                }),
                Some(ep) if !subnet.is_alive(ep.node) => out.push(Violation {
                    class: InvariantClass::Addressing,
                    detail: format!(
                        "LID {lid} registered to dead node {}",
                        subnet.name_of(ep.node)
                    ),
                    lid: None,
                }),
                Some(_) => {}
            }
        }
    }

    /// Invariants 1 + 2 for one destination column, walked from the switches
    /// in `starts` (ascending) over the cells `next` classifies: every switch
    /// that can still reach the LID's endpoint must deliver without
    /// revisiting a switch; every switch that *cannot* (the fabric is split)
    /// must hold an **empty or drop** row — one toward a real port is a
    /// stale route into the lost component.
    #[allow(clippy::too_many_arguments)]
    fn check_column(
        &self,
        view: &FabricView<'_>,
        lid: Lid,
        target: NodeId,
        starts: impl IntoIterator<Item = usize>,
        next: impl Fn(usize) -> NextHop,
        walk: &mut WalkScratch,
        out: &mut Vec<Violation>,
    ) {
        let subnet = view.subnet;
        let name = |s: usize| subnet.name_of(view.switches[s]);
        // The component the destination is delivered in; `None` when no
        // live delivery switch exists (the endpoint itself is gone), which
        // makes the LID unreachable from everywhere.
        let dest_comp = view.component_of(target);
        // One bounded table walk per switch, memoized through `outcome` so
        // shared suffixes are walked once; terminal failures and loops are
        // reported once per destination, not once per upstream switch.
        const UNKNOWN: u8 = 0;
        const ON_PATH: u8 = 1;
        const OK: u8 = 2;
        const BAD: u8 = 3;
        let WalkScratch {
            scope,
            outcome,
            reported,
            path,
        } = walk;
        outcome.fill(UNKNOWN);
        reported.fill(false);
        let mut report = |s: usize| !std::mem::replace(&mut reported[s], true);

        for start in starts {
            let comp = view.component(start);
            if scope.is_some_and(|sc| comp != sc) {
                // Beyond the viewpoint's split: not governable, not judged.
                continue;
            }
            if dest_comp != Some(comp) {
                // The destination is unreachable from this switch: the
                // legal degraded states are an empty row or an explicit
                // drop (distribution pads cleared rows to the drop port,
                // OpenSM-style). A row toward a *port* points into the
                // lost component and is stale.
                if !matches!(next(start), NextHop::Dead(NoLft | MissingRow | Drop)) {
                    out.push(Violation {
                        class: InvariantClass::StaleRoute,
                        detail: format!(
                            "LID {lid} at {}: stale route toward an unreachable destination",
                            name(start)
                        ),
                        lid: Some(lid),
                    });
                }
                continue;
            }
            if outcome[start] != UNKNOWN {
                continue;
            }
            path.clear();
            path.push(start);
            outcome[start] = ON_PATH;
            let verdict = loop {
                let cur = *path.last().unwrap_or(&start);
                match next(cur) {
                    NextHop::Deliver => break OK,
                    NextHop::Dead(why) => {
                        if report(cur) {
                            out.push(Violation {
                                class: InvariantClass::BlackHole,
                                detail: format!(
                                    "LID {lid} at {}: {}",
                                    name(cur),
                                    why.reason(subnet)
                                ),
                                lid: Some(lid),
                            });
                        }
                        break BAD;
                    }
                    NextHop::To(v) => match outcome[v as usize] {
                        OK => break OK,
                        BAD => break BAD,
                        ON_PATH => {
                            // The walk re-entered its own path: a cycle.
                            let v = v as usize;
                            let from = path.iter().position(|&s| s == v).unwrap_or(0);
                            if report(v) {
                                let names: Vec<&str> =
                                    path[from..].iter().map(|&s| name(s)).collect();
                                out.push(Violation {
                                    class: InvariantClass::ForwardingLoop,
                                    detail: format!(
                                        "LID {lid} loops through {}",
                                        names.join(" -> ")
                                    ),
                                    lid: Some(lid),
                                });
                            }
                            break BAD;
                        }
                        _ => {
                            if path.len() > MAX_HOPS {
                                if report(cur) {
                                    out.push(Violation {
                                        class: InvariantClass::ForwardingLoop,
                                        detail: format!(
                                            "LID {lid}: walk from {} exceeded {} hops",
                                            name(start),
                                            MAX_HOPS
                                        ),
                                        lid: Some(lid),
                                    });
                                }
                                break BAD;
                            }
                            outcome[v as usize] = ON_PATH;
                            path.push(v as usize);
                        }
                    },
                }
            };
            for &s in path.iter() {
                outcome[s] = verdict;
            }
        }
    }
}

/// The forwarding walk's state, allocated once per pass.
struct WalkScratch {
    /// The viewpoint's component, when verification is scoped to it.
    scope: Option<u32>,
    /// Memoized verdict per switch.
    outcome: Vec<u8>,
    /// Switches a violation was already reported at for this column.
    reported: Vec<bool>,
    /// The walk in progress.
    path: Vec<usize>,
}

impl WalkScratch {
    fn new(view: &FabricView<'_>, viewpoint: Option<NodeId>) -> Self {
        Self {
            scope: viewpoint.and_then(|vp| view.component_of(vp)),
            outcome: vec![0; view.len()],
            reported: vec![false; view.len()],
            path: Vec::new(),
        }
    }
}

/// The cells a repair gate starts from, sorted by column then switch: every
/// cell in `moved`, and every cell of a registered column that still
/// forwards into a link the `faults` took down (whether or not the repair
/// moved it, its channel went dark). Also returns the channel ids of the
/// faults' live switch ends.
fn changed_cells(
    view: &FabricView<'_>,
    lids: &[Lid],
    moved: &[CellChange],
    faults: &[(NodeId, PortNum)],
) -> (Vec<Changed>, Vec<u32>) {
    let mut changed: Vec<Changed> = moved
        .iter()
        .filter_map(|c| {
            Some(Changed {
                lid: c.lid,
                switch: view.switch_index(c.switch)?,
                before: c.old,
            })
        })
        .collect();
    let mut cut = Vec::new();
    for &(node, port) in faults {
        let far = view.subnet.node(node).ports.get(port.raw() as usize);
        let ends = far.and_then(|p| p.remote).map(|r| (r.node, r.port));
        for (end, port) in std::iter::once((node, port)).chain(ends) {
            let Some(s) = view.switch_index(end) else {
                continue;
            };
            if (port.raw() as usize) < view.stride {
                cut.push((s * view.stride + port.raw() as usize) as u32);
            }
            changed.extend(
                lids.iter()
                    .filter(|&&lid| view.entry(s, lid) == Some(port))
                    .map(|&lid| Changed {
                        lid,
                        switch: s,
                        before: Some(port),
                    }),
            );
        }
    }
    // Stable: a moved cell keeps its own `before` over a cut duplicate.
    changed.sort_by_key(|c| (c.lid, c.switch));
    changed.dedup_by_key(|c| (c.lid, c.switch));
    (changed, cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_routing::testutil::{assign_lids, host_lid};
    use ib_routing::{EngineKind, RoutingOptions};
    use ib_subnet::topology::fattree::{three_level, two_level};
    use ib_subnet::topology::torus::torus_2d;
    use ib_types::PortNum;

    /// Bring a small fat tree to "installed tables" state without ib-sm
    /// (which would be a dependency cycle): assign LIDs densely, compute,
    /// install.
    fn installed(engine: EngineKind) -> (ib_subnet::topology::BuiltTopology, VlAssignment) {
        let mut t = two_level(3, 2, 2);
        assign_lids(&mut t);
        let tables = engine.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        (t, tables.vls)
    }

    /// The deadlock violations of a report, as printed.
    fn cycles(report: &VerifyReport) -> Vec<String> {
        (report.violations.iter())
            .filter(|v| v.class == InvariantClass::DeadlockCycle)
            .map(Violation::to_string)
            .collect()
    }

    #[test]
    fn counter_names_match_the_formatted_ones() {
        for (reason, name) in [
            (Rebuild::NoState, "no-state"),
            (Rebuild::Split, "split"),
            (Rebuild::Vls, "vls"),
            (Rebuild::Topology, "topology"),
        ] {
            assert_eq!(reason.counter(), format!("verify.full_deps.{name}"));
        }
    }

    /// On `three_level(4,4,4,4)`, leaf-0-1's last uplink (port 8) going down
    /// makes the fat-tree repair close a VL1 cycle (`swcols`' stale switch
    /// picks). The gate patches the carried graph, meets the cycle from the
    /// dependencies the repair booked from zero, and names it exactly as a
    /// fresh audit of the repaired fabric does.
    #[test]
    fn a_gated_repair_that_closes_a_cycle_is_rejected_in_the_audits_words() {
        let mut t = three_level(4, 4, 4, 4);
        assign_lids(&mut t);
        let engine = EngineKind::FatTree.build();
        let mut tables = engine.compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        let verifier = FabricVerifier::new();
        let (report, carried) = verifier
            .audit(&t.subnet, &tables.vls, &Observer::disabled())
            .unwrap();
        assert!(report.is_clean(), "{report}");

        let (leaf, port) = (t.switch_levels[0][1], PortNum::new(8));
        let far = t.subnet.node(leaf).ports[8].remote.unwrap();
        t.subnet.set_link_down(leaf, port).unwrap();
        let ends = [(leaf, port), (far.node, far.port)];
        let dirty: Vec<Lid> = (t.subnet.lids().into_iter())
            .filter(|&lid| (ends.iter()).any(|&(n, p)| tables.lfts[&n].get(lid) == Some(p)))
            .collect();
        let g = SwitchGraph::build(&t.subnet).unwrap();
        let opts = RoutingOptions::default();
        let log = engine
            .repair_with_graph(&g, opts, &mut tables, &dirty, &Observer::disabled())
            .unwrap();
        tables.install(&mut t.subnet).unwrap();

        let observer = Observer::metrics();
        let faults = [(leaf, port)];
        let (gated, _) = verifier
            .verify_moved(
                &t.subnet,
                &tables.vls,
                &log.cells,
                &faults,
                carried,
                &observer,
            )
            .unwrap();
        let snap = observer.snapshot().unwrap();
        assert!(snap.counter("verify.cdg_patched_cells") > 0, "patched");
        let audit = verifier.verify_with_vls(&t.subnet, &tables.vls).unwrap();
        assert!(!cycles(&audit).is_empty(), "{audit}");
        assert_eq!(cycles(&gated), cycles(&audit));
    }

    /// A graph that was never searched, or whose last search met a cycle,
    /// is searched lane-wide even when nothing was booked since; only a
    /// graph searched clean lets the next search start from what is fresh.
    #[test]
    fn an_unsearched_or_cyclic_graph_takes_the_lane_wide_search() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        let (verifier, vls) = (FabricVerifier::new(), VlAssignment::SingleVl);
        let audit = verifier.verify_with_vls(&t.subnet, &vls).unwrap();
        assert!(!cycles(&audit).is_empty(), "{audit}");

        let view = FabricView::new(&t.subnet);
        let mut built = verifier.channel_deps(&t.subnet, &vls).unwrap();
        let mut out = Vec::new();
        assert!(!built.report_cycles(&view, &mut out), "never searched");
        let found: Vec<String> = out.iter().map(Violation::to_string).collect();
        assert_eq!(found, cycles(&audit));
        let observer = Observer::disabled();
        let (gated, _) = verifier
            .verify_moved(&t.subnet, &vls, &[], &[], Some(built), &observer)
            .unwrap();
        assert_eq!(cycles(&gated), cycles(&audit), "last search met a cycle");

        let (t, vls) = installed(EngineKind::FatTree);
        let (report, deps) = verifier.audit(&t.subnet, &vls, &observer).unwrap();
        assert!(report.is_clean(), "{report}");
        let mut out = Vec::new();
        let scoped = deps
            .unwrap()
            .report_cycles(&FabricView::new(&t.subnet), &mut out);
        assert!(scoped && out.is_empty(), "searched clean, nothing fresh");
    }

    #[test]
    fn clean_fabric_verifies_clean() {
        let (t, vls) = installed(EngineKind::MinHop);
        let report = FabricVerifier::new()
            .verify_with_vls(&t.subnet, &vls)
            .unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.lids > 0 && report.switches > 0);
        assert!(report.summary().starts_with("clean"));
    }

    #[test]
    fn missing_row_is_a_black_hole() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let victim = host_lid(&t, 5);
        let leaf = t.switch_levels[0][0];
        t.subnet.lft_mut(leaf).unwrap().clear(victim);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert_eq!(report.count(InvariantClass::BlackHole), 1, "{report}");
    }

    #[test]
    fn misroute_to_wrong_host_is_a_black_hole() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let victim = host_lid(&t, 0);
        // On the victim's own leaf, point its row at its neighbor host.
        let leaf = t.switch_levels[0][0];
        let (wrong_port, _) = t
            .subnet
            .node(leaf)
            .connected_ports()
            .find(|(_, r)| r.node == t.hosts[1])
            .unwrap();
        t.subnet.lft_mut(leaf).unwrap().set(victim, wrong_port);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(report.count(InvariantClass::BlackHole) >= 1, "{report}");
        assert!(report.summary().contains("wrong endpoint"));
    }

    #[test]
    fn cross_pointing_rows_are_a_forwarding_loop() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let victim = host_lid(&t, 5);
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (to_spine, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        let (to_leaf, _) = t
            .subnet
            .node(spine0)
            .connected_ports()
            .find(|(_, r)| r.node == leaf0)
            .unwrap();
        t.subnet.lft_mut(leaf0).unwrap().set(victim, to_spine);
        t.subnet.lft_mut(spine0).unwrap().set(victim, to_leaf);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(
            report.count(InvariantClass::ForwardingLoop) >= 1,
            "{report}"
        );
    }

    #[test]
    fn torus_minhop_deadlock_cycle_detected() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(report.count(InvariantClass::DeadlockCycle) >= 1, "{report}");
        // Reachability and loop-freedom still hold: min-hop routes deliver.
        assert_eq!(report.count(InvariantClass::BlackHole), 0);
        assert_eq!(report.count(InvariantClass::ForwardingLoop), 0);
        // And the deadlock check can be disabled for engines that make no
        // VL guarantee on cyclic fabrics.
        let relaxed = FabricVerifier::new()
            .with_deadlock(false)
            .verify(&t.subnet)
            .unwrap();
        assert!(relaxed.is_clean(), "{relaxed}");
    }

    #[test]
    fn torus_dfsssp_clean_per_lane() {
        let mut t = torus_2d(4, 4, 1, true);
        assign_lids(&mut t);
        let tables = EngineKind::Dfsssp.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        let report = FabricVerifier::new()
            .verify_with_vls(&t.subnet, &tables.vls)
            .unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn duplicate_lid_ownership_is_an_addressing_violation() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let stolen = host_lid(&t, 0);
        // Corrupt a second node's port state to claim the same LID without
        // going through the registry.
        let thief = t.hosts[1];
        t.subnet.node_mut(thief).ports[1].lid = Some(stolen);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(report.count(InvariantClass::Addressing) >= 1, "{report}");
        assert!(report.summary().contains("owned by 2 nodes"));
    }

    /// Addressing violations come in raw-LID order, a clash's holders in
    /// node order: a LID held twice, a LID held by one node but registered
    /// to another, and a LID held above every registered one.
    #[test]
    fn addressing_violations_come_in_lid_order_with_holders_in_node_order() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let [h0, h1, h3, h4] = [0, 1, 3, 4].map(|i| t.hosts[i]);
        assert!(h0.index() < h1.index());
        let (stolen, moved) = (host_lid(&t, 0), host_lid(&t, 3));
        let unregistered = Lid::from_raw(t.subnet.lids().last().unwrap().raw() + 7);
        t.subnet.node_mut(h1).ports[1].lid = Some(stolen);
        t.subnet.node_mut(h3).ports[1].lid = Some(unregistered);
        t.subnet.node_mut(h4).ports[1].lid = Some(moved);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        let name = |n: NodeId| t.subnet.name_of(n);
        let mut expected = [
            (
                stolen,
                format!("owned by 2 nodes: {}, {}", name(h0), name(h1)),
            ),
            (
                moved,
                format!("held by {} but registered to {}", name(h4), name(h3)),
            ),
            (
                unregistered,
                format!("held by {} but absent from the registry", name(h3)),
            ),
        ];
        expected.sort_by_key(|&(lid, _)| lid);
        let expected: Vec<String> = (expected.iter())
            .map(|(lid, what)| format!("[addressing] LID {} {what}", lid.raw()))
            .collect();
        let found: Vec<String> = (report.violations.iter())
            .filter(|v| v.class == InvariantClass::Addressing)
            .map(Violation::to_string)
            .collect();
        assert_eq!(found, expected);
    }

    /// Isolates leaf 1 (every switch-switch uplink downed) and recomputes
    /// routing on the split fabric. Returns the built topology.
    fn split_installed() -> ib_subnet::topology::BuiltTopology {
        let mut t = two_level(2, 2, 2);
        assign_lids(&mut t);
        let leaf1 = t.switch_levels[0][1];
        let uplinks: Vec<PortNum> = t
            .subnet
            .node(leaf1)
            .connected_ports()
            .filter(|(_, r)| t.subnet.node(r.node).is_switch())
            .map(|(p, _)| p)
            .collect();
        for p in uplinks {
            t.subnet.set_link_down(leaf1, p).unwrap();
        }
        let tables = EngineKind::MinHop.build().compute(&t.subnet).unwrap();
        tables.install(&mut t.subnet).unwrap();
        t
    }

    #[test]
    fn split_fabric_with_cleared_columns_verifies_clean() {
        let t = split_installed();
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn stale_route_toward_unreachable_destination_is_caught() {
        let mut t = split_installed();
        // Leaf 0 grows back a row toward a host beyond the split.
        let lost = host_lid(&t, 2);
        let leaf0 = t.switch_levels[0][0];
        t.subnet.lft_mut(leaf0).unwrap().set(lost, PortNum::new(1));
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert_eq!(report.count(InvariantClass::StaleRoute), 1, "{report}");
        assert_eq!(report.count(InvariantClass::BlackHole), 0, "{report}");
        assert!(report.summary().contains("stale route"));
    }

    #[test]
    fn missing_row_toward_reachable_destination_is_still_a_black_hole() {
        let mut t = split_installed();
        // Clearing a *reachable* destination's row stays a black hole even
        // on the split fabric.
        let local = host_lid(&t, 0);
        let spine0 = t.switch_levels[1][0];
        t.subnet.lft_mut(spine0).unwrap().clear(local);
        let report = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert_eq!(report.count(InvariantClass::BlackHole), 1, "{report}");
    }

    #[test]
    fn viewpoint_scopes_verification_to_the_masters_component() {
        let mut t = split_installed();
        // Stale state on the *lost* side: leaf 1 keeps a row toward a
        // master-side host it can no longer reach.
        let master_host = host_lid(&t, 0);
        let leaf1 = t.switch_levels[0][1];
        t.subnet
            .lft_mut(leaf1)
            .unwrap()
            .set(master_host, PortNum::new(1));
        let unscoped = FabricVerifier::new().verify(&t.subnet).unwrap();
        assert_eq!(unscoped.count(InvariantClass::StaleRoute), 1, "{unscoped}");
        // From the master's viewpoint the lost component is dark: no SMP
        // can reach it, so it is not judged.
        let scoped = FabricVerifier::new()
            .with_viewpoint(t.switch_levels[0][0])
            .verify(&t.subnet)
            .unwrap();
        assert!(scoped.is_clean(), "{scoped}");
    }

    #[test]
    fn observer_counters_reflect_the_report() {
        let (mut t, _) = installed(EngineKind::MinHop);
        let victim = host_lid(&t, 5);
        t.subnet
            .lft_mut(t.switch_levels[0][0])
            .unwrap()
            .set(victim, PortNum::DROP);
        let observer = Observer::metrics();
        let report = FabricVerifier::new()
            .verify_observed(&t.subnet, &VlAssignment::SingleVl, &observer)
            .unwrap();
        assert!(!report.is_clean());
        let snap = observer.snapshot().unwrap();
        assert_eq!(snap.counter("verify.runs"), 1);
        assert_eq!(
            snap.counter("verify.violations"),
            report.violations.len() as u64
        );
        assert_eq!(snap.counter("verify.clean"), 0);
        assert_eq!(
            snap.counter("verify.black_holes"),
            report.count(InvariantClass::BlackHole) as u64
        );
        // One child span per invariant, in order, nested inside the run.
        let run = snap.spans_named("verify.run");
        assert_eq!(run.len(), 1);
        let mut at = run[0].start_ns;
        for name in ["verify.addressing", "verify.forwarding", "verify.deadlock"] {
            let child = snap.spans_named(name);
            assert_eq!(child.len(), 1, "{name}");
            assert!(child[0].start_ns >= at, "{name} starts after its sibling");
            at = child[0].start_ns + child[0].duration_ns;
        }
        assert!(at <= run[0].start_ns + run[0].duration_ns);
    }
}
