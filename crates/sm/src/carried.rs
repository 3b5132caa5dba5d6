//! The state the SM derives from the installed LFTs so a repair costs what
//! it changes, and the one owner of when it moves, stays or goes. It is
//! *absent* until a sweep installs; *diverged* when the switches may not
//! hold the repair baseline (the next link-down is a counted
//! `repair.index_misses` full sweep); *mirrored* when a reverse route index
//! equal to the installed rows — and, when the SM verifies, their channel
//! dependency graph — rides with the baseline. Every sweep moves it the
//! same way: it borrows a [`Mirror`] — a repair the carried one, a full
//! sweep a fresh one of its computed tables — sends through the SM's one
//! tail, and settles it back, mirrored if the tail applied what it sent,
//! else diverged. A mirror also keeps the heal debts of the repairs since
//! its sweep: a link that comes back pays off its repair by undoing it. A
//! writer that moves carried state ends with a debug check: over what it
//! moved, carried equals rebuilt.

use ib_routing::{CellChange, LidMove, RoutingTables, SpliceLog, SwitchGraph};
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, Lid, PortNum};
use ib_verify::{ChannelDeps, FabricVerifier, ReverseRouteIndex};

/// The SM's derived state, plus the switch graph of one topology epoch.
#[derive(Debug, Default)]
pub(crate) struct Carried {
    state: State,
    graph: Option<(u64, SwitchGraph)>,
}

// One per SM, moved rather than copied: boxing the large variant buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Default)]
enum State {
    #[default]
    Absent,
    Diverged(RoutingTables),
    Mirrored(Mirror),
}

/// The mirrored state, lent to one repair.
#[derive(Debug)]
pub(crate) struct Mirror {
    /// The repair baseline; the engine splices it in place.
    pub(crate) tables: RoutingTables,
    index: ReverseRouteIndex,
    deps: Option<ChannelDeps>,
    /// SMPs went out that [`Mirror::apply`] has not accounted for.
    in_flight: bool,
    /// The topology epoch whose graph every baseline column is routed on:
    /// set by a full sweep, moved by a repair of exactly the links that
    /// went down since and by a heal, `None` once anything else moved the
    /// baseline. The top debt's repair ran at it.
    routed_at: Option<u64>,
    /// The heal debts of the repairs since, oldest first.
    debts: Vec<Debt>,
}

/// What one repair owes its faults' return: the cells it changed (with the
/// header it displaced) and the links it routed around.
#[derive(Debug)]
pub(crate) struct Debt {
    pub(crate) log: SpliceLog,
    pub(crate) faults: Vec<(NodeId, PortNum)>,
}

impl Mirror {
    /// The dirty destination set of a link fault, read off the index.
    pub(crate) fn affected(&self, subnet: &Subnet, node: NodeId, port: PortNum) -> Vec<Lid> {
        self.index.affected(subnet, node, port)
    }

    /// Before the repair's first SMP: hands the graph to the gate, and the
    /// mirror settles as diverged unless [`Mirror::apply`] follows.
    pub(crate) fn send(&mut self) -> Option<ChannelDeps> {
        self.in_flight = true;
        self.deps.take()
    }

    /// Moves the index by `moved`, the installed cells that changed — or,
    /// with `None`, rebuilds it from the installed rows — and carries
    /// `deps`, the graph of the rows now installed (if known).
    pub(crate) fn apply(
        &mut self,
        subnet: &Subnet,
        moved: Option<&[CellChange]>,
        deps: Option<ChannelDeps>,
    ) {
        match moved {
            Some(moved) => self.index.apply_changes(moved),
            None => self.index = ReverseRouteIndex::from_installed(subnet),
        }
        self.deps = deps;
        self.in_flight = false;
    }

    /// Books an applied repair of `faults` as a heal debt, when undoing it
    /// will be exact: it ran on the graph the baseline was routed on minus
    /// `faults` alone (the epoch moved once per fault since). After any
    /// other repair there is no routed graph to return to, and the stack
    /// goes.
    pub(crate) fn owe(&mut self, subnet: &Subnet, log: SpliceLog, faults: &[(NodeId, PortNum)]) {
        let epoch = subnet.topology_epoch();
        if self.routed_at.map(|at| at + faults.len() as u64) == Some(epoch) {
            self.routed_at = Some(epoch);
            let faults = faults.to_vec();
            self.debts.push(Debt { log, faults });
        } else {
            self.routed_at = None;
            self.debts.clear();
        }
    }

    /// The debt the return of `faults` pays off, popped: the top one, when
    /// each of `faults` is one of its links, all of those are up again and
    /// nothing else moved the topology since its repair (the epoch moved
    /// once per link). Undoing its log — which the caller must do — brings
    /// the baseline back to the graph it was routed on, the one the debt
    /// below it was repaired on.
    pub(crate) fn pay(&mut self, subnet: &Subnet, faults: &[(NodeId, PortNum)]) -> Option<Debt> {
        let epoch = subnet.topology_epoch();
        let routed_at = self.routed_at?;
        let same_link = |(a, p): (NodeId, PortNum), (b, q): (NodeId, PortNum)| {
            (a, p) == (b, q)
                || subnet
                    .cabled_neighbor(a, p)
                    .is_some_and(|r| (r.node, r.port) == (b, q))
        };
        let debt = self.debts.pop_if(|debt| {
            routed_at + debt.faults.len() as u64 == epoch
                && (faults.iter()).all(|&f| debt.faults.iter().any(|&d| same_link(f, d)))
                && (debt.faults.iter()).all(|&(n, p)| subnet.neighbor(n, p).is_some())
        })?;
        self.routed_at = Some(epoch);
        Some(debt)
    }
}

impl Carried {
    /// The repair baseline, mirrored or not.
    pub(crate) fn baseline(&self) -> Option<&RoutingTables> {
        match &self.state {
            State::Absent => None,
            State::Diverged(tables) | State::Mirrored(Mirror { tables, .. }) => Some(tables),
        }
    }

    fn mirror(&self) -> Option<&Mirror> {
        match &self.state {
            State::Mirrored(m) => Some(m),
            _ => None,
        }
    }

    pub(crate) fn index(&self) -> Option<&ReverseRouteIndex> {
        self.mirror().map(|m| &m.index)
    }

    pub(crate) fn deps(&self) -> Option<&ChannelDeps> {
        self.mirror()?.deps.as_ref()
    }

    /// Cells written behind the sweeps move a mirrored baseline and index,
    /// and drop the heal debts, whose logs no longer undo to these rows.
    /// The graph survives a swap of whole columns on a whole fabric, with
    /// the two LIDs' lanes traded ([`ChannelDeps::swap_lids`]); it goes
    /// after anything else: a copy re-cables a VF, the intra-leaf shortcut
    /// names no move, and a split swaps only one component's rows. This is
    /// the one hook migration schedules would change. A diverged baseline
    /// is never spliced against, so no cell follows it — but the lanes of
    /// `moved` move in either, since they are what the installed columns
    /// ride.
    pub(crate) fn apply(
        &mut self,
        subnet: &Subnet,
        whole: bool,
        cells: &[CellChange],
        moved: Option<LidMove>,
    ) {
        let baseline = match &mut self.state {
            State::Absent => None,
            State::Diverged(tables) | State::Mirrored(Mirror { tables, .. }) => Some(tables),
        };
        if let (Some(tables), Some(moved)) = (baseline, moved) {
            tables.vls.apply_move(moved);
        }
        let State::Mirrored(m) = &mut self.state else {
            return;
        };
        let deps = match (m.deps.take(), moved) {
            (Some(mut deps), Some(LidMove::Swap(a, b))) if whole => {
                deps.swap_lids(a, b);
                Some(deps)
            }
            _ => None,
        };
        m.apply(subnet, Some(cells), deps);
        m.routed_at = None;
        m.debts.clear();
        for cell in cells {
            if let Some(lft) = m.tables.lfts.get_mut(&cell.switch) {
                lft.assign(cell.lid, cell.new);
            }
        }
        // Rows beyond a split keep what they had: nothing to compare there.
        if whole {
            let mut columns: Vec<Lid> = cells.iter().map(|c| c.lid).collect();
            columns.sort_unstable();
            columns.dedup();
            self.check(subnet, &columns, &[]);
            self.check_deps(subnet);
        }
    }

    /// Lends a full sweep a fresh mirror of its computed `tables`: routed on
    /// this topology epoch, no debts, no graph, an empty index. What was
    /// carried goes now, before the sweep's first SMP, so the sweep never
    /// holds two indexes or graphs.
    pub(crate) fn lend_fresh(&mut self, subnet: &Subnet, tables: RoutingTables) -> Mirror {
        self.state = State::Absent;
        Mirror {
            tables,
            index: ReverseRouteIndex::default(),
            deps: None,
            in_flight: false,
            routed_at: Some(subnet.topology_epoch()),
            debts: Vec::new(),
        }
    }

    /// Lends the mirrored state to a repair, if there is one.
    pub(crate) fn lend(&mut self) -> Option<Mirror> {
        match std::mem::take(&mut self.state) {
            State::Mirrored(m) => Some(m),
            other => {
                self.state = other;
                None
            }
        }
    }

    /// Takes back the mirror a sweep of `faults` borrowed.
    pub(crate) fn settle(&mut self, subnet: &Subnet, mirror: Mirror, faults: &[(NodeId, PortNum)]) {
        self.state = if mirror.in_flight {
            State::Diverged(mirror.tables)
        } else {
            State::Mirrored(mirror)
        };
        self.check(subnet, &[], faults);
    }

    /// `subnet`'s switch graph, built at most once per topology epoch, and
    /// whether it was already cached.
    pub(crate) fn switch_graph(&mut self, subnet: &Subnet) -> IbResult<(&SwitchGraph, bool)> {
        let epoch = subnet.topology_epoch();
        let (graph, cached) = match self.graph.take() {
            Some((cached, graph)) if cached == epoch => (graph, true),
            stale => {
                drop(stale);
                (SwitchGraph::build(subnet)?, false)
            }
        };
        Ok((&self.graph.insert((epoch, graph)).1, cached))
    }

    /// The debug check of a graph kept across a migration: it equals the
    /// graph rebuilt from the installed rows, as a gate's patch must.
    fn check_deps(&self, subnet: &Subnet) {
        let Some(m) = self.mirror().filter(|_| cfg!(debug_assertions)) else {
            return;
        };
        if let Some(deps) = &m.deps {
            debug_assert!(
                (FabricVerifier::new().channel_deps(subnet, &m.tables.vls))
                    .is_ok_and(|fresh| fresh == *deps),
                "kept channel dependencies diverged from the installed rows"
            );
        }
    }

    /// The debug check over what a writer moved: at `ports` the index
    /// equals the two-row scan; over `columns` the baseline, padded as
    /// distribution sends it, equals the installed rows.
    fn check(&self, subnet: &Subnet, columns: &[Lid], ports: &[(NodeId, PortNum)]) {
        let Some(m) = self.mirror().filter(|_| cfg!(debug_assertions)) else {
            return;
        };
        for &(node, port) in ports {
            debug_assert_eq!(
                m.affected(subnet, node, port),
                ib_verify::affected_destinations(subnet, node, port),
                "reverse route index diverged from the two-row scan at ({node:?}, {port})"
            );
        }
        let topmost = subnet.topmost_lid();
        let padding = |lid| {
            topmost
                .is_some_and(|top| lid <= top)
                .then_some(PortNum::DROP)
        };
        let stale = m.tables.lfts.iter().find_map(|(&sw, lft)| {
            let installed = subnet.lft(sw)?;
            let stale = |&lid: &Lid| lft.get(lid).or(padding(lid)) != installed.get(lid);
            columns.iter().find(|lid| stale(lid)).map(|&lid| (sw, lid))
        });
        debug_assert_eq!(stale, None, "baseline cell differs from the installed row");
    }
}
