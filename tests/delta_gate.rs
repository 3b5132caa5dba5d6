//! The repair gate against the full audit, as a property over the five
//! routing engines on a two-level tree, a three-level tree and (for the
//! deadlock-free topology-agnostic engines) a wrapped torus, with the
//! deadlock check on.
//!
//! The gate (`FabricVerifier::verify_moved`) walks only from the installed
//! cells a repair's SMPs moved and patches the channel dependency graph the
//! SM carries; the full audit walks every cell and rebuilds the graph. On
//! seeded single faults, two-fault batches, serial repairs of all-down
//! bursts and two injections, every gated repair must satisfy:
//!
//! 1. a full audit that is clean after the repair ⟹ the gate accepted it
//!    (checked on a replayed twin left exactly as the repair installed it);
//! 2. the gate accepted it ⟹ every violation of the full audit after it
//!    was already reported before its SMPs were sent;
//! 3. the carried graph equals one rebuilt from the installed rows, after
//!    every step;
//! 4. a stale baseline cell inside a block the repair sends is rejected,
//!    while an installed cell corrupted outside every sent block is
//!    accepted and still reported by the full audit.
//!
//! Min-Hop on the torus is left out: its tables are cyclic by design, so a
//! verifying SM refuses them at bring-up.

use std::collections::HashSet;

use ib_mad::{Smp, SmpChannel, SmpStatus, SmpTransport};
use ib_observe::Observer;
use ib_routing::{CellChange, EngineKind};
use ib_sm::{ResweepReport, SmConfig, SubnetManager, Trap};
use ib_subnet::topology::fattree::{three_level, two_level};
use ib_subnet::topology::torus::torus_2d;
use ib_subnet::topology::BuiltTopology;
use ib_subnet::{Lft, NodeId, Subnet};
use ib_types::{IbResult, Lid, PortNum};
use ib_verify::{FabricVerifier, InvariantClass, VerifyReport, Violation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One replayable step of a schedule.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A link goes down; its trap is answered by a later event.
    Down(NodeId, PortNum),
    /// A downed link comes back; its trap is answered by a later event.
    Up(NodeId, PortNum),
    /// The link-state trap of one link is answered.
    Trap(NodeId, PortNum),
    /// Two downed links are repaired in one batched sweep.
    Batch([(NodeId, PortNum); 2]),
    /// The SM is told a cell now drops its LID, and the switch is then
    /// quietly put back: the repair baseline holds a drop nothing installed.
    StaleBaseline(NodeId, Lid),
    /// An installed cell becomes an explicit drop behind the SM's back.
    Corrupt(NodeId, Lid),
}

/// Delivers as many SMPs as it holds, then loses everything: a
/// repair's own blocks land and the fallback sweep's stay stranded, so the
/// fabric is left exactly as the repair installed it.
struct Budget(usize);

impl SmpChannel for Budget {
    fn attempt(&mut self, _smp: &Smp, _hops: usize) -> SmpStatus {
        if self.0 == 0 {
            return SmpStatus::Dropped { hop: 0 };
        }
        self.0 -= 1;
        SmpStatus::Delivered
    }
}

#[derive(Clone, Copy)]
struct Case {
    engine: EngineKind,
    build: fn() -> BuiltTopology,
}

impl Case {
    fn tag(&self) -> String {
        format!("{} on {}", self.engine.name(), (self.build)().name)
    }

    fn bring_up(&self) -> (BuiltTopology, SubnetManager) {
        let mut t = (self.build)();
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                engine: self.engine,
                repair: true,
                verify: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(Observer::metrics());
        sm.bring_up(&mut t.subnet).expect("verified bring-up");
        (t, sm)
    }

    /// A fresh fabric taken through `events`.
    fn replay(&self, events: &[Event]) -> (BuiltTopology, SubnetManager) {
        let (mut t, mut sm) = self.bring_up();
        let mut transport = SmpTransport::perfect(sm.sm_node);
        for &e in events {
            apply(e, &mut t, &mut sm, &mut transport).expect("replayed step");
        }
        (t, sm)
    }
}

fn apply<C: SmpChannel>(
    event: Event,
    t: &mut BuiltTopology,
    sm: &mut SubnetManager,
    transport: &mut SmpTransport<C>,
) -> IbResult<Option<ResweepReport>> {
    let subnet = &mut t.subnet;
    match event {
        Event::Down(node, port) => subnet.set_link_down(node, port)?,
        Event::Up(node, port) => subnet.set_link_up(node, port)?,
        Event::Trap(node, port) => {
            let trap = Trap::LinkStateChange { node, port };
            return sm.handle_trap(subnet, trap, transport).map(Some);
        }
        Event::Batch(faults) => return sm.repair_sweep_batch(subnet, &faults, transport).map(Some),
        Event::StaleBaseline(switch, lid) => {
            let good = subnet.lft(switch).and_then(|l| l.get(lid));
            subnet.lft_mut(switch).expect("LFT").set(lid, PortNum::DROP);
            let told = CellChange {
                switch,
                lid,
                old: good,
                new: Some(PortNum::DROP),
            };
            sm.note_cells_changed(subnet, &[told], None);
            subnet.lft_mut(switch).expect("LFT").assign(lid, good);
        }
        Event::Corrupt(switch, lid) => subnet.lft_mut(switch).expect("LFT").set(lid, PortNum::DROP),
    }
    Ok(None)
}

/// The full audit, as the SM's own would run it.
fn audit(t: &BuiltTopology, sm: &SubnetManager) -> VerifyReport {
    FabricVerifier::new()
        .with_viewpoint(sm.sm_node)
        .verify_with_vls(&t.subnet, sm.installed_vls().expect("tables"))
        .expect("audit")
}

/// What property 2 compares: violations by equality, cycles by lane.
fn finding(v: &Violation) -> String {
    match v.class {
        InvariantClass::DeadlockCycle => v.detail.split(' ').next().unwrap_or("").to_string(),
        _ => v.to_string(),
    }
}

/// Every switch-to-switch cable, from its lower-indexed end.
fn cables(subnet: &Subnet) -> Vec<(NodeId, PortNum)> {
    let mut out = Vec::new();
    for sw in subnet.switches() {
        for (port, remote) in sw.cabled_ports() {
            if subnet.node(remote.node).is_switch() && sw.id.index() < remote.node.index() {
                out.push((sw.id, port));
            }
        }
    }
    out
}

/// Whether every switch still reaches every other over live cables.
fn connected(subnet: &Subnet) -> bool {
    let switches: Vec<NodeId> = subnet.switches().map(|n| n.id).collect();
    let mut reached = HashSet::from([switches[0]]);
    let mut frontier = vec![switches[0]];
    while let Some(cur) = frontier.pop() {
        for (_, remote) in subnet.node(cur).connected_ports() {
            if subnet.node(remote.node).is_switch() && reached.insert(remote.node) {
                frontier.push(remote.node);
            }
        }
    }
    reached.len() == switches.len()
}

/// A live cable whose loss keeps the switches connected, if any.
fn pick_fault(subnet: &mut Subnet, rng: &mut StdRng) -> Option<(NodeId, PortNum)> {
    let mut safe = Vec::new();
    for (node, port) in cables(subnet) {
        if subnet.is_link_up(node, port) {
            subnet.set_link_down(node, port).expect("down");
            if connected(subnet) {
                safe.push((node, port));
            }
            subnet.set_link_up(node, port).expect("up");
        }
    }
    (!safe.is_empty()).then(|| safe[rng.gen_range(0..safe.len())])
}

fn installed(subnet: &Subnet) -> Vec<(NodeId, Lft)> {
    subnet
        .switches()
        .map(|n| (n.id, n.lft().cloned().unwrap_or_default()))
        .collect()
}

/// The cells whose installed value differs between two snapshots.
fn diff(before: &[(NodeId, Lft)], after: &[(NodeId, Lft)]) -> Vec<(NodeId, Lid)> {
    let mut out = Vec::new();
    for ((sw, a), (_, b)) in before.iter().zip(after) {
        for raw in 1..a.entries().len().max(b.entries().len()) {
            let lid = Lid::from_raw(raw as u16);
            if a.get(lid) != b.get(lid) {
                out.push((*sw, lid));
            }
        }
    }
    out
}

/// One case's run: the schedule it played and what it observed.
struct Run {
    case: Case,
    events: Vec<Event>,
    t: BuiltTopology,
    sm: SubnetManager,
    accepted: u64,
    rejected: u64,
}

impl Run {
    fn new(case: Case) -> Self {
        let (t, sm) = case.bring_up();
        Self {
            case,
            events: Vec::new(),
            t,
            sm,
            accepted: 0,
            rejected: 0,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.sm
            .observer()
            .snapshot()
            .expect("metrics")
            .counter(name)
    }

    /// Plays one event and checks properties 1–3 around it. Returns
    /// whether a gate ran and accepted, or the SM's error.
    fn step(&mut self, event: Event) -> IbResult<Option<bool>> {
        let tag = format!("{} event {} {event:?}", self.case.tag(), self.events.len());
        let gated = matches!(event, Event::Trap(..) | Event::Batch(_));
        let before = gated.then(|| audit(&self.t, &self.sm));
        let (success, rejected) = (
            self.counter("repair.success"),
            self.counter("repair.verify_rejected"),
        );
        let lft_smps = self.sm.ledger.lft_updates();
        let mut transport = SmpTransport::perfect(self.sm.sm_node);
        let report = apply(event, &mut self.t, &mut self.sm, &mut transport)?;
        self.events.push(event);

        let outcome = if self.counter("repair.success") > success {
            // Property 2: nothing the full audit now reports is new.
            let before: HashSet<String> = before
                .expect("gated")
                .violations
                .iter()
                .map(finding)
                .collect();
            for v in &audit(&self.t, &self.sm).violations {
                assert!(before.contains(&finding(v)), "{tag}: accepted, yet {v}");
            }
            self.accepted += 1;
            Some(true)
        } else if self.counter("repair.verify_rejected") > rejected {
            // Property 1: the repair's own installed state is not clean.
            let sent = self.sm.ledger.lft_updates()
                - lft_smps
                - report.expect("gated").distribution.lft_smps;
            let (mut twin, mut twin_sm) = self.case.replay(&self.events[..self.events.len() - 1]);
            let mut budget = SmpTransport::with_channel(twin_sm.sm_node, Budget(sent));
            apply(event, &mut twin, &mut twin_sm, &mut budget).expect("twin step");
            let verdict = FabricVerifier::new()
                .with_viewpoint(twin_sm.sm_node)
                .verify_with_vls(&twin.subnet, self.sm.installed_vls().expect("tables"))
                .expect("audit");
            assert!(!verdict.is_clean(), "{tag}: rejected a clean repair");
            self.rejected += 1;
            Some(false)
        } else {
            None
        };

        // Property 3: once the SM has answered, the carried graph mirrors
        // the installed rows (a link that just moved is the next trap's).
        let answered = !matches!(event, Event::Down(..) | Event::Up(..));
        if let Some(deps) = self.sm.channel_deps().filter(|_| answered) {
            let vls = self.sm.installed_vls().expect("tables");
            let fresh = FabricVerifier::new()
                .channel_deps(&self.t.subnet, vls)
                .expect("rebuild");
            assert!(
                *deps == fresh,
                "{tag}: carried {deps:?}, installed {fresh:?}"
            );
        }
        Ok(outcome)
    }

    /// [`Self::step`] on a fabric whose sweeps cannot fail.
    fn play(&mut self, event: Event) -> Option<bool> {
        self.step(event).expect("step on a healthy fabric")
    }

    /// Downs one fault (`shape` 0) or two (connectivity-preserving),
    /// answers them one trap at a time or (`shape` 1) in one batch, then
    /// heals them one trap at a time.
    fn faults(&mut self, rng: &mut StdRng, shape: usize) -> IbResult<()> {
        let mut down = Vec::new();
        for _ in 0..if shape == 0 { 1 } else { 2 } {
            let Some(fault) = pick_fault(&mut self.t.subnet, rng) else {
                break;
            };
            self.step(Event::Down(fault.0, fault.1))?;
            down.push(fault);
        }
        match (shape, down.as_slice()) {
            (1, &[a, b]) => {
                self.step(Event::Batch([a, b]))?;
            }
            _ => {
                for &(node, port) in &down {
                    self.step(Event::Trap(node, port))?;
                }
            }
        }
        for (node, port) in down {
            self.step(Event::Up(node, port))?;
            self.step(Event::Trap(node, port))?;
        }
        Ok(())
    }

    /// Injection 1: a drop in the baseline at a cell of the fault's own
    /// switch, in a block the repair re-sends but a column it does not
    /// re-route. Returns whether the gate rejected it, or `None` when the
    /// fabric offered no such cell.
    fn stale_baseline(&mut self, rng: &mut StdRng) -> Option<bool> {
        let (node, port) = pick_fault(&mut self.t.subnet, rng)?;
        let dirty = self
            .sm
            .route_index()
            .expect("index")
            .affected(&self.t.subnet, node, port);
        let lft = self.t.subnet.lft(node)?;
        let sent: HashSet<usize> = dirty
            .iter()
            .filter(|&&lid| lft.get(lid) == Some(port))
            .map(|lid| lid.lft_block())
            .collect();
        let victim = self.t.subnet.lids().into_iter().find(|lid| {
            let entry = lft.get(*lid);
            !dirty.contains(lid)
                && sent.contains(&lid.lft_block())
                && entry.is_some_and(|p| !p.is_management() && !p.is_drop())
        })?;
        self.play(Event::StaleBaseline(node, victim));
        self.play(Event::Down(node, port));
        let verdict = self.play(Event::Trap(node, port));
        self.play(Event::Up(node, port));
        self.play(Event::Trap(node, port));
        Some(verdict == Some(false))
    }

    /// Injection 2: a delivery cell dropped behind the SM's back on a
    /// (switch, block) the next repair leaves alone and in a column it
    /// does not move — found on a replayed twin. Returns whether the gate
    /// accepted the repair with the corruption still reported after it,
    /// or `None` when the fabric offered no such cell.
    fn corrupt_outside(&mut self, rng: &mut StdRng) -> Option<bool> {
        let (node, port) = pick_fault(&mut self.t.subnet, rng)?;
        let (mut twin, mut twin_sm) = self.case.replay(&self.events);
        let before = installed(&twin.subnet);
        let mut transport = SmpTransport::perfect(twin_sm.sm_node);
        for e in [Event::Down(node, port), Event::Trap(node, port)] {
            apply(e, &mut twin, &mut twin_sm, &mut transport).expect("twin step");
        }
        let moved = diff(&before, &installed(&twin.subnet));
        let columns: HashSet<Lid> = moved.iter().map(|&(_, lid)| lid).collect();
        let blocks: HashSet<(NodeId, usize)> = moved
            .iter()
            .map(|&(sw, lid)| (sw, lid.lft_block()))
            .collect();
        let (leaf, victim) = self.t.hosts.iter().find_map(|&h| {
            let lid = self.t.subnet.node(h).ports[1].lid?;
            let leaf = self.t.subnet.neighbor(h, PortNum::new(1))?.node;
            (!columns.contains(&lid) && !blocks.contains(&(leaf, lid.lft_block())))
                .then_some((leaf, lid))
        })?;
        self.play(Event::Corrupt(leaf, victim));
        self.play(Event::Down(node, port));
        let accepted = self.play(Event::Trap(node, port)) == Some(true);
        let name = self.t.subnet.name_of(leaf);
        let reported = audit(&self.t, &self.sm).violations.iter().any(|v| {
            v.class == InvariantClass::BlackHole
                && v.detail == format!("LID {victim} at {name}: row is an explicit drop")
        });
        self.play(Event::Up(node, port));
        self.play(Event::Trap(node, port));
        Some(accepted && reported)
    }
}

#[test]
fn the_repair_gate_agrees_with_the_full_audit() {
    let fabrics: [fn() -> BuiltTopology; 3] = [
        || two_level(3, 3, 2),
        || three_level(4, 4, 4, 4),
        || torus_2d(4, 4, 1, true),
    ];
    let (mut patched, mut outside) = (0, 0);
    for (f, &build) in fabrics.iter().enumerate() {
        for (e, engine) in EngineKind::all().into_iter().enumerate() {
            let torus = f == 2;
            if torus && matches!(engine, EngineKind::FatTree | EngineKind::MinHop) {
                continue; // Not a tree / cyclic by design (module docs).
            }
            let case = Case { engine, build };
            let mut rng = StdRng::seed_from_u64(0xDE17A + 8 * f as u64 + e as u64);
            let mut run = Run::new(case);
            let tag = case.tag();
            let rejected = run
                .stale_baseline(&mut rng)
                .expect("a stale-baseline victim");
            assert!(rejected, "{tag}: a stale baseline cell passed the gate");
            // Not every fabric has one: the two-level tree's LIDs share one
            // LFT block that every leaf re-sends after any uplink fault.
            if let Some(ok) = run.corrupt_outside(&mut rng) {
                assert!(ok, "{tag}: outside corruption rejected or unreported");
                outside += 1;
            }
            for _ in 0..4 {
                let shape = rng.gen_range(0..3);
                if let Err(e) = run.faults(&mut rng, shape) {
                    // With two cables down, a full sweep's own audit can
                    // refuse the fat-tree and Min-Hop engines' tables (a
                    // known engine limit, independent of the gate): the
                    // schedule ends there.
                    let refused = e.to_string().contains("[deadlock-cycle]");
                    assert!(
                        refused && matches!(engine, EngineKind::FatTree | EngineKind::MinHop),
                        "{tag}: {e}"
                    );
                    eprintln!("{tag}: schedule ended by a refused full sweep: {e}");
                    break;
                }
            }
            assert!(run.accepted > 0, "{tag}: no repair passed the gate");
            patched += run.counter("verify.cdg_patched_cells");
            eprintln!(
                "{tag}: {} gates accepted, {} rejected, {} events, {} cells patched",
                run.accepted,
                run.rejected,
                run.events.len(),
                run.counter("verify.cdg_patched_cells"),
            );
        }
    }
    assert!(patched > 0, "no gate patched a carried graph");
    assert!(
        outside >= 4,
        "only {outside} outside corruptions found a victim"
    );
}
