//! Trap intake: what reaches the SM, and which sweep answers it.
//!
//! IBA switches report port-state changes to the SM with unsolicited trap
//! MADs (traps 128/129-131). Intake decides whether a trap can have reached
//! the master at all (a split fabric absorbs the far side's), feeds link
//! events to flap damping ([`crate::LinkQuarantine`]), and answers what is
//! left at once: with the full re-sweeps of [`crate::resweep`] or the
//! incremental pipeline of [`crate::repair`]. A driver that holds a burst
//! of link-downs answers it with one [`SubnetManager::repair_sweep_batch`].

use ib_mad::fault::{SmpChannel, SmpTransport};
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, PortNum};

pub use crate::resweep::{ResweepReport, SweepKind};
use crate::sm::SubnetManager;

/// An unsolicited event notice delivered to the SM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// A port changed state (IBA trap 128): link went down or came up.
    LinkStateChange {
        /// Reporting node.
        node: NodeId,
        /// Port whose state changed.
        port: PortNum,
    },
    /// A switch stopped responding entirely (modeled as the neighbor traps
    /// OpenSM aggregates when a crossbar dies).
    SwitchDeath {
        /// The dead switch.
        node: NodeId,
    },
}

impl SubnetManager {
    /// Reacts to a trap: link-state changes get a light sweep (escalating
    /// if the known topology no longer routes) or, with
    /// [`crate::SmConfig::repair`], the incremental repair pipeline — for
    /// a link coming back, the heal that undoes its repair; a switch death
    /// goes straight to a heavy sweep.
    pub fn handle_trap<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        trap: Trap,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        if !self.admit_trap(subnet, &trap) {
            return Ok(ResweepReport::idle(SweepKind::Light));
        }
        self.answer_trap(subnet, trap, transport)
    }

    /// Time-aware trap handling, always with flap damping (untimed
    /// [`Self::handle_trap`] never damps): link state-change traps are
    /// first fed to the [`crate::LinkQuarantine`]. A trap on a link
    /// already inside its hold-down window is absorbed without a re-sweep
    /// (the damper re-asserts the administrative down state) — unless
    /// installed rows still forward across the held link, which only a
    /// sweep can fix (`quarantine.held_rerouted`); every other trap
    /// proceeds to the usual sweep over the — possibly just-quarantined —
    /// topology.
    pub fn handle_trap_at<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        trap: Trap,
        transport: &mut SmpTransport<C>,
        now_ns: u64,
    ) -> IbResult<ResweepReport> {
        if !self.admit_trap(subnet, &trap) {
            return Ok(ResweepReport::idle(SweepKind::Light));
        }
        if let Trap::LinkStateChange { node, port } = trap {
            let was_held = self.quarantine.is_quarantined(subnet, node, port, now_ns);
            let refusals_before = self.quarantine.bridge_refusals();
            let absorbed = self
                .quarantine
                .note_link_event(subnet, node, port, now_ns)?;
            let observer = self.ledger.observer();
            observer.incr("quarantine.events");
            observer.add(
                "quarantine.bridge_refused",
                self.quarantine.bridge_refusals() - refusals_before,
            );
            // Absorbing assumes nothing routes over the held link. A
            // sweep that ran while it was physically up (a heal raises
            // several cables, the first one's trap sweeps) installed
            // rows across it, and the damper just re-downed it under
            // them: that trap needs its sweep after all.
            if absorbed && self.held_link_strands_routes(subnet, node, port) {
                observer.incr("quarantine.held_rerouted");
            } else if absorbed {
                observer.incr("quarantine.absorbed");
                return Ok(ResweepReport::idle(SweepKind::Light));
            }
            if !was_held && self.quarantine.is_quarantined(subnet, node, port, now_ns) {
                observer.incr("quarantine.entered");
            }
        }
        self.answer_trap(subnet, trap, transport)
    }

    /// Whether the cable at `(node, port)` is down while a switch the SM
    /// serves still forwards some registered LID into it — the two-row
    /// scan of [`ib_verify::affected_destinations`], minus rows stranded
    /// beyond a split (no sweep can reach those; the heal rewrites them).
    fn held_link_strands_routes(&self, subnet: &Subnet, node: NodeId, port: PortNum) -> bool {
        if subnet.neighbor(node, port).is_some() {
            return false;
        }
        let far = subnet.cabled_neighbor(node, port).map(|r| (r.node, r.port));
        let lids = subnet.lids();
        [Some((node, port)), far]
            .into_iter()
            .flatten()
            .any(|(n, p)| {
                !self.lost_nodes.contains(&n)
                    && subnet
                        .lft(n)
                        .is_some_and(|lft| lids.iter().any(|&lid| lft.get(lid) == Some(p)))
            })
    }

    /// Counts the trap (`trap.received`, exactly once per trap) and decides
    /// whether the current split physically lets it reach the SM: `false`
    /// when its reporter sits beyond the cut and — for a link coming *up* —
    /// so does the far end (`sm.trap_absorbed_lost`). A boundary link-up is
    /// the heal signal and must get through (its MAD can cross the freshly
    /// risen link); everything else from a lost component is absorbed,
    /// exactly as a real master never sees MADs from switches it cannot
    /// route to.
    fn admit_trap(&self, subnet: &Subnet, trap: &Trap) -> bool {
        let observer = self.ledger.observer();
        observer.incr("trap.received");
        let lost = |node| self.lost_nodes.contains(&node);
        let beyond_split = match *trap {
            Trap::LinkStateChange { node, port } => {
                lost(node) && subnet.neighbor(node, port).is_none_or(|r| lost(r.node))
            }
            Trap::SwitchDeath { node } => lost(node),
        };
        if beyond_split {
            observer.incr("sm.trap_absorbed_lost");
        }
        !beyond_split
    }

    /// Picks the sweep for an admitted trap.
    fn answer_trap<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        trap: Trap,
        transport: &mut SmpTransport<C>,
    ) -> IbResult<ResweepReport> {
        match trap {
            Trap::LinkStateChange { node, port } if self.config().repair => {
                self.ledger.observer().incr("repair.attempts");
                self.repair_faults(subnet, &[(node, port)], "resweep.repair", transport)
            }
            Trap::LinkStateChange { .. } => self.light_sweep(subnet, transport),
            Trap::SwitchDeath { node } => {
                if subnet.is_alive(node) {
                    subnet.remove_node(node)?;
                }
                self.heavy_sweep(subnet, transport)
            }
        }
    }

    /// Releases quarantined links whose hold-down expired by `now_ns` and,
    /// if any link came back up, runs a light sweep to fold them back into
    /// routing. Returns the number of links released.
    pub fn release_quarantined<C: SmpChannel>(
        &mut self,
        subnet: &mut Subnet,
        transport: &mut SmpTransport<C>,
        now_ns: u64,
    ) -> IbResult<usize> {
        let released = self.quarantine.release_expired(subnet, now_ns)?;
        if !released.is_empty() {
            self.ledger
                .observer()
                .add("quarantine.released", released.len() as u64);
            self.light_sweep(subnet, transport)?;
        }
        Ok(released.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sm::SmConfig;
    use crate::testutil::*;
    use ib_subnet::topology::fattree::two_level;

    /// A burst of link-downs is one repair: one engine fold, one
    /// distribution and one verifier pass answer both faults.
    #[test]
    fn coalesced_traps_batch_into_one_repair_sweep() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sm.sm_node);

        let faults: Vec<(NodeId, PortNum)> = [down_uplink(&mut t, 0, 0), down_uplink(&mut t, 1, 0)]
            .into_iter()
            .map(|trap| match trap {
                Trap::LinkStateChange { node, port } => (node, port),
                Trap::SwitchDeath { .. } => unreachable!(),
            })
            .collect();
        let report = sm
            .repair_sweep_batch(&mut t.subnet, &faults, &mut transport)
            .unwrap();
        assert_eq!(report.kind, SweepKind::Repair);
        assert!(report.failed_blocks.is_empty());
        assert!(report.distribution.lft_smps > 0);
        assert_all_pairs_connected(&t, &[]);
        t.subnet.validate_degraded().unwrap();
        assert!(sm.verify_route_index(&t.subnet).is_empty());

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("repair.batched"), 1);
        assert_eq!(snap.counter("repair.batch_size"), 2);
        assert_eq!(snap.counter("repair.fallback"), 0);
        assert_eq!(snap.counter("repair.index_hits"), 2);
        assert_eq!(snap.spans_named("resweep.batch").len(), 1);
        // One verifier pass for the whole burst.
        assert_eq!(snap.counter("verify.runs"), 1);
    }

    /// Satellite regression: traps absorbed inside a quarantine hold-down
    /// never reach repair accounting, so the fold-back sweep at release
    /// must rebuild the baseline and reverse index — a later fault would
    /// otherwise repair against a topology that still excludes the
    /// released link.
    #[test]
    fn quarantine_release_rebuilds_baseline_and_index() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sm.sm_node);

        // Flap L until the third event trips the quarantine.
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (port, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        let trap = Trap::LinkStateChange { node: leaf0, port };
        t.subnet.set_link_down(leaf0, port).unwrap();
        sm.handle_trap_at(&mut t.subnet, trap, &mut transport, 0)
            .unwrap();
        t.subnet.set_link_up(leaf0, port).unwrap();
        sm.handle_trap_at(&mut t.subnet, trap, &mut transport, 1)
            .unwrap();
        t.subnet.set_link_down(leaf0, port).unwrap();
        sm.handle_trap_at(&mut t.subnet, trap, &mut transport, 2)
            .unwrap();
        assert!(sm.quarantine.is_quarantined(&t.subnet, leaf0, port, 2));

        // A resurrection inside the hold-down is absorbed — dropped from
        // repair accounting entirely.
        t.subnet.set_link_up(leaf0, port).unwrap();
        sm.handle_trap_at(&mut t.subnet, trap, &mut transport, 3)
            .unwrap();
        assert!(!t.subnet.is_link_up(leaf0, port), "damper re-downed it");

        // Hold-down expires: the fold-back light sweep must leave the
        // baseline and index mirroring the full-topology tables.
        let release_at = 2 + crate::quarantine::BASE_HOLD_DOWN_NS + 1;
        let released = sm
            .release_quarantined(&mut t.subnet, &mut transport, release_at)
            .unwrap();
        assert_eq!(released, 1);
        assert!(t.subnet.is_link_up(leaf0, port));
        assert!(sm.verify_route_index(&t.subnet).is_empty());

        // A fresh fault elsewhere now repairs against the folded-back
        // state, byte-identical to a twin that never flapped.
        let trap_m = down_uplink(&mut t, 1, 0);
        let report = sm
            .handle_trap_at(&mut t.subnet, trap_m, &mut transport, release_at + 1)
            .unwrap();
        assert_eq!(report.kind, SweepKind::Repair);
        assert!(report.failed_blocks.is_empty());
        assert_all_pairs_connected(&t, &[]);
        assert!(sm.verify_route_index(&t.subnet).is_empty());

        let mut twin = two_level(3, 2, 2);
        let mut sm2 = SubnetManager::new(
            twin.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm2.bring_up(&mut twin.subnet).unwrap();
        let mut transport2 = SmpTransport::perfect(sm2.sm_node);
        let trap_m2 = down_uplink(&mut twin, 1, 0);
        sm2.handle_trap(&mut twin.subnet, trap_m2, &mut transport2)
            .unwrap();
        assert_eq!(
            sm.carried.baseline().unwrap().lfts,
            sm2.carried.baseline().unwrap().lfts
        );

        let snap = sm.observer().snapshot().unwrap();
        assert!(snap.counter("quarantine.absorbed") >= 1);
        assert_eq!(snap.counter("quarantine.released"), 1);
        assert_eq!(snap.counter("repair.fallback"), 0);
    }

    /// A trap the damper would absorb must still be swept when installed
    /// rows cross the link it just re-downed. A held cable comes back up
    /// (its trap still in flight), another trap's sweep folds it into the
    /// routes, then its own trap arrives: the damper re-asserts the
    /// hold-down under those routes, and absorbing the trap would leave
    /// them as black holes.
    #[test]
    fn absorbed_trap_on_a_link_the_routes_still_cross_is_swept() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sm.sm_node);

        // Hold leaf0 -> spine0 down: the third flap event trips the damper.
        let held = down_uplink(&mut t, 0, 0);
        let Trap::LinkStateChange { node, port } = held else {
            unreachable!()
        };
        for now in 0..3 {
            sm.handle_trap_at(&mut t.subnet, held, &mut transport, now)
                .unwrap();
        }
        assert!(sm.quarantine.is_quarantined(&t.subnet, node, port, 3));

        // The cable rises; before its trap lands, a trap about another
        // live link sweeps — and routes over the risen cable.
        t.subnet.set_link_up(node, port).unwrap();
        let leaf2 = t.switch_levels[0][2];
        let (other_port, _) = t.subnet.node(leaf2).connected_ports().next().unwrap();
        let other = Trap::LinkStateChange {
            node: leaf2,
            port: other_port,
        };
        sm.handle_trap_at(&mut t.subnet, other, &mut transport, 3)
            .unwrap();
        assert!(!ib_verify::affected_destinations(&t.subnet, node, port).is_empty());

        // Its own trap: still inside the hold-down, so the damper re-downs
        // the link — and the SM must route around it again.
        let report = sm
            .handle_trap_at(&mut t.subnet, held, &mut transport, 4)
            .unwrap();
        assert!(!t.subnet.is_link_up(node, port), "damper re-downed it");
        assert!(report.distribution.lft_smps > 0, "the trap was swept");
        let verdict = ib_verify::FabricVerifier::new()
            .with_deadlock(false)
            .verify(&t.subnet)
            .unwrap();
        assert!(verdict.is_clean(), "{verdict}");
        assert!(sm.quarantine.verify_absent(&t.subnet, 4).is_empty());
        assert_all_pairs_connected(&t, &[]);

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("quarantine.held_rerouted"), 1);
        assert_eq!(snap.counter("quarantine.absorbed"), 0);
    }

    /// One trap of each intake fate through `handle_trap_at` — absorbed by
    /// flap damping, swept, and lost beyond a split — is counted
    /// `trap.received` exactly once, and only its own fate's counter moves.
    #[test]
    fn each_intake_fate_counts_its_trap_exactly_once() {
        let mut t = two_level(3, 2, 2);
        let mut sm = SubnetManager::new(
            t.hosts[0],
            SmConfig {
                repair: true,
                ..SmConfig::default()
            },
        );
        sm.set_observer(ib_observe::Observer::metrics());
        sm.bring_up(&mut t.subnet).unwrap();
        let mut transport = SmpTransport::perfect(sm.sm_node);
        let flaps = crate::quarantine::FLAP_THRESHOLD;

        // Quarantined: the damper already holds leaf0 -> spine0 down (fed
        // directly, so no trap was involved) and the routes already avoid
        // it; a trap inside the hold-down is absorbed.
        let held = down_uplink(&mut t, 0, 0);
        let Trap::LinkStateChange { node, port } = held else {
            unreachable!()
        };
        for now in 0..u64::from(flaps) {
            sm.quarantine
                .note_link_event(&mut t.subnet, node, port, now)
                .unwrap();
        }
        sm.light_sweep(&mut t.subnet, &mut transport).unwrap();
        let now = u64::from(flaps);
        let report = sm
            .handle_trap_at(&mut t.subnet, held, &mut transport, now)
            .unwrap();
        assert_eq!(report, ResweepReport::idle(SweepKind::Light));

        // Swept: a trap about a live link is an up event with no heal debt,
        // answered by a light sweep — which also routes around a fault
        // whose own trap is still in flight.
        down_uplink(&mut t, 1, 0);
        let leaf2 = t.switch_levels[0][2];
        let (up_port, _) = t.subnet.node(leaf2).connected_ports().next().unwrap();
        let up = Trap::LinkStateChange {
            node: leaf2,
            port: up_port,
        };
        let report = sm
            .handle_trap_at(&mut t.subnet, up, &mut transport, now)
            .unwrap();
        assert_eq!(report.kind, SweepKind::Light);
        assert!(report.distribution.lft_smps > 0);

        // Lost: leaf 2 falls beyond a split; its trap cannot reach the SM.
        let uplinks = isolate_leaf(&mut t, 2);
        sm.light_sweep(&mut t.subnet, &mut transport).unwrap();
        assert!(sm.is_degraded());
        let lost = Trap::LinkStateChange {
            node: leaf2,
            port: uplinks[0],
        };
        let report = sm
            .handle_trap_at(&mut t.subnet, lost, &mut transport, now)
            .unwrap();
        assert_eq!(report, ResweepReport::idle(SweepKind::Light));

        let snap = sm.observer().snapshot().unwrap();
        assert_eq!(snap.counter("trap.received"), 3);
        assert_eq!(snap.counter("quarantine.absorbed"), 1);
        assert_eq!(snap.counter("sm.trap_absorbed_lost"), 1);
        // The lost trap never reached the damper; the other two did.
        assert_eq!(snap.counter("quarantine.events"), 2);
        assert_eq!(snap.counter("quarantine.held_rerouted"), 0);
        // The fixture's own sweep, the swept trap, the split's sweep.
        assert_eq!(snap.counter("resweep.light"), 3);
    }
}
