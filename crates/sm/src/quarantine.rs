//! Link quarantine with flap damping.
//!
//! A link that bounces (down/up/down/up …) would otherwise drag the SM
//! through a full re-sweep per transition and thrash the fabric's routes
//! each time. Borrowing BGP route-flap damping, the SM instead keeps a
//! per-link penalty counter: every state-change trap on a link adds a
//! penalty, and when the penalty reaches three the link is **quarantined**
//! — administratively held down for an exponentially growing hold-down
//! window (1 s doubling per strike, capped at 64 s), regardless of what
//! the physical layer reports. Because the routing engines only route over
//! *up* links, a quarantined link is naturally absent from every LFT the
//! SM installs until its hold-down expires and the link is released back
//! into the topology.

use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, PortNum};
use rustc_hash::FxHashMap;

/// State-change events on one link that trigger a quarantine.
pub(crate) const FLAP_THRESHOLD: u32 = 3;
/// Hold-down of a link's first quarantine, in nanoseconds (1 s).
pub(crate) const BASE_HOLD_DOWN_NS: u64 = 1_000_000_000;
/// Ceiling on the exponentially growing hold-down (64 s).
const MAX_HOLD_DOWN_NS: u64 = 64_000_000_000;

/// The hold-down for the `strikes`-th quarantine (1-based):
/// `BASE_HOLD_DOWN_NS << (strikes - 1)`, saturating at `MAX_HOLD_DOWN_NS`.
fn hold_down_for(strikes: u32) -> u64 {
    let shift = strikes.saturating_sub(1);
    // A shift that would drop set bits has already passed the cap.
    if shift >= BASE_HOLD_DOWN_NS.leading_zeros() {
        return MAX_HOLD_DOWN_NS;
    }
    (BASE_HOLD_DOWN_NS << shift).min(MAX_HOLD_DOWN_NS)
}

/// Damping state of one link.
#[derive(Clone, Copy, Debug, Default)]
struct LinkRecord {
    /// State-change events since the last quarantine (or ever).
    penalty: u32,
    /// Times this link has been quarantined; drives the exponential
    /// hold-down. Never decays — a chronically flapping link earns longer
    /// and longer time-outs.
    strikes: u32,
    /// Absolute release time of the active quarantine, if any.
    held_until: Option<u64>,
    /// Whether the quarantine forced the link down (and must bring it back
    /// up on release). False when the link was already physically down.
    admin_down: bool,
}

/// Per-link flap damping state for a whole fabric, keyed by the canonical
/// (lower) end of each cable.
#[derive(Clone, Debug, Default)]
pub struct LinkQuarantine {
    links: FxHashMap<(NodeId, PortNum), LinkRecord>,
    /// Times the bridge guard blocked an admin-down that would have split
    /// the fabric (see [`Self::bridge_refusals`]).
    bridge_refusals: u64,
}

impl LinkQuarantine {
    /// Canonical key of the cable behind `(node, port)`: the end with the
    /// smaller (node index, port) pair, so both ends' traps hit one record.
    fn canonical(subnet: &Subnet, node: NodeId, port: PortNum) -> (NodeId, PortNum) {
        match subnet.cabled_neighbor(node, port) {
            Some(remote)
                if (remote.node.index(), remote.port.raw()) < (node.index(), port.raw()) =>
            {
                (remote.node, remote.port)
            }
            _ => (node, port),
        }
    }

    /// Whether the link behind `(node, port)` is inside a hold-down window
    /// at `now_ns`.
    #[must_use]
    pub fn is_quarantined(
        &self,
        subnet: &Subnet,
        node: NodeId,
        port: PortNum,
        now_ns: u64,
    ) -> bool {
        let key = Self::canonical(subnet, node, port);
        self.links
            .get(&key)
            .and_then(|r| r.held_until)
            .is_some_and(|until| until > now_ns)
    }

    /// Feeds one link state-change event into the damper.
    ///
    /// Returns `true` when the event is **absorbed** — the link is (or just
    /// became) quarantined, the damper has re-asserted the administrative
    /// down state, and the caller should *not* run a re-sweep for this
    /// trap. Returns `false` when the event should be handled normally.
    ///
    /// The damper never partitions the fabric itself: before administering
    /// a down it checks whether the cable is a *bridge* of the switch
    /// graph, and on a bridge it refuses — skipping the quarantine at
    /// threshold-crossing, or early-releasing an active hold-down whose
    /// link just resurrected (re-downing it would undo a heal). Refusals
    /// are counted in [`Self::bridge_refusals`]; a chronically flapping
    /// bridge is simply paid for with re-sweeps, which is cheaper than a
    /// self-inflicted split.
    pub fn note_link_event(
        &mut self,
        subnet: &mut Subnet,
        node: NodeId,
        port: PortNum,
        now_ns: u64,
    ) -> IbResult<bool> {
        let key = Self::canonical(subnet, node, port);
        let mut rec = self.links.get(&key).copied().unwrap_or_default();
        rec.penalty += 1;

        let in_hold_down = rec.held_until.is_some_and(|until| until > now_ns);
        if in_hold_down {
            // A resurrection inside the window: push the link back down and
            // keep absorbing until the hold-down expires — unless the link
            // came back as the only path between two components, in which
            // case the hold-down is released early instead of re-splitting
            // the fabric.
            if subnet.is_link_up(key.0, key.1) {
                if Self::downing_would_split(subnet, key) {
                    self.bridge_refusals += 1;
                    rec.held_until = None;
                    rec.admin_down = false;
                    self.links.insert(key, rec);
                    return Ok(false);
                }
                subnet.set_link_down(key.0, key.1)?;
                rec.admin_down = true;
            }
            self.links.insert(key, rec);
            return Ok(true);
        }

        if rec.penalty >= FLAP_THRESHOLD {
            if subnet.is_link_up(key.0, key.1) {
                if Self::downing_would_split(subnet, key) {
                    // Refuse the quarantine outright: taking this link down
                    // would strand everything behind it. The penalty resets
                    // so the next flap burst re-evaluates from scratch.
                    self.bridge_refusals += 1;
                    rec.penalty = 0;
                    self.links.insert(key, rec);
                    return Ok(false);
                }
                subnet.set_link_down(key.0, key.1)?;
                rec.admin_down = true;
            }
            rec.strikes += 1;
            rec.penalty = 0;
            rec.held_until = Some(now_ns + hold_down_for(rec.strikes));
            self.links.insert(key, rec);
            // Absorbed as far as damping goes, but the topology just
            // changed (the link went administratively down), so the caller
            // must still re-sweep once to route around the quarantine.
            return Ok(false);
        }

        self.links.insert(key, rec);
        Ok(false)
    }

    /// Whether administratively downing the (currently live) cable at
    /// `key` would split the switch fabric: both ends are switches and the
    /// cable is a bridge of the current switch graph. Host uplinks and
    /// graphs that cannot be built are never refused — the guard only
    /// blocks provable self-inflicted splits.
    fn downing_would_split(subnet: &Subnet, key: (NodeId, PortNum)) -> bool {
        let Some(remote) = subnet.cabled_neighbor(key.0, key.1) else {
            return false;
        };
        if !subnet.node(key.0).is_switch() || !subnet.node(remote.node).is_switch() {
            return false;
        }
        let Ok(graph) = ib_routing::SwitchGraph::build(subnet) else {
            return false;
        };
        let (Some(a), Some(b)) = (graph.index(key.0), graph.index(remote.node)) else {
            return false;
        };
        graph
            .bridges()
            .iter()
            .any(|&(u, v)| (u, v) == (a, b) || (u, v) == (b, a))
    }

    /// Times the bridge guard refused an administrative down (or released
    /// a hold-down early) because the link was the only path between two
    /// parts of the fabric.
    #[must_use]
    pub fn bridge_refusals(&self) -> u64 {
        self.bridge_refusals
    }

    /// Releases every link whose hold-down expired by `now_ns`, restoring
    /// the administrative down state it imposed. Returns the released
    /// links (canonical ends); if any were brought back up the caller
    /// should run a re-sweep to fold them back into routing.
    pub fn release_expired(
        &mut self,
        subnet: &mut Subnet,
        now_ns: u64,
    ) -> IbResult<Vec<(NodeId, PortNum)>> {
        let mut due: Vec<(NodeId, PortNum)> = self
            .links
            .iter()
            .filter(|(_, r)| r.held_until.is_some_and(|until| until <= now_ns))
            .map(|(&k, _)| k)
            .collect();
        due.sort_unstable_by_key(|&(n, p)| (n.index(), p.raw()));
        let mut released = Vec::new();
        for key in due {
            let Some(rec) = self.links.get_mut(&key) else {
                continue;
            };
            rec.held_until = None;
            let bring_up = rec.admin_down;
            rec.admin_down = false;
            if bring_up
                && !subnet.is_link_up(key.0, key.1)
                && subnet.cabled_neighbor(key.0, key.1).is_some()
                && subnet.is_alive(key.0)
            {
                subnet.set_link_up(key.0, key.1)?;
            }
            released.push(key);
        }
        Ok(released)
    }

    /// Links currently inside a hold-down window at `now_ns`, as
    /// (canonical end, release time) pairs in deterministic order.
    #[must_use]
    pub fn quarantined_links(&self, now_ns: u64) -> Vec<((NodeId, PortNum), u64)> {
        let mut held: Vec<((NodeId, PortNum), u64)> = self
            .links
            .iter()
            .filter_map(|(&k, r)| r.held_until.filter(|&u| u > now_ns).map(|u| (k, u)))
            .collect();
        held.sort_unstable_by_key(|&((n, p), _)| (n.index(), p.raw()));
        held
    }

    /// Proves quarantined links are absent from the installed tables: scans
    /// every switch LFT for a row that forwards over a link currently in
    /// hold-down, returning a description of each offending row. Empty
    /// means the quarantine held — no installed route uses a damped link.
    #[must_use]
    pub fn verify_absent(&self, subnet: &Subnet, now_ns: u64) -> Vec<String> {
        self.verify_absent_scoped(subnet, now_ns, None)
    }

    /// [`Self::verify_absent`] restricted to the switches `viewpoint` can
    /// reach over live links. A split fabric strands switches whose stale
    /// tables still cross their (now quarantined) uplinks — no SMP can
    /// clear those rows until the heal, so only the governable component
    /// is judged. `None` judges every switch.
    #[must_use]
    pub fn verify_absent_scoped(
        &self,
        subnet: &Subnet,
        now_ns: u64,
        viewpoint: Option<NodeId>,
    ) -> Vec<String> {
        let mut offenders = Vec::new();
        let held = self.quarantined_links(now_ns);
        if held.is_empty() {
            return offenders;
        }
        // The viewpoint's live component, when one is given.
        let scope: Option<Vec<bool>> = viewpoint.map(|start| {
            let mut seen = vec![false; subnet.node_ids().count()];
            seen[start.index()] = true;
            let mut stack = vec![start];
            while let Some(at) = stack.pop() {
                for (_, remote) in subnet.node(at).connected_ports() {
                    if !seen[remote.node.index()] && subnet.node(remote.node).is_alive() {
                        seen[remote.node.index()] = true;
                        stack.push(remote.node);
                    }
                }
            }
            seen
        });
        // Both ends of each quarantined cable, as (node, out-port) pairs.
        let mut banned: Vec<(NodeId, PortNum)> = Vec::new();
        for &((node, port), _) in &held {
            banned.push((node, port));
            if let Some(remote) = subnet.cabled_neighbor(node, port) {
                banned.push((remote.node, remote.port));
            }
        }
        for node in subnet.switches() {
            if scope.as_ref().is_some_and(|s| !s[node.id.index()]) {
                continue;
            }
            let Some(lft) = subnet.lft(node.id) else {
                continue;
            };
            for &(end, out) in banned.iter().filter(|&&(end, _)| end == node.id) {
                for lid in subnet.lids() {
                    if lft.get(lid) == Some(out) {
                        offenders.push(format!(
                            "{} forwards LID {lid} over quarantined port {out}",
                            subnet.name_of(end)
                        ));
                    }
                }
            }
        }
        offenders
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_subnet::topology::fattree::two_level;

    fn fabric() -> (ib_subnet::topology::BuiltTopology, NodeId, PortNum) {
        let t = two_level(3, 2, 2);
        let leaf0 = t.switch_levels[0][0];
        let spine0 = t.switch_levels[1][0];
        let (port, _) = t
            .subnet
            .node(leaf0)
            .connected_ports()
            .find(|(_, r)| r.node == spine0)
            .unwrap();
        (t, leaf0, port)
    }

    #[test]
    fn threshold_crossing_quarantines_and_downs_the_link() {
        let (mut t, leaf, port) = fabric();
        let mut q = LinkQuarantine::default();
        assert!(t.subnet.is_link_up(leaf, port));
        // Two events: still below the threshold of 3.
        assert!(!q.note_link_event(&mut t.subnet, leaf, port, 0).unwrap());
        assert!(!q.note_link_event(&mut t.subnet, leaf, port, 1).unwrap());
        assert!(!q.is_quarantined(&t.subnet, leaf, port, 1));
        // Third event trips the quarantine; the caller still re-sweeps once.
        assert!(!q.note_link_event(&mut t.subnet, leaf, port, 2).unwrap());
        assert!(q.is_quarantined(&t.subnet, leaf, port, 2));
        assert!(!t.subnet.is_link_up(leaf, port), "administratively down");
        assert_eq!(q.quarantined_links(2).len(), 1);
    }

    #[test]
    fn both_ends_share_one_record() {
        let (mut t, leaf, port) = fabric();
        let remote = t.subnet.cabled_neighbor(leaf, port).unwrap();
        let mut q = LinkQuarantine::default();
        q.note_link_event(&mut t.subnet, leaf, port, 0).unwrap();
        q.note_link_event(&mut t.subnet, remote.node, remote.port, 1)
            .unwrap();
        q.note_link_event(&mut t.subnet, leaf, port, 2).unwrap();
        assert!(q.is_quarantined(&t.subnet, remote.node, remote.port, 2));
        assert_eq!(q.quarantined_links(2).len(), 1, "one record for both ends");
    }

    #[test]
    fn resurrection_during_hold_down_is_suppressed() {
        let (mut t, leaf, port) = fabric();
        let mut q = LinkQuarantine::default();
        for at in 0..3 {
            q.note_link_event(&mut t.subnet, leaf, port, at).unwrap();
        }
        assert!(!t.subnet.is_link_up(leaf, port));
        // The flapping link "comes back": forced down again, absorbed.
        t.subnet.set_link_up(leaf, port).unwrap();
        assert!(q.note_link_event(&mut t.subnet, leaf, port, 10).unwrap());
        assert!(!t.subnet.is_link_up(leaf, port));
    }

    #[test]
    fn release_restores_the_link_and_strikes_escalate() {
        let (mut t, leaf, port) = fabric();
        let mut q = LinkQuarantine::default();
        for at in 0..3 {
            q.note_link_event(&mut t.subnet, leaf, port, at).unwrap();
        }
        let release_at = 2 + BASE_HOLD_DOWN_NS;
        // Still held one tick before the deadline.
        assert!(q
            .release_expired(&mut t.subnet, release_at - 1)
            .unwrap()
            .is_empty());
        let released = q.release_expired(&mut t.subnet, release_at).unwrap();
        assert_eq!(released.len(), 1);
        assert!(t.subnet.is_link_up(leaf, port), "restored on release");
        // A second quarantine doubles the hold-down.
        for at in 0..3 {
            q.note_link_event(&mut t.subnet, leaf, port, release_at + at)
                .unwrap();
        }
        let held = q.quarantined_links(release_at + 2);
        assert_eq!(held.len(), 1);
        assert_eq!(held[0].1, release_at + 2 + 2 * BASE_HOLD_DOWN_NS);
    }

    #[test]
    fn hold_down_curve_is_exponential_and_capped() {
        assert_eq!(hold_down_for(1), BASE_HOLD_DOWN_NS);
        assert_eq!(hold_down_for(2), 2 * BASE_HOLD_DOWN_NS);
        assert_eq!(hold_down_for(3), 4 * BASE_HOLD_DOWN_NS);
        assert_eq!(hold_down_for(60), MAX_HOLD_DOWN_NS);
    }

    #[test]
    fn physically_down_link_is_not_resurrected_on_release() {
        let (mut t, leaf, port) = fabric();
        let mut q = LinkQuarantine::default();
        // The link is already physically down when the flapping starts.
        t.subnet.set_link_down(leaf, port).unwrap();
        for at in 0..3 {
            q.note_link_event(&mut t.subnet, leaf, port, at).unwrap();
        }
        let released = q.release_expired(&mut t.subnet, u64::MAX).unwrap();
        assert_eq!(released.len(), 1);
        assert!(
            !t.subnet.is_link_up(leaf, port),
            "the damper never downed it, so it must not bring it up"
        );
    }

    /// A 3-switch line with one host per switch: every inter-switch cable
    /// is a bridge — any admin-down would split the fabric.
    fn line_fabric() -> (Subnet, Vec<NodeId>) {
        let mut s = Subnet::new();
        let sw: Vec<NodeId> = (0..3).map(|i| s.add_switch(format!("sw{i}"), 4)).collect();
        s.connect(sw[0], PortNum::new(1), sw[1], PortNum::new(1))
            .unwrap();
        s.connect(sw[1], PortNum::new(2), sw[2], PortNum::new(1))
            .unwrap();
        for (i, &w) in sw.iter().enumerate() {
            let h = s.add_hca(format!("h{i}"));
            s.connect(w, PortNum::new(3), h, PortNum::new(1)).unwrap();
        }
        (s, sw)
    }

    #[test]
    fn bridge_links_refuse_quarantine_on_a_tree() {
        // On a tree every switch-switch link is a bridge: however hard a
        // link flaps, the damper must never be the one to split the fabric.
        let (mut s, sw) = line_fabric();
        let mut q = LinkQuarantine::default();
        for trunk in [(sw[0], PortNum::new(1)), (sw[1], PortNum::new(2))] {
            for at in 0..10 {
                assert!(!q.note_link_event(&mut s, trunk.0, trunk.1, at).unwrap());
            }
            assert!(s.is_link_up(trunk.0, trunk.1), "never admin-downed");
            assert!(!q.is_quarantined(&s, trunk.0, trunk.1, 10));
        }
        // Threshold 3 over 10 events per trunk: 3 refusals each.
        assert_eq!(q.bridge_refusals(), 6);
        s.validate_degraded().unwrap();
    }

    #[test]
    fn resurrected_bridge_is_released_early_instead_of_re_split() {
        let (mut s, sw) = line_fabric();
        let (node, port) = (sw[0], PortNum::new(1));
        let mut q = LinkQuarantine::default();
        // The trunk goes physically down first: holding it down changes
        // nothing (the split already exists), so the quarantine may trip.
        s.set_link_down(node, port).unwrap();
        for at in 0..3 {
            q.note_link_event(&mut s, node, port, at).unwrap();
        }
        assert!(q.is_quarantined(&s, node, port, 3));
        // The link comes back as the only path between the two halves:
        // re-downing it would re-split, so the hold-down releases early
        // and the event goes through to a normal fold-in sweep.
        s.set_link_up(node, port).unwrap();
        assert!(!q.note_link_event(&mut s, node, port, 4).unwrap());
        assert!(s.is_link_up(node, port), "heal preserved");
        assert!(!q.is_quarantined(&s, node, port, 4));
        assert_eq!(q.bridge_refusals(), 1);
    }

    #[test]
    fn redundant_links_still_quarantine_with_the_guard_active() {
        // The fat tree's leaf-spine link has a redundant twin through the
        // other spine: not a bridge, so damping proceeds as ever.
        let (mut t, leaf, port) = fabric();
        let mut q = LinkQuarantine::default();
        for at in 0..3 {
            q.note_link_event(&mut t.subnet, leaf, port, at).unwrap();
        }
        assert!(q.is_quarantined(&t.subnet, leaf, port, 2));
        assert!(!t.subnet.is_link_up(leaf, port));
        assert_eq!(q.bridge_refusals(), 0);
    }

    #[test]
    fn verify_absent_flags_a_route_over_a_quarantined_link() {
        let (mut t, leaf, port) = fabric();
        ib_routing::testutil::assign_lids(&mut t);
        let tables = ib_routing::EngineKind::MinHop
            .build()
            .compute(&t.subnet)
            .unwrap();
        tables.install(&mut t.subnet).unwrap();

        let mut q = LinkQuarantine::default();
        for at in 0..3 {
            q.note_link_event(&mut t.subnet, leaf, port, at).unwrap();
        }
        // The tables were computed *before* the quarantine, so routes over
        // the damped link are still installed: the audit must notice.
        assert!(!q.verify_absent(&t.subnet, 2).is_empty());

        // Recompute over the degraded (admin-down) topology and reinstall:
        // the quarantined link vanishes from every LFT.
        let rerouted = ib_routing::EngineKind::MinHop
            .build()
            .compute(&t.subnet)
            .unwrap();
        rerouted.install(&mut t.subnet).unwrap();
        assert!(q.verify_absent(&t.subnet, 2).is_empty());
    }
}
