//! The SMP ledger: ground-truth accounting of management traffic.

use ib_observe::Observer;
use ib_subnet::NodeId;
use rustc_hash::FxHashMap;

use crate::cost::CostModel;
use crate::fault::SmpStatus;
use crate::smp::{AttributeKind, Smp, SmpMethod};

/// Stable lowercase label for an attribute kind, used in metric names
/// (`smp.kind.<label>`).
fn kind_label(kind: AttributeKind) -> &'static str {
    match kind {
        AttributeKind::NodeInfo => "node_info",
        AttributeKind::SwitchInfo => "switch_info",
        AttributeKind::PortInfo => "port_info",
        AttributeKind::GuidInfo => "guid_info",
        AttributeKind::LftBlock => "lft_block",
    }
}

/// Stable label for a delivery outcome (`smp.outcome.<label>`).
fn status_label(status: SmpStatus) -> &'static str {
    match status {
        SmpStatus::Delivered => "delivered",
        SmpStatus::Dropped { .. } => "dropped",
        SmpStatus::TimedOut => "timed_out",
    }
}

/// One recorded SMP attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmpRecord {
    /// Destination node.
    pub target: NodeId,
    /// Get or Set.
    pub method: SmpMethod,
    /// Attribute discriminant.
    pub attribute: AttributeKind,
    /// Whether the packet was directed-routed.
    pub directed: bool,
    /// Link traversals to reach the target (0 for the local node).
    pub hops: usize,
    /// 0 for the first try of an SMP, 1.. for retries of the same SMP.
    pub attempt: u32,
    /// Ground-truth delivery outcome of this attempt.
    pub status: SmpStatus,
}

/// Records every SMP sent during an operation, with phase markers so one
/// ledger can account an entire bring-up (discovery, LID assignment, LFT
/// distribution) or a single live migration.
#[derive(Clone, Debug, Default)]
pub struct SmpLedger {
    records: Vec<SmpRecord>,
    /// (phase name, index of first record in that phase).
    phases: Vec<(String, usize)>,
    /// Metrics sink. Disabled by default: the ledger stays the ground
    /// truth, the observer is a side channel, and the recorded bytes are
    /// identical either way.
    observer: Observer,
}

impl SmpLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics sink (disabled unless one was attached).
    #[must_use]
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Attaches a metrics sink. Already-recorded SMPs are not replayed.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// Marks the start of a named phase; subsequent records belong to it.
    pub fn begin_phase(&mut self, name: impl Into<String>) {
        self.phases.push((name.into(), self.records.len()));
    }

    /// Records one delivered SMP (the fault-free fast path). Equivalent to
    /// [`SmpLedger::record_attempt`] with attempt 0 and
    /// [`SmpStatus::Delivered`], so ledgers built without a fault channel
    /// are byte-identical to ledgers built through a channel that never
    /// fires.
    pub fn record(&mut self, smp: &Smp, hops: usize) {
        self.record_attempt(smp, hops, 0, SmpStatus::Delivered);
    }

    /// Records one SMP attempt with its ground-truth outcome. `hops` is the
    /// measured link-traversal count.
    pub fn record_attempt(&mut self, smp: &Smp, hops: usize, attempt: u32, status: SmpStatus) {
        let kind = smp.attribute.kind();
        self.records.push(SmpRecord {
            target: smp.target,
            method: smp.method,
            attribute: kind,
            directed: smp.routing.is_directed(),
            hops,
            attempt,
            status,
        });
        if self.observer.is_enabled() {
            self.observer.incr("smp.attempts");
            self.observer
                .incr(&format!("smp.outcome.{}", status_label(status)));
            self.observer
                .incr(&format!("smp.kind.{}", kind_label(kind)));
            if attempt > 0 {
                self.observer.incr("smp.retries");
            }
            self.observer.record("smp.attempt_no", u64::from(attempt));
            self.observer.record("smp.hops", hops as u64);
            if let Some((phase, _)) = self.phases.last() {
                self.observer.incr(&format!("phase.{phase}.smps"));
            }
        }
    }

    /// Total SMP attempts recorded (including failed ones).
    #[must_use]
    pub fn total(&self) -> usize {
        self.records.len()
    }

    /// Attempts that reached their target and returned a response.
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status.is_delivered())
            .count()
    }

    /// Retry attempts (attempt number above 0) — the paper's notion of
    /// "extra" SMPs a fault burns beyond the fault-free count.
    #[must_use]
    pub fn retries(&self) -> usize {
        self.records.iter().filter(|r| r.attempt > 0).count()
    }

    /// Attempts lost on the forward path.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.status, SmpStatus::Dropped { .. }))
            .count()
    }

    /// Attempts whose response was lost (SM saw a timeout).
    #[must_use]
    pub fn timed_out(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status == SmpStatus::TimedOut)
            .count()
    }

    /// Delivered `SubnSet(LinearForwardingTable)` SMPs — the quantity
    /// Table I reports. Failed attempts are excluded: an update the fabric
    /// never applied is not an update.
    #[must_use]
    pub fn lft_updates(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                r.status.is_delivered()
                    && r.attribute == AttributeKind::LftBlock
                    && r.method == SmpMethod::Set
            })
            .count()
    }

    /// Delivered LFT-update SMPs per target switch.
    #[must_use]
    pub fn lft_updates_per_switch(&self) -> FxHashMap<NodeId, usize> {
        let mut map = FxHashMap::default();
        for r in &self.records {
            if r.status.is_delivered()
                && r.attribute == AttributeKind::LftBlock
                && r.method == SmpMethod::Set
            {
                *map.entry(r.target).or_insert(0) += 1;
            }
        }
        map
    }

    /// Number of distinct switches that received LFT updates — the paper's
    /// `n'` (§VI-B: "there are certain cases that 0 < n' < n switches will
    /// need to be updated").
    #[must_use]
    pub fn switches_updated(&self) -> usize {
        self.lft_updates_per_switch().len()
    }

    /// Records in a named phase (last phase with that name).
    #[must_use]
    pub fn phase_records(&self, name: &str) -> &[SmpRecord] {
        let Some(pos) = self.phases.iter().rposition(|(n, _)| n == name) else {
            return &[];
        };
        let start = self.phases[pos].1;
        let end = self
            .phases
            .get(pos + 1)
            .map_or(self.records.len(), |(_, s)| *s);
        &self.records[start..end]
    }

    /// SMPs in a named phase.
    #[must_use]
    pub fn phase_total(&self, name: &str) -> usize {
        self.phase_records(name).len()
    }

    /// All records.
    #[must_use]
    pub fn records(&self) -> &[SmpRecord] {
        &self.records
    }

    /// Serial cost under the paper's constant-`k` model (equation 2-style):
    /// every SMP pays `k`, directed ones pay `k + r`.
    #[must_use]
    pub fn paper_cost_us(&self, model: &CostModel) -> f64 {
        self.records
            .iter()
            .map(|r| model.per_smp_us(r.directed))
            .sum()
    }

    /// Clears records and phases. The attached observer (and its
    /// accumulated metrics) is kept: metrics are cumulative across resets.
    pub fn reset(&mut self) {
        self.records.clear();
        self.phases.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{DirectedRoute, SmpRouting};
    use ib_types::{Lid, PortNum};

    fn lft_smp(target: usize, directed: bool, block: usize) -> Smp {
        let routing = if directed {
            SmpRouting::Directed(DirectedRoute::from_hops(vec![PortNum::new(1)]))
        } else {
            SmpRouting::Destination(Lid::from_raw(1))
        };
        Smp::set_lft_block(NodeId::from_index(target), routing, block, &[None; 64])
    }

    #[test]
    fn counts_by_kind_and_switch() {
        let mut ledger = SmpLedger::new();
        ledger.record(&lft_smp(0, true, 0), 2);
        ledger.record(&lft_smp(0, true, 1), 2);
        ledger.record(&lft_smp(1, false, 0), 3);
        let port_smp = Smp::set_port_lid(
            NodeId::from_index(2),
            SmpRouting::Directed(DirectedRoute::local()),
            PortNum::new(1),
            Some(Lid::from_raw(5)),
        );
        ledger.record(&port_smp, 0);

        assert_eq!(ledger.total(), 4);
        assert_eq!(ledger.lft_updates(), 3);
        let records = ledger.records().iter();
        let port_infos = records.filter(|r| r.attribute == AttributeKind::PortInfo);
        assert_eq!(port_infos.count(), 1);
        assert_eq!(ledger.switches_updated(), 2);
        let per = ledger.lft_updates_per_switch();
        assert_eq!(per[&NodeId::from_index(0)], 2);
        assert_eq!(per[&NodeId::from_index(1)], 1);
    }

    #[test]
    fn phases_partition_records() {
        let mut ledger = SmpLedger::new();
        ledger.begin_phase("discovery");
        ledger.record(&lft_smp(0, true, 0), 1);
        ledger.begin_phase("distribution");
        ledger.record(&lft_smp(0, true, 1), 1);
        ledger.record(&lft_smp(1, true, 0), 2);
        assert_eq!(ledger.phase_total("discovery"), 1);
        assert_eq!(ledger.phase_total("distribution"), 2);
        assert_eq!(ledger.phase_total("missing"), 0);
    }

    #[test]
    fn paper_cost_reflects_routing_mode() {
        let model = CostModel {
            k_us: 5.0,
            r_us: 4.0,
        };
        let mut ledger = SmpLedger::new();
        ledger.record(&lft_smp(0, true, 0), 2);
        ledger.record(&lft_smp(1, false, 0), 2);
        assert!((ledger.paper_cost_us(&model) - 14.0).abs() < 1e-9);
    }

    #[test]
    fn observer_mirrors_ledger_counts() {
        use ib_observe::{FakeClock, Observer};

        let obs = Observer::with_clock(Box::new(FakeClock::new()));
        let mut ledger = SmpLedger::new();
        ledger.set_observer(obs.clone());
        ledger.begin_phase("bring-up");
        ledger.record(&lft_smp(0, true, 0), 2);
        ledger.record_attempt(&lft_smp(0, true, 1), 2, 0, SmpStatus::Dropped { hop: 1 });
        ledger.record_attempt(&lft_smp(0, true, 1), 2, 1, SmpStatus::Delivered);

        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("smp.attempts"), ledger.total() as u64);
        assert_eq!(snap.counter("smp.retries"), ledger.retries() as u64);
        assert_eq!(
            snap.counter("smp.outcome.delivered"),
            ledger.delivered() as u64
        );
        assert_eq!(snap.counter("smp.outcome.dropped"), ledger.dropped() as u64);
        assert_eq!(snap.counter("smp.kind.lft_block"), 3);
        assert_eq!(
            snap.counter("phase.bring-up.smps"),
            ledger.phase_total("bring-up") as u64
        );
        let hops = snap.histogram("smp.hops").unwrap();
        assert_eq!(hops.count, 3);
        assert_eq!(hops.sum, 6);
    }

    #[test]
    fn disabled_observer_leaves_records_identical() {
        let mut plain = SmpLedger::new();
        let mut observed = SmpLedger::new();
        observed.set_observer(ib_observe::Observer::disabled());
        for ledger in [&mut plain, &mut observed] {
            ledger.begin_phase("p");
            ledger.record(&lft_smp(0, true, 0), 1);
        }
        assert_eq!(plain.records(), observed.records());
        assert!(!observed.observer().is_enabled());
    }

    #[test]
    fn reset_clears_everything() {
        let mut ledger = SmpLedger::new();
        ledger.begin_phase("p");
        ledger.record(&lft_smp(0, true, 0), 1);
        ledger.reset();
        assert_eq!(ledger.total(), 0);
        assert_eq!(ledger.phase_total("p"), 0);
    }
}
