//! SMP delivery faults: outcome model, retry policy, lossy channels, and a
//! retrying transport.
//!
//! The base repo modeled SMP delivery as infallible — every `Set` the SM
//! emitted was assumed applied. Real subnet management is built around the
//! opposite assumption: SMPs are unacknowledged datagrams on VL15 with no
//! flow control, and OpenSM resends after a response timeout. This module
//! supplies the fault plumbing: an [`SmpStatus`] per attempt, a
//! [`RetryPolicy`] with exponential backoff, pluggable [`SmpChannel`]s
//! (assumed, perfect or seeded-lossy), and an [`SmpTransport`] that retries,
//! keeps a virtual clock, and writes per-attempt ground truth into the
//! [`SmpLedger`].
//!
//! Delivery is decided in one place, the channel, and every multi-SMP
//! operation is written once over a transport. The checked channels consult
//! the subnet itself: an SMP whose path crosses a downed link or a dead
//! switch is *deterministically* lost, independent of the random drop
//! probability — that is what lets a sweep or a migration observe
//! mid-operation topology failures. [`AssumedChannel`] states the opposite,
//! classic assumption (what was addressed arrives) for the entry points
//! that take no transport.

use ib_subnet::{NodeId, Subnet};
use ib_types::{IbError, IbResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ledger::SmpLedger;
use crate::route::SmpRouting;
use crate::smp::Smp;

/// Ground-truth outcome of one SMP attempt.
///
/// The SM itself cannot distinguish the non-delivered cases — it only ever
/// observes a response timeout — but the simulator records what actually
/// happened so experiments can attribute loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmpStatus {
    /// Request delivered and response returned.
    Delivered,
    /// Request lost on the forward path after `hop` link traversals
    /// (either randomly or because the link/switch there is dead).
    Dropped {
        /// Zero-based index of the link where the packet died.
        hop: usize,
    },
    /// Request delivered but the response was lost; the SM times out.
    TimedOut,
}

impl SmpStatus {
    /// Whether the SM got its response.
    #[must_use]
    pub fn is_delivered(self) -> bool {
        matches!(self, Self::Delivered)
    }
}

/// Retry discipline for unacknowledged SMPs: a bounded number of attempts
/// with exponential backoff on the response timeout, mirroring OpenSM's
/// `transaction_timeout` / `transaction_retries` pair. The first attempt
/// waits 100 µs — an order of magnitude above the worst-case RTT of the
/// latency model defaults — and each retry doubles the wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries). Must be at least 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4 }
    }
}

impl RetryPolicy {
    /// Response timeout of the first attempt, in nanoseconds of simulated
    /// time.
    const BASE_TIMEOUT_NS: u64 = 100_000;
    /// Timeout multiplier per retry.
    const BACKOFF: u64 = 2;

    /// The response timeout charged to attempt number `attempt` (0-based).
    #[must_use]
    pub fn timeout_ns(&self, attempt: u32) -> u64 {
        let factor = Self::BACKOFF.saturating_pow(attempt);
        Self::BASE_TIMEOUT_NS.saturating_mul(factor)
    }
}

/// One-way SMP latency in nanoseconds: `hops` link traversals at `k_hop_ns`
/// each, plus `r_hop_ns` per hop of directed-route header processing. A
/// local delivery (`hops == 0`) still pays one hop of processing.
///
/// This is the single latency formula shared by the transport clock here
/// and the event-driven replay in `ib-sim`, so both agree on timings.
#[must_use]
pub fn one_way_latency_ns(k_hop_ns: u64, r_hop_ns: u64, hops: usize, directed: bool) -> u64 {
    let per_hop = k_hop_ns + if directed { r_hop_ns } else { 0 };
    per_hop.saturating_mul(hops.max(1) as u64)
}

/// Decides the fate of individual SMP attempts.
pub trait SmpChannel {
    /// Outcome of one attempt that would traverse `hops` links (the path
    /// has already passed [`SmpChannel::path_break`]).
    fn attempt(&mut self, smp: &Smp, hops: usize) -> SmpStatus;

    /// Extra delivery jitter, in nanoseconds, added to a successful RTT.
    fn jitter_ns(&mut self) -> u64 {
        0
    }

    /// Where the packet's path from `source` is broken by the current
    /// topology, if anywhere: the hop index of the first downed link or
    /// dead node. The default walks the path against the live subnet.
    fn path_break(&self, subnet: &Subnet, source: NodeId, smp: &Smp) -> Option<usize> {
        match &smp.routing {
            SmpRouting::Directed(route) => {
                let mut cur = source;
                for (i, &port) in route.hops().iter().enumerate() {
                    match subnet.neighbor(cur, port) {
                        Some(ep) if subnet.is_alive(ep.node) => cur = ep.node,
                        _ => return Some(i),
                    }
                }
                None
            }
            SmpRouting::Destination(lid) => {
                // Destination routing rides the installed LFTs; any break
                // (missing entry, downed link, dead hop) surfaces as a
                // trace failure. The exact hop is not needed upstream.
                match subnet.trace_route(source, *lid, 64) {
                    Ok(path) if path.iter().all(|&n| subnet.is_alive(n)) => None,
                    _ => Some(0),
                }
            }
        }
    }
}

/// The classic assumption as a channel: an SMP addressed off a route tree
/// searched over the live fabric arrives, first try. No path is walked, so
/// an operation over it costs what recording its SMPs costs — and cannot
/// see a fault that strikes after the tree was built.
#[derive(Clone, Copy, Debug, Default)]
pub struct AssumedChannel;

impl SmpChannel for AssumedChannel {
    fn attempt(&mut self, _smp: &Smp, _hops: usize) -> SmpStatus {
        SmpStatus::Delivered
    }

    fn path_break(&self, _subnet: &Subnet, _source: NodeId, _smp: &Smp) -> Option<usize> {
        None
    }
}

/// The fault-free channel: every attempt on a live path is delivered.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfectChannel;

impl SmpChannel for PerfectChannel {
    fn attempt(&mut self, _smp: &Smp, _hops: usize) -> SmpStatus {
        SmpStatus::Delivered
    }
}

/// A seeded lossy channel: each link traversal independently drops the
/// packet with `drop_probability`, on both the request and the response
/// path, and successful round trips pick up uniform delivery jitter.
#[derive(Clone, Debug)]
pub struct LossyChannel {
    /// Per-hop, per-direction drop probability in `[0, 1]`.
    pub drop_probability: f64,
    /// Upper bound (exclusive) on per-delivery jitter; 0 disables jitter.
    pub max_jitter_ns: u64,
    rng: StdRng,
}

impl LossyChannel {
    /// A lossy channel with its own deterministic RNG stream.
    #[must_use]
    pub fn new(seed: u64, drop_probability: f64, max_jitter_ns: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability {drop_probability} out of [0,1]"
        );
        Self {
            drop_probability,
            max_jitter_ns,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// An always-dropping channel — useful for forcing rollback paths.
    #[must_use]
    pub fn black_hole() -> Self {
        Self::new(0, 1.0, 0)
    }
}

impl SmpChannel for LossyChannel {
    fn attempt(&mut self, _smp: &Smp, hops: usize) -> SmpStatus {
        if self.drop_probability == 0.0 {
            return SmpStatus::Delivered;
        }
        for hop in 0..hops.max(1) {
            if self.rng.gen_bool(self.drop_probability) {
                return SmpStatus::Dropped { hop };
            }
        }
        for _ in 0..hops.max(1) {
            if self.rng.gen_bool(self.drop_probability) {
                return SmpStatus::TimedOut;
            }
        }
        SmpStatus::Delivered
    }

    fn jitter_ns(&mut self) -> u64 {
        if self.max_jitter_ns == 0 {
            0
        } else {
            self.rng.gen_range(0..self.max_jitter_ns)
        }
    }
}

/// A retrying SMP sender with a virtual clock.
///
/// `send` asks the channel whether the packet's path is live on the
/// *current* subnet (so downed links and dead switches deterministically
/// kill delivery) and about random loss, records every attempt in the
/// ledger, and advances the clock by the RTT on success or the response
/// timeout on failure. After `retry.max_attempts` consecutive failures it
/// returns [`IbError::Transport`], which is the signal the SM's sweeps and
/// the migration transaction react to.
#[derive(Clone, Debug)]
pub struct SmpTransport<C: SmpChannel = PerfectChannel> {
    /// The node SMPs originate from (the SM's HCA).
    pub source: NodeId,
    /// Fault decision-maker.
    pub channel: C,
    /// Retry discipline.
    pub retry: RetryPolicy,
    /// Link traversal cost, matching `ib-sim`'s latency model.
    pub k_hop_ns: u64,
    /// Directed-route per-hop processing cost.
    pub r_hop_ns: u64,
    clock_ns: u64,
}

impl SmpTransport<AssumedChannel> {
    /// A transport whose every SMP is assumed delivered: what the entry
    /// points that take no transport (`bring_up`, `migrate_vm`, ...) run
    /// over.
    #[must_use]
    pub fn assumed(source: NodeId) -> Self {
        Self::with_channel(source, AssumedChannel)
    }
}

impl SmpTransport<PerfectChannel> {
    /// A fault-free transport.
    #[must_use]
    pub fn perfect(source: NodeId) -> Self {
        Self::with_channel(source, PerfectChannel)
    }
}

impl SmpTransport<LossyChannel> {
    /// A lossy transport with a seeded drop/jitter stream.
    #[must_use]
    pub fn lossy(source: NodeId, seed: u64, drop_probability: f64, max_jitter_ns: u64) -> Self {
        Self::with_channel(
            source,
            LossyChannel::new(seed, drop_probability, max_jitter_ns),
        )
    }
}

impl<C: SmpChannel> SmpTransport<C> {
    /// A transport over an arbitrary channel, with default retry policy and
    /// the latency-model default hop costs (1 µs per hop, 0.8 µs directed
    /// processing).
    #[must_use]
    pub fn with_channel(source: NodeId, channel: C) -> Self {
        Self {
            source,
            channel,
            retry: RetryPolicy::default(),
            k_hop_ns: 1_000,
            r_hop_ns: 800,
            clock_ns: 0,
        }
    }

    /// Simulated time consumed by all sends so far, in nanoseconds.
    #[must_use]
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Sends one SMP with retries. Returns the 0-based attempt number that
    /// succeeded, or [`IbError::Transport`] after exhausting the policy.
    /// Every attempt lands in the ledger with its ground-truth status.
    pub fn send(
        &mut self,
        subnet: &Subnet,
        smp: &Smp,
        hops: usize,
        ledger: &mut SmpLedger,
    ) -> IbResult<u32> {
        let attempts = self.retry.max_attempts.max(1);
        let mut last = SmpStatus::TimedOut;
        for attempt in 0..attempts {
            let status = match self.channel.path_break(subnet, self.source, smp) {
                Some(hop) => SmpStatus::Dropped { hop },
                None => self.channel.attempt(smp, hops),
            };
            ledger.record_attempt(smp, hops, attempt, status);
            if status.is_delivered() {
                let rtt = 2 * one_way_latency_ns(
                    self.k_hop_ns,
                    self.r_hop_ns,
                    hops,
                    smp.routing.is_directed(),
                );
                let jitter = self.channel.jitter_ns();
                self.clock_ns = self.clock_ns.saturating_add(rtt).saturating_add(jitter);
                ledger
                    .observer()
                    .record("transport.rtt_ns", rtt.saturating_add(jitter));
                return Ok(attempt);
            }
            let timeout = self.retry.timeout_ns(attempt);
            self.clock_ns = self.clock_ns.saturating_add(timeout);
            ledger.observer().add("transport.timeout_wait_ns", timeout);
            last = status;
        }
        ledger.observer().incr("transport.exhausted");
        Err(IbError::Transport(format!(
            "SMP to {} failed after {attempts} attempts (last outcome: {last:?})",
            subnet.name_of(smp.target),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::DirectedRoute;
    use crate::smp::Smp;
    use ib_subnet::Subnet;
    use ib_types::{Lid, PortNum};

    /// sm(hca) -- sw0 -- sw1, switch LIDs 10/11, LFTs installed.
    fn fabric() -> (Subnet, NodeId, NodeId, NodeId) {
        let mut s = Subnet::new();
        let sw0 = s.add_switch("sw0", 4);
        let sw1 = s.add_switch("sw1", 4);
        let sm = s.add_hca("sm");
        s.connect(sw0, PortNum::new(1), sw1, PortNum::new(1))
            .unwrap();
        s.connect(sw0, PortNum::new(2), sm, PortNum::new(1))
            .unwrap();
        s.assign_switch_lid(sw0, Lid::from_raw(10)).unwrap();
        s.assign_switch_lid(sw1, Lid::from_raw(11)).unwrap();
        for sw in [sw0, sw1] {
            let lft = s.lft_mut(sw).unwrap();
            lft.set(Lid::from_raw(10), PortNum::MANAGEMENT);
            lft.set(Lid::from_raw(11), PortNum::new(1));
        }
        s.lft_mut(sw0)
            .unwrap()
            .set(Lid::from_raw(10), PortNum::MANAGEMENT);
        s.lft_mut(sw1)
            .unwrap()
            .set(Lid::from_raw(11), PortNum::MANAGEMENT);
        (s, sm, sw0, sw1)
    }

    fn directed_smp(target: NodeId, hops: Vec<PortNum>) -> Smp {
        Smp::set_lft_block(
            target,
            SmpRouting::Directed(DirectedRoute::from_hops(hops)),
            0,
            &[None; 64],
        )
    }

    #[test]
    fn perfect_transport_delivers_first_try() {
        let (s, sm, sw0, _) = fabric();
        let mut t = SmpTransport::perfect(sm);
        let mut ledger = SmpLedger::new();
        let smp = directed_smp(sw0, vec![PortNum::new(1)]);
        assert_eq!(t.send(&s, &smp, 1, &mut ledger).unwrap(), 0);
        assert_eq!(ledger.total(), 1);
        assert_eq!(ledger.retries(), 0);
        // Directed RTT over 1 hop: 2 * (1000 + 800).
        assert_eq!(t.clock_ns(), 3_600);
    }

    #[test]
    fn black_hole_exhausts_retries() {
        let (s, sm, sw0, _) = fabric();
        let mut t = SmpTransport::with_channel(sm, LossyChannel::black_hole());
        let mut ledger = SmpLedger::new();
        let smp = directed_smp(sw0, vec![PortNum::new(1)]);
        let err = t.send(&s, &smp, 1, &mut ledger).unwrap_err();
        assert!(matches!(err, IbError::Transport(_)));
        assert_eq!(ledger.total(), 4);
        assert_eq!(ledger.delivered(), 0);
        assert_eq!(ledger.retries(), 3);
        // Backoff: 100 + 200 + 400 + 800 µs.
        assert_eq!(t.clock_ns(), 1_500_000);
    }

    #[test]
    fn downed_link_deterministically_drops() {
        let (mut s, sm, sw0, sw1) = fabric();
        let smp = directed_smp(sw1, vec![PortNum::new(1), PortNum::new(1)]);
        let mut t = SmpTransport::perfect(sm);
        let mut ledger = SmpLedger::new();
        t.send(&s, &smp, 2, &mut ledger).unwrap();
        // Kill the trunk: hop 1 (sw0 -> sw1) now breaks.
        s.set_link_down(sw0, PortNum::new(1)).unwrap();
        let err = t.send(&s, &smp, 2, &mut ledger).unwrap_err();
        assert!(matches!(err, IbError::Transport(_)));
        assert!(ledger
            .records()
            .iter()
            .skip(1)
            .all(|r| r.status == SmpStatus::Dropped { hop: 1 }));
    }

    /// The assumed channel walks nothing: what the checked channels lose to
    /// a downed link it books as delivered, first try, at the same RTT.
    #[test]
    fn assumed_channel_delivers_without_walking_the_path() {
        let (mut s, sm, sw0, sw1) = fabric();
        s.set_link_down(sw0, PortNum::new(1)).unwrap();
        let directed = directed_smp(sw1, vec![PortNum::new(1), PortNum::new(1)]);
        let by_lid = Smp::set_lft_block(
            sw1,
            SmpRouting::Destination(Lid::from_raw(11)),
            0,
            &[None; 64],
        );
        let mut t = SmpTransport::assumed(sm);
        let mut ledger = SmpLedger::new();
        for smp in [&directed, &by_lid] {
            assert!(SmpTransport::perfect(sm)
                .send(&s, smp, 2, &mut SmpLedger::new())
                .is_err());
            assert_eq!(t.send(&s, smp, 2, &mut ledger).unwrap(), 0);
        }
        assert_eq!(ledger.delivered(), 2);
        assert_eq!(ledger.retries(), 0);
        // 2 hops each: directed 2 * 2 * (1000 + 800), by LID 2 * 2 * 1000.
        assert_eq!(t.clock_ns(), 7_200 + 4_000);
    }

    #[test]
    fn destination_routing_checks_lfts() {
        let (mut s, sm, sw0, sw1) = fabric();
        let smp = Smp::set_lft_block(
            sw1,
            SmpRouting::Destination(Lid::from_raw(11)),
            0,
            &[None; 64],
        );
        let mut t = SmpTransport::perfect(sm);
        let mut ledger = SmpLedger::new();
        assert_eq!(t.send(&s, &smp, 2, &mut ledger).unwrap(), 0);
        s.set_link_down(sw0, PortNum::new(1)).unwrap();
        assert!(t.send(&s, &smp, 2, &mut ledger).is_err());
    }

    #[test]
    fn lossy_channel_is_deterministic_per_seed() {
        let smp = directed_smp(NodeId::from_index(0), vec![PortNum::new(1)]);
        let outcomes = |seed: u64| -> Vec<SmpStatus> {
            let mut c = LossyChannel::new(seed, 0.3, 0);
            (0..64).map(|_| c.attempt(&smp, 3)).collect()
        };
        assert_eq!(outcomes(7), outcomes(7));
        assert_ne!(outcomes(7), outcomes(8));
        assert!(outcomes(7).iter().any(|s| !s.is_delivered()));
        assert!(outcomes(7).iter().any(|s| s.is_delivered()));
    }

    #[test]
    fn zero_probability_channel_never_drops() {
        let smp = directed_smp(NodeId::from_index(0), vec![]);
        let mut c = LossyChannel::new(1, 0.0, 0);
        assert!((0..256).all(|_| c.attempt(&smp, 5).is_delivered()));
    }

    #[test]
    fn retry_policy_backoff() {
        let p = RetryPolicy::default();
        assert_eq!(p.timeout_ns(0), 100_000);
        assert_eq!(p.timeout_ns(1), 200_000);
        assert_eq!(p.timeout_ns(2), 400_000);
        assert_eq!(p.timeout_ns(3), 800_000);
    }

    #[test]
    fn latency_formula() {
        assert_eq!(one_way_latency_ns(1_000, 800, 3, true), 5_400);
        assert_eq!(one_way_latency_ns(1_000, 800, 3, false), 3_000);
        // Local delivery still pays one hop of processing.
        assert_eq!(one_way_latency_ns(1_000, 800, 0, false), 1_000);
    }
}
