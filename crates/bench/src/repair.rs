//! Incremental-repair benchmark: the same seeded, connectivity-preserving
//! link-fault schedule is applied to triplet fabrics — one subnet manager
//! answering each trap with the incremental repair sweep, one with the
//! classic full-recompute light sweep, and one with the paper's
//! §VI-A `full_reconfiguration` — and the LFT SMP counts and wall time of
//! the arms are compared.
//!
//! Link state is the only input to the fault schedule and sweeps never
//! change link state, so a shared RNG seed makes every arm fail the exact
//! same cables in the exact same order: the SMP delta is purely the
//! repair path's doing. The repair arm and the full-sweep arm then bring
//! the cables back, last down first up: the repair arm heals by undoing
//! its repairs, the full-sweep arm recomputes, and the repair arm must be
//! back on its pre-fault tables.

use std::time::{Duration, Instant};

use ib_mad::SmpTransport;
use ib_observe::Observer;
use ib_routing::EngineKind;
use ib_sm::{SmConfig, SubnetManager, Trap};
use ib_subnet::topology::{fattree, torus, BuiltTopology};
use ib_subnet::Subnet;
use ib_types::{Lid, PortNum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::soak::{core_links, safe_to_down};

/// How one arm of the comparison answers each link-down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arm {
    /// `SmConfig.repair = true`: the incremental repair sweep.
    Repair,
    /// The classic trap path: full recompute, dirty-block distribution.
    Sweep,
    /// The paper's traditional `full_reconfiguration` (§VI-A).
    FullRc,
}

/// One cell: one topology at one fault count, all three arms.
#[derive(Clone, Debug)]
pub struct RepairRow {
    /// Topology name (e.g. `fat-tree-2L-648`).
    pub topology: String,
    /// Physical switch count.
    pub switches: usize,
    /// Routing engine every arm uses.
    pub engine: &'static str,
    /// Faults injected (one trap each, handled to convergence).
    pub faults: usize,
    /// LFT SMPs the repair arm sent answering the traps.
    pub repair_smps: usize,
    /// LFT SMPs the full-sweep arm sent answering the same traps.
    pub full_smps: usize,
    /// LFT SMPs `full_reconfiguration` sent for the same faults.
    pub full_rc_smps: usize,
    /// Wall time the repair arm spent inside trap handling.
    pub repair_wall: Duration,
    /// Wall time the full-sweep arm spent inside trap handling.
    pub full_wall: Duration,
    /// Wall time the `full_reconfiguration` arm spent.
    pub full_rc_wall: Duration,
    /// Repairs that fell back to a full sweep (`repair.fallback`).
    pub repair_fallbacks: u64,
    /// LFT SMPs the repair arm sent answering the link-up traps.
    pub heal_smps: usize,
    /// LFT SMPs the full-sweep arm sent answering the same link-ups.
    pub full_heal_smps: usize,
    /// Wall time the repair arm spent inside the link-up traps.
    pub heal_wall: Duration,
    /// Wall time the full-sweep arm spent answering the link-ups.
    pub full_heal_wall: Duration,
    /// Link-ups the repair arm answered with a full sweep
    /// (`repair.heal_no_debt`).
    pub heals_no_debt: u64,
    /// The repair arm's installed LFTs after the heals are byte-identical
    /// to its pre-fault ones.
    pub healed_exactly: bool,
    /// `repair_smps / full_smps` — below 1.0 means repair won.
    pub smp_ratio: f64,
    /// `repair_smps / full_rc_smps` — the acceptance-criterion ratio.
    pub smp_ratio_vs_full_rc: f64,
}

/// The benchmark topology set crossed with the engine matrix: the paper's
/// two 2-level fat trees under every tree-capable engine (fat-tree,
/// Min-Hop, Up*/Down*) plus a wrapped 2-D torus under both VL-layering
/// engines (DFSSSP, LASH — the shapes that force lane re-assignment into
/// the repair path). Level 0 drops the 648-node tree to keep debug runs
/// quick; the CI smoke run uses level 1.
fn repair_builders(level: u8) -> Vec<(fn() -> BuiltTopology, EngineKind)> {
    let tree_engines = [EngineKind::FatTree, EngineKind::MinHop, EngineKind::UpDown];
    let mut out: Vec<(fn() -> BuiltTopology, EngineKind)> = Vec::new();
    for engine in tree_engines {
        out.push((fattree::paper_324, engine));
    }
    out.push((torus_4x4, EngineKind::Dfsssp));
    out.push((torus_4x4, EngineKind::Lash));
    if level >= 1 {
        for engine in tree_engines {
            out.push((fattree::paper_648, engine));
        }
    }
    out
}

fn torus_4x4() -> BuiltTopology {
    torus::torus_2d(4, 4, 1, true)
}

/// What one arm did: the fault responses, then (repair and full-sweep
/// arms) the heals.
#[derive(Default)]
struct ArmRun {
    smps: usize,
    wall: Duration,
    fallbacks: u64,
    heal_smps: usize,
    heal_wall: Duration,
    heals_no_debt: u64,
    healed_exactly: bool,
}

/// Runs one arm: fresh fabric, bring-up, then `faults` seeded
/// connectivity-preserving link-downs each answered per `arm` — and, but
/// for the `full_reconfiguration` arm, the same links brought back up in
/// reverse order, each link-up trap answered as the arm's SM answers it.
///
/// **Timer coverage.** Every arm's wall timer starts after the link-down
/// and covers route compute + LFT distribution + one invariant
/// verification per fault. The repair arm verifies *inside*
/// `handle_trap` (its acceptance gate); the full arms have no gate, so
/// they run the same verifier (deadlock check off, matching the gate's
/// default) explicitly inside the timer. Without that, the repair arm
/// would be billed for verification the other arms skip. The heal timer
/// covers the link-up responses the same way.
fn run_arm(
    build: fn() -> BuiltTopology,
    engine: EngineKind,
    faults: usize,
    seed: u64,
    arm: Arm,
) -> ArmRun {
    let mut t = build();
    let mut sm = SubnetManager::new(
        t.hosts[0],
        SmConfig {
            engine,
            repair: arm == Arm::Repair,
            ..SmConfig::default()
        },
    );
    sm.set_observer(Observer::metrics());
    sm.bring_up(&mut t.subnet).expect("bench bring-up");
    let pristine = installed_lfts(&t.subnet);
    let links = core_links(&t.subnet);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut transport = SmpTransport::perfect(sm.sm_node);
    let mut run = ArmRun::default();
    let mut downed = Vec::new();
    let mut answer = |sm: &mut SubnetManager, subnet: &mut Subnet, node, port| {
        let started = Instant::now();
        let trap = Trap::LinkStateChange { node, port };
        let report = sm
            .handle_trap(subnet, trap, &mut transport)
            .expect("bench trap");
        if arm == Arm::Sweep {
            let _ = ib_verify::FabricVerifier::new()
                .with_deadlock(false)
                .verify(subnet)
                .expect("bench verify");
        }
        let wall = started.elapsed();
        assert!(
            report.failed_blocks.is_empty(),
            "bench sweep did not converge"
        );
        (report.distribution.lft_smps, wall)
    };
    for _ in 0..faults {
        let cands = safe_to_down(&t.subnet, &links);
        if cands.is_empty() {
            break;
        }
        let (a, p, _) = cands[rng.gen_range(0..cands.len())];
        t.subnet.set_link_down(a, p).expect("bench link-down");
        downed.push((a, p));
        let (smps, wall) = if arm == Arm::FullRc {
            let started = Instant::now();
            let report = sm
                .full_reconfiguration(&mut t.subnet)
                .expect("bench full reconfiguration");
            let _ = ib_verify::FabricVerifier::new()
                .with_deadlock(false)
                .verify(&t.subnet)
                .expect("bench verify");
            (report.distribution.lft_smps, started.elapsed())
        } else {
            answer(&mut sm, &mut t.subnet, a, p)
        };
        run.smps += smps;
        run.wall += wall;
    }
    if arm != Arm::FullRc {
        for &(a, p) in downed.iter().rev() {
            t.subnet.set_link_up(a, p).expect("bench link-up");
            let (smps, wall) = answer(&mut sm, &mut t.subnet, a, p);
            run.heal_smps += smps;
            run.heal_wall += wall;
        }
        run.healed_exactly = installed_lfts(&t.subnet) == pristine;
    }
    // Read the per-engine tag rather than the aggregate: a single-engine
    // arm sees the same number either way, and this keeps the tagged
    // counters BENCH reports on exercised end to end.
    if let Some(snap) = sm.observer().snapshot() {
        run.fallbacks = snap.counter(&format!("repair.fallback.{}", engine.name()));
        run.heals_no_debt = snap.counter("repair.heal_no_debt");
    }
    run
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the whole grid: every benchmark topology at every fault count,
/// the repair arm vs both full arms on identical schedules.
#[must_use]
pub fn repair_grid(level: u8) -> Vec<RepairRow> {
    let fault_counts: &[usize] = if level >= 1 { &[1, 2, 4] } else { &[1, 2] };
    let mut rows = Vec::new();
    for (build, engine) in repair_builders(level) {
        let probe = build();
        let switches = probe.subnet.num_physical_switches();
        let name = probe.name.clone();
        drop(probe);
        for (fi, &faults) in fault_counts.iter().enumerate() {
            let seed = 0xFA_B1C ^ ((fi as u64) << 8);
            let repair = run_arm(build, engine, faults, seed, Arm::Repair);
            let full = run_arm(build, engine, faults, seed, Arm::Sweep);
            let full_rc = run_arm(build, engine, faults, seed, Arm::FullRc);
            rows.push(RepairRow {
                topology: name.clone(),
                switches,
                engine: engine.name(),
                faults,
                repair_smps: repair.smps,
                full_smps: full.smps,
                full_rc_smps: full_rc.smps,
                repair_wall: repair.wall,
                full_wall: full.wall,
                full_rc_wall: full_rc.wall,
                repair_fallbacks: repair.fallbacks,
                heal_smps: repair.heal_smps,
                full_heal_smps: full.heal_smps,
                heal_wall: repair.heal_wall,
                full_heal_wall: full.heal_wall,
                heals_no_debt: repair.heals_no_debt,
                healed_exactly: repair.healed_exactly,
                smp_ratio: ratio(repair.smps, full.smps),
                smp_ratio_vs_full_rc: ratio(repair.smps, full_rc.smps),
            });
        }
    }
    rows
}

/// One cell of the batched-vs-serial comparison: the same k-fault burst
/// (every link down before any response)
/// answered once as a single `repair_sweep_batch` and once as k serial
/// repair sweeps.
#[derive(Clone, Debug)]
pub struct BatchRow {
    /// Topology name (e.g. `fat-tree-2L-648`).
    pub topology: String,
    /// Physical switch count.
    pub switches: usize,
    /// Routing engine both arms use.
    pub engine: &'static str,
    /// Burst size: link-downs batched into (or serialized over) repairs.
    pub faults: usize,
    /// LFT SMPs the one batched sweep sent.
    pub batched_smps: usize,
    /// LFT SMPs the k serial repair sweeps sent in total.
    pub serial_smps: usize,
    /// Verifier passes in the batched arm (one gate per burst).
    pub batched_verify_runs: u64,
    /// Verifier passes in the serial arm (one gate per fault).
    pub serial_verify_runs: u64,
    /// Wall time of the batched response.
    pub batched_wall: Duration,
    /// Wall time of the k serial responses, summed.
    pub serial_wall: Duration,
    /// `batched_smps / serial_smps` — below 1.0 means batching won.
    pub smp_ratio: f64,
    /// Final installed LFTs byte-identical across the two arms (must
    /// always hold: batching changes cost, never routes).
    pub identical_lfts: bool,
    /// Batched repairs that fell back to a full sweep.
    pub batched_fallbacks: u64,
}

/// Every node's installed `(destination, out-port)` rows in the subnet's
/// deterministic node order — the byte-identity fingerprint the batch
/// rows compare across arms.
type LftFingerprint = Vec<Vec<(Lid, PortNum)>>;

/// Collects the [`LftFingerprint`] of the fabric's installed tables.
fn installed_lfts(subnet: &Subnet) -> LftFingerprint {
    subnet
        .nodes()
        .map(|n| n.lft().map(|l| l.iter().collect()).unwrap_or_default())
        .collect()
}

/// One sub-arm of the batch comparison. All `faults` links go down
/// *before* any response runs, then the arm answers: one
/// `repair_sweep_batch` when `batched`, else one repair sweep per trap in
/// arrival order.
///
/// **Timer coverage.** The timer starts after the last link-down and
/// covers the responses only — engine splice(s), dirty-block
/// distribution(s), and the verifier gate(s) each sweep runs internally.
/// Bring-up and fault injection sit outside it, identically in both
/// sub-arms. Candidate links are re-picked from the same seeded RNG over
/// the same evolving link state, so both sub-arms down the identical
/// cables in the identical order.
///
/// Returns `(lft_smps, verify_runs, wall, fallbacks, lft_fingerprint)`.
fn run_batch_arm(
    build: fn() -> BuiltTopology,
    engine: EngineKind,
    faults: usize,
    seed: u64,
    batched: bool,
) -> (usize, u64, Duration, u64, LftFingerprint) {
    let mut t = build();
    let mut sm = SubnetManager::new(
        t.hosts[0],
        SmConfig {
            engine,
            repair: true,
            ..SmConfig::default()
        },
    );
    sm.set_observer(Observer::metrics());
    sm.bring_up(&mut t.subnet).expect("bench bring-up");
    let links = core_links(&t.subnet);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut transport = SmpTransport::perfect(sm.sm_node);
    let mut downed = Vec::new();
    for _ in 0..faults {
        let cands = safe_to_down(&t.subnet, &links);
        if cands.is_empty() {
            break;
        }
        let (a, p, _) = cands[rng.gen_range(0..cands.len())];
        t.subnet.set_link_down(a, p).expect("bench link-down");
        downed.push((a, p));
    }
    let mut smps = 0;
    let started = Instant::now();
    if batched {
        let report = sm
            .repair_sweep_batch(&mut t.subnet, &downed, &mut transport)
            .expect("bench batch repair");
        assert!(
            report.failed_blocks.is_empty(),
            "bench batch did not converge"
        );
        smps += report.distribution.lft_smps;
    } else {
        for &(a, p) in &downed {
            let report = sm
                .handle_trap(
                    &mut t.subnet,
                    Trap::LinkStateChange { node: a, port: p },
                    &mut transport,
                )
                .expect("bench trap");
            assert!(
                report.failed_blocks.is_empty(),
                "bench serial repair did not converge"
            );
            smps += report.distribution.lft_smps;
        }
    }
    let wall = started.elapsed();
    let snap = sm.observer().snapshot();
    let verify_runs = snap.as_ref().map_or(0, |s| s.counter("verify.runs"));
    let fallbacks = snap.as_ref().map_or(0, |s| {
        s.counter(&format!("repair.fallback.{}", engine.name()))
    });
    (
        smps,
        verify_runs,
        wall,
        fallbacks,
        installed_lfts(&t.subnet),
    )
}

/// The batched-vs-serial grid: every benchmark topology at burst sizes
/// of 2-3 faults (2-4 at level >= 1), one batched sweep vs k serial
/// repairs on identical fault schedules.
#[must_use]
pub fn batch_grid(level: u8) -> Vec<BatchRow> {
    let fault_counts: &[usize] = if level >= 1 { &[2, 3, 4] } else { &[2, 3] };
    let mut rows = Vec::new();
    for (build, engine) in repair_builders(level) {
        let probe = build();
        let switches = probe.subnet.num_physical_switches();
        let name = probe.name.clone();
        drop(probe);
        for (fi, &faults) in fault_counts.iter().enumerate() {
            let seed = 0xBA_7C4 ^ ((fi as u64) << 8);
            let (batched_smps, batched_verify_runs, batched_wall, batched_fallbacks, batch_lfts) =
                run_batch_arm(build, engine, faults, seed, true);
            let (serial_smps, serial_verify_runs, serial_wall, _, serial_lfts) =
                run_batch_arm(build, engine, faults, seed, false);
            rows.push(BatchRow {
                topology: name.clone(),
                switches,
                engine: engine.name(),
                faults,
                batched_smps,
                serial_smps,
                batched_verify_runs,
                serial_verify_runs,
                batched_wall,
                serial_wall,
                smp_ratio: ratio(batched_smps, serial_smps),
                identical_lfts: batch_lfts == serial_lfts,
                batched_fallbacks,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_topologies_and_repair_does_not_send_more() {
        let rows = repair_grid(0);
        assert!(rows.iter().any(|r| r.topology.contains("fat-tree")));
        // Every engine in the matrix gets native-repair rows.
        for kind in EngineKind::all() {
            assert!(
                rows.iter().any(|r| r.engine == kind.name()),
                "no rows for engine {}",
                kind.name()
            );
        }
        for row in &rows {
            assert!(row.faults > 0);
            // All five engines repair natively now: a fallback on the
            // bench grid means an engine degraded to the full sweep.
            assert_eq!(
                row.repair_fallbacks, 0,
                "{} engine={} faults={}: repair fell back",
                row.topology, row.engine, row.faults
            );
            assert!(row.full_smps > 0, "{}: full arm sent nothing", row.topology);
            // A clean repair never exceeds the full sweep's dirty-block
            // diff; a fallback degenerates to exactly the full sweep.
            assert!(
                row.repair_smps <= row.full_smps,
                "{} faults={}: repair sent {} vs full {}",
                row.topology,
                row.faults,
                row.repair_smps,
                row.full_smps
            );
            assert!(
                row.repair_smps <= row.full_rc_smps,
                "{} faults={}: repair sent {} vs full_rc {}",
                row.topology,
                row.faults,
                row.repair_smps,
                row.full_rc_smps
            );
            // Every repair left a debt, and the heals, last down first up,
            // paid them all off: the pre-fault tables, at the repairs' SMPs.
            assert!(row.healed_exactly, "{} faults={}", row.topology, row.faults);
            assert_eq!(
                row.heals_no_debt, 0,
                "{} faults={}",
                row.topology, row.faults
            );
            assert_eq!(
                row.heal_smps, row.repair_smps,
                "{} faults={}",
                row.topology, row.faults
            );
        }
    }

    #[test]
    fn batched_repair_matches_serial_byte_for_byte_and_never_sends_more() {
        let rows = batch_grid(0);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(
                row.identical_lfts,
                "{} faults={}: batched and serial LFTs diverged",
                row.topology, row.faults
            );
            assert_eq!(
                row.batched_fallbacks, 0,
                "{} faults={}: batched arm fell back",
                row.topology, row.faults
            );
            assert!(
                row.batched_smps <= row.serial_smps,
                "{} faults={}: batch sent {} vs serial {}",
                row.topology,
                row.faults,
                row.batched_smps,
                row.serial_smps
            );
            assert!(
                row.batched_verify_runs < row.serial_verify_runs,
                "{} faults={}: batch verified {}x vs serial {}x",
                row.topology,
                row.faults,
                row.batched_verify_runs,
                row.serial_verify_runs
            );
        }
    }
}
