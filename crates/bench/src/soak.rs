//! Chaos-soak harness: long, seeded, randomized schedules interleaving
//! link faults, flap bursts, live migrations, and SM sweeps on a
//! virtualized fat tree — with the fabric invariant verifier run after
//! every convergence and the quarantine hold-down list checked against
//! the installed LFTs.
//!
//! Everything the soak does is a pure function of its [`SoakConfig`]
//! (seed included), so a failing run is reproducible from the seed the
//! failure message prints. The optional [`Inject`] mode corrupts an
//! installed LFT entry *after* a clean soak and demands the verifier
//! catch it — the harness's loud-failure self-test.

use ib_core::{DataCenter, DataCenterConfig, VirtArch};
use ib_mad::SmpTransport;
use ib_observe::Observer;
use ib_routing::{EngineKind, RoutingOptions};
use ib_sm::{QuarantineOptions, Trap};
use ib_subnet::topology::fattree;
use ib_subnet::{NodeId, Subnet};
use ib_types::{IbResult, PortNum};
use ib_verify::FabricVerifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deliberate LFT corruption applied after the event schedule, used to
/// prove the verifier fails loudly instead of rubber-stamping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Redirect a VM's row on its own leaf to a wrong vSwitch.
    Misroute,
    /// Point the leaf row for a VM at a spine, whose row points back.
    Cycle,
    /// Clear a VM's forwarding row on its own leaf entirely.
    DropRow,
    /// Sever a leaf, let the SM clear the stranded columns, then
    /// resurrect one cleared row — a served switch pointing at a LID the
    /// fabric can no longer reach. The reachability-aware verifier must
    /// name it a stale route.
    StaleRoute,
}

impl std::str::FromStr for Inject {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "misroute" => Ok(Self::Misroute),
            "cycle" => Ok(Self::Cycle),
            "drop-row" => Ok(Self::DropRow),
            "stale-route" => Ok(Self::StaleRoute),
            other => Err(format!(
                "unknown injection `{other}` (want misroute|cycle|drop-row|stale-route)"
            )),
        }
    }
}

/// Soak scenario parameters. The defaults are the CI profile: a small
/// 2-level fat tree, 200 events, mild SMP loss on migrations.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Seed for the event schedule (and every derived RNG stream).
    pub seed: u64,
    /// How many top-level events to run.
    pub events: usize,
    /// Leaf switches in the fat tree.
    pub leaves: usize,
    /// Hypervisors per leaf.
    pub hosts_per_leaf: usize,
    /// Spine switches.
    pub spines: usize,
    /// VMs booted before the chaos starts.
    pub vms: usize,
    /// Per-hop SMP drop probability on migration transports.
    pub drop_probability: f64,
    /// Routing-engine worker threads (tables are invariant under this).
    pub workers: usize,
    /// Randomly (seeded coin per fault event) handle link-downs with the
    /// SM's incremental repair sweep instead of a full light sweep.
    pub repair: bool,
    /// Partition mode: the schedule trades single-link faults and flap
    /// bursts for whole-leaf severs and heals — the fabric repeatedly
    /// splits into two components and reconnects, with migrations and
    /// sweeps running throughout. The partial-fault events are dropped so
    /// every degraded shape stays an intact (sub-)fat-tree, which keeps
    /// the schedule deadlock-free under all five routing engines.
    pub partitions: bool,
    /// Routing engine for the SM's path computation. The default DFSSSP
    /// is the only engine whose tables stay deadlock-free on the degraded
    /// shapes the *default* (partial-fault) schedule produces; under
    /// `partitions` every engine is fair game.
    pub engine: EngineKind,
    /// Post-soak LFT corruption to throw at the verifier, if any.
    pub inject: Option<Inject>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            events: 200,
            leaves: 4,
            hosts_per_leaf: 2,
            spines: 2,
            vms: 4,
            drop_probability: 0.05,
            workers: 1,
            repair: false,
            partitions: false,
            engine: EngineKind::Dfsssp,
            inject: None,
        }
    }
}

/// What a soak run did and concluded. Byte-for-byte deterministic for a
/// given [`SoakConfig`] — the regression tests compare whole reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SoakReport {
    /// The schedule seed (reproduces the run).
    pub seed: u64,
    /// Events actually executed (less than requested iff a failure stopped
    /// the run).
    pub events_run: usize,
    /// Single link-down events applied.
    pub link_downs: usize,
    /// Single link-up events applied.
    pub link_ups: usize,
    /// Flap bursts applied (each is several traps in quick succession).
    pub flap_bursts: usize,
    /// Unprompted light sweeps run.
    pub sweeps: usize,
    /// Resilient migrations attempted.
    pub migrations: usize,
    /// ... of which committed.
    pub commits: usize,
    /// ... of which rolled back cleanly under SMP loss.
    pub rollbacks: usize,
    /// Events that found no applicable action and did nothing.
    pub noops: usize,
    /// Links that entered quarantine hold-down.
    pub quarantines_entered: u64,
    /// Traps absorbed by flap damping without a re-sweep.
    pub traps_absorbed: u64,
    /// Links released from quarantine after their hold-down expired.
    pub quarantines_released: usize,
    /// Whole-leaf sever events applied (partition mode).
    pub partitions: usize,
    /// Heal events applied: every cut link restored, boundary trap
    /// delivered (partition mode).
    pub heals: usize,
    /// Heals the SM *proved*: sweeps that found every previously
    /// stranded forwarding column restored (`sm.healed`).
    pub healed: u64,
    /// Stale-route violations found by any verification pass
    /// (`verify.stale_routes`) — zero on a clean run.
    pub stale_route_violations: u64,
    /// Migrations rejected by the reachability pre-flight
    /// (`migration.abort.unreachable`).
    pub migration_aborts: u64,
    /// Incremental repair sweeps attempted (`repair.attempts`).
    pub repair_sweeps: u64,
    /// ... of which fell back to a full sweep (`repair.fallback`).
    pub repair_fallbacks: u64,
    /// Link-up traps that undid their repair (`repair.heal_debt`).
    pub debt_heals: u64,
    /// Link-up traps no repair debt matched, answered by a full sweep
    /// (`repair.heal_no_debt`).
    pub heals_no_debt: u64,
    /// The fallbacks keyed by engine name (`repair.fallback.<engine>`,
    /// sorted) — which engine degraded, not just that one did.
    pub repair_fallbacks_by_engine: Vec<(String, u64)>,
    /// Explicit post-event verifier runs (the SM's own sweep-time and
    /// migration-time verifications come on top).
    pub verify_runs: usize,
    /// One verdict line per event: `"<i>:<kind>:clean"` or the violation.
    pub verdicts: Vec<String>,
    /// The failure that stopped the run, with the reproducing seed.
    pub failure: Option<String>,
}

impl SoakReport {
    /// Whether the run converged with zero violations (and no injection).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Every switch-to-switch cable of the physical core, one entry per cable
/// (keyed at the end with the smaller node index).
pub(crate) fn core_links(subnet: &Subnet) -> Vec<(NodeId, PortNum, NodeId)> {
    let mut out = Vec::new();
    for sw in subnet.physical_switches() {
        for (port, remote) in sw.cabled_ports() {
            if subnet.node(remote.node).is_physical_switch() && sw.id.index() < remote.node.index()
            {
                out.push((sw.id, port, remote.node));
            }
        }
    }
    out
}

/// Whether every live physical switch can still reach every other over up
/// links, pretending `skip` (one cable, either end) is down.
pub(crate) fn connected_without(
    subnet: &Subnet,
    links: &[(NodeId, PortNum, NodeId)],
    skip: (NodeId, PortNum),
) -> bool {
    let switches: Vec<NodeId> = subnet
        .physical_switches()
        .filter(|n| n.is_alive())
        .map(|n| n.id)
        .collect();
    let Some(&start) = switches.first() else {
        return true;
    };
    let mut reached = vec![start];
    let mut frontier = vec![start];
    while let Some(cur) = frontier.pop() {
        for &(a, p, b) in links {
            if (a, p) == skip || !subnet.is_link_up(a, p) {
                continue;
            }
            for (from, to) in [(a, b), (b, a)] {
                if from == cur && !reached.contains(&to) {
                    reached.push(to);
                    frontier.push(to);
                }
            }
        }
    }
    switches.iter().all(|s| reached.contains(s))
}

/// Links currently up whose loss keeps the switch core connected.
pub(crate) fn safe_to_down(
    subnet: &Subnet,
    links: &[(NodeId, PortNum, NodeId)],
) -> Vec<(NodeId, PortNum, NodeId)> {
    links
        .iter()
        .copied()
        .filter(|&(a, p, _)| subnet.is_link_up(a, p) && connected_without(subnet, links, (a, p)))
        .collect()
}

/// Runs the soak. Infrastructure errors (a sweep that cannot converge, a
/// verification failure inside the SM, a violation found by the explicit
/// post-event check) all land in `report.failure` together with the
/// reproducing seed; the schedule stops at the first one.
#[must_use]
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let observer = Observer::metrics();
    let mut dc = DataCenter::from_topology_observed(
        fattree::two_level(cfg.leaves, cfg.hosts_per_leaf, cfg.spines),
        DataCenterConfig {
            arch: VirtArch::VSwitchPrepopulated,
            vfs_per_hypervisor: 2,
            // Min-Hop is *not* deadlock-free once links drop (a lost
            // uplink forces down-up "valley" routes whose channel
            // dependencies close cycles — the sweep-time verifier
            // rejects exactly that). The default DFSSSP's lane layering
            // stays deadlock-free on every degraded shape the default
            // schedule produces; the partition schedule only ever severs
            // whole leaves, so there every engine qualifies.
            engine: cfg.engine,
            verify: true,
            quarantine: QuarantineOptions::enabled(),
            routing: RoutingOptions::default().with_workers(cfg.workers),
            ..DataCenterConfig::default()
        },
        observer.clone(),
    )
    .expect("soak bring-up");
    let hyps = dc.hypervisors.len();
    let mut vm_ids = Vec::with_capacity(cfg.vms);
    for i in 0..cfg.vms {
        vm_ids.push(
            dc.create_vm(format!("soak-vm{i}"), i % hyps)
                .expect("soak vm"),
        );
    }

    let links = core_links(&dc.subnet);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut traps = SmpTransport::perfect(dc.sm.sm_node);
    let mut now_ns: u64 = 0;
    let mut report = SoakReport {
        seed: cfg.seed,
        ..SoakReport::default()
    };

    // Partition-mode state: the leaves the schedule may sever (never the
    // SM's own — the master must keep a component to serve), and the
    // currently active cut, one `(leaf, leaf_port, spine, spine_port)`
    // per severed cable.
    let sm_leaf = dc.hypervisors[0].leaf;
    let mut victim_leaves: Vec<NodeId> = dc
        .hypervisors
        .iter()
        .map(|h| h.leaf)
        .filter(|&l| l != sm_leaf)
        .collect();
    victim_leaves.sort_unstable_by_key(|n| n.index());
    victim_leaves.dedup();
    let mut active_cut: Option<Vec<(NodeId, PortNum, NodeId, PortNum)>> = None;

    for i in 0..cfg.events {
        now_ns += 50_000_000 + rng.gen_range(0..150_000_000);
        let roll = rng.gen_range(0u32..100);
        let mut kind = "noop";
        let step: IbResult<()> = (|| {
            if cfg.partitions {
                if roll < 18 {
                    // Split: sever a whole victim leaf — every spine
                    // uplink at once — and let the served-side spines
                    // report it. The fabric is now two components; the
                    // SM's sweeps must degrade, not fail.
                    if active_cut.is_some() {
                        return Ok(());
                    }
                    let leaf = victim_leaves[rng.gen_range(0..victim_leaves.len())];
                    kind = "split";
                    report.partitions += 1;
                    let cut: Vec<(NodeId, PortNum, NodeId, PortNum)> = dc
                        .subnet
                        .node(leaf)
                        .connected_ports()
                        .filter(|(_, r)| dc.subnet.node(r.node).is_physical_switch())
                        .map(|(p, r)| (leaf, p, r.node, r.port))
                        .collect();
                    for &(l, p, _, _) in &cut {
                        dc.subnet.set_link_down(l, p)?;
                    }
                    for &(_, _, spine, sp) in &cut {
                        dc.sm.handle_trap_at(
                            &mut dc.subnet,
                            Trap::LinkStateChange {
                                node: spine,
                                port: sp,
                            },
                            &mut traps,
                            now_ns,
                        )?;
                        now_ns += 1_000_000;
                    }
                    active_cut = Some(cut);
                } else if roll < 36 {
                    // Heal: every cut cable comes back, and each end's
                    // link-up trap is delivered — the boundary signal the
                    // degraded SM must NOT absorb. The sweep it triggers
                    // has to restore every stranded forwarding column
                    // (the SM proves it and errors otherwise).
                    let Some(cut) = active_cut.take() else {
                        return Ok(());
                    };
                    kind = "heal";
                    report.heals += 1;
                    for &(l, p, _, _) in &cut {
                        dc.subnet.set_link_up(l, p)?;
                    }
                    for &(l, p, _, _) in &cut {
                        dc.sm.handle_trap_at(
                            &mut dc.subnet,
                            Trap::LinkStateChange { node: l, port: p },
                            &mut traps,
                            now_ns,
                        )?;
                        now_ns += 1_000_000;
                    }
                } else if roll < 80 {
                    // Resilient migration — the destination may sit in
                    // the lost component, in which case the pre-flight
                    // must abort it cleanly before any SMP.
                    let id = vm_ids[rng.gen_range(0..vm_ids.len())];
                    let cur = dc.vm(id).expect("soak vm record").hypervisor;
                    let dest = rng.gen_range(0..hyps);
                    let migration_seed = rng.gen_range(0..u64::MAX);
                    if dest == cur || dc.hypervisors[dest].free_slot().is_none() {
                        return Ok(());
                    }
                    kind = "migrate";
                    report.migrations += 1;
                    let mut transport =
                        SmpTransport::lossy(dc.sm.sm_node, migration_seed, cfg.drop_probability, 0);
                    transport.retry.max_attempts = 8;
                    let tx = dc.migrate_vm_resilient(id, dest, &mut transport)?;
                    if tx.committed {
                        report.commits += 1;
                    } else {
                        report.rollbacks += 1;
                    }
                } else {
                    // Unprompted light sweep — run degraded or whole.
                    kind = "sweep";
                    report.sweeps += 1;
                    dc.sm.light_sweep(&mut dc.subnet, &mut traps)?;
                }
                return Ok(());
            }
            if roll < 35 {
                // Link down (connectivity-preserving).
                let cands = safe_to_down(&dc.subnet, &links);
                if cands.is_empty() {
                    return Ok(());
                }
                let (a, p, _) = cands[rng.gen_range(0..cands.len())];
                kind = "down";
                report.link_downs += 1;
                // Seeded coin: half the faults take the incremental repair
                // path, half the classic full sweep. The `&&` keeps the
                // RNG stream untouched when repair is off, so default
                // schedules stay byte-identical.
                dc.sm.set_repair(cfg.repair && rng.gen_bool(0.5));
                dc.subnet.set_link_down(a, p)?;
                dc.sm.handle_trap_at(
                    &mut dc.subnet,
                    Trap::LinkStateChange { node: a, port: p },
                    &mut traps,
                    now_ns,
                )?;
            } else if roll < 60 {
                // Link up — never overriding a quarantine hold-down.
                let cands: Vec<_> = links
                    .iter()
                    .copied()
                    .filter(|&(a, p, _)| {
                        !dc.subnet.is_link_up(a, p)
                            && !dc.sm.quarantine.is_quarantined(&dc.subnet, a, p, now_ns)
                    })
                    .collect();
                if cands.is_empty() {
                    return Ok(());
                }
                let (a, p, _) = cands[rng.gen_range(0..cands.len())];
                kind = "up";
                report.link_ups += 1;
                dc.subnet.set_link_up(a, p)?;
                dc.sm.handle_trap_at(
                    &mut dc.subnet,
                    Trap::LinkStateChange { node: a, port: p },
                    &mut traps,
                    now_ns,
                )?;
            } else if roll < 75 {
                // Flap burst: down/up/down in quick succession. The third
                // trap trips the damper; the link ends administratively
                // down inside its hold-down window.
                let cands = safe_to_down(&dc.subnet, &links);
                if cands.is_empty() {
                    return Ok(());
                }
                let (a, p, _) = cands[rng.gen_range(0..cands.len())];
                kind = "flap";
                report.flap_bursts += 1;
                dc.sm.set_repair(cfg.repair && rng.gen_bool(0.5));
                for _ in 0..4 {
                    let held = dc.sm.quarantine.is_quarantined(&dc.subnet, a, p, now_ns);
                    if dc.subnet.is_link_up(a, p) {
                        dc.subnet.set_link_down(a, p)?;
                    } else if !held {
                        dc.subnet.set_link_up(a, p)?;
                    }
                    // A held link keeps flapping too — that trap must be
                    // absorbed by the damper, not trigger a re-sweep.
                    dc.sm.handle_trap_at(
                        &mut dc.subnet,
                        Trap::LinkStateChange { node: a, port: p },
                        &mut traps,
                        now_ns,
                    )?;
                    now_ns += 1_000_000;
                    if held {
                        break;
                    }
                }
            } else if roll < 92 {
                // Resilient migration over a lossy transport.
                let id = vm_ids[rng.gen_range(0..vm_ids.len())];
                let cur = dc.vm(id).expect("soak vm record").hypervisor;
                let dest = rng.gen_range(0..hyps);
                let migration_seed = rng.gen_range(0..u64::MAX);
                if dest == cur || dc.hypervisors[dest].free_slot().is_none() {
                    return Ok(());
                }
                kind = "migrate";
                report.migrations += 1;
                let mut transport =
                    SmpTransport::lossy(dc.sm.sm_node, migration_seed, cfg.drop_probability, 0);
                transport.retry.max_attempts = 8;
                let tx = dc.migrate_vm_resilient(id, dest, &mut transport)?;
                if tx.committed {
                    report.commits += 1;
                } else {
                    report.rollbacks += 1;
                }
            } else {
                // Unprompted light sweep (verified internally).
                kind = "sweep";
                report.sweeps += 1;
                dc.sm.light_sweep(&mut dc.subnet, &mut traps)?;
            }
            Ok(())
        })();
        if kind == "noop" {
            report.noops += 1;
        }
        report.events_run = i + 1;
        if let Err(e) = step {
            report.verdicts.push(format!("{i}:{kind}:error"));
            report.failure = Some(format!(
                "event {i} ({kind}): {e}; reproduce with --seed {}",
                cfg.seed
            ));
            break;
        }

        // Expired hold-downs release and fold back into routing.
        match dc
            .sm
            .release_quarantined(&mut dc.subnet, &mut traps, now_ns)
        {
            Ok(n) => report.quarantines_released += n,
            Err(e) => {
                report.failure = Some(format!(
                    "event {i} (release): {e}; reproduce with --seed {}",
                    cfg.seed
                ));
                break;
            }
        }

        // The soak's own convergence check: black holes, forwarding
        // loops, addressing, stale routes, plus the promise that no
        // installed row crosses a quarantined link — all scoped to the
        // component the SM can actually govern (the whole fabric except
        // mid-split, when the lost side's frozen tables are not the SM's
        // to answer for). Deadlock-freedom is checked at sweep time by
        // the SM itself (`SmConfig.verify`), which has the engine's
        // virtual-lane layering — a single-lane re-check here would
        // false-positive on DFSSSP's per-lane-acyclic tables.
        let mut problems: Vec<String> = match FabricVerifier::new()
            .with_deadlock(false)
            .with_viewpoint(dc.sm.sm_node)
            .verify(&dc.subnet)
        {
            Ok(r) => {
                report.verify_runs += 1;
                r.violations.iter().map(ToString::to_string).collect()
            }
            Err(e) => vec![format!("verifier error: {e}")],
        };
        problems.extend(dc.sm.quarantine.verify_absent_scoped(
            &dc.subnet,
            now_ns,
            Some(dc.sm.sm_node),
        ));
        // The reverse route index is derived state: prove it still mirrors
        // the installed rows after every event (repairs splice it, full
        // sweeps rebuild it, migrations refresh their columns).
        problems.extend(dc.sm.verify_route_index(&dc.subnet));
        if problems.is_empty() {
            report.verdicts.push(format!("{i}:{kind}:clean"));
        } else {
            report.verdicts.push(format!("{i}:{kind}:{}", problems[0]));
            report.failure = Some(format!(
                "event {i} ({kind}): {} violation(s), first: {}; reproduce with --seed {}",
                problems.len(),
                problems[0],
                cfg.seed
            ));
            break;
        }
    }

    if let Some(snap) = observer.snapshot() {
        report.quarantines_entered = snap.counter("quarantine.entered");
        report.traps_absorbed = snap.counter("quarantine.absorbed");
        report.healed = snap.counter("sm.healed");
        report.stale_route_violations = snap.counter("verify.stale_routes");
        report.migration_aborts = snap.counter("migration.abort.unreachable");
        report.repair_sweeps = snap.counter("repair.attempts");
        report.repair_fallbacks = snap.counter("repair.fallback");
        report.debt_heals = snap.counter("repair.heal_debt");
        report.heals_no_debt = snap.counter("repair.heal_no_debt");
        report.repair_fallbacks_by_engine = snap
            .counters
            .iter()
            .filter_map(|(n, v)| {
                n.strip_prefix("repair.fallback.")
                    .map(|engine| (engine.to_string(), *v))
            })
            .collect();
    }

    if report.failure.is_none() {
        if let Some(inject) = cfg.inject {
            report.failure = Some(run_injection(&mut dc, inject, cfg.seed));
            report.verify_runs += 1;
        }
    }
    report
}

/// Corrupts an installed LFT per `inject` and runs the verifier, which
/// must catch it. Returns the failure line either way — an injection run
/// always fails loudly; an *undetected* corruption is the worse failure.
fn run_injection(dc: &mut DataCenter, inject: Inject, seed: u64) -> String {
    let (lid, hyp) = {
        let vm = *dc.vms().first().expect("soak has VMs");
        (vm.lid, vm.hypervisor)
    };
    let leaf = dc.hypervisors[hyp].leaf;
    let what = match inject {
        Inject::Misroute => {
            // Point the row at a vSwitch that does not own the LID; its
            // only route for a foreign LID bounces back up the cable.
            let own = dc.subnet.node(leaf).lft().and_then(|l| l.get(lid));
            let (port, _) = dc
                .subnet
                .node(leaf)
                .connected_ports()
                .find(|&(p, r)| dc.subnet.node(r.node).is_vswitch() && Some(p) != own)
                .expect("leaf has a second vSwitch");
            dc.subnet.lft_mut(leaf).expect("leaf LFT").set(lid, port);
            format!("misroute of LID {lid} to a wrong vSwitch")
        }
        Inject::Cycle => {
            // Leaf row up to a spine whose own row necessarily descends
            // right back: a two-switch forwarding cycle.
            let (port, _) = dc
                .subnet
                .node(leaf)
                .connected_ports()
                .find(|&(_, r)| dc.subnet.node(r.node).is_physical_switch())
                .expect("leaf has an up spine link");
            dc.subnet.lft_mut(leaf).expect("leaf LFT").set(lid, port);
            format!("cross-pointing rows for LID {lid} (leaf <-> spine)")
        }
        Inject::DropRow => {
            dc.subnet.lft_mut(leaf).expect("leaf LFT").clear(lid);
            format!("dropped forwarding row for LID {lid}")
        }
        Inject::StaleRoute => {
            // Sever a victim leaf, sweep so the SM clears every stranded
            // column on the switches it still serves, then resurrect one
            // cleared row on the SM's own leaf: a served switch
            // forwarding toward a destination the fabric cannot reach.
            let sm_leaf = dc.hypervisors[0].leaf;
            let victim = dc
                .hypervisors
                .iter()
                .map(|h| h.leaf)
                .find(|&l| l != sm_leaf)
                .expect("soak fabric has a second leaf");
            let uplinks: Vec<PortNum> = dc
                .subnet
                .node(victim)
                .connected_ports()
                .filter(|(_, r)| dc.subnet.node(r.node).is_physical_switch())
                .map(|(p, _)| p)
                .collect();
            for &p in &uplinks {
                dc.subnet
                    .set_link_down(victim, p)
                    .expect("sever victim leaf");
            }
            let mut traps = SmpTransport::perfect(dc.sm.sm_node);
            dc.sm
                .light_sweep(&mut dc.subnet, &mut traps)
                .expect("degraded sweep");
            let lost = dc
                .subnet
                .node(victim)
                .lids()
                .next()
                .expect("leaf owns a LID");
            let (port, _) = dc
                .subnet
                .node(sm_leaf)
                .connected_ports()
                .next()
                .expect("sm leaf has a live port");
            dc.subnet
                .lft_mut(sm_leaf)
                .expect("leaf LFT")
                .set(lost, port);
            format!("stale route: resurrected the cleared row for lost LID {lost}")
        }
    };
    match FabricVerifier::new()
        .with_deadlock(false)
        .with_viewpoint(dc.sm.sm_node)
        .verify(&dc.subnet)
    {
        Ok(r) if r.is_clean() => {
            format!("injected {what} went UNDETECTED — verifier gap; reproduce with --seed {seed}")
        }
        Ok(r) => format!(
            "injected {what}: verifier caught it — {}; reproduce with --seed {seed}",
            r.summary()
        ),
        Err(e) => format!("injected {what}: verifier errored: {e}; reproduce with --seed {seed}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SoakConfig {
        SoakConfig {
            events: 40,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn default_soak_converges_clean() {
        let report = run_soak(&quick());
        assert!(report.is_clean(), "soak failed: {:?}", report.failure);
        assert_eq!(report.events_run, 40);
        assert_eq!(report.verdicts.len(), 40);
        assert!(report.verdicts.iter().all(|v| v.ends_with(":clean")));
        // The mix actually exercised faults and migrations.
        assert!(report.link_downs > 0);
        assert!(report.migrations > 0);
        assert!(report.verify_runs == 40);
    }

    #[test]
    fn flap_bursts_enter_quarantine_and_later_release() {
        // A longer run reliably crosses the flap threshold and outlives
        // at least one hold-down window.
        let report = run_soak(&SoakConfig {
            events: 120,
            ..SoakConfig::default()
        });
        assert!(report.is_clean(), "soak failed: {:?}", report.failure);
        assert!(report.flap_bursts > 0);
        assert!(report.quarantines_entered > 0, "no link was quarantined");
        assert!(report.traps_absorbed > 0, "damping never absorbed a trap");
        assert!(
            report.quarantines_released > 0,
            "no hold-down expired in-run"
        );
    }

    #[test]
    fn repair_soak_converges_clean_and_exercises_repairs() {
        let report = run_soak(&SoakConfig {
            events: 80,
            repair: true,
            ..SoakConfig::default()
        });
        assert!(
            report.is_clean(),
            "repair soak failed: {:?}",
            report.failure
        );
        assert!(report.link_downs > 0);
        assert!(
            report.repair_sweeps > 0,
            "the coin never landed on the repair path"
        );
    }

    #[test]
    fn partition_soak_splits_heals_and_stays_clean() {
        let report = run_soak(&SoakConfig {
            events: 80,
            partitions: true,
            ..SoakConfig::default()
        });
        assert!(
            report.is_clean(),
            "partition soak failed: {:?}",
            report.failure
        );
        assert!(report.partitions > 0, "no split was scheduled");
        assert!(report.heals > 0, "no heal was scheduled");
        assert!(
            report.healed >= report.heals as u64,
            "the SM proved fewer heals ({}) than were applied ({})",
            report.healed,
            report.heals
        );
        assert_eq!(
            report.stale_route_violations, 0,
            "clean run grew a stale route"
        );
        assert!(report.migrations > 0);
        assert!(
            report.migration_aborts > 0,
            "no migration ever targeted the lost component"
        );
    }

    #[test]
    fn partition_soak_is_clean_under_every_engine() {
        for engine in EngineKind::all() {
            let report = run_soak(&SoakConfig {
                events: 40,
                partitions: true,
                engine,
                ..SoakConfig::default()
            });
            assert!(report.is_clean(), "{engine}: {:?}", report.failure);
            assert!(report.partitions > 0, "{engine}: no split was scheduled");
        }
    }

    #[test]
    fn partition_soak_is_worker_invariant() {
        let base = SoakConfig {
            events: 40,
            partitions: true,
            ..SoakConfig::default()
        };
        let one = run_soak(&base);
        let four = run_soak(&SoakConfig { workers: 4, ..base });
        assert_eq!(one, four, "schedule must not depend on worker count");
    }

    #[test]
    fn every_injection_fails_loudly_with_the_seed() {
        for inject in [
            Inject::Misroute,
            Inject::Cycle,
            Inject::DropRow,
            Inject::StaleRoute,
        ] {
            let report = run_soak(&SoakConfig {
                events: 10,
                inject: Some(inject),
                ..SoakConfig::default()
            });
            let failure = report.failure.expect("injection must fail the run");
            assert!(
                failure.contains("verifier caught it"),
                "{inject:?}: {failure}"
            );
            assert!(failure.contains("--seed"), "{inject:?}: {failure}");
        }
    }

    #[test]
    fn inject_parses_from_cli_names() {
        assert_eq!("misroute".parse(), Ok(Inject::Misroute));
        assert_eq!("cycle".parse(), Ok(Inject::Cycle));
        assert_eq!("drop-row".parse(), Ok(Inject::DropRow));
        assert_eq!("stale-route".parse(), Ok(Inject::StaleRoute));
        assert!("nope".parse::<Inject>().is_err());
    }
}
