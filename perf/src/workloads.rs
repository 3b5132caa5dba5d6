//! The four workloads: what each builds, the one class of op it times, and
//! the correctness gate it must pass after its last op. One call to
//! [`run_round`] is one round — in `perf run` that is one fresh child
//! process.

use std::time::Instant;

use ib_vswitch::cloud::LiveMigrationWorkflow;
use ib_vswitch::core::{DataCenter, DataCenterConfig, VirtArch, VmId};
use ib_vswitch::mad::{CostModel, SmpLedger, SmpTransport};
use ib_vswitch::observe::Observer;
use ib_vswitch::routing::{EngineKind, RoutingOptions};
use ib_vswitch::sm::{SmConfig, SubnetManager, SweepKind, SweepOptions, Trap};
use ib_vswitch::subnet::topology::{fattree, torus, BuiltTopology};
use ib_vswitch::subnet::{NodeId, Subnet};
use ib_vswitch::types::PortNum;
use ib_vswitch::verify::FabricVerifier;

use crate::json::Value;
use crate::schedule::{link_schedule, Move, Placement, Rng};
use crate::stats;
use crate::trace::{self, OpTimer};

/// Rounds per workload per `perf run`. Each is a fresh process with its own
/// set-up, so `setup_s` and `peak_rss_mb` are medians of three.
pub const ROUNDS: u32 = 3;
/// The `--seconds` value the per-round op counts below are sized for.
pub const NOMINAL_SECONDS: u64 = 10;
/// Engine and sweep-planning threads, pinned on every workload: ROADMAP's
/// targets are single-threaded and the box has two cores.
pub const WORKERS: usize = 1;
/// VFs per hypervisor and VMs booted on each in `ft1728_vm_migrate`.
pub const VFS_PER_HYPERVISOR: usize = 4;
const VMS_PER_HYPERVISOR: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Link down -> `handle_trap` (timed) -> link up -> `handle_trap`
    /// (restoring heal, untimed).
    LinkRepair,
    /// Fresh fabric + fresh SM -> `bring_up` (timed).
    BringUp,
    /// `LiveMigrationWorkflow::execute(vm, dest)` (timed).
    Migrate,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub fabric: &'static str,
    pub kind: Kind,
    pub engine: EngineKind,
    build: fn() -> BuiltTopology,
    smoke_build: fn() -> BuiltTopology,
    /// Untimed warm-up ops before the first timed one, per round.
    pub warmup: usize,
    /// Timed ops per round at `--seconds 10`.
    pub ops: usize,
    smoke_warmup: usize,
    smoke_ops: usize,
}

fn ft1728() -> BuiltTopology {
    fattree::three_level(12, 12, 12, 12)
}

fn torus_8x8() -> BuiltTopology {
    torus::torus_2d(8, 8, 1, true)
}

fn torus_4x4() -> BuiltTopology {
    torus::torus_2d(4, 4, 1, true)
}

pub static SPECS: [Spec; 4] = [
    Spec {
        name: "ft5832_link_repair",
        why: "one failed mid-core cable repaired + verified on the 5832-node tree (ROADMAP target): verifier-dominated, ib-routing repair second, ib-sm plan/apply last",
        fabric: "fattree::paper_5832 (972 switches), fat-tree engine, repair + verify on, mid-core cables",
        kind: Kind::LinkRepair,
        engine: EngineKind::FatTree,
        build: fattree::paper_5832,
        smoke_build: fattree::paper_324,
        warmup: 1,
        ops: 4,
        smoke_warmup: 1,
        smoke_ops: 2,
    },
    Spec {
        name: "ft5832_bring_up",
        why: "the paper's full reconfiguration (eq. 1): discovery + LIDs + full path computation + n*m LFT SMPs + verify; the same layers as repair, used the other way",
        fabric: "fattree::paper_5832, fat-tree engine, fresh fabric + fresh SM per op",
        kind: Kind::BringUp,
        engine: EngineKind::FatTree,
        build: fattree::paper_5832,
        smoke_build: fattree::paper_324,
        warmup: 1,
        ops: 5,
        smoke_warmup: 1,
        smoke_ops: 2,
    },
    Spec {
        name: "torus64_dfsssp_link_repair",
        why: "non-tree fabric, multi-VL engine: DFSSSP repair + CDG layering is the op and the verifier a few percent, the mirror image of ft5832_link_repair",
        fabric: "torus::torus_2d(8, 8, 1, wrap), DFSSSP engine, repair + verify on",
        kind: Kind::LinkRepair,
        engine: EngineKind::Dfsssp,
        build: torus_8x8,
        smoke_build: torus_4x4,
        warmup: 5,
        ops: 80,
        smoke_warmup: 1,
        smoke_ops: 4,
    },
    Spec {
        name: "ft1728_vm_migrate",
        why: "the paper's contribution (Algorithm 1 LID swap + VII-B workflow) as a stream of VM moves: all ib-core/ib-mad/ib-subnet, no routing or verifier after set-up",
        fabric: "fattree::three_level(12,12,12,12) (1728 hypervisors), vSwitch prepopulated, 4 VFs, 2 VMs each",
        kind: Kind::Migrate,
        engine: EngineKind::FatTree,
        build: ft1728,
        smoke_build: fattree::paper_324,
        warmup: 100,
        ops: 1000,
        smoke_warmup: 5,
        smoke_ops: 40,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// `(warm-up, timed)` ops per round. Counts are a pure function of the
    /// arguments — `--seconds` scales them, it is never a deadline.
    pub fn sizing(&self, seconds: u64, smoke: bool) -> (usize, usize) {
        if smoke {
            return (self.smoke_warmup, self.smoke_ops);
        }
        let ops = (self.ops as u64 * seconds).div_ceil(NOMINAL_SECONDS);
        (self.warmup, ops.max(1) as usize)
    }

    pub fn topology(&self, smoke: bool) -> BuiltTopology {
        if smoke {
            (self.smoke_build)()
        } else {
            (self.build)()
        }
    }
}

pub struct RoundArgs {
    pub seed: u64,
    pub round: u32,
    pub warmup: usize,
    pub ops: usize,
    /// Attach `Observer::metrics()` and run the per-layer probes.
    pub trace: bool,
    pub smoke: bool,
}

/// What one round measured. Times are host wall time; SMP counts and the
/// wire cost are exact and must repeat for the same `(seed, round)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundResult {
    /// Process start -> first timed op.
    pub setup_s: f64,
    /// Wall time of every timed op, in issue order.
    pub op_ms: Vec<f64>,
    /// SMPs the timed ops put in the ledger.
    pub smps: u64,
    /// `CostModel::default()` serial cost of those SMPs (simulated us).
    pub wire_us: f64,
    /// Every op issued: warm-up, timed and restoring.
    pub ops_attempted: u64,
    /// Ops that returned `Err`.
    pub ops_failed: u64,
    /// Correctness-gate findings; empty means the round is correct.
    pub violations: Vec<String>,
    /// `VmHWM` at exit (filled in by the child's `main`).
    pub peak_rss_mb: f64,
    /// Per-layer numbers (traced rounds only).
    pub layers: Vec<(String, f64)>,
}

impl RoundResult {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("setup_s", Value::Num(self.setup_s)),
            ("op_ms", Value::nums(&self.op_ms)),
            ("smps", Value::Num(self.smps as f64)),
            ("wire_us", Value::Num(self.wire_us)),
            ("ops_attempted", Value::Num(self.ops_attempted as f64)),
            ("ops_failed", Value::Num(self.ops_failed as f64)),
            (
                "violations",
                Value::Arr(self.violations.iter().cloned().map(Value::Str).collect()),
            ),
            ("peak_rss_mb", Value::Num(self.peak_rss_mb)),
            (
                "layers",
                Value::obj(self.layers.iter().map(|(k, v)| (k.clone(), Value::Num(*v)))),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            setup_s: v.num("setup_s")?,
            op_ms: v.num_list("op_ms")?,
            smps: v.num("smps")? as u64,
            wire_us: v.num("wire_us")?,
            ops_attempted: v.num("ops_attempted")? as u64,
            ops_failed: v.num("ops_failed")? as u64,
            violations: v
                .get("violations")
                .and_then(Value::as_arr)
                .ok_or("missing `violations`")?
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect(),
            peak_rss_mb: v.num("peak_rss_mb")?,
            layers: v
                .get("layers")
                .and_then(Value::as_obj)
                .ok_or("missing `layers`")?
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
        })
    }

    pub fn timed_seconds(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }

    fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }
}

/// Runs one round of `spec`. `started` is the process start, so `setup_s`
/// covers fabric build, bring-up, VM creation and warm-up. `Err` means the
/// set-up itself could not complete — there is nothing to measure.
pub fn run_round(spec: &Spec, args: &RoundArgs, started: Instant) -> Result<RoundResult, String> {
    let observer = if args.trace {
        Observer::metrics()
    } else {
        Observer::disabled()
    };
    let mut timer = OpTimer::new(observer);
    let mut res = match spec.kind {
        Kind::LinkRepair => link_repair_round(spec, args, started, &mut timer)?,
        Kind::BringUp => bring_up_round(spec, args, started, &mut timer)?,
        Kind::Migrate => migrate_round(spec, args, started, &mut timer)?,
    };
    if args.trace {
        res.layers.extend(timer.driver_layers(&res.op_ms));
        // After the workload, so the probes cannot warm its caches.
        trace::fabric_probes(spec, args.smoke, &mut res)?;
    }
    Ok(res)
}

fn sm_config(engine: EngineKind) -> SmConfig {
    SmConfig {
        engine,
        repair: true,
        verify: true,
        routing: RoutingOptions::default().with_workers(WORKERS),
        sweep: SweepOptions::with_workers(WORKERS),
        ..SmConfig::default()
    }
}

/// Every cable between a top-level switch and another switch, named from
/// the top-level end (once: from the lower-indexed end when both are top
/// level, as on a torus). On the 3-level tree that is the mid-core tier
/// only, which keeps the timed ops one class: a mid-core repair sends
/// 228-247 SMPs, a leaf-mid repair ~452, and a failed *last* leaf uplink
/// (leaf port 36) is rejected by the repair gate and answered with a full
/// sweep of ~1350 SMPs at three times the wall time.
fn top_tier_links(t: &BuiltTopology) -> Vec<(NodeId, PortNum)> {
    let top = t
        .switch_levels
        .last()
        .map(Vec::as_slice)
        .unwrap_or_default();
    let mut out = Vec::new();
    for &sw in top {
        for (port, remote) in t.subnet.node(sw).connected_ports() {
            let peer = remote.node;
            let peer_is_top = top.contains(&peer);
            if t.subnet.node(peer).is_switch() && (!peer_is_top || sw.index() < peer.index()) {
                out.push((sw, port));
            }
        }
    }
    out
}

/// SMP count and paper-model wire cost of the ledger records from `from` on.
fn ledger_delta(ledger: &SmpLedger, from: usize) -> (u64, f64) {
    let model = CostModel::default();
    let new = &ledger.records()[from..];
    let wire = new.iter().map(|r| model.per_smp_us(r.directed)).sum();
    (new.len() as u64, wire)
}

/// The gate of the SM workloads: the final fabric verifies clean under the
/// installed VL layering and the reverse route index matches the LFTs.
fn gate_sm(sm: &SubnetManager, subnet: &Subnet, res: &mut RoundResult) {
    let Some(vls) = sm.installed_vls() else {
        res.violations
            .push("gate: SM has no installed tables".into());
        return;
    };
    match FabricVerifier::new().verify_with_vls(subnet, vls) {
        Ok(report) if report.is_clean() => {}
        Ok(report) => res.violations.push(format!("gate: {}", report.summary())),
        Err(e) => res.violations.push(format!("gate: verifier failed: {e}")),
    }
    let stale = sm.verify_route_index(subnet);
    if !stale.is_empty() {
        res.violations.push(format!(
            "gate: reverse route index has {} stale entries, first: {}",
            stale.len(),
            stale[0]
        ));
    }
}

fn link_repair_round(
    spec: &Spec,
    args: &RoundArgs,
    started: Instant,
    timer: &mut OpTimer,
) -> Result<RoundResult, String> {
    let mut t = spec.topology(args.smoke);
    let mut sm = SubnetManager::new(t.hosts[0], sm_config(spec.engine));
    sm.set_observer(timer.observer().clone());
    sm.bring_up(&mut t.subnet)
        .map_err(|e| format!("{}: set-up bring-up failed: {e}", spec.name))?;
    let links = top_tier_links(&t);
    let mut rng = Rng::for_round(args.seed, spec.name, args.round);
    let schedule = link_schedule(&mut rng, links.len(), args.warmup + args.ops);
    let mut transport = SmpTransport::perfect(sm.sm_node);

    let mut res = RoundResult::default();
    let mut heal_ms = Vec::new();
    let (mut heal_smps, mut repaired, mut switches_updated) = (0u64, 0u64, 0u64);
    let mut dirty_before = 0;
    for (i, &link) in schedule.iter().enumerate() {
        let timed = i >= args.warmup;
        if i == args.warmup {
            res.setup_s = started.elapsed().as_secs_f64();
            dirty_before = timer.counter("repair.dirty_dests");
        }
        let (node, port) = links[link];
        let trap = Trap::LinkStateChange { node, port };

        t.subnet
            .set_link_down(node, port)
            .map_err(|e| format!("{}: schedule names a bad link: {e}", spec.name))?;
        let mark = sm.ledger.total();
        let (out, ms) = timer.run(timed, || {
            sm.handle_trap(&mut t.subnet, trap, &mut transport)
        });
        res.ops_attempted += 1;
        match out {
            Ok(report) if timed => {
                repaired += u64::from(report.kind == SweepKind::Repair);
                switches_updated += report.distribution.switches_updated as u64;
            }
            Ok(_) => {}
            Err(e) => {
                res.ops_failed += 1;
                eprintln!("{}: op {i} (link down) failed: {e}", spec.name);
            }
        }
        if timed {
            let (smps, wire) = ledger_delta(&sm.ledger, mark);
            res.op_ms.push(ms);
            res.smps += smps;
            res.wire_us += wire;
        }

        // The restoring op: a different class (a full heal sweep), so it is
        // executed and counted but kept out of the end-to-end statistics.
        t.subnet
            .set_link_up(node, port)
            .map_err(|e| format!("{}: cannot restore link: {e}", spec.name))?;
        let mark = sm.ledger.total();
        let (out, ms) = timer.run(false, || {
            sm.handle_trap(&mut t.subnet, trap, &mut transport)
        });
        res.ops_attempted += 1;
        if let Err(e) = out {
            res.ops_failed += 1;
            eprintln!("{}: op {i} (heal) failed: {e}", spec.name);
        }
        if timed {
            heal_ms.push(ms);
            heal_smps += ledger_delta(&sm.ledger, mark).0;
        }
    }

    gate_sm(&sm, &t.subnet, &mut res);
    if args.trace {
        let n = args.ops as f64;
        let routing = format!("routing.{}.repair", spec.engine.name());
        timer.in_op_layers(
            &mut res,
            "sm.repair",
            &[
                ("routing_ms", &routing),
                ("verify_ms", "verify.run"),
                ("plan_ms", "sweep.plan"),
                ("apply_ms", "sweep.apply"),
            ],
        );
        res.layer("sm.repair_success_share", repaired as f64 / n);
        let dirty = timer.counter("repair.dirty_dests") - dirty_before;
        res.layer("sm.repair_dirty_dests_per_op", dirty as f64 / n);
        res.layer("sm.switches_updated_per_op", switches_updated as f64 / n);
        res.layer("sm.heal_sweep_ms", stats::median(&heal_ms));
        res.layer("sm.heal_sweep_smps", heal_smps as f64 / n);
        res.layer("mad.ledger_records", sm.ledger.total() as f64);
    }
    Ok(res)
}

fn bring_up_round(
    spec: &Spec,
    args: &RoundArgs,
    started: Instant,
    timer: &mut OpTimer,
) -> Result<RoundResult, String> {
    let model = CostModel::default();
    let mut res = RoundResult::default();
    let mut last = None;
    for i in 0..args.warmup + args.ops {
        let timed = i >= args.warmup;
        if i == args.warmup {
            res.setup_s = started.elapsed().as_secs_f64();
        }
        // Building the fabric is generating the op's input, not the op.
        let mut t = spec.topology(args.smoke);
        let mut sm = SubnetManager::new(t.hosts[0], sm_config(spec.engine));
        sm.set_observer(timer.observer().clone());
        let (out, ms) = timer.run(timed, || sm.bring_up(&mut t.subnet));
        res.ops_attempted += 1;
        if let Err(e) = out {
            res.ops_failed += 1;
            eprintln!("{}: op {i} failed: {e}", spec.name);
        }
        if timed {
            res.op_ms.push(ms);
            res.smps += sm.ledger.total() as u64;
            res.wire_us += sm.ledger.paper_cost_us(&model);
        }
        last = Some((t, sm));
    }

    let (t, sm) = last.ok_or("bring-up round ran no op")?;
    gate_sm(&sm, &t.subnet, &mut res);
    if args.trace {
        timer.in_op_layers(
            &mut res,
            "sm.bringup",
            &[
                ("discovery_ms", "sm.discovery"),
                ("lid_assign_ms", "sm.lid_assignment"),
                ("routing_ms", "sm.routing"),
                ("plan_ms", "sweep.plan"),
                ("apply_ms", "sweep.apply"),
                ("verify_ms", "verify.run"),
            ],
        );
        res.layer("mad.ledger_records", sm.ledger.total() as f64);
    }
    Ok(res)
}

fn migrate_round(
    spec: &Spec,
    args: &RoundArgs,
    started: Instant,
    timer: &mut OpTimer,
) -> Result<RoundResult, String> {
    let built = spec.topology(args.smoke);
    let hyps = built.hosts.len();
    let config = DataCenterConfig {
        arch: VirtArch::VSwitchPrepopulated,
        vfs_per_hypervisor: VFS_PER_HYPERVISOR,
        engine: spec.engine,
        routing: RoutingOptions::default().with_workers(WORKERS),
        verify: false,
        ..DataCenterConfig::default()
    };
    let mut dc = DataCenter::from_topology_observed(built, config, timer.observer().clone())
        .map_err(|e| format!("{}: data-center bring-up failed: {e}", spec.name))?;

    let create_started = Instant::now();
    let mut vms: Vec<VmId> = Vec::with_capacity(hyps * VMS_PER_HYPERVISOR);
    for hyp in 0..hyps {
        for k in 0..VMS_PER_HYPERVISOR {
            let id = dc
                .create_vm(format!("vm-{hyp}-{k}"), hyp)
                .map_err(|e| format!("{}: create_vm failed: {e}", spec.name))?;
            vms.push(id);
        }
    }
    let create_us = create_started.elapsed().as_secs_f64() * 1e6 / vms.len() as f64;
    let identity: Vec<_> = vms
        .iter()
        .map(|&id| dc.vm(id).map(|r| (r.lid, r.vguid)))
        .collect();

    let mut rng = Rng::for_round(args.seed, spec.name, args.round);
    let mut placement = Placement::new(hyps, VFS_PER_HYPERVISOR, VMS_PER_HYPERVISOR);
    let moves: Vec<Move> = (0..args.warmup + args.ops)
        .map(|_| placement.next_move(&mut rng))
        .collect();
    let workflow = LiveMigrationWorkflow::default();

    let mut res = RoundResult::default();
    let mut reconf_model_us = 0.0;
    for (i, mv) in moves.iter().enumerate() {
        let timed = i >= args.warmup;
        if i == args.warmup {
            res.setup_s = started.elapsed().as_secs_f64();
        }
        let mark = dc.sm.ledger.total();
        let (out, ms) = timer.run(timed, || workflow.execute(&mut dc, vms[mv.vm], mv.dest));
        res.ops_attempted += 1;
        match out {
            Ok(trace) if timed => reconf_model_us += trace.timeline.reconfiguration.as_us(),
            Ok(_) => {}
            Err(e) => {
                res.ops_failed += 1;
                eprintln!("{}: op {i} failed: {e}", spec.name);
            }
        }
        if timed {
            let (smps, wire) = ledger_delta(&dc.sm.ledger, mark);
            res.op_ms.push(ms);
            res.smps += smps;
            res.wire_us += wire;
        }
    }

    // Gate: full hop-by-hop connectivity, every VM kept its LID and vGUID,
    // and every VM sits where the schedule put it.
    if let Err(e) = dc.verify_connectivity() {
        res.violations.push(format!("gate: connectivity: {e}"));
    }
    for (i, &id) in vms.iter().enumerate() {
        let now = dc.vm(id);
        if now.map(|r| (r.lid, r.vguid)) != identity[i] {
            res.violations
                .push(format!("gate: {id} changed LID or vGUID"));
        }
        if now.map(|r| r.hypervisor) != Some(placement.vm_host[i]) {
            res.violations.push(format!(
                "gate: {id} is not on hypervisor {}",
                placement.vm_host[i]
            ));
        }
    }

    if args.trace {
        res.layer("mad.ledger_records", dc.sm.ledger.total() as f64);
        res.layer("core.create_vm_us", create_us);
        res.layer(
            "sim.reconf_model_us_per_op",
            reconf_model_us / args.ops as f64,
        );
        trace::migrate_probes(&mut dc, &vms, &mut placement, &mut rng, &mut res);
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--smoke` sizing drives all four workload code paths, traced
    /// (probes, span attribution, migrate probes) and through the gate.
    #[test]
    fn smoke_rounds_run_every_workload_clean_and_repeat_exactly() {
        let started = Instant::now();
        for spec in &SPECS {
            let (warmup, ops) = spec.sizing(NOMINAL_SECONDS, true);
            let run = |trace| {
                let args = RoundArgs {
                    seed: 1,
                    round: 0,
                    warmup,
                    ops,
                    trace,
                    smoke: true,
                };
                run_round(spec, &args, Instant::now()).expect(spec.name)
            };
            let plain = run(false);
            assert_eq!(plain.violations, Vec::<String>::new(), "{}", spec.name);
            assert_eq!(plain.ops_failed, 0, "{}", spec.name);
            assert_eq!(plain.op_ms.len(), ops, "{}", spec.name);
            assert!(plain.smps > 0 && plain.wire_us > 0.0 && plain.setup_s > 0.0);
            assert!(plain.layers.is_empty());

            // Tracing must not change a single count.
            let traced = run(true);
            assert_eq!(traced.violations, Vec::<String>::new(), "{}", spec.name);
            assert_eq!(
                (
                    traced.smps,
                    traced.wire_us,
                    traced.ops_attempted,
                    traced.ops_failed
                ),
                (
                    plain.smps,
                    plain.wire_us,
                    plain.ops_attempted,
                    plain.ops_failed
                ),
                "{}",
                spec.name
            );
            assert!(traced.layers.iter().all(|(_, v)| v.is_finite()));
            let round_trip = RoundResult::from_json(&traced.to_json()).unwrap();
            assert_eq!(round_trip, traced);
        }
        assert!(
            started.elapsed().as_secs() < 5 || cfg!(debug_assertions),
            "smoke sizing took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn sizing_scales_with_seconds_and_never_reaches_zero() {
        let spec = spec("torus64_dfsssp_link_repair").unwrap();
        assert_eq!(spec.sizing(10, false), (5, 80));
        assert_eq!(spec.sizing(20, false), (5, 160));
        assert_eq!(spec.sizing(1, false), (5, 8));
        assert_eq!(
            super::spec("ft5832_link_repair")
                .unwrap()
                .sizing(1, false)
                .1,
            1
        );
        assert_eq!(spec.sizing(60, true), (1, 4));
    }
}
