//! Per-layer measurement for the traced run: benchmark-side timers around
//! public calls into each crate (*probes*), and attribution of the
//! program's existing `ib-observe` spans to the timed ops (*in-op*).
//! Spans stay in the observer's memory until the round is over.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ib_vswitch::cloud::LiveMigrationWorkflow;
use ib_vswitch::core::virtualize::virtualize_host;
use ib_vswitch::core::{DataCenter, VirtArch, VmId};
use ib_vswitch::mad::{DirectedRoute, Smp, SmpLedger, SmpRouting};
use ib_vswitch::observe::Observer;
use ib_vswitch::routing::RoutingOptions;
use ib_vswitch::sim::{DowntimeModel, MigrationTimeline};
use ib_vswitch::sm::{discovery, distribution, lids, SmpMode, SweepOptions};
use ib_vswitch::types::LidSpace;
use ib_vswitch::verify::{FabricVerifier, ReverseRouteIndex};

use crate::schedule::{Placement, Rng};
use crate::stats;
use crate::workloads::{Kind, RoundResult, Spec, VFS_PER_HYPERVISOR, WORKERS};

/// Times ops, and in a traced round also brackets each timed op with the
/// observer's clock (to claim the spans it emitted) and the process CPU
/// clock. Both reads sit outside the wall-time window.
pub struct OpTimer {
    observer: Observer,
    /// Observer-clock `[start, end]` of every timed op, ascending.
    windows: Vec<(u64, u64)>,
    cpu_ticks: u64,
}

impl OpTimer {
    pub fn new(observer: Observer) -> Self {
        Self {
            observer,
            windows: Vec::new(),
            cpu_ticks: 0,
        }
    }

    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Runs `op` and returns its result with its wall time in ms.
    pub fn run<T>(&mut self, timed: bool, op: impl FnOnce() -> T) -> (T, f64) {
        let traced = timed && self.observer.is_enabled();
        let before = traced.then(|| (cpu_ticks(), self.observer.now_ns()));
        let started = Instant::now();
        let out = op();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if let Some((cpu, start_ns)) = before {
            self.windows.push((start_ns, self.observer.now_ns()));
            self.cpu_ticks += cpu_ticks().saturating_sub(cpu);
        }
        (out, ms)
    }

    /// Current value of one of the program's counters (0 when untraced).
    pub fn counter(&self, name: &str) -> u64 {
        self.observer
            .registry()
            .map_or(0, |r| r.counter(name).get())
    }

    /// Total ms per span name, over the spans that started inside a timed
    /// op — warm-up, restoring ops and set-up emit the same names.
    fn span_totals_ms(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        let Some(snapshot) = self.observer.snapshot() else {
            return totals;
        };
        for span in &snapshot.spans {
            let i = self.windows.partition_point(|w| w.0 <= span.start_ns);
            if i > 0 && span.start_ns <= self.windows[i - 1].1 {
                *totals.entry(span.name.clone()).or_insert(0.0) += span.duration_ns as f64 / 1e6;
            }
        }
        totals
    }

    /// Emits `<prefix>.<metric>` = per-op mean of each listed child span,
    /// plus `<prefix>.other_ms` = op mean minus the listed children, so the
    /// unattributed time is itself a number and the parts sum to the op.
    pub fn in_op_layers(&self, res: &mut RoundResult, prefix: &str, children: &[(&str, &str)]) {
        let totals = self.span_totals_ms();
        let ops = res.op_ms.len().max(1) as f64;
        let op_mean = stats::mean(&res.op_ms);
        let mut attributed = 0.0;
        for (metric, span) in children {
            let per_op = totals.get(*span).copied().unwrap_or(0.0) / ops;
            attributed += per_op;
            res.layers.push((format!("{prefix}.{metric}"), per_op));
        }
        res.layers
            .push((format!("{prefix}.other_ms"), op_mean - attributed));
    }

    /// What the driver itself observed about the traced round.
    pub fn driver_layers(&self, op_ms: &[f64]) -> Vec<(String, f64)> {
        // USER_HZ is 100 on every Linux ABI this runs on.
        let cpu_ms = self.cpu_ticks as f64 * 10.0;
        vec![
            (
                "driver.cpu_ms_per_op".into(),
                cpu_ms / op_ms.len().max(1) as f64,
            ),
            ("driver.traced_op_mean_ms".into(), stats::mean(op_ms)),
        ]
    }
}

/// Process CPU time (user + system, all threads) in clock ticks.
fn cpu_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name: state is the first, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    rest.split_ascii_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum()
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// One timed public call per layer on a fresh copy of the workload's own
/// fabric — in effect a bring-up taken apart at the crate boundaries.
pub fn fabric_probes(spec: &Spec, smoke: bool, res: &mut RoundResult) -> Result<(), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: probe {what}: {e}", spec.name);
    let mut layer = |name: &str, value: f64| res.layers.push((name.to_string(), value));

    let (built, build_ms) = timed_ms(|| -> Result<_, String> {
        let mut t = spec.topology(smoke);
        if spec.kind == Kind::Migrate {
            for (i, &host) in t.hosts.iter().enumerate() {
                let arch = VirtArch::VSwitchPrepopulated;
                virtualize_host(&mut t.subnet, arch, i, host, VFS_PER_HYPERVISOR)
                    .map_err(|e| fail("virtualize", &e))?;
            }
        }
        Ok(t)
    });
    let mut t = built?;
    layer("subnet.build_ms", build_ms);
    let sm_node = t.hosts[0];
    let mut ledger = SmpLedger::new();

    let (disc, ms) = timed_ms(|| discovery::sweep(&t.subnet, sm_node, &mut ledger));
    let disc = disc.map_err(|e| fail("discovery", &e))?;
    layer("sm.discovery_ms", ms);
    layer("sm.discovery_smps", ledger.total() as f64);

    let mut space = LidSpace::new();
    let (sent, ms) = timed_ms(|| lids::assign_all(&mut t.subnet, &disc, &mut space, &mut ledger));
    layer("sm.lid_assign_ms", ms);
    layer(
        "sm.lid_smps",
        sent.map_err(|e| fail("LID assignment", &e))? as f64,
    );

    let engine = spec.engine.build();
    let opts = RoutingOptions::default().with_workers(WORKERS);
    let (tables, ms) = timed_ms(|| engine.compute_with(&t.subnet, opts, &Observer::disabled()));
    let tables = tables.map_err(|e| fail("routing", &e))?;
    layer("routing.compute_ms", ms);
    layer("routing.decisions", tables.decisions as f64);

    let sweep = SweepOptions::with_workers(WORKERS);
    let mut distribute = |ledger: &mut SmpLedger| {
        timed_ms(|| {
            let mode = SmpMode::Directed;
            distribution::distribute_opts(&mut t.subnet, sm_node, &tables, mode, ledger, sweep)
        })
    };
    let (full, full_ms) = distribute(&mut ledger);
    let (noop, noop_ms) = distribute(&mut ledger);
    layer("sm.distribute_full_ms", full_ms);
    let full = full.map_err(|e| fail("distribution", &e))?;
    layer("sm.distribute_full_smps", full.lft_smps as f64);
    layer("sm.distribute_noop_ms", noop_ms);
    let resent = noop.map_err(|e| fail("re-distribution", &e))?.lft_smps;

    let (report, ms) = timed_ms(|| FabricVerifier::new().verify_with_vls(&t.subnet, &tables.vls));
    let report = report.map_err(|e| fail("verify", &e))?;
    layer("verify.full_ms", ms);
    let (_, ms) = timed_ms(|| {
        FabricVerifier::new()
            .with_deadlock(false)
            .verify_with_vls(&t.subnet, &tables.vls)
    });
    layer("verify.nodeadlock_ms", ms);
    let (_, ms) = timed_ms(|| black_box(ReverseRouteIndex::from_installed(&t.subnet)));
    layer("verify.rindex_build_ms", ms);

    let smp = Smp::set_vguid(
        sm_node,
        SmpRouting::Directed(DirectedRoute::local()),
        0,
        None,
    );
    let mut scratch = SmpLedger::new();
    const RECORDS: usize = 100_000;
    let ((), ms) = timed_ms(|| {
        for _ in 0..RECORDS {
            scratch.record(black_box(&smp), 3);
        }
    });
    black_box(scratch.total());
    layer("mad.ledger_record_ns", ms * 1e6 / RECORDS as f64);

    if resent != 0 {
        res.violations.push(format!(
            "probe: distributing the same tables again sent {resent} SMPs"
        ));
    }
    if !report.is_clean() {
        res.violations.push(format!(
            "probe: fresh tables fail the verifier: {}",
            report.summary()
        ));
    }
    Ok(())
}

/// The `ft1728_vm_migrate` layers below the workflow, on a continuation of
/// the same move stream: `execute` and bare `migrate_vm` alternate, so both
/// medians come from one window and one ledger size — this box drifts too
/// much to subtract a median taken a minute later — and the timeline
/// composition is timed on a real migration's SMP list.
pub fn migrate_probes(
    dc: &mut DataCenter,
    vms: &[VmId],
    placement: &mut Placement,
    rng: &mut Rng,
    res: &mut RoundResult,
) {
    let workflow = LiveMigrationWorkflow::default();
    let (mut execute_ms, mut alone_ms) = (Vec::new(), Vec::new());
    let mut last_vm = None;
    for i in 0..2 * res.op_ms.len().min(200) {
        let mv = placement.next_move(rng);
        let vm = vms[mv.vm];
        let (failed, ms) = if i % 2 == 0 {
            let (out, ms) = timed_ms(|| workflow.execute(dc, vm, mv.dest));
            (out.err(), ms)
        } else {
            let (out, ms) = timed_ms(|| dc.migrate_vm(vm, mv.dest));
            (out.err(), ms)
        };
        match failed {
            None if i % 2 == 0 => execute_ms.push(ms),
            None => alone_ms.push(ms),
            Some(e) => res.violations.push(format!("probe: migration failed: {e}")),
        }
        last_vm = Some(vm);
    }
    let smps: Vec<(usize, bool)> = last_vm
        .map(|vm| dc.sm.ledger.phase_records(&format!("migrate-{vm}")))
        .unwrap_or_default()
        .iter()
        .map(|r| (r.hops, r.directed))
        .collect();
    let model = DowntimeModel::default();
    const COMPOSES: usize = 200;
    let ((), ms) = timed_ms(|| {
        for _ in 0..COMPOSES {
            black_box(MigrationTimeline::compose(&model, black_box(&smps)));
        }
    });
    let compose_us = ms * 1e3 / COMPOSES as f64;
    let migrate_ms = stats::median(&alone_ms);
    res.layers.extend([
        ("core.migrate_vm_ms".to_string(), migrate_ms),
        ("sim.timeline_compose_us".to_string(), compose_us),
        (
            "cloud.workflow_other_us".to_string(),
            (stats::median(&execute_ms) - migrate_ms) * 1e3 - compose_us,
        ),
    ]);
}
