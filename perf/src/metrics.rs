//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` and
//! the README tables are written from this list; a test holds
//! `BENCHMARK.json` to it.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// How `compare`/`selfcheck` hold two runs of the same seed to each other.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Check {
    /// May worsen by at most this share of the baseline.
    Within(f64),
    /// A count: must be bit-identical for the same seed.
    Exact,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub check: Check,
    /// The bound `BENCHMARK.json` gives the driver, which compares medians
    /// over *different* seeds; `None` keeps the metric out of the driver's
    /// contract. The simulated wire cost is a constant of the seed, which
    /// the driver would read as a timing that never varies, so it is
    /// reported and compared here only.
    pub contract_bound: Option<f64>,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        check: Check::Within(0.25),
        contract_bound: Some(0.25),
        what: "host: process start -> first timed op (fabric build, bring-up, VM creation, warm-up); median of the rounds",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        check: Check::Within(0.25),
        contract_bound: Some(0.25),
        what: "host: median wall time of the timed ops, pooled over the rounds",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        check: Check::Within(0.25),
        contract_bound: Some(0.25),
        what: "host: timed ops / sum of their wall seconds (generator time excluded)",
    },
    EndToEnd {
        name: "smps_per_op",
        unit: "count",
        better: Better::Lower,
        check: Check::Exact,
        contract_bound: Some(0.10),
        what: "SMPs the timed ops put in the SmpLedger / ops - the paper's unit (Table I)",
    },
    EndToEnd {
        name: "wire_us_per_op",
        unit: "us/op",
        better: Better::Lower,
        check: Check::Exact,
        contract_bound: None,
        what: "simulated: CostModel::default() serial cost (k, k+r of eq. 2-5) of those SMPs / ops",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        check: Check::Within(0.05),
        contract_bound: Some(0.05),
        what: "VmHWM of the round's process at exit; median of the rounds",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        what,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, in print order. A metric that does not apply to a
/// workload reads 0 there. `ms`/`ns` are single probe calls measured on
/// every workload; `ms/op` and `us/op` are per-op figures of one workload
/// family.
pub const PER_LAYER: [Layer; 44] = [
    layer("subnet.build_ms", "ms", Lower, "ib-subnet probe: topology constructor (+ host virtualization on ft1728_vm_migrate)"),
    layer("sm.discovery_ms", "ms", Lower, "ib-sm probe: discovery::sweep"),
    layer("sm.discovery_smps", "count", Lower, "SMPs of that sweep"),
    layer("sm.lid_assign_ms", "ms", Lower, "ib-sm probe: lids::assign_all"),
    layer("sm.lid_smps", "count", Lower, "SMPs of that assignment"),
    layer("sm.distribute_full_ms", "ms", Lower, "ib-sm probe: distribute_opts onto blank LFTs"),
    layer("sm.distribute_full_smps", "count", Lower, "LFT SMPs of that distribution (n*m)"),
    layer("sm.distribute_noop_ms", "ms", Lower, "ib-sm probe: the same tables again - pure plan/diff, must send 0 SMPs"),
    layer("routing.compute_ms", "ms", Lower, "ib-routing probe: compute_with of the workload's engine, workers = 1"),
    layer("routing.decisions", "count", Lower, "(switch, destination) decisions of that computation"),
    layer("verify.full_ms", "ms", Lower, "ib-verify probe: verify_with_vls, deadlock check on"),
    layer("verify.nodeadlock_ms", "ms", Lower, "ib-verify probe: with_deadlock(false)"),
    layer("verify.rindex_build_ms", "ms", Lower, "ib-verify probe: ReverseRouteIndex::from_installed"),
    layer("mad.ledger_record_ns", "ns", Lower, "ib-mad probe: SmpLedger::record, mean over 1e5 calls"),
    layer("mad.ledger_records", "count", Lower, "ledger length when the round ends"),
    layer("mad.wire_us_per_op", "us/op", Lower, "simulated: the end-to-end wire_us_per_op of the traced round"),
    layer("sm.repair.routing_ms", "ms/op", Lower, "in-op, repair workloads: routing.<engine>.repair span"),
    layer("sm.repair.verify_ms", "ms/op", Lower, "in-op, repair workloads: verify.run span"),
    layer("sm.repair.plan_ms", "ms/op", Lower, "in-op, repair workloads: sweep.plan span"),
    layer("sm.repair.apply_ms", "ms/op", Lower, "in-op, repair workloads: sweep.apply span"),
    layer("sm.repair.other_ms", "ms/op", Lower, "in-op, repair workloads: op mean - the four above (dirty-set lookup, baseline clone/splice, rindex splice)"),
    layer("sm.repair_success_share", "share", Higher, "timed link-down traps answered SweepKind::Repair / traps"),
    layer("sm.repair_dirty_dests_per_op", "count", Lower, "repair.dirty_dests counter / op"),
    layer("sm.switches_updated_per_op", "count", Lower, "switches that received at least one LFT block / op"),
    layer("sm.heal_sweep_ms", "ms/op", Lower, "p50 of the untimed link-up heals (the classic full-sweep trap path)"),
    layer("sm.heal_sweep_smps", "count", Lower, "mean SMPs of those heals"),
    layer("sm.bringup.discovery_ms", "ms/op", Lower, "in-op, ft5832_bring_up: sm.discovery span"),
    layer("sm.bringup.lid_assign_ms", "ms/op", Lower, "in-op, ft5832_bring_up: sm.lid_assignment span"),
    layer("sm.bringup.routing_ms", "ms/op", Lower, "in-op, ft5832_bring_up: sm.routing span"),
    layer("sm.bringup.plan_ms", "ms/op", Lower, "in-op, ft5832_bring_up: sweep.plan span"),
    layer("sm.bringup.apply_ms", "ms/op", Lower, "in-op, ft5832_bring_up: sweep.apply span"),
    layer("sm.bringup.verify_ms", "ms/op", Lower, "in-op, ft5832_bring_up: verify.run span"),
    layer("sm.bringup.other_ms", "ms/op", Lower, "in-op, ft5832_bring_up: op mean - the six above (includes the rindex build)"),
    layer("core.create_vm_us", "us/op", Lower, "ft1728_vm_migrate: mean create_vm in set-up"),
    layer("core.migrate_vm_ms", "ms/op", Lower, "ft1728_vm_migrate: p50 of migrate_vm alone, alternating with execute on a continuation of the move stream"),
    layer("sim.timeline_compose_us", "us/op", Lower, "ft1728_vm_migrate: MigrationTimeline::compose on one migration's SMPs"),
    layer("sim.reconf_model_us_per_op", "us/op", Lower, "simulated: mean timeline.reconfiguration of the timed migrations"),
    layer("cloud.workflow_other_us", "us/op", Lower, "ft1728_vm_migrate: execute p50 - migrate_vm p50 (same alternating window) - compose"),
    layer("observe.overhead_share", "share", Lower, "(traced - untraced op_p50_ms) / untraced, same round"),
    layer("driver.cpu_ms_per_op", "ms/op", Lower, "process CPU time (all threads) inside the timed ops / op"),
    layer("driver.traced_op_mean_ms", "ms", Lower, "mean timed op of the traced round: what the in-op parts sum to"),
    layer("driver.op_tail_ms", "ms", Lower, "untraced round: highest percentile with >= 10 samples beyond it"),
    layer("driver.op_tail_pct", "%", Higher, "which percentile that is (50 = too few samples for any tail)"),
    layer("driver.samples", "count", Higher, "timed ops in the untraced round"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads::SPECS;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(SPECS.iter().map(|s| s.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric or workload name");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    /// `BENCHMARK.json` is the driver's copy of this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let field =
            |row: &Value, key: &str| row.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let specs: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.into(), s.why.into()))
            .collect();
        assert_eq!(workloads, specs);
        assert!(SPECS.iter().all(|s| s.why.len() <= 200));

        let listed = rows("end_to_end");
        let expected: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| m.contract_bound.is_some())
            .collect();
        assert_eq!(listed.len(), expected.len());
        for (row, m) in listed.iter().zip(expected) {
            assert_eq!(
                (field(row, "name"), field(row, "unit")),
                (m.name.into(), m.unit.into())
            );
            assert_eq!(field(row, "better"), m.better.as_str());
            assert_eq!(row.num("bound").ok(), m.contract_bound, "{}", m.name);
        }

        let listed = rows("per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (row, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(
                (field(row, "name"), field(row, "unit")),
                (m.name.into(), m.unit.into())
            );
            assert_eq!(field(row, "better"), m.better.as_str());
        }
        assert_eq!(
            doc.get("paths"),
            Some(&Value::Arr(vec![Value::Str("perf".into())]))
        );
    }
}
