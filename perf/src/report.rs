//! The parent side of `perf run`/`perf trace`: spawns one child process per
//! round, pools the rounds into the end-to-end metrics, assembles the
//! per-layer list, prints both, and builds the result document
//! (`ib-vswitch/bench-perf/v1`) that `--json` writes and `compare` reads.

use std::process::{Command, Stdio};

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{RoundResult, Spec, ROUNDS, WORKERS};

pub const SCHEMA: &str = "ib-vswitch/bench-perf/v1";

pub struct RunOptions {
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub trace: bool,
    pub workloads: Vec<&'static Spec>,
}

/// Runs one round of `spec` in a fresh process and waits for it to end.
fn spawn_round(
    spec: &Spec,
    opts: &RunOptions,
    round: u32,
    trace: bool,
) -> Result<RoundResult, String> {
    let (warmup, ops) = spec.sizing(opts.seconds, opts.smoke);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let flag = |on: bool| if on { "1" } else { "0" };
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", spec.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--round", &round.to_string()])
        .args(["--warmup", &warmup.to_string()])
        .args(["--ops", &ops.to_string()])
        .args(["--trace", flag(trace)])
        .args(["--smoke", flag(opts.smoke)])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start round process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} round {round}: child {}",
            spec.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Value::parse(line)
        .and_then(|v| RoundResult::from_json(&v))
        .map_err(|e| format!("{} round {round}: bad child result: {e}", spec.name))
}

/// Everything measured for one workload in one invocation.
struct WorkloadRun {
    spec: &'static Spec,
    /// Untraced rounds, in round order.
    rounds: Vec<RoundResult>,
    /// Round 0 again with the observer attached (`trace` only).
    traced: Option<RoundResult>,
}

/// `{"value": .., "unit": ..}` — the shape of a metric in every output.
fn metric(value: f64, unit: &str) -> Value {
    Value::obj([
        ("value", Value::Num(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

fn smps_per_op(r: &RoundResult) -> f64 {
    r.smps as f64 / r.op_ms.len().max(1) as f64
}

fn wire_us_per_op(r: &RoundResult) -> f64 {
    r.wire_us / r.op_ms.len().max(1) as f64
}

fn ops_per_s(ops: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        ops as f64 / seconds
    } else {
        0.0
    }
}

impl WorkloadRun {
    fn pooled_ops(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.op_ms.iter().copied())
            .collect()
    }

    /// The six end-to-end values, in `END_TO_END` order. Timings pool every
    /// timed op of every round; set-up and RSS are medians of the per-round
    /// values; counts are sums.
    fn end_to_end(&self) -> [f64; 6] {
        let ops = self.pooled_ops();
        let per_round =
            |f: fn(&RoundResult) -> f64| -> Vec<f64> { self.rounds.iter().map(f).collect() };
        let n = ops.len().max(1) as f64;
        [
            stats::median(&per_round(|r| r.setup_s)),
            stats::median(&ops),
            ops_per_s(
                ops.len(),
                self.rounds.iter().map(RoundResult::timed_seconds).sum(),
            ),
            self.rounds.iter().map(|r| r.smps).sum::<u64>() as f64 / n,
            self.rounds.iter().map(|r| r.wire_us).sum::<f64>() / n,
            stats::median(&per_round(|r| r.peak_rss_mb)),
        ]
    }

    fn all_rounds(&self) -> impl Iterator<Item = &RoundResult> {
        self.rounds.iter().chain(&self.traced)
    }

    fn attempted(&self) -> u64 {
        self.all_rounds().map(|r| r.ops_attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.all_rounds().map(|r| r.ops_failed).sum()
    }

    fn violations(&self) -> Vec<String> {
        self.all_rounds()
            .flat_map(|r| r.violations.iter().cloned())
            .collect()
    }

    /// Every `PER_LAYER` value in catalogue order; 0 where the metric does
    /// not apply to this workload. Empty unless this was a traced run.
    fn layers(&self) -> Vec<f64> {
        let (Some(traced), Some(plain)) = (&self.traced, self.rounds.first()) else {
            return Vec::new();
        };
        let plain_ops = stats::sorted(&plain.op_ms);
        let (tail_pct, tail_ms) = stats::tail_percentile(&plain_ops);
        let untraced_p50 = stats::median(&plain.op_ms);
        let overhead = if untraced_p50 > 0.0 {
            (stats::median(&traced.op_ms) - untraced_p50) / untraced_p50
        } else {
            0.0
        };
        let parent_side = [
            ("mad.wire_us_per_op", wire_us_per_op(traced)),
            ("observe.overhead_share", overhead),
            ("driver.op_tail_ms", tail_ms),
            ("driver.op_tail_pct", tail_pct),
            ("driver.samples", plain.op_ms.len() as f64),
        ];
        PER_LAYER
            .iter()
            .map(|m| {
                parent_side
                    .iter()
                    .copied()
                    .chain(traced.layers.iter().map(|(k, v)| (k.as_str(), *v)))
                    .find(|(k, _)| *k == m.name)
                    .map_or(0.0, |(_, v)| v)
            })
            .collect()
    }

    fn to_json(&self) -> Value {
        let pooled = stats::sorted(&self.pooled_ops());
        let (tail_pct, tail_ms) = stats::tail_percentile(&pooled);
        let rounds = self.rounds.iter().enumerate().map(|(i, r)| {
            Value::obj([
                ("round", Value::Num(i as f64)),
                ("timed_ops", Value::Num(r.op_ms.len() as f64)),
                ("ops_attempted", Value::Num(r.ops_attempted as f64)),
                ("ops_failed", Value::Num(r.ops_failed as f64)),
                ("smps_per_op", Value::Num(smps_per_op(r))),
                ("wire_us_per_op", Value::Num(wire_us_per_op(r))),
                ("setup_s", Value::Num(r.setup_s)),
                ("op_p50_ms", Value::Num(stats::median(&r.op_ms))),
                (
                    "ops_per_s",
                    Value::Num(ops_per_s(r.op_ms.len(), r.timed_seconds())),
                ),
                ("peak_rss_mb", Value::Num(r.peak_rss_mb)),
            ])
        });
        Value::obj([
            ("name", Value::Str(self.spec.name.into())),
            ("correct", Value::Bool(self.violations().is_empty())),
            ("ops_attempted", Value::Num(self.attempted() as f64)),
            ("ops_failed", Value::Num(self.failed() as f64)),
            ("samples", Value::Num(pooled.len() as f64)),
            (
                "metrics",
                Value::obj(
                    END_TO_END
                        .iter()
                        .zip(self.end_to_end())
                        .map(|(m, v)| (m.name, metric(v, m.unit))),
                ),
            ),
            ("op_tail_ms", Value::Num(tail_ms)),
            ("op_tail_pct", Value::Num(tail_pct)),
            ("rounds", Value::Arr(rounds.collect())),
            (
                "violations",
                Value::Arr(self.violations().into_iter().map(Value::Str).collect()),
            ),
            (
                "layers",
                Value::obj(
                    PER_LAYER
                        .iter()
                        .zip(self.layers())
                        .map(|(m, v)| (m.name, metric(v, m.unit))),
                ),
            ),
        ])
    }

    fn print_round(&self, round: u32, r: &RoundResult, traced: bool) {
        println!(
            "  {:<28} round {round}{} ops={:<5} attempted={:<5} failed={} smps_per_op={} wire_us_per_op={} setup_s={:.3} op_p50_ms={:.3} peak_rss_mb={:.1}",
            self.spec.name,
            if traced { " (traced)" } else { "" },
            r.op_ms.len(),
            r.ops_attempted,
            r.ops_failed,
            smps_per_op(r),
            wire_us_per_op(r),
            r.setup_s,
            stats::median(&r.op_ms),
            r.peak_rss_mb,
        );
        for v in &r.violations {
            println!("    VIOLATION {v}");
        }
    }

    fn print_summary(&self) {
        let pooled = stats::sorted(&self.pooled_ops());
        let (tail_pct, tail_ms) = stats::tail_percentile(&pooled);
        println!("\n{} - {}", self.spec.name, self.spec.fabric);
        println!("  why: {}", self.spec.why);
        println!(
            "  ops_attempted={} ops_failed={} samples={} op_tail_ms={:.3} (p{tail_pct})",
            self.attempted(),
            self.failed(),
            pooled.len(),
            tail_ms
        );
        for (m, v) in END_TO_END.iter().zip(self.end_to_end()) {
            println!(
                "  {:<30} {:>16.4} {:<6} {} is better; {}",
                m.name,
                v,
                m.unit,
                m.better.as_str(),
                m.what
            );
        }
        let layers = self.layers();
        if !layers.is_empty() {
            println!("  per-layer (traced round 0; 0 = does not apply to this workload):");
            for (m, v) in PER_LAYER.iter().zip(layers) {
                println!(
                    "  {:<30} {:>16.4} {:<6} {} is better; {}",
                    m.name,
                    v,
                    m.unit,
                    m.better.as_str(),
                    m.what
                );
            }
        }
    }
}

/// What one `perf run` / `perf trace` invocation produced.
pub struct RunOutcome {
    /// The `ib-vswitch/bench-perf/v1` document.
    pub doc: Value,
    /// True when every gate passed.
    pub correct: bool,
    /// The driver-contract result line, when exactly one workload ran.
    pub contract_line: Option<String>,
}

pub fn run(opts: &RunOptions) -> Result<RunOutcome, String> {
    let mut runs: Vec<WorkloadRun> = opts
        .workloads
        .iter()
        .map(|&spec| WorkloadRun {
            spec,
            rounds: Vec::new(),
            traced: None,
        })
        .collect();
    let rounds = if opts.trace || opts.smoke { 1 } else { ROUNDS };
    println!(
        "perf {}: seed={} seconds={} rounds={rounds} engine_workers={WORKERS} sweep_workers={WORKERS}{}",
        if opts.trace { "trace" } else { "run" },
        opts.seed,
        opts.seconds,
        if opts.smoke { " (smoke sizing)" } else { "" },
    );
    // Round-robin over the workloads inside each round, so every workload's
    // samples are spread over the whole invocation, not one window of it.
    for round in 0..rounds {
        for run in &mut runs {
            let r = spawn_round(run.spec, opts, round, false)?;
            run.print_round(round, &r, false);
            run.rounds.push(r);
            if opts.trace {
                let r = spawn_round(run.spec, opts, round, true)?;
                run.print_round(round, &r, true);
                run.traced = Some(r);
            }
        }
    }
    for run in &runs {
        run.print_summary();
    }

    let correct = runs.iter().all(|r| r.violations().is_empty());
    let contract_line = match runs.as_slice() {
        [only] => Some(contract_line(only, opts.trace)),
        _ => None,
    };
    let doc = Value::obj([
        ("schema", Value::Str(SCHEMA.into())),
        (
            "mode",
            Value::Str(if opts.trace { "trace" } else { "run" }.into()),
        ),
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds as f64)),
        ("smoke", Value::Bool(opts.smoke)),
        ("rounds", Value::Num(f64::from(rounds))),
        ("engine_workers", Value::Num(WORKERS as f64)),
        ("sweep_workers", Value::Num(WORKERS as f64)),
        (
            "workloads",
            Value::Arr(runs.iter().map(WorkloadRun::to_json).collect()),
        ),
    ]);
    Ok(RunOutcome {
        doc,
        correct,
        contract_line,
    })
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` — the contract's end-to-end metrics untraced, its per-layer
/// metrics traced.
fn contract_line(run: &WorkloadRun, trace: bool) -> String {
    let metrics: Vec<(String, Value)> = if trace {
        PER_LAYER
            .iter()
            .zip(run.layers())
            .map(|(m, v)| (m.name.to_string(), metric(v, m.unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(run.end_to_end())
            .filter(|(m, _)| m.contract_bound.is_some())
            .map(|(m, v)| (m.name.to_string(), metric(v, m.unit)))
            .collect()
    };
    Value::obj([
        ("correct", Value::Bool(run.violations().is_empty())),
        ("attempted", Value::Num(run.attempted() as f64)),
        ("failed", Value::Num(run.failed() as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .encode()
}
