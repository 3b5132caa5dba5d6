//! `perf compare A.json B.json` (the regression gate) and the agreement
//! check behind `perf selfcheck`: one row per (workload, metric), counts
//! held exactly, timings and RSS to their bounds.

use crate::json::Value;
use crate::metrics::{Better, Check, EndToEnd, END_TO_END};
use crate::report::SCHEMA;
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// B is a candidate measured against baseline A: only worsening counts.
    Regression,
    /// A and B are the same code: any difference beyond the bound counts.
    Agreement,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, identical.
    Same,
    /// Exact metric, different.
    Mismatch,
    /// Within the bound.
    Ok,
    /// Better than the baseline by more than the bound.
    Improved,
    /// Worse by more than the bound, but the baseline's own rounds spread
    /// wider than the bound and the two sets of rounds overlap.
    Unresolved,
    /// Worse by more than the bound (or, in agreement mode, different by
    /// more than the bound).
    Regressed,
}

impl Verdict {
    pub fn fails(self) -> bool {
        matches!(self, Self::Mismatch | Self::Regressed)
    }

    fn label(self) -> &'static str {
        match self {
            Self::Same => "same",
            Self::Mismatch => "MISMATCH",
            Self::Ok => "ok",
            Self::Improved => "improved",
            Self::Unresolved => "unresolved",
            Self::Regressed => "REGRESSED",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

impl Row {
    /// `(b - a) / a`, 0 when the baseline is 0.
    pub fn relative(&self) -> f64 {
        if self.a == 0.0 {
            0.0
        } else {
            (self.b - self.a) / self.a
        }
    }
}

/// How much worse `b` is than `a` as a share of `a`; negative = better.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn judge(m: &EndToEnd, a: f64, b: f64, rounds_a: &[f64], rounds_b: &[f64], mode: Mode) -> Verdict {
    let bound = match m.check {
        Check::Exact if a == b => return Verdict::Same,
        Check::Exact => return Verdict::Mismatch,
        Check::Within(bound) => bound,
    };
    let worse = worsening(m.better, a, b);
    if mode == Mode::Agreement {
        return if worse.abs() <= bound {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    if worse <= bound {
        return if worse < -bound {
            Verdict::Improved
        } else {
            Verdict::Ok
        };
    }
    // Beyond the bound. It still only resolves as a regression when the
    // baseline repeats within the bound, or every round of B is worse than
    // every round of A.
    let sorted = stats::sorted(rounds_a);
    let spread = match (sorted.first(), sorted.last()) {
        (Some(lo), Some(hi)) if stats::median(&sorted) > 0.0 => (hi - lo) / stats::median(&sorted),
        _ => 0.0,
    };
    let separated = rounds_a
        .iter()
        .all(|&ra| rounds_b.iter().all(|&rb| worsening(m.better, ra, rb) > 0.0));
    if spread > bound && !separated {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a `{SCHEMA}` document"));
    }
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing `workloads`".to_string())
}

fn metric_value(workload: &Value, name: &str) -> Result<f64, String> {
    workload
        .get("metrics")
        .and_then(|m| m.get(name))
        .ok_or_else(|| format!("missing metric `{name}`"))?
        .num("value")
}

fn round_values(workload: &Value, name: &str) -> Vec<f64> {
    workload
        .get("rounds")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| r.get(name).and_then(Value::as_f64))
        .collect()
}

/// Compares two result documents of the same seed and sizing.
pub fn compare(a: &Value, b: &Value, mode: Mode) -> Result<Vec<Row>, String> {
    for key in ["seed", "seconds", "smoke", "rounds"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the two runs differ in `{key}`: counts only repeat for the same seed and sizing"
            ));
        }
    }
    let mut rows = Vec::new();
    for wa in workloads(a)? {
        let name = wa
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        let wb = workloads(b)?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            .ok_or_else(|| format!("workload `{name}` is missing from the second run"))?;
        for m in &END_TO_END {
            let (va, vb) = (metric_value(wa, m.name)?, metric_value(wb, m.name)?);
            let verdict = judge(
                m,
                va,
                vb,
                &round_values(wa, m.name),
                &round_values(wb, m.name),
                mode,
            );
            rows.push(Row {
                workload: name.to_string(),
                metric: m.name,
                a: va,
                b: vb,
                verdict,
            });
        }
        for metric in ["ops_attempted", "ops_failed"] {
            let (va, vb) = (wa.num(metric)?, wb.num(metric)?);
            rows.push(Row {
                workload: name.to_string(),
                metric,
                a: va,
                b: vb,
                verdict: if va == vb {
                    Verdict::Same
                } else {
                    Verdict::Mismatch
                },
            });
        }
    }
    Ok(rows)
}

/// Prints the table; true when no row fails.
pub fn print_rows(rows: &[Row]) -> bool {
    println!(
        "{:<28} {:<16} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "B vs A"
    );
    for r in rows {
        println!(
            "{:<28} {:<16} {:>16.4} {:>16.4} {:>+8.2}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.relative() * 100.0,
            r.verdict.label()
        );
    }
    let failed = rows.iter().filter(|r| r.verdict.fails()).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows, {failed} failing, {unresolved} unresolved",
        rows.len()
    );
    failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(op_p50: f64, round_p50: [f64; 3], smps: f64, failed: f64) -> Value {
        let metric =
            |v: f64| Value::obj([("value", Value::Num(v)), ("unit", Value::Str("x".into()))]);
        let rounds = round_p50.map(|p| {
            Value::obj([
                ("op_p50_ms", Value::Num(p)),
                ("setup_s", Value::Num(1.0)),
                ("ops_per_s", Value::Num(10.0)),
                ("peak_rss_mb", Value::Num(100.0)),
            ])
        });
        Value::obj([
            ("schema", Value::Str(SCHEMA.into())),
            ("seed", Value::Num(1.0)),
            ("seconds", Value::Num(10.0)),
            ("smoke", Value::Bool(false)),
            ("rounds", Value::Num(3.0)),
            (
                "workloads",
                Value::Arr(vec![Value::obj([
                    ("name", Value::Str("w".into())),
                    ("ops_attempted", Value::Num(30.0)),
                    ("ops_failed", Value::Num(failed)),
                    (
                        "metrics",
                        Value::obj([
                            ("setup_s", metric(1.0)),
                            ("op_p50_ms", metric(op_p50)),
                            ("ops_per_s", metric(10.0)),
                            ("smps_per_op", metric(smps)),
                            ("wire_us_per_op", metric(smps * 2.0)),
                            ("peak_rss_mb", metric(100.0)),
                        ]),
                    ),
                    ("rounds", Value::Arr(rounds.to_vec())),
                ])]),
            ),
        ])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn identical_runs_pass_and_round_trip_through_the_file_format() {
        let a = doc(100.0, [99.0, 100.0, 101.0], 42.0, 0.0);
        let b = Value::parse(&a.encode_pretty()).unwrap();
        assert_eq!(
            b.get("schema").and_then(Value::as_str),
            Some("ib-vswitch/bench-perf/v1")
        );
        let rows = compare(&a, &b, Mode::Regression).unwrap();
        assert_eq!(rows.len(), 8, "six metrics + attempted + failed");
        assert!(rows.iter().all(|r| !r.verdict.fails()));
        assert_eq!(verdict_of(&rows, "smps_per_op"), Verdict::Same);
    }

    #[test]
    fn counts_must_match_exactly() {
        let a = doc(100.0, [100.0; 3], 42.0, 0.0);
        let rows = compare(&a, &doc(100.0, [100.0; 3], 42.5, 1.0), Mode::Regression).unwrap();
        assert_eq!(verdict_of(&rows, "smps_per_op"), Verdict::Mismatch);
        assert_eq!(verdict_of(&rows, "wire_us_per_op"), Verdict::Mismatch);
        assert_eq!(verdict_of(&rows, "ops_failed"), Verdict::Mismatch);
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Ok);
    }

    #[test]
    fn regressed_unresolved_and_improved_are_told_apart() {
        let steady = doc(100.0, [99.0, 100.0, 101.0], 42.0, 0.0);
        let slower = doc(140.0, [139.0, 140.0, 141.0], 42.0, 0.0);
        let rows = compare(&steady, &slower, Mode::Regression).unwrap();
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Regressed);
        let rows = compare(&slower, &steady, Mode::Regression).unwrap();
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Improved);
        // Agreement mode: different is different, whichever way.
        let rows = compare(&slower, &steady, Mode::Agreement).unwrap();
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Regressed);

        // A baseline whose own rounds spread 60 % cannot resolve a 30 % loss
        // whose rounds overlap it ...
        let noisy = doc(100.0, [70.0, 100.0, 130.0], 42.0, 0.0);
        let maybe = doc(130.0, [100.0, 130.0, 160.0], 42.0, 0.0);
        let rows = compare(&noisy, &maybe, Mode::Regression).unwrap();
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Unresolved);
        // ... but one where every round is worse than every baseline round does.
        let worse = doc(200.0, [180.0, 200.0, 220.0], 42.0, 0.0);
        let rows = compare(&noisy, &worse, Mode::Regression).unwrap();
        assert_eq!(verdict_of(&rows, "op_p50_ms"), Verdict::Regressed);
    }

    #[test]
    fn different_seeds_are_not_comparable() {
        let a = doc(100.0, [100.0; 3], 42.0, 0.0);
        let Value::Obj(mut fields) = a.clone() else {
            unreachable!()
        };
        fields[1].1 = Value::Num(2.0);
        assert!(compare(&a, &Value::Obj(fields), Mode::Regression).is_err());
    }

    #[test]
    fn higher_is_better_metrics_worsen_downwards() {
        let m = END_TO_END.iter().find(|m| m.name == "ops_per_s").unwrap();
        assert_eq!(
            judge(m, 10.0, 7.0, &[], &[], Mode::Regression),
            Verdict::Regressed
        );
        assert_eq!(
            judge(m, 10.0, 13.0, &[], &[], Mode::Regression),
            Verdict::Improved
        );
        assert_eq!(judge(m, 10.0, 9.5, &[], &[], Mode::Regression), Verdict::Ok);
    }
}
