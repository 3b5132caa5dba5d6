//! `perf` — the repository's end-to-end + per-layer benchmark.
//!
//! ```text
//! perf run       [--workload NAME]... [--seed S] [--seconds N] [--trace 0|1] [--json PATH] [--smoke]
//! perf trace     ...                  (= run --trace 1)
//! perf selfcheck [--workload NAME]... [--seed S] [--seconds N] [--smoke]
//! perf compare   A.json B.json
//! ```
//!
//! See `README.md` beside this package for every metric and workload.

mod compare;
mod json;
mod metrics;
mod report;
mod schedule;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use compare::Mode;
use json::Value;
use report::RunOptions;
use workloads::RoundArgs;

const USAGE: &str = "usage:
  perf run       [--workload NAME]... [--seed S] [--seconds N] [--trace 0|1] [--json PATH] [--smoke]
  perf trace     (same flags; = run --trace 1)
  perf selfcheck [--workload NAME]... [--seed S] [--seconds N] [--smoke]
  perf compare   A.json B.json";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Self {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                // `--smoke` is the one flag that may stand alone.
                Some("smoke") if raw.peek().is_none_or(|n| n.starts_with("--")) => {
                    args.flags.push(("smoke".into(), "1".into()));
                }
                Some(name) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.to_string(), value));
                }
                None => args.words.push(arg),
            }
        }
        Ok(args)
    }

    fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags
            .iter()
            .filter(move |(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.all(name).last() {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a whole number")),
        }
    }

    fn switch(&self, name: &str) -> Result<bool, String> {
        Ok(self.number(name, 0)? != 0)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }

    fn run_options(&self, trace: bool) -> Result<RunOptions, String> {
        let mut opts = RunOptions {
            seed: self.number("seed", 1)?,
            seconds: self.number("seconds", workloads::NOMINAL_SECONDS)?,
            smoke: self.switch("smoke")?,
            trace: trace || self.switch("trace")?,
            workloads: workloads::SPECS.iter().collect(),
        };
        if !(1..=600).contains(&opts.seconds) {
            return Err("--seconds must be between 1 and 600".into());
        }
        let named: Vec<&str> = self.all("workload").collect();
        if !named.is_empty() {
            opts.workloads = named
                .iter()
                .map(|n| workloads::spec(n).ok_or_else(|| format!("unknown workload `{n}`")))
                .collect::<Result<_, _>>()?;
        }
        Ok(opts)
    }
}

fn read_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One round in this process; the result goes to the parent as one line.
fn child(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let name = args
        .all("workload")
        .last()
        .ok_or("child needs --workload")?;
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let round_args = RoundArgs {
        seed: args.number("seed", 1)?,
        round: args.number("round", 0)? as u32,
        warmup: args.number("warmup", 0)? as usize,
        ops: args.number("ops", 1)?.max(1) as usize,
        trace: args.switch("trace")?,
        smoke: args.switch("smoke")?,
    };
    let mut result = workloads::run_round(spec, &round_args, started)?;
    result.peak_rss_mb = trace::peak_rss_mb();
    println!("{}", result.to_json().encode());
    Ok(ExitCode::SUCCESS)
}

fn run(args: &Args, trace: bool) -> Result<ExitCode, String> {
    args.reject_unknown(&["workload", "seed", "seconds", "trace", "json", "smoke"])?;
    let opts = args.run_options(trace)?;
    let outcome = report::run(&opts)?;
    if let Some(path) = args.all("json").last() {
        std::fs::write(path, outcome.doc.encode_pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if !outcome.correct {
        println!("correctness gate FAILED");
    }
    if let Some(line) = outcome.contract_line {
        println!("{line}");
    }
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The noise acceptance test: two back-to-back runs of the same code must
/// agree within the benchmark's own bounds, counts exactly.
fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&["workload", "seed", "seconds", "smoke"])?;
    let opts = args.run_options(false)?;
    let first = report::run(&opts)?;
    let second = report::run(&opts)?;
    println!("\nselfcheck: run A vs run B, same seed, same code");
    let rows = compare::compare(&first.doc, &second.doc, Mode::Agreement)?;
    let agree = compare::print_rows(&rows);
    let pass = agree && first.correct && second.correct;
    println!("selfcheck {}", if pass { "PASSED" } else { "FAILED" });
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&[])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare takes exactly two files".into());
    };
    let rows = compare::compare(&read_doc(a)?, &read_doc(b)?, Mode::Regression)?;
    Ok(if compare::print_rows(&rows) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // First thing, so a child's `setup_s` starts at process start.
    let started = Instant::now();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("run") => run(&args, false),
            Some("trace") => run(&args, true),
            Some("selfcheck") => selfcheck(&args),
            Some("compare") => compare_files(&args),
            Some("child") => child(&args, started),
            _ => Err(USAGE.to_string()),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
