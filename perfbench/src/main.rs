//! `perfbench` — end-to-end and per-layer benchmark of the stale-tls
//! pipeline.
//!
//! ```text
//! perfbench --workload <paper-batch|worldlog-replay|serve> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! A run generates every input from `--seed`, measures whole rounds of
//! its workload for at least `--seconds`, checks the program's outputs,
//! and prints as its last stdout line one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, measured with tracing off; with `--trace 1` the
//! run makes one untraced and one traced pass and reports the per-layer
//! metrics, writing the trace (`stale-obs-trace` v1 JSONL) under
//! `.perfbench/`. The line before it records the run's provenance.
//! `perfbench/run.py` builds this binary and the daemon, then runs it.
//! See `perfbench/README.md` for the workloads and metrics.

mod checks;
mod layers;
mod metrics;
mod paper_batch;
mod serve;
mod spans;
mod util;
mod worldlog_replay;

use serde::value::Value;
use std::process::ExitCode;

/// One run's settings.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the run measures, in seconds (whole rounds, at least one).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Scenario preset of the simulated world.
    pub preset: String,
    /// Engine and daemon shards: one per available core.
    pub shards: usize,
}

const USAGE: &str = "usage: perfbench --workload <paper-batch|worldlog-replay|serve> \
                     --seed N --seconds S --trace <0|1>";

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed needs an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a non-negative number")?,
                )
            }
            "--trace" => match value.as_str() {
                "0" => traced = Some(false),
                "1" => traced = Some(true),
                _ => return Err("--trace needs 0 or 1".to_string()),
            },
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let preset = match workload.as_str() {
        "paper-batch" => "paper",
        "worldlog-replay" | "serve" => "small",
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    Ok(Ctx {
        workload,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?,
        traced: traced.ok_or_else(|| format!("--trace is required\n{USAGE}"))?,
        preset: preset.to_string(),
        shards: util::nproc(),
    })
}

/// The commit the benchmark was built from, when the checkout is a git
/// work tree; `unknown` otherwise.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance line: what produced the result that follows it.
fn provenance(ctx: &Ctx) -> String {
    let command: Vec<Value> = std::env::args().map(Value::Str).collect();
    let v = Value::Obj(vec![
        ("command".to_string(), Value::Arr(command)),
        ("commit".to_string(), Value::Str(commit())),
        ("cores".to_string(), Value::UInt(util::nproc() as u128)),
        ("workload".to_string(), Value::Str(ctx.workload.clone())),
        ("seed".to_string(), Value::UInt(u128::from(ctx.seed))),
        ("preset".to_string(), Value::Str(ctx.preset.clone())),
        ("shards".to_string(), Value::UInt(ctx.shards as u128)),
        ("seconds".to_string(), Value::Float(ctx.seconds)),
        ("trace".to_string(), Value::Bool(ctx.traced)),
    ]);
    format!(
        "provenance {}",
        serde_json::to_string(&v).unwrap_or_default()
    )
}

/// Write a traced run's span export to `.perfbench/trace-<name>.jsonl`.
pub fn write_trace(name: &str, jsonl: &str) -> Result<(), String> {
    let path = util::work_dir()?.join(format!("trace-{name}.jsonl"));
    std::fs::write(&path, jsonl).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Print every failed check and mark the outcome incorrect if any did.
pub fn report_problems(outcome: &mut metrics::Outcome, problems: Vec<String>) {
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    if !problems.is_empty() {
        outcome.correct = false;
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(worldlog_replay::CHILD) {
        return match worldlog_replay::child(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench {}: {e}", worldlog_replay::CHILD);
                ExitCode::FAILURE
            }
        };
    }
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match ctx.workload.as_str() {
        "paper-batch" => paper_batch::run(&ctx),
        "worldlog-replay" => worldlog_replay::run(&ctx),
        _ => serve::run(&ctx),
    };
    let line = outcome.and_then(|o| metrics::result_line(&o, ctx.traced));
    match line {
        Ok(line) => {
            println!("{}", provenance(&ctx));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_and_select_the_preset() {
        let ctx = parse(&args("--workload serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ctx.seed, ctx.traced, ctx.preset.as_str()),
            (7, true, "small")
        );
        let ctx = parse(&args(
            "--workload paper-batch --seed 1 --seconds 0 --trace 0",
        ))
        .unwrap();
        assert_eq!(ctx.preset, "paper");
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve --seed x --seconds 1 --trace 0",
            "--workload serve --seed 1 --seconds 1 --trace 2",
            "--workload serve --seed 1 --seconds 1",
            "--workload serve --seed 1 --seconds 1 --trace 0 --preset tiny",
            "--workload serve --seed",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
