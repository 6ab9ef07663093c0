//! `worldlog-replay`: the world-fact log round trip.
//!
//! One round simulates a world from the seed (`World::run`, the set-up),
//! exports its world-fact log to a file, and replays that file the way
//! `stale-bench replay --incremental` does, with the decision audit on,
//! in a child process that holds nothing but the log and what is built
//! from it. The timed path is the export and the replay; replay never
//! simulates, so a change to world simulation leaves `replay_s` where it
//! was.

use crate::checks;
use crate::layers;
use crate::metrics::{Metrics, Outcome, PER_LAYER};
use crate::spans::{self, span};
use crate::util::{self, median};
use crate::Ctx;
use obs::trace::SpanId;
use obs::Obs;
use serde::value::Value;
use stale_bench::replay::{replay_report, replay_run, ReplayOptions};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use worldsim::{World, WorldDatasets, WorldLog};

/// Subcommand name the benchmark binary re-runs itself under to replay.
pub const CHILD: &str = "replay-child";

/// Export `data`'s world-fact log to `path`: `from_datasets`, `to_jsonl`
/// and the file write, each in its own span under `bench.export`.
/// Returns the JSONL text and the step's wall time.
pub fn export(
    data: &WorldDatasets,
    path: &Path,
    obs: &Obs,
    m: &mut Metrics,
) -> Result<(String, f64), String> {
    let trace = &obs.trace;
    let (jsonl, export_s) = span(trace, SpanId::none(), "bench.export", |id| {
        let (log, from_s) = span(trace, id, "bench.worldlog.from_datasets", |_| {
            WorldLog::from_datasets(data)
        });
        let (jsonl, jsonl_s) = span(trace, id, "bench.worldlog.to_jsonl", |_| log.to_jsonl());
        m.set("worldlog.events", log.events.len() as f64);
        drop(log);
        let (written, write_s) = span(trace, id, "bench.worldlog.write", |_| {
            std::fs::write(path, &jsonl)
        });
        m.set("worldlog.from_datasets_ms", from_s * 1e3);
        m.set("worldlog.to_jsonl_ms", jsonl_s * 1e3);
        m.set("worldlog.write_ms", write_s * 1e3);
        m.set("worldlog.bytes", jsonl.len() as f64);
        written
            .map(|()| jsonl)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    });
    Ok((jsonl?, export_s))
}

/// The log checks: schema-valid, tally equal to the events, and a parse
/// followed by a re-export gives the same bytes back.
pub fn check_log(jsonl: &str, problems: &mut Vec<String>) {
    let diagnostics = worldsim::worldlog::validate_worldlog_jsonl(jsonl);
    if let Some(first) = diagnostics.first() {
        problems.push(format!(
            "world log has {} diagnostic(s), first: {first}",
            diagnostics.len()
        ));
    }
    if let Err(e) = checks::tally_matches_events(jsonl) {
        problems.push(format!("world log: {e}"));
    }
    match WorldLog::from_jsonl(jsonl) {
        Ok(log) => {
            if let Err(e) = checks::same_text("world log re-export", jsonl, &log.to_jsonl()) {
                problems.push(e);
            }
        }
        Err(e) => problems.push(format!("world log does not parse: {e}")),
    }
}

/// What the replay child reported.
struct Replayed {
    metrics: Metrics,
    problems: Vec<String>,
}

fn spawn_replay(log: &Path, out: &Path, shards: usize, traced: bool) -> Result<Replayed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(CHILD)
        .arg(log)
        .arg(out)
        .arg(shards.to_string())
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the replay process: {e}"))?;
    if !output.status.success() {
        return Err(format!("replay process failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("replay process printed nothing")?;
    let v: Value =
        serde_json::from_str(line).map_err(|e| format!("replay output does not parse: {e:?}"))?;
    let mut metrics = Metrics::default();
    if let Some(Value::Obj(fields)) = v.get("metrics") {
        for (name, value) in fields {
            if let Some(x) = value.as_f64() {
                metrics.set(name, x);
            }
        }
    }
    let problems = match v.get("problems") {
        Some(Value::Arr(items)) => items
            .iter()
            .filter_map(|p| match p {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => vec!["replay output has no problem list".to_string()],
    };
    Ok(Replayed { metrics, problems })
}

/// One round: build, export, replay in a child, check.
struct Round {
    setup_s: f64,
    export_s: f64,
    replay_s: f64,
    peak_rss_mb: f64,
    calls: u64,
    problems: Vec<String>,
    layer: Metrics,
}

fn round(ctx: &Ctx, obs: &Obs, tag: &str) -> Result<Round, String> {
    let cfg = util::scenario(&ctx.preset, ctx.seed)?;
    let dir = util::work_dir()?;
    let log_path = dir.join(format!("worldlog-{tag}.jsonl"));
    let report_path = dir.join(format!("replay-{tag}.txt"));
    let mut layer = Metrics::default();
    let (data, setup_s) = span(&obs.trace, SpanId::none(), "bench.world_run", |_| {
        World::run(cfg)
    });
    if obs.trace.is_enabled() {
        layers::worldsim(&data, setup_s, &mut layer);
        layers::primitives(&data, &mut layer);
    }
    let (jsonl, export_s) = export(&data, &log_path, obs, &mut layer)?;
    let replayed = spawn_replay(&log_path, &report_path, ctx.shards, obs.trace.is_enabled())?;
    let mut problems = replayed.problems;
    layer.extend(&replayed.metrics);
    let replay_s = replayed
        .metrics
        .get("replay_s")
        .ok_or("replay reported no time")?;
    let peak_rss_mb = replayed
        .metrics
        .get("peak_rss_mb")
        .ok_or("replay reported no memory")?;

    check_log(&jsonl, &mut problems);
    drop(jsonl);
    let replayed_report = std::fs::read_to_string(&report_path)
        .map_err(|e| format!("cannot read {}: {e}", report_path.display()))?;
    let opts = ReplayOptions {
        shards: ctx.shards,
        incremental: true,
    };
    let direct = replay_run(data, &opts).map(|run| replay_report(&run))?;
    if let Err(e) = checks::same_text("replay vs direct", &direct, &replayed_report) {
        problems.push(e);
    }
    for path in [&log_path, &report_path] {
        let _ = std::fs::remove_file(path);
    }
    Ok(Round {
        setup_s,
        export_s,
        replay_s,
        peak_rss_mb,
        // World::run, three export calls, five replay calls, one direct run.
        calls: 10,
        problems,
        layer,
    })
}

/// Run the workload: untraced rounds for `ctx.seconds`, or with
/// `ctx.traced` one untraced and one traced round.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut problems = Vec::new();
    if !ctx.traced {
        let started = Instant::now();
        let mut rounds = Vec::new();
        while rounds.is_empty() || util::secs(started) < ctx.seconds {
            let r = round(ctx, &Obs::disabled(), "plain")?;
            outcome.attempted += r.calls;
            problems.extend(r.problems.iter().cloned());
            rounds.push(r);
        }
        let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let m = &mut outcome.metrics;
        m.set("setup_s", med(|r| r.setup_s));
        m.set("total_s", med(|r| r.export_s + r.replay_s));
        m.set("peak_rss_mb", med(|r| r.peak_rss_mb));
    } else {
        let plain = round(ctx, &Obs::disabled(), "plain")?;
        let obs = Obs::enabled();
        let traced = round(ctx, &obs, "traced")?;
        let m = &mut outcome.metrics;
        m.extend(&traced.layer);
        m.set("export_s", plain.export_s);
        m.set("replay_s", plain.replay_s);
        m.set(
            "trace.overhead_s",
            (traced.export_s + traced.replay_s) - (plain.export_s + plain.replay_s),
        );
        let records = obs.trace.records();
        let child_spans = traced.layer.get("trace.spans").unwrap_or(0.0);
        m.set("trace.spans", records.len() as f64 + child_spans);
        for (metric, step) in [
            ("trace.world_run.unattributed", "bench.world_run"),
            ("trace.export.unattributed", "bench.export"),
        ] {
            if let Some(share) = spans::unattributed_share(&records, step) {
                m.set(metric, share);
            }
        }
        let jsonl = spans::export_checked(&obs.trace)?;
        crate::write_trace("worldlog-replay", &jsonl)?;
        outcome.attempted = plain.calls + traced.calls;
        problems.extend(plain.problems);
        problems.extend(traced.problems);
    }
    crate::report_problems(&mut outcome, problems);
    Ok(outcome)
}

/// The replay process: `replay-child LOG OUT SHARDS TRACED`. Replays the
/// log like `stale-bench replay --incremental`, writes the replay report
/// to OUT and prints one JSON line of metrics and check problems.
pub fn child(args: &[String]) -> Result<(), String> {
    let [log_path, out_path, shards, traced] = args else {
        return Err(format!("usage: perfbench {CHILD} LOG OUT SHARDS TRACED"));
    };
    let shards: usize = shards
        .parse()
        .ok()
        .filter(|n| *n > 0)
        .ok_or("SHARDS must be a positive integer")?;
    let obs = if traced == "1" {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let trace = &obs.trace;
    let mut m = Metrics::default();
    let mut problems = Vec::new();
    let (result, replay_s) = span(trace, SpanId::none(), "bench.replay", |id| {
        let (text, read_s) = span(trace, id, "bench.worldlog.read", |_| {
            std::fs::read_to_string(log_path)
        });
        let text = text.map_err(|e| format!("cannot read {log_path}: {e}"))?;
        let (log, parse_s) = span(trace, id, "bench.worldlog.from_jsonl", |_| {
            WorldLog::from_jsonl(&text)
        });
        drop(text);
        let log = log?;
        m.set("replay.rss_log_mb", util::self_rss_mb());
        let (data, rebuild_s) = span(trace, id, "bench.worldlog.to_datasets", |_| {
            log.to_datasets()
        });
        let data = data?;
        m.set("replay.rss_datasets_mb", util::self_rss_mb());
        let (run, engine_s) = span(trace, id, "bench.replay.engine", |_| {
            if trace.is_enabled() {
                // replay_run's engine configuration, with the trace attached.
                let mut cfg = engine::EngineConfig::with_shards(shards);
                cfg.audit = true;
                stale_bench::Experiments::with_engine_incremental_on_obs(
                    data,
                    psl::SuffixList::default_list(),
                    cfg,
                    obs.clone(),
                )
                .map_err(|e| format!("engine error: {e}"))
            } else {
                let opts = ReplayOptions {
                    shards,
                    incremental: true,
                };
                replay_run(data, &opts)
            }
        });
        let run = run?;
        let (report, report_s) = span(trace, id, "bench.replay.report", |_| replay_report(&run));
        m.set("worldlog.read_ms", read_s * 1e3);
        m.set("worldlog.from_jsonl_ms", parse_s * 1e3);
        m.set("worldlog.to_datasets_ms", rebuild_s * 1e3);
        m.set("replay.engine_ms", engine_s * 1e3);
        m.set("replay.report_ms", report_s * 1e3);
        drop(log);
        Ok::<_, String>((run, report))
    });
    let (run, report) = result?;
    m.set("replay_s", replay_s);
    m.set("peak_rss_mb", util::self_peak_rss_mb());
    match &run.audit {
        Some(audit) => {
            if let Err(e) = checks::coverage_balances(&audit.coverage) {
                problems.push(e);
            }
            m.set("audit.decisions", audit.decisions.len() as f64);
            let kept = audit
                .decisions
                .iter()
                .filter(|d| d.verdict == obs::audit::Verdict::Kept)
                .count();
            m.set("audit.kept", kept as f64);
        }
        None => problems.push("replay ran without its decision audit".to_string()),
    }
    if trace.is_enabled() {
        let records = trace.records();
        layers::engine_incremental(
            &run.metrics,
            &spans::ingest_batch_walls_us(&records),
            &mut m,
        );
        if let Some(share) = spans::unattributed_share(&records, "bench.replay") {
            m.set("trace.replay.unattributed", share);
        }
        m.set("trace.spans", records.len() as f64);
        crate::write_trace("worldlog-replay-child", &spans::export_checked(trace)?)?;
    }
    std::fs::write(out_path, &report).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let fields = PER_LAYER
        .iter()
        .chain(crate::metrics::END_TO_END)
        .filter_map(|(name, _)| m.get(name).map(|v| (name.to_string(), Value::Float(v))))
        .collect();
    let line = Value::Obj(vec![
        ("metrics".to_string(), Value::Obj(fields)),
        (
            "problems".to_string(),
            Value::Arr(problems.into_iter().map(Value::Str).collect()),
        ),
    ]);
    let text = serde_json::to_string(&line).map_err(|e| format!("{e:?}"))?;
    println!("{text}");
    Ok(())
}
