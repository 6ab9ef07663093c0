//! `serve`: a scripted `stale-served` daemon across the CRL window.
//!
//! Outside the timed region the workload simulates a world from the
//! seed and exports its world-fact log. It then boots `stale-served
//! --worldlog` on that log as a child process and catches up in one
//! `feed-day` to the day before the CRL collection window; spawn to
//! caught-up is the set-up. Over one connection, closed loop, it feeds
//! the window one day at a time and after each day sends a fixed read
//! script: `table4` (the first read after ingest), `status <fp>`,
//! `explain <fp>`, `timeline <fp>`, `table4` again and `report`. The
//! timed path is the whole per-day script.

use crate::checks;
use crate::layers;
use crate::metrics::{Metrics, Outcome};
use crate::spans::{self, span};
use crate::util::{self, median, quantile};
use crate::worldlog_replay;
use crate::Ctx;
use engine::{Engine, EngineConfig, EngineReport};
use obs::trace::{SpanId, Trace};
use obs::Obs;
use psl::SuffixList;
use serde::value::Value;
use stale_served::Client;
use stale_types::Date;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use worldsim::{DayFeed, World, WorldDatasets, WorldLog};

/// Daemons booted per untraced run; the set-up is their median.
const BOOTS: usize = 3;

/// Fingerprints the per-day lookups rotate through.
const FINGERPRINTS: usize = 4;

/// The daemon binary, built next to the benchmark's own.
fn daemon_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let bin = exe.with_file_name("stale-served");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build the benchmark with perfbench/run.py",
            bin.display()
        ))
    }
}

/// A running daemon process; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    client: Client,
}

impl Daemon {
    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Send `shutdown` and wait for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self
            .client
            .request("shutdown")
            .map_err(|e| format!("shutdown: {e}"))?;
        if reply != Ok("bye".to_string()) {
            return Err(format!("shutdown replied {reply:?}"));
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One request: `Ok(body)` on an `ok` reply, `Err` on an `err` reply or
/// a broken connection.
fn ask(client: &mut Client, line: &str) -> Result<String, String> {
    match client.request(line) {
        Ok(Ok(body)) => Ok(body),
        Ok(Err(msg)) => Err(format!("{line}: daemon answered err: {msg}")),
        Err(e) => Err(format!("{line}: {e}")),
    }
}

/// Boot a daemon on `log` and catch it up through `catchup`. Returns the
/// daemon, the spawn-to-`ping` and catch-up times, in seconds.
fn boot(log: &Path, shards: usize, catchup: Date) -> Result<(Daemon, f64, f64), String> {
    let started = Instant::now();
    let mut child = Command::new(daemon_binary()?)
        .args(["small", "--listen", "127.0.0.1:0", "--shards"])
        .arg(shards.to_string())
        .arg("--worldlog")
        .arg(log)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start stale-served: {e}"))?;
    let stdout = child.stdout.take().ok_or("daemon stdout is not piped")?;
    let mut first = String::new();
    let read = BufReader::new(stdout).read_line(&mut first);
    let addr = match (read, first.trim().strip_prefix("listening on ")) {
        (Ok(_), Some(addr)) => addr.to_string(),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not report its address: {first:?}"));
        }
    };
    let client = match Client::connect_retry(addr.as_str(), 50, Duration::from_millis(20)) {
        Ok(c) => c,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("cannot connect to {addr}: {e}"));
        }
    };
    let mut daemon = Daemon { child, client };
    let pong = ask(&mut daemon.client, "ping")?;
    if pong != "pong" {
        return Err(format!("ping replied {pong:?}"));
    }
    let boot_s = util::secs(started);
    let t = Instant::now();
    let reply = ask(&mut daemon.client, &format!("feed-day {catchup}"))?;
    checks::feed_applied(&reply, catchup)?;
    Ok((daemon, boot_s, util::secs(t)))
}

/// Client-side wall times of one script, in seconds per request.
#[derive(Default)]
struct Script {
    ingest: Vec<f64>,
    fresh: Vec<f64>,
    lookup: Vec<f64>,
    explain: Vec<f64>,
    timeline: Vec<f64>,
    table4: Vec<f64>,
    report: Vec<f64>,
    wall_s: f64,
    requests: u64,
    failed: u64,
}

/// Feed `days` one at a time and send the read script after each.
fn script(
    daemon: &mut Daemon,
    days: &[Date],
    fps: &[String],
    trace: &Trace,
    problems: &mut Vec<String>,
) -> Script {
    let mut s = Script::default();
    let client = &mut daemon.client;
    let started = Instant::now();
    let ((), _) = span(trace, SpanId::none(), "bench.serve", |root| {
        for (i, day) in days.iter().enumerate() {
            let fp = &fps[i % fps.len()];
            let commands = [
                "feed-day".to_string(),
                "table4".to_string(),
                format!("status {fp}"),
                format!("explain {fp}"),
                format!("timeline {fp}"),
                "table4".to_string(),
                "report".to_string(),
            ];
            for (k, line) in commands.iter().enumerate() {
                let name = format!("bench.serve.{}", line.split(' ').next().unwrap_or(line));
                let (reply, wall) = span(trace, root, &name, |_| ask(client, line));
                s.requests += 1;
                let checked = reply.and_then(|body| match k {
                    0 => checks::feed_applied(&body, *day),
                    2..=4 => checks::names_fingerprint(line, &body, fp),
                    _ => Ok(()),
                });
                if let Err(e) = checked {
                    s.failed += 1;
                    problems.push(e);
                }
                let series = match k {
                    0 => &mut s.ingest,
                    1 => &mut s.fresh,
                    2 => &mut s.lookup,
                    3 => &mut s.explain,
                    4 => &mut s.timeline,
                    5 => &mut s.table4,
                    _ => &mut s.report,
                };
                series.push(wall);
            }
        }
    });
    s.wall_s = util::secs(started);
    s
}

/// The daemon's metrics registry, as parsed JSON.
fn registry(daemon: &mut Daemon) -> Result<Value, String> {
    let body = ask(&mut daemon.client, "metrics")?;
    serde_json::from_str(&body).map_err(|e| format!("metrics do not parse: {e:?}"))
}

fn counter(reg: &Value, name: &str) -> f64 {
    reg.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// `(count, sum)` of a registry histogram.
fn histogram(reg: &Value, name: &str) -> (f64, f64) {
    let h = reg.get("histograms").and_then(|h| h.get(name));
    let field = |f: &str| {
        h.and_then(|h| h.get(f))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    (field("count"), field("sum"))
}

/// Mean of a histogram's observations between two registry reads.
fn mean_between(before: &Value, after: &Value, name: &str) -> f64 {
    let (c0, s0) = histogram(before, name);
    let (c1, s1) = histogram(after, name);
    if c1 > c0 {
        (s1 - s0) / (c1 - c0)
    } else {
        0.0
    }
}

/// The batch-equivalent engine result over the first days of the log,
/// with the decision audit.
fn reference(
    data: &WorldDatasets,
    shards: usize,
    through: Date,
    obs: &Obs,
) -> Result<EngineReport, String> {
    let mut cfg = EngineConfig::with_shards(shards);
    cfg.audit = true;
    cfg.through = Some(through);
    let report = Engine::new(cfg)
        .with_obs(obs.clone())
        .run_incremental(data, &SuffixList::default_list())
        .map_err(|e| format!("engine error: {e}"))?;
    if !report.is_complete() {
        return Err(format!("{} shard(s) degraded", report.degraded.len()));
    }
    Ok(report)
}

/// `FINGERPRINTS` certificates the reference run kept a decision for,
/// spread evenly over the sorted set from a seed-chosen offset.
fn choose_fingerprints(report: &EngineReport, seed: u64) -> Result<Vec<String>, String> {
    let audit = report.audit.as_ref().ok_or("reference run has no audit")?;
    let mut kept: Vec<&str> = audit
        .decisions
        .iter()
        .filter(|d| d.verdict == obs::audit::Verdict::Kept)
        .map(|d| d.cert.as_str())
        .collect();
    kept.sort_unstable();
    kept.dedup();
    if kept.is_empty() {
        return Err("no certificate is stale before the CRL window opens".to_string());
    }
    let offset = (seed % kept.len() as u64) as usize;
    Ok((0..FINGERPRINTS)
        .map(|i| kept[(offset + i * kept.len() / FINGERPRINTS) % kept.len()].to_string())
        .collect())
}

/// The inputs every boot shares.
struct Inputs {
    log_path: PathBuf,
    catchup: Date,
    days: Vec<Date>,
    fps: Vec<String>,
    /// `table3`, `table4` and `report` of the batch-equivalent run over
    /// the days the script feeds.
    expected: [(&'static str, String); 3],
}

fn inputs(ctx: &Ctx, obs: &Obs, layer: &mut Metrics) -> Result<Inputs, String> {
    let cfg = util::scenario(&ctx.preset, ctx.seed)?;
    let log_path = util::work_dir()?.join("serve-worldlog.jsonl");
    let (world, world_s) = span(&obs.trace, SpanId::none(), "bench.world_run", |_| {
        World::run(cfg)
    });
    if obs.trace.is_enabled() {
        layers::worldsim(&world, world_s, layer);
        layers::primitives(&world, layer);
    }
    let (jsonl, _) = worldlog_replay::export(&world, &log_path, obs, layer)?;
    drop(world);
    let data = WorldLog::from_jsonl(&jsonl)?.to_datasets()?;
    drop(jsonl);
    // The whole CRL window, one day at a time: the same days on every
    // run, so `total_s` always covers the same work.
    let catchup = data.crl_window.start.pred();
    let last_day = data.crl_window.end.pred().min(DayFeed::new(&data).end());
    let days: Vec<Date> = data.crl_window.start.iter_until(last_day.succ()).collect();
    let last = *days.last().ok_or("the feed ends before the CRL window")?;
    let before = reference(&data, ctx.shards, catchup, obs)?;
    let fps = choose_fingerprints(&before, ctx.seed)?;
    drop(before);
    let after = reference(&data, ctx.shards, last, obs)?;
    let psl = SuffixList::default_list();
    let view = stale_core::tables::TableView {
        data: &data,
        psl: &psl,
        suite: &after.suite,
    };
    let report = after
        .audit
        .as_ref()
        .ok_or("reference run has no audit")?
        .render_coverage();
    let expected = [
        ("table3", view.table3()),
        ("table4", view.table4()),
        ("report", report),
    ];
    if obs.trace.is_enabled() {
        let walls = spans::ingest_batch_walls_us(&obs.trace.records());
        layers::engine_incremental(&after.metrics, &walls, layer);
    }
    Ok(Inputs {
        log_path,
        catchup,
        days,
        fps,
        expected,
    })
}

/// What one scripted daemon measured.
struct Served {
    setup_s: f64,
    peak_rss_mb: f64,
    script: Script,
    layer: Metrics,
}

/// Boot, catch up, run the script, read the registry, check the final
/// tables and shut down.
fn serve_once(
    inp: &Inputs,
    ctx: &Ctx,
    trace: &Trace,
    problems: &mut Vec<String>,
) -> Result<Served, String> {
    let (booted, _) = span(trace, SpanId::none(), "bench.boot", |_| {
        boot(&inp.log_path, ctx.shards, inp.catchup)
    });
    let (mut daemon, boot_s, catchup_s) = booted?;
    let before = registry(&mut daemon)?;
    let s = script(&mut daemon, &inp.days, &inp.fps, trace, problems);
    let peak_rss_mb = util::proc_status_mb(&daemon.pid(), "VmHWM").ok_or("daemon has no VmHWM")?;
    let after = registry(&mut daemon)?;
    for (command, expected) in &inp.expected {
        let body = ask(&mut daemon.client, command)?;
        if let Err(e) = checks::same_text(
            &format!("daemon {command} after the last day"),
            expected,
            &body,
        ) {
            problems.push(e);
        }
    }
    let status = ask(&mut daemon.client, "status")?;
    daemon.shutdown()?;

    let mut m = Metrics::default();
    let ms = |v: &[f64], q: f64| quantile(v, q) * 1e3;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.set("serve_s", s.wall_s);
    m.set("ingest_p50_ms", ms(&s.ingest, 0.5));
    m.set("fresh_p50_ms", ms(&s.fresh, 0.5));
    m.set("fresh_p90_ms", ms(&s.fresh, 0.9));
    m.set("lookup_p50_ms", ms(&s.lookup, 0.5));
    m.set("table4_p50_ms", ms(&s.table4, 0.5));
    m.set("served.boot_ms", boot_s * 1e3);
    m.set("served.catchup_ms", catchup_s * 1e3);
    let batch_us = mean_between(&before, &after, "served.ingest.batch_wall_us");
    m.set("served.ingest_batch_mean_us", batch_us);
    m.set(
        "served.ingest_unattributed_mean_ms",
        mean(&s.ingest) * 1e3 - batch_us / 1e3,
    );
    m.set(
        "served.view_rebuild_mean_ms",
        mean_between(&before, &after, "served.view.rebuild_us") / 1e3,
    );
    let rebuilds =
        counter(&after, "served.view.rebuilds") - counter(&before, "served.view.rebuilds");
    m.set("served.view_rebuilds", rebuilds);
    m.set(
        "served.rebuilds_per_day",
        rebuilds / s.ingest.len().max(1) as f64,
    );
    m.set(
        "served.index_build_mean_ms",
        mean_between(&before, &after, "served.explain.index_build_us") / 1e3,
    );
    m.set(
        "served.index_builds",
        counter(&after, "served.explain.index_builds")
            - counter(&before, "served.explain.index_builds"),
    );
    // Daemon-side table4 time over both reads of each day, less the view
    // rebuilds the first read pays; the client's mean over the same
    // requests less the daemon's is the time on the wire.
    let (c0, s0) = histogram(&before, "served.query.table4_us");
    let (c1, s1) = histogram(&after, "served.query.table4_us");
    let (_, r0) = histogram(&before, "served.view.rebuild_us");
    let (_, r1) = histogram(&after, "served.view.rebuild_us");
    if c1 > c0 {
        m.set(
            "served.table4_handler_mean_us",
            ((s1 - s0) - (r1 - r0)) / (c1 - c0),
        );
        let client_us = (s.fresh.iter().chain(&s.table4).sum::<f64>() * 1e6) / (c1 - c0);
        m.set("served.wire_mean_us", client_us - (s1 - s0) / (c1 - c0));
    }
    m.set("served.explain_p50_ms", ms(&s.explain, 0.5));
    m.set("served.timeline_p50_ms", ms(&s.timeline, 0.5));
    m.set(
        "served.timeline_first_ms",
        s.timeline.first().copied().unwrap_or(0.0) * 1e3,
    );
    m.set("served.report_p50_ms", ms(&s.report, 0.5));
    m.set(
        "served.timeline_extract_ms",
        histogram(&after, "served.timeline.extract_us").1 / 1e3,
    );
    let footprint = status
        .lines()
        .find_map(|l| l.strip_prefix("footprint "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    m.set("served.footprint", footprint);
    m.set("served.days", s.ingest.len() as f64);
    Ok(Served {
        setup_s: boot_s + catchup_s,
        peak_rss_mb,
        script: s,
        layer: m,
    })
}

/// Run the workload: `BOOTS` daemons, the last of which runs the script;
/// or with `ctx.traced` one untraced and one traced scripted daemon.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut problems = Vec::new();
    // Inputs: World::run, the three export calls, log parse and rebuild,
    // two reference runs and three renders.
    let input_calls = 10;
    let obs = if ctx.traced {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let mut layer = Metrics::default();
    let inp = inputs(ctx, &obs, &mut layer)?;
    let per_script = |s: &Script| s.requests + 5;
    if !ctx.traced {
        let mut setups = Vec::new();
        for _ in 1..BOOTS {
            let (daemon, boot_s, catchup_s) = boot(&inp.log_path, ctx.shards, inp.catchup)?;
            daemon.shutdown()?;
            setups.push(boot_s + catchup_s);
            outcome.attempted += 3;
        }
        let served = serve_once(&inp, ctx, &Trace::disabled(), &mut problems)?;
        setups.push(served.setup_s);
        outcome.attempted += input_calls + 2 + per_script(&served.script);
        outcome.failed += served.script.failed;
        let m = &mut outcome.metrics;
        m.set("setup_s", median(&setups));
        m.set("total_s", served.script.wall_s);
        m.set("peak_rss_mb", served.peak_rss_mb);
    } else {
        let plain = serve_once(&inp, ctx, &Trace::disabled(), &mut problems)?;
        let traced = serve_once(&inp, ctx, &obs.trace, &mut problems)?;
        outcome.attempted =
            input_calls + 4 + per_script(&plain.script) + per_script(&traced.script);
        outcome.failed = plain.script.failed + traced.script.failed;
        let m = &mut outcome.metrics;
        m.extend(&layer);
        m.extend(&plain.layer);
        m.set(
            "trace.overhead_s",
            traced.script.wall_s - plain.script.wall_s,
        );
        let records = obs.trace.records();
        m.set("trace.spans", records.len() as f64);
        for (metric, step) in [
            ("trace.world_run.unattributed", "bench.world_run"),
            ("trace.export.unattributed", "bench.export"),
            ("trace.serve.unattributed", "bench.serve"),
        ] {
            if let Some(share) = spans::unattributed_share(&records, step) {
                m.set(metric, share);
            }
        }
        crate::write_trace("serve", &spans::export_checked(&obs.trace)?)?;
    }
    let _ = std::fs::remove_file(&inp.log_path);
    crate::report_problems(&mut outcome, problems);
    Ok(outcome)
}
