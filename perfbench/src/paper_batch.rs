//! `paper-batch`: what `repro paper` users wait for.
//!
//! One round simulates a world from the seed (`World::run`, the set-up),
//! runs the batch engine at one shard per core and at one shard, runs
//! the incremental engine at day batch 1, and renders every paper
//! experiment. The timed path is the batch run, the incremental run and
//! the rendering of the batch result; the one-shard run is the
//! reference for the engine's efficiency and for byte identity.

use crate::checks;
use crate::layers;
use crate::metrics::{Metrics, Outcome};
use crate::spans::{self, span};
use crate::util::{self, median, timed};
use crate::Ctx;
use engine::{Engine, EngineConfig, EngineMetrics, EngineReport};
use obs::trace::SpanId;
use obs::Obs;
use psl::SuffixList;
use stale_bench::Experiments;
use stale_core::detector::DetectionSuite;
use stale_core::staleness::StaleCertRecord;
use std::collections::BTreeSet;
use std::time::Instant;
use worldsim::{World, WorldDatasets};

/// One experiment's renderer.
type Render = fn(&Experiments) -> String;

/// Every paper experiment, in the order `Experiments::run_all` prints
/// them, with the name its `report.*_ms` metric carries.
const EXPERIMENTS: [(&str, Render); 15] = [
    ("taxonomy", Experiments::taxonomy_tables),
    ("table3", Experiments::table3),
    ("fig4", Experiments::fig4),
    ("fig5a", Experiments::fig5a),
    ("fig5b", Experiments::fig5b),
    ("table4", Experiments::table4),
    ("table5", Experiments::table5),
    ("fig6", Experiments::fig6),
    ("table6", Experiments::table6),
    ("fig7", Experiments::fig7),
    ("fig8", Experiments::fig8),
    ("fig9", Experiments::fig9),
    ("table7", Experiments::table7),
    ("mitigations", Experiments::mitigations),
    ("first_party", Experiments::first_party),
];

/// Renders of one suite, with each experiment's wall time in seconds.
type Renders = Vec<(&'static str, String, f64)>;

fn render_all(exp: &Experiments, obs: &Obs, parent: SpanId) -> Renders {
    EXPERIMENTS
        .iter()
        .map(|(name, render)| {
            let (text, s) = span(&obs.trace, parent, &format!("bench.report.{name}"), |_| {
                render(exp)
            });
            (*name, text, s)
        })
        .collect()
}

fn as_pairs(r: &Renders) -> Vec<(&str, String)> {
    r.iter().map(|(n, t, _)| (*n, t.clone())).collect()
}

fn run_engine(
    cfg: EngineConfig,
    obs: &Obs,
    incremental: bool,
    data: &WorldDatasets,
    psl: &SuffixList,
) -> Result<EngineReport, String> {
    let engine = Engine::new(cfg).with_obs(obs.clone());
    let report = if incremental {
        engine.run_incremental(data, psl)
    } else {
        engine.run(data, psl)
    }
    .map_err(|e| format!("engine error: {e}"))?;
    if !report.is_complete() {
        return Err(format!("{} shard(s) degraded", report.degraded.len()));
    }
    Ok(report)
}

/// Times the timed steps repeat over one world; each step reports its
/// median, so one stall on a shared machine does not move the total.
const REPEATS: usize = 3;

/// What one round measured (each step's median over the repeats).
struct Round {
    batch_s: f64,
    incremental_s: f64,
    report_s: f64,
    calls: u64,
    problems: Vec<String>,
    layer: Metrics,
}

impl Round {
    fn total_s(&self) -> f64 {
        self.batch_s + self.incremental_s + self.report_s
    }
}

/// The outputs of the first repeat, which the checks examine.
struct First {
    batch_suite: DetectionSuite,
    batch_metrics: EngineMetrics,
    incremental: EngineReport,
    renders: Renders,
}

/// One round over a built world: the timed steps `REPEATS` times, the
/// one-shard reference once, then the checks. The world is moved into
/// the `Experiments` the renderers need and handed back afterwards.
fn round(
    mut data: WorldDatasets,
    shards: usize,
    obs: &Obs,
) -> Result<(Round, WorldDatasets), String> {
    let trace = &obs.trace;
    let root = SpanId::none();
    let mut problems = Vec::new();
    let (mut batch_s, mut incremental_s, mut report_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<First> = None;
    for _ in 0..REPEATS {
        let psl = SuffixList::default_list();
        let (batch, s) = span(trace, root, "bench.batch", |_| {
            run_engine(EngineConfig::with_shards(shards), obs, false, &data, &psl)
        });
        let batch = batch?;
        batch_s.push(s);
        let exp = Experiments {
            data,
            psl,
            suite: batch.suite,
        };
        let (renders, s) = span(trace, root, "bench.report", |id| render_all(&exp, obs, id));
        report_s.push(s);
        let mut inc_cfg = EngineConfig::with_shards(shards);
        inc_cfg.day_batch = 1;
        let (inc, s) = span(trace, root, "bench.incremental", |_| {
            run_engine(inc_cfg, obs, true, &exp.data, &exp.psl)
        });
        let inc = inc?;
        incremental_s.push(s);
        data = exp.data;
        match &first {
            None => {
                first = Some(First {
                    batch_suite: exp.suite,
                    batch_metrics: batch.metrics,
                    incremental: inc,
                    renders,
                })
            }
            Some(f) => {
                if let Err(e) =
                    checks::same_renders("repeat", &as_pairs(&f.renders), &as_pairs(&renders))
                {
                    problems.push(e);
                }
            }
        }
    }
    let first = first.ok_or("no repeat ran")?;
    let psl = SuffixList::default_list();
    let (one, _) = span(trace, root, "bench.batch_1shard", |_| {
        run_engine(EngineConfig::with_shards(1), obs, false, &data, &psl)
    });
    let one = one?;

    let mut layer = Metrics::default();
    let mut exp = Experiments {
        data,
        psl,
        suite: first.batch_suite,
    };
    check_records(&exp, &mut problems, &mut layer);
    for (label, suite) in [
        ("1-shard batch", &one.suite),
        ("incremental", &first.incremental.suite),
    ] {
        if let Err(e) = checks::same_records(label, &classes(&exp.suite), &classes(suite)) {
            problems.push(e);
        }
    }
    exp.suite = one.suite;
    let one_renders = render_all(&exp, &Obs::disabled(), SpanId::none());
    exp.suite = first.incremental.suite;
    let inc_renders = render_all(&exp, &Obs::disabled(), SpanId::none());
    for (label, other) in [
        ("1-shard batch", &one_renders),
        ("incremental", &inc_renders),
    ] {
        if let Err(e) = checks::same_renders(label, &as_pairs(&first.renders), &as_pairs(other)) {
            problems.push(e);
        }
    }

    layers::engine_batch(
        &first.batch_metrics,
        shards,
        layers::detect_ms(&one.metrics),
        &mut layer,
    );
    let day_walls = spans::ingest_batch_walls_us(&trace.records());
    layers::engine_incremental(&first.incremental.metrics, &day_walls, &mut layer);
    for (name, _, s) in &first.renders {
        layer.set(&format!("report.{name}_ms"), s * 1e3);
    }
    let round = Round {
        batch_s: median(&batch_s),
        incremental_s: median(&incremental_s),
        report_s: median(&report_s),
        calls: (REPEATS as u64) * (2 + EXPERIMENTS.len() as u64) + 1 + 2 * EXPERIMENTS.len() as u64,
        problems,
        layer,
    };
    Ok((round, exp.data))
}

fn classes(s: &DetectionSuite) -> [&[StaleCertRecord]; 3] {
    [
        s.key_compromise.as_slice(),
        s.registrant_change.as_slice(),
        s.managed_tls.as_slice(),
    ]
}

/// The ground-truth checks of the batch suite (they need the simulator's
/// own record of what happened, which only a simulated world has).
fn check_records(exp: &Experiments, problems: &mut Vec<String>, layer: &mut Metrics) {
    let data = &exp.data;
    let suite = &exp.suite;
    let truth = &data.ground_truth;
    let cert = |id: &stale_types::CertId| data.monitor.get(id).map(|c| &c.certificate);
    let compromised: BTreeSet<_> = truth
        .compromises
        .iter()
        .map(|c| c.serial)
        .chain(truth.breach_serials.iter().copied())
        .collect();
    let changes: BTreeSet<_> = truth.registrant_changes.iter().cloned().collect();
    let departures: BTreeSet<_> = truth.cdn_departures.iter().cloned().collect();
    let results = [
        checks::kc_serials_are_compromises(
            &suite.key_compromise,
            |id| cert(id).map(|c| c.tbs.serial),
            &compromised,
        ),
        checks::rc_records_match_changes(&suite.registrant_change, &changes),
    ];
    problems.extend(results.into_iter().filter_map(Result::err));
    for records in [
        &suite.key_compromise,
        &suite.registrant_change,
        &suite.managed_tls,
    ] {
        if let Err(e) =
            checks::windows_inside_validity(records, |id| cert(id).map(|c| c.tbs.validity))
        {
            problems.push(e);
        }
    }
    layer.set("check.kc_records", suite.key_compromise.len() as f64);
    layer.set("check.rc_records", suite.registrant_change.len() as f64);
    layer.set("check.mtd_records", suite.managed_tls.len() as f64);
    layer.set(
        "check.mtd_without_departure",
        checks::mtd_without_departure(&suite.managed_tls, &departures) as f64,
    );
}

/// Run the workload: untraced rounds for `ctx.seconds`, or with
/// `ctx.traced` one untraced and one traced round over one world.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = util::scenario(&ctx.preset, ctx.seed)?;
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut problems = Vec::new();
    if !ctx.traced {
        let started = Instant::now();
        let (mut setups, mut totals) = (Vec::new(), Vec::new());
        while setups.is_empty() || util::secs(started) < ctx.seconds {
            let (data, world_s) = timed(|| World::run(cfg.clone()));
            let (r, _) = round(data, ctx.shards, &Obs::disabled())?;
            setups.push(world_s);
            totals.push(r.total_s());
            outcome.attempted += 1 + r.calls;
            problems.extend(r.problems);
        }
        outcome.metrics.set("setup_s", median(&setups));
        outcome.metrics.set("total_s", median(&totals));
        outcome.metrics.set("peak_rss_mb", util::self_peak_rss_mb());
    } else {
        let obs = Obs::enabled();
        let (data, world_s) = span(&obs.trace, SpanId::none(), "bench.world_run", |_| {
            World::run(cfg.clone())
        });
        let m = &mut outcome.metrics;
        layers::worldsim(&data, world_s, m);
        layers::primitives(&data, m);
        let (plain, data) = round(data, ctx.shards, &Obs::disabled())?;
        let (traced, _data) = round(data, ctx.shards, &obs)?;
        m.extend(&traced.layer);
        m.set("batch_s", plain.batch_s);
        m.set("incremental_s", plain.incremental_s);
        m.set("report_s", plain.report_s);
        m.set("trace.overhead_s", traced.total_s() - plain.total_s());
        let records = obs.trace.records();
        m.set("trace.spans", records.len() as f64);
        for (metric, step) in [
            ("trace.world_run.unattributed", "bench.world_run"),
            ("trace.batch.unattributed", "bench.batch"),
            ("trace.incremental.unattributed", "bench.incremental"),
            ("trace.report.unattributed", "bench.report"),
        ] {
            if let Some(share) = spans::unattributed_share(&records, step) {
                m.set(metric, share);
            }
        }
        let jsonl = spans::export_checked(&obs.trace)?;
        crate::write_trace("paper-batch", &jsonl)?;
        outcome.attempted = 1 + plain.calls + traced.calls;
        problems.extend(plain.problems);
        problems.extend(traced.problems);
    }
    crate::report_problems(&mut outcome, problems);
    Ok(outcome)
}
