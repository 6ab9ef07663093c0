//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of the catalogue, so the result
//! line always has the same keys. End-to-end metrics are measured by
//! every workload. A per-layer metric of a layer that a workload does
//! not exercise reads 0 there (the daemon served no request in
//! `paper-batch`, say). `BENCHMARK.json` lists the same names; a test
//! keeps the two in step.

use serde::value::Value;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("total_s", "s")];

/// Per-layer metrics: `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Untraced wall time of each user-visible step (the parts of total_s).
    ("batch_s", "s"),
    ("incremental_s", "s"),
    ("report_s", "s"),
    ("export_s", "s"),
    ("replay_s", "s"),
    ("serve_s", "s"),
    ("ingest_p50_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("lookup_p50_ms", "ms"),
    ("table4_p50_ms", "ms"),
    // worldsim
    ("worldsim.certs", "count"),
    ("worldsim.ct_entries", "count"),
    ("worldsim.crl_entries", "count"),
    ("worldsim.us_per_cert", "us"),
    // x509 and crypto, timed over the built corpus
    ("x509.encode_us", "us"),
    ("x509.decode_us", "us"),
    ("x509.cert_id_us", "us"),
    ("x509.fingerprint_us", "us"),
    ("crypto.sha256_mb_s", "MB/s"),
    // engine, batch
    ("engine.partition_ms", "ms"),
    ("engine.detect_ms", "ms"),
    ("engine.merge_ms", "ms"),
    ("engine.kc_ms", "ms"),
    ("engine.rc_ms", "ms"),
    ("engine.mtd_ms", "ms"),
    ("engine.shard_max_ms", "ms"),
    ("engine.shard_skew", "ratio"),
    ("engine.detect_1shard_ms", "ms"),
    ("engine.efficiency", "ratio"),
    ("engine.routed", "count"),
    ("engine.records", "count"),
    ("engine.attempts", "count"),
    // engine, incremental
    ("engine.feed_ms", "ms"),
    ("engine.ingest_ms", "ms"),
    ("engine.finish_ms", "ms"),
    ("engine.ingest_day_p50_us", "us"),
    ("engine.ingest_day_p99_us", "us"),
    ("engine.ingest_day_max_us", "us"),
    ("engine.events", "count"),
    // stale-core renderers
    ("report.table3_ms", "ms"),
    ("report.table4_ms", "ms"),
    ("report.table5_ms", "ms"),
    ("report.table6_ms", "ms"),
    ("report.table7_ms", "ms"),
    ("report.taxonomy_ms", "ms"),
    ("report.fig4_ms", "ms"),
    ("report.fig5a_ms", "ms"),
    ("report.fig5b_ms", "ms"),
    ("report.fig6_ms", "ms"),
    ("report.fig7_ms", "ms"),
    ("report.fig8_ms", "ms"),
    ("report.fig9_ms", "ms"),
    ("report.mitigations_ms", "ms"),
    ("report.first_party_ms", "ms"),
    // worldsim::worldlog, export
    ("worldlog.from_datasets_ms", "ms"),
    ("worldlog.to_jsonl_ms", "ms"),
    ("worldlog.write_ms", "ms"),
    ("worldlog.bytes", "count"),
    ("worldlog.events", "count"),
    // worldsim::worldlog and bench, replay
    ("worldlog.read_ms", "ms"),
    ("worldlog.from_jsonl_ms", "ms"),
    ("worldlog.to_datasets_ms", "ms"),
    ("replay.engine_ms", "ms"),
    ("replay.report_ms", "ms"),
    ("replay.rss_log_mb", "MB"),
    ("replay.rss_datasets_mb", "MB"),
    // obs, decision audit
    ("audit.decisions", "count"),
    ("audit.kept", "count"),
    // served: client timings plus the daemon's own registry
    ("served.boot_ms", "ms"),
    ("served.catchup_ms", "ms"),
    ("served.ingest_batch_mean_us", "us"),
    ("served.ingest_unattributed_mean_ms", "ms"),
    ("served.view_rebuild_mean_ms", "ms"),
    ("served.view_rebuilds", "count"),
    ("served.rebuilds_per_day", "ratio"),
    ("served.index_build_mean_ms", "ms"),
    ("served.index_builds", "count"),
    ("served.table4_handler_mean_us", "us"),
    ("served.wire_mean_us", "us"),
    ("served.explain_p50_ms", "ms"),
    ("served.timeline_p50_ms", "ms"),
    ("served.timeline_first_ms", "ms"),
    ("served.report_p50_ms", "ms"),
    ("served.timeline_extract_ms", "ms"),
    ("served.footprint", "count"),
    ("served.days", "count"),
    // the traced run itself
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.world_run.unattributed", "share"),
    ("trace.batch.unattributed", "share"),
    ("trace.incremental.unattributed", "share"),
    ("trace.report.unattributed", "share"),
    ("trace.export.unattributed", "share"),
    ("trace.replay.unattributed", "share"),
    ("trace.serve.unattributed", "share"),
    // counts the correctness checks make (reported, not gated)
    ("check.kc_records", "count"),
    ("check.rc_records", "count"),
    ("check.mtd_records", "count"),
    ("check.mtd_without_departure", "count"),
];

/// Measured values by metric name. Setting an uncatalogued name is a
/// bug in the benchmark and panics, so the result line can never carry
/// a metric `BENCHMARK.json` does not declare.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.0.insert(key, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Copy every value of `other` over this one.
    pub fn extend(&mut self, other: &Metrics) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }
}

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output the run checked was correct.
    pub correct: bool,
    /// Operations attempted (timed calls into the program and requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured metrics (a run fills the group its trace flag asks for).
    pub metrics: Metrics,
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// one group (`END_TO_END` untraced, `PER_LAYER` traced). A metric the
/// run did not set reads 0, which only per-layer metrics may do.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let group = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(group.len());
    for (name, unit) in group {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        if !(traced || value.is_finite() && value > 0.0) {
            return Err(format!("end-to-end metric {name} measured {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push((
            name.to_string(),
            Value::Obj(vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        ));
    }
    let line = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(outcome.correct)),
        (
            "attempted".to_string(),
            Value::UInt(u128::from(outcome.attempted)),
        ),
        (
            "failed".to_string(),
            Value::UInt(u128::from(outcome.failed)),
        ),
        ("metrics".to_string(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| format!("cannot encode the result line: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the catalogue, in order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, group) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(listed)) = json.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            let listed: Vec<(String, String)> = listed
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry without name/unit: {m:?}"),
                })
                .collect();
            let expected: Vec<(String, String)> = group
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key} differs from the catalogue");
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_group() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            outcome.metrics.set(name, 1.5);
        }
        let line = result_line(&outcome, false).unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        let Some(Value::Obj(m)) = v.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(m.len(), END_TO_END.len());
        let traced = result_line(&outcome, true).unwrap();
        let v: Value = serde_json::from_str(&traced).unwrap();
        let Some(Value::Obj(m)) = v.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(m.len(), PER_LAYER.len());
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_is_refused() {
        let outcome = Outcome::default();
        assert!(result_line(&outcome, false).is_err());
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn uncatalogued_names_panic() {
        Metrics::default().set("no.such.metric", 1.0);
    }
}
