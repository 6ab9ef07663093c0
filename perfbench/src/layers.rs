//! Per-layer metrics read from outside the program: sizes of the built
//! world, the certificate primitives timed over its corpus, and the
//! `EngineMetrics` the engine returns.

use crate::metrics::Metrics;
use engine::EngineMetrics;
use std::hint::black_box;
use std::time::Instant;
use worldsim::WorldDatasets;
use x509::Certificate;

/// Certificates the primitives are timed over: an even stride through
/// the corpus, so the sample spans every era of the world.
const PRIMITIVE_SAMPLE: usize = 20_000;

/// World sizes, and `World::run`'s cost per certificate.
pub fn worldsim(data: &WorldDatasets, world_run_s: f64, m: &mut Metrics) {
    let certs = data.monitor.dedup_count();
    m.set("worldsim.certs", certs as f64);
    m.set("worldsim.ct_entries", data.ct_raw_entries as f64);
    m.set("worldsim.crl_entries", data.crl.len() as f64);
    if certs > 0 {
        m.set("worldsim.us_per_cert", world_run_s * 1e6 / certs as f64);
    }
}

/// Encode, decode, `cert_id` and `fingerprint` per certificate, and
/// SHA-256 throughput over the encoded sample.
pub fn primitives(data: &WorldDatasets, m: &mut Metrics) {
    let corpus: Vec<&Certificate> = data
        .monitor
        .corpus_unfiltered()
        .map(|c| &c.certificate)
        .collect();
    let stride = corpus.len().div_ceil(PRIMITIVE_SAMPLE).max(1);
    let sample: Vec<&Certificate> = corpus.iter().step_by(stride).copied().collect();
    if sample.is_empty() {
        return;
    }
    let n = sample.len() as f64;
    let per_cert_us = |t: Instant| t.elapsed().as_secs_f64() * 1e6 / n;

    let t = Instant::now();
    let ders: Vec<Vec<u8>> = sample.iter().map(|c| black_box(c.encode())).collect();
    m.set("x509.encode_us", per_cert_us(t));

    let t = Instant::now();
    for der in &ders {
        let _ = black_box(Certificate::decode(black_box(der)));
    }
    m.set("x509.decode_us", per_cert_us(t));

    let t = Instant::now();
    for c in &sample {
        black_box(c.cert_id());
    }
    m.set("x509.cert_id_us", per_cert_us(t));

    let t = Instant::now();
    for c in &sample {
        black_box(c.fingerprint());
    }
    m.set("x509.fingerprint_us", per_cert_us(t));

    let bytes: usize = ders.iter().map(Vec::len).sum();
    let t = Instant::now();
    for der in &ders {
        black_box(crypto::sha256(black_box(der)));
    }
    let s = t.elapsed().as_secs_f64();
    if s > 0.0 {
        m.set("crypto.sha256_mb_s", bytes as f64 / 1e6 / s);
    }
}

fn stage_ms(metrics: &EngineMetrics, name: &str) -> f64 {
    metrics
        .stages
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.wall_us as f64 / 1e3)
}

fn stage_items_out(metrics: &EngineMetrics, name: &str) -> f64 {
    metrics
        .stages
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.items_out as f64)
}

/// The batch engine's stages and shards. `one_shard_detect_ms` is the
/// detect stage of the same world at one shard, the efficiency base.
pub fn engine_batch(
    metrics: &EngineMetrics,
    shards: usize,
    one_shard_detect_ms: f64,
    m: &mut Metrics,
) {
    m.set("engine.partition_ms", stage_ms(metrics, "partition"));
    let detect = stage_ms(metrics, "detect");
    m.set("engine.detect_ms", detect);
    m.set("engine.merge_ms", stage_ms(metrics, "merge"));
    let sum = |f: fn(&engine::ShardMetrics) -> u64| -> f64 {
        metrics.shards.iter().map(f).sum::<u64>() as f64 / 1e3
    };
    m.set("engine.kc_ms", sum(|s| s.kc_us));
    m.set("engine.rc_ms", sum(|s| s.rc_us));
    m.set("engine.mtd_ms", sum(|s| s.mtd_us));
    let max = metrics.shards.iter().map(|s| s.wall_us).max().unwrap_or(0);
    m.set("engine.shard_max_ms", max as f64 / 1e3);
    m.set("engine.shard_skew", metrics.shard_skew().unwrap_or(0.0));
    m.set("engine.detect_1shard_ms", one_shard_detect_ms);
    let usable = shards.min(crate::util::nproc()).max(1) as f64;
    if detect > 0.0 {
        m.set("engine.efficiency", one_shard_detect_ms / detect / usable);
    }
    m.set("engine.routed", stage_items_out(metrics, "partition"));
    m.set("engine.records", stage_items_out(metrics, "merge"));
    let attempts: u32 = metrics.shards.iter().map(|s| s.attempts).sum();
    m.set("engine.attempts", f64::from(attempts));
}

/// The detect stage of a batch run, in ms.
pub fn detect_ms(metrics: &EngineMetrics) -> f64 {
    stage_ms(metrics, "detect")
}

/// The incremental engine's stages; per-day ingest quantiles come from
/// the per-batch spans of a traced run (`day_walls_us`, day batch 1).
pub fn engine_incremental(metrics: &EngineMetrics, day_walls_us: &[f64], m: &mut Metrics) {
    use crate::util::quantile;
    m.set("engine.feed_ms", stage_ms(metrics, "feed"));
    m.set("engine.ingest_ms", stage_ms(metrics, "ingest"));
    m.set("engine.finish_ms", stage_ms(metrics, "merge"));
    m.set("engine.ingest_day_p50_us", quantile(day_walls_us, 0.50));
    m.set("engine.ingest_day_p99_us", quantile(day_walls_us, 0.99));
    m.set("engine.ingest_day_max_us", quantile(day_walls_us, 1.0));
    let events = metrics.ingest.as_ref().map_or(0, |i| i.events);
    m.set("engine.events", events as f64);
}
