//! Small shared helpers: timing, order statistics, process memory, the
//! working directory and the scenario a seed selects.

use std::path::PathBuf;
use std::time::Instant;
use worldsim::ScenarioConfig;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call, returning its value and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

/// Nearest-rank quantile of `values` (`0 < q <= 1`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// One `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in MB.
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line
        .trim_start_matches(field)
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident memory of this process so far, in MB.
pub fn self_peak_rss_mb() -> f64 {
    proc_status_mb("self", "VmHWM").unwrap_or(0.0)
}

/// Current resident memory of this process, in MB.
pub fn self_rss_mb() -> f64 {
    proc_status_mb("self", "VmRSS").unwrap_or(0.0)
}

/// The benchmark's scratch directory inside the checkout (world logs,
/// traces, replay reports). Created on first use.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The scenario preset `name` with its RNG seed replaced by `seed`, so
/// every input the program sees is generated from the benchmark seed.
pub fn scenario(name: &str, seed: u64) -> Result<ScenarioConfig, String> {
    let mut cfg = match name {
        "paper" => ScenarioConfig::paper2023(),
        "small" => ScenarioConfig::small(),
        "tiny" => ScenarioConfig::tiny(),
        other => return Err(format!("unknown preset {other:?} (paper, small or tiny)")),
    };
    cfg.seed = seed;
    Ok(cfg)
}

/// Shards every workload runs at: one per available core.
pub fn nproc() -> usize {
    engine::config::available_parallelism()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn seed_replaces_the_preset_seed() {
        assert_eq!(scenario("small", 7).unwrap().seed, 7);
        assert!(scenario("huge", 7).is_err());
    }
}
