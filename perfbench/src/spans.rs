//! The benchmark's own spans and the attribution computed from a trace.
//!
//! Every timed call into the program runs inside a `bench.*` span of
//! the run's [`obs::Trace`] (a no-op when tracing is off), so a traced
//! run's JSONL shows the benchmark's steps next to the spans the
//! program records itself. The wall time a step reports is taken with
//! its own clock, whether or not the trace records.

use obs::trace::{SpanId, SpanRecord, Trace};
use std::time::Instant;

/// Run `f` inside span `name` under `parent` (`SpanId::none()` for a
/// root), returning its value and its wall time in seconds.
pub fn span<T>(trace: &Trace, parent: SpanId, name: &str, f: impl FnOnce(SpanId) -> T) -> (T, f64) {
    let guard = trace.child(parent, name);
    let id = guard.id();
    let started = Instant::now();
    let value = f(id);
    let wall = started.elapsed().as_secs_f64();
    drop(guard);
    (value, wall)
}

fn end_us(r: &SpanRecord) -> u64 {
    r.start_us + r.wall_us
}

/// Length of the union of `intervals` (start, end), clipped to `[lo, hi]`.
fn covered_us(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// The share of the root span `step` (a `bench.*` span named exactly
/// so) that the program's own spans do not explain.
///
/// The program's spans inside the step are those not named `bench.*`
/// whose interval lies within it. Their outermost spans (such as
/// `engine.run`) only restate the call, so the explained share is the
/// part of the step covered by the children of those outermost spans
/// (`partition`, `detect`, `merge`, ...). A step the program records no
/// span inside is wholly unattributed. `None` when the trace has no
/// span of that name.
pub fn unattributed_share(records: &[SpanRecord], step: &str) -> Option<f64> {
    let root = records.iter().find(|r| r.name == step)?;
    let (lo, hi) = (root.start_us, end_us(root));
    if hi <= lo {
        return Some(0.0);
    }
    let inside: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| !r.name.starts_with("bench."))
        .filter(|r| r.start_us >= lo && end_us(r) <= hi)
        .collect();
    let is_inside = |id: usize| inside.iter().any(|r| r.id == id);
    let outermost: Vec<usize> = inside
        .iter()
        .filter(|r| !r.parent.is_some_and(is_inside))
        .map(|r| r.id)
        .collect();
    let children: Vec<(u64, u64)> = inside
        .iter()
        .filter(|r| r.parent.is_some_and(|p| outermost.contains(&p)))
        .map(|r| (r.start_us, end_us(r)))
        .collect();
    let explained = covered_us(children, lo, hi) as f64 / (hi - lo) as f64;
    Some((1.0 - explained).clamp(0.0, 1.0))
}

/// Wall times (µs) of the engine's per-batch ingest spans
/// (`ingest <day>` under `engine.run_incremental`).
pub fn ingest_batch_walls_us(records: &[SpanRecord]) -> Vec<f64> {
    let roots: Vec<usize> = records
        .iter()
        .filter(|r| r.name == "engine.run_incremental")
        .map(|r| r.id)
        .collect();
    records
        .iter()
        .filter(|r| r.name.starts_with("ingest ") && r.parent.is_some_and(|p| roots.contains(&p)))
        .map(|r| r.wall_us as f64)
        .collect()
}

/// Validate a trace's JSONL export against the `stale-obs-trace` v1
/// schema, returning the text on success.
pub fn export_checked(trace: &Trace) -> Result<String, String> {
    let jsonl = trace.to_jsonl();
    let problems = obs::trace::validate_trace_jsonl(&jsonl);
    if problems.is_empty() {
        Ok(jsonl)
    } else {
        Err(format!("trace fails its schema: {}", problems.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn rec(id: usize, parent: Option<usize>, name: &str, start: u64, wall: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us: start,
            wall_us: wall,
            counters: BTreeMap::new(),
        }
    }

    #[test]
    fn children_of_the_program_span_explain_the_step() {
        let records = vec![
            rec(0, None, "bench.batch", 0, 100),
            rec(1, None, "engine.run", 5, 90),
            rec(2, Some(1), "partition", 5, 30),
            rec(3, Some(1), "detect", 40, 50),
            rec(4, Some(3), "attempt", 40, 50),
        ];
        let share = unattributed_share(&records, "bench.batch").unwrap();
        assert!((share - 0.2).abs() < 1e-9, "{share}");
    }

    #[test]
    fn a_step_without_program_spans_is_unattributed() {
        let records = vec![
            rec(0, None, "bench.world_run", 0, 100),
            rec(1, Some(0), "bench.world_run.inner", 0, 100),
        ];
        assert_eq!(unattributed_share(&records, "bench.world_run"), Some(1.0));
        assert_eq!(unattributed_share(&records, "bench.missing"), None);
    }

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(covered_us(vec![(0, 10), (5, 15), (20, 30)], 0, 25), 20);
    }

    #[test]
    fn spans_export_in_the_v1_schema() {
        let trace = Trace::enabled();
        let ((), wall) = span(&trace, SpanId::none(), "bench.step", |id| {
            let _ = span(&trace, id, "bench.step.call", |_| ());
        });
        assert!(wall >= 0.0);
        let jsonl = export_checked(&trace).unwrap();
        assert!(jsonl.contains("\"bench.step.call\""));
        assert_eq!(trace.records()[1].parent, Some(0));
    }
}
