//! The three workloads. Each runs alone in its process, closed loop: a
//! client sends its next operation only after the previous one returned.

pub mod eq5;
pub mod service;

use crate::stats;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Each run times at least this many operations, so that at least ten
/// samples lie beyond p90.
pub const MIN_OPS: usize = 100;

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Submit-to-result time as measured.
    pub ms: f64,
    /// Whether the output passed its check against the reference.
    pub verified: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every attempted operation, failed or not.
    pub ops: Vec<Op>,
    /// Clients that kept an operation in flight at once.
    pub clients: usize,
    /// Wall time inside the timed region.
    pub timed_s: f64,
    /// One sample per repetition of the program's set-up.
    pub setup_s: Vec<f64>,
    /// Human-readable check results.
    pub checks: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Input families attempted and failed, for a workload whose ops
    /// repeat a fixed set of inputs with a deterministic verdict each
    /// (`eq5_compile`). Counted by family, `attempted` and `failed` depend
    /// neither on the seed nor on how many repeats fit in the window.
    pub families: Option<(usize, usize)>,
}

impl Measured {
    /// Operations that errored or whose output failed its check.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|op| !op.verified).count()
    }

    /// What the result reports as `attempted` and `failed`: the input
    /// families when the workload counts by family, otherwise the ops.
    pub fn attempted_failed(&self) -> (usize, usize) {
        self.families.unwrap_or((self.ops.len(), self.failed()))
    }

    /// Latencies as the percentiles count them. A failed op, or one with a
    /// wrong answer, never delivered a checked result, so it counts as the
    /// whole timed window: beyond every latency the run measured, as +∞
    /// would be, yet a finite JSON number. Failing ops that get faster
    /// therefore cannot lower a percentile.
    pub fn scored_latencies_ms(&self) -> Vec<f64> {
        let window = self
            .ops
            .iter()
            .map(|op| op.ms)
            .fold(self.timed_s * 1e3, f64::max);
        self.ops
            .iter()
            .map(|op| if op.verified { op.ms } else { window })
            .collect()
    }

    /// Verified ops per second of the time clients spent waiting on them:
    /// `clients` × verified ops ÷ their summed latency, the throughput of a
    /// closed loop by Little's law. Time spent on failing ops enters
    /// neither side, so failing ops that get faster cannot raise it, and
    /// neither can the benchmark's own work between ops.
    pub fn goodput_ops_per_s(&self) -> f64 {
        let (count, total_ms) = self
            .ops
            .iter()
            .filter(|op| op.verified)
            .fold((0usize, 0.0), |(n, sum), op| (n + 1, sum + op.ms));
        if count == 0 {
            return 0.0;
        }
        (self.clients * count) as f64 / (total_ms * 1e-3)
    }
}

/// Times one repetition of set-up.
pub fn timed<T>(samples: &mut Vec<f64>, body: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = body();
    samples.push(started.elapsed().as_secs_f64());
    out
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Per-op median of each layer's self time over a traced replay, in the
/// unit its metric name ends with, plus the unattributed remainder and
/// the tracing overhead against the untraced replay.
pub fn layer_medians(
    workload: &'static str,
    traced: &[crate::trace::OpTrace],
    untraced_wall_ns: &[f64],
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let names: std::collections::BTreeSet<&'static str> = traced
        .iter()
        .flat_map(|op| op.self_ns.keys().copied())
        .collect();
    for name in names {
        let per_op: Vec<f64> = traced
            .iter()
            .map(|op| op.self_ns.get(name).copied().unwrap_or(0) as f64)
            .collect();
        let scale = if name.ends_with("_ms") { 1e-6 } else { 1e-3 };
        layers.insert(name, stats::median(&per_op).unwrap_or(0.0) * scale);
    }
    let unattributed: Vec<f64> = traced.iter().map(|op| op.unattributed_ns as f64).collect();
    layers.insert(
        unattributed_metric(workload),
        stats::median(&unattributed).unwrap_or(0.0) * 1e-3,
    );
    let traced_wall: Vec<f64> = traced.iter().map(|op| op.wall_ns as f64).collect();
    if let (Some(on), Some(off)) = (stats::median(&traced_wall), stats::median(untraced_wall_ns)) {
        layers.insert("trace.overhead_ratio", on / off);
    }
}

fn unattributed_metric(workload: &str) -> &'static str {
    match workload {
        "dense_hs20" => "dense_hs20.unattributed_us",
        "clifford_hs64" => "clifford_hs64.unattributed_us",
        _ => "eq5_compile.unattributed_us",
    }
}

/// A scratch directory inside the working directory (the benchmark reads
/// and writes only inside its checkout), removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Result<Self, String> {
        let path = PathBuf::from(".bench_tmp").join(format!("{}-{label}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leaves `.bench_tmp` itself only when another run still uses it.
        let _ = fs::remove_dir(".bench_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed loop of `window_s` seconds cycling one verified op of 1 ms
    /// and two failing ops of `failing_ms` each.
    fn closed_loop(window_s: f64, failing_ms: f64) -> Measured {
        let mut measured = Measured {
            clients: 1,
            timed_s: window_s,
            ..Measured::default()
        };
        let mut elapsed_ms = 0.0;
        while elapsed_ms < window_s * 1e3 {
            measured.ops.push(Op {
                ms: 1.0,
                verified: true,
            });
            for _ in 0..2 {
                measured.ops.push(Op {
                    ms: failing_ms,
                    verified: false,
                });
            }
            elapsed_ms += 1.0 + 2.0 * failing_ms;
        }
        measured
    }

    fn readings(measured: &Measured) -> (f64, f64, f64) {
        let scored = measured.scored_latencies_ms();
        (
            stats::quantile(&scored, 0.5).unwrap(),
            stats::quantile(&scored, 0.9).unwrap(),
            measured.goodput_ops_per_s(),
        )
    }

    #[test]
    fn failing_ops_that_get_faster_do_not_read_better() {
        let (slow_p50, slow_p90, slow_goodput) = readings(&closed_loop(2.0, 10.0));
        let (fast_p50, fast_p90, fast_goodput) = readings(&closed_loop(2.0, 0.01));
        assert!(fast_p50 >= slow_p50, "p50 {fast_p50} < {slow_p50}");
        assert!(fast_p90 >= slow_p90, "p90 {fast_p90} < {slow_p90}");
        assert!(
            fast_goodput <= slow_goodput,
            "goodput {fast_goodput} > {slow_goodput}"
        );
        // Both read the window: the failing two thirds of ops count as +∞.
        assert_eq!(fast_p50, 2000.0);
    }

    #[test]
    fn a_wrong_answer_counts_as_the_whole_window() {
        let measured = Measured {
            clients: 2,
            timed_s: 0.5,
            ops: vec![
                Op {
                    ms: 4.0,
                    verified: true,
                },
                Op {
                    ms: 0.1,
                    verified: false,
                },
                Op {
                    ms: 6.0,
                    verified: true,
                },
            ],
            ..Measured::default()
        };
        assert_eq!(measured.failed(), 1);
        assert_eq!(measured.scored_latencies_ms(), [4.0, 500.0, 6.0]);
        // Two clients, two verified ops in 10 ms of waiting.
        assert!((measured.goodput_ops_per_s() - 400.0).abs() < 1e-9);
    }
}
