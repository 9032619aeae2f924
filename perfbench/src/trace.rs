//! Spans recorded from the benchmark's own files around each call into a
//! layer, and the per-layer self times they give.
//!
//! An operation is replayed as the sequence of public layer calls the
//! program makes. Each call runs inside [`Tracer::span`]; the op's wall
//! time is split into the spans' self times plus an explicit
//! `unattributed` remainder (the replay's own glue between spans), which
//! add up exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// Records the spans of one operation. A disabled tracer runs the same
/// calls without reading the clock, which gives the untraced replay that
/// `trace.overhead_ratio` compares against.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    started: Instant,
    spans: Vec<(&'static str, u64)>,
}

/// Self time per layer of one operation, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTrace {
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub unattributed_ns: u64,
}

impl Tracer {
    pub fn start(enabled: bool) -> Self {
        Tracer {
            enabled,
            started: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs one layer call inside a span named after the layer metric.
    pub fn span<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return call();
        }
        let begin = Instant::now();
        let out = call();
        self.spans.push((layer, begin.elapsed().as_nanos() as u64));
        out
    }

    /// Closes the operation. Spans are sequential and never nest, so each
    /// span's self time is its duration; spans of one layer add up.
    pub fn finish(self) -> OpTrace {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (layer, ns) in &self.spans {
            *self_ns.entry(layer).or_default() += ns;
        }
        let covered: u64 = self_ns.values().sum();
        assert!(covered <= wall_ns, "sequential spans lie inside the op");
        OpTrace {
            wall_ns,
            self_ns,
            unattributed_ns: wall_ns - covered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |acc, i| {
            black_box(acc.wrapping_mul(31).wrapping_add(i))
        })
    }

    #[test]
    fn self_times_plus_unattributed_equal_the_wall_time() {
        for round in 0..20u64 {
            let mut tracer = Tracer::start(true);
            tracer.span("a", || spin(1000 + round));
            spin(500);
            tracer.span("b", || spin(2000));
            tracer.span("a", || spin(300));
            let trace = tracer.finish();
            let covered: u64 = trace.self_ns.values().sum();
            assert_eq!(covered + trace.unattributed_ns, trace.wall_ns);
            assert_eq!(trace.self_ns.len(), 2, "spans of one layer add up");
        }
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_the_wall_time() {
        let mut tracer = Tracer::start(false);
        assert_eq!(tracer.span("a", || spin(1000)), spin(1000));
        let trace = tracer.finish();
        assert!(trace.self_ns.is_empty());
        assert_eq!(trace.unattributed_ns, trace.wall_ns);
    }
}
