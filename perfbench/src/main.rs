//! The qdaflow benchmark: one workload per process, end-to-end metrics from
//! an untraced run, per-layer metrics from a separate traced replay.
//!
//! ```text
//! perfbench --workload <dense_hs20|clifford_hs64|eq5_compile> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it give
//! the provenance, the check results and every metric by name with its
//! unit.

mod check;
mod host;
mod inputs;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::service::Kind;
use workloads::Measured;

const WORKLOADS: [&str; 3] = ["dense_hs20", "clifford_hs64", "eq5_compile"];

/// Per-layer metrics with their units, printed on every traced run (0 for a
/// layer the workload does not call).
const PER_LAYER: [(&str, &str); 44] = [
    ("engine.service.overhead_us", "us"),
    ("engine.service.queue_us", "us"),
    ("engine.service.retained_kb_per_job", "KB"),
    ("engine.service.restart_ms", "ms"),
    ("engine.cache.hit_us", "us"),
    ("engine.cache.miss_us", "us"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.disk_write_us", "us"),
    ("engine.cache.disk_writes", "count/op"),
    ("engine.dispatch.resolve_us", "us"),
    ("engine.dispatch.dense", "count/op"),
    ("engine.dispatch.sparse", "count/op"),
    ("engine.dispatch.stabilizer", "count/op"),
    ("engine.service.retried", "count"),
    ("engine.service.dead", "count"),
    ("quantum.qasm.parse_us", "us"),
    ("quantum.plan.compile_us", "us"),
    ("quantum.plan.alloc_ms", "ms"),
    ("quantum.plan.sweep_ms", "ms"),
    ("quantum.plan.records", "count"),
    ("quantum.plan.bytes_moved_computed", "bytes"),
    ("quantum.statevector.handoff_ms", "ms"),
    ("quantum.statevector.teardown_ms", "ms"),
    ("quantum.sampling.cdf_ms", "ms"),
    ("quantum.sampling.draw_us", "us"),
    ("quantum.result.build_us", "us"),
    ("stabilizer.tableau.build_us", "us"),
    ("stabilizer.sampler.build_us", "us"),
    ("stabilizer.sampling.draw_us", "us"),
    ("reversible.tbs_us", "us"),
    ("reversible.revsimp_us", "us"),
    ("reversible.tbs.gates_out", "count"),
    ("reversible.revsimp.gates_out", "count"),
    ("mapping.rptm_us", "us"),
    ("mapping.tpar_us", "us"),
    ("mapping.rptm.t_count", "count"),
    ("mapping.tpar.t_count", "count"),
    ("mapping.qubits", "count"),
    ("pipeline.ps_us", "us"),
    ("pipeline.overhead_us", "us"),
    ("dense_hs20.unattributed_us", "us"),
    ("clifford_hs64.unattributed_us", "us"),
    ("eq5_compile.unattributed_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}; one of {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The repository this benchmark measures must be present: it is built from
/// `../crates`, and a directory holding only the benchmark fails here.
fn check_checkout() -> Result<(), String> {
    for path in [
        "Cargo.toml",
        "crates/engine",
        "crates/quantum",
        "BENCHMARK.json",
    ] {
        if !std::path::Path::new(path).exists() {
            return Err(format!(
                "not run from the root of a qdaflow checkout: {path} is missing"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    check_checkout()?;
    // One CPU for the whole workload, before any thread starts: a job's
    // hand-offs between client and service worker are then context switches
    // on that CPU, not wake-ups of an idle vCPU, whose latency on a shared
    // VM follows the host's load rather than the program.
    let nproc = host::nproc();
    let cpu = host::pin_to_current_cpu()?;
    let measured = match args.workload {
        "dense_hs20" => workloads::service::run(Kind::Dense, args.seed, args.seconds, args.trace)?,
        "clifford_hs64" => {
            workloads::service::run(Kind::Clifford, args.seed, args.seconds, args.trace)?
        }
        _ => workloads::eq5::run(args.seed, args.seconds, args.trace)?,
    };
    let (attempted, failed) = measured.attempted_failed();
    let samples = measured.ops.len();
    let scored = measured.scored_latencies_ms();
    let beyond_p90 = stats::at_or_beyond(&scored, 0.9);
    let metrics = if args.trace {
        per_layer(&measured)
    } else {
        end_to_end(&measured)?
    };

    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let provenance = format!(
        "{{\"commit\": \"{}\", \"nproc\": {}, \"pinned_to_cpu\": {}, \"cpu\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"timed_s\": {}, \"setup_repeats\": {}, \"latency_samples\": {}, \"at_or_beyond_p90\": {}}}",
        json_escape(&host::commit()),
        nproc,
        cpu,
        json_escape(&host::cpu_model()),
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        attempted,
        failed,
        measured.timed_s,
        measured.setup_s.len(),
        samples,
        beyond_p90,
    );
    println!("provenance {provenance}");
    for line in &measured.checks {
        println!("check {line}");
    }
    if measured.families.is_some() {
        println!("check {failed} of {attempted} spec families failed or returned a wrong answer");
    }
    println!(
        "check failed_share = {} ({} of {} ops failed or returned a wrong answer)",
        measured.failed() as f64 / samples.max(1) as f64,
        measured.failed(),
        samples
    );
    let verified_ms: Vec<f64> = measured
        .ops
        .iter()
        .filter(|op| op.verified)
        .map(|op| op.ms)
        .collect();
    for (label, samples) in [
        ("scored (a failed op counts as the whole window)", &scored),
        ("of verified ops only", &verified_ms),
    ] {
        let deciles: Vec<String> = (1..10)
            .filter_map(|d| stats::quantile(samples, d as f64 / 10.0))
            .map(|q| format!("{q:.3}"))
            .collect();
        println!(
            "check latency deciles p10..p90 (ms), {label}: {}",
            deciles.join(" ")
        );
    }
    for (name, (value, unit)) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    // Every op was checked against its reference and counted; wrong
    // answers are in `failed`, never among the verified ops. With at least
    // `MIN_OPS` ops, at least ten samples lie at or beyond p90.
    let correct = samples >= workloads::MIN_OPS && beyond_p90 >= 10;
    let mut json = String::new();
    for (name, (value, unit)) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if json.is_empty() { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    Ok(())
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn end_to_end(measured: &Measured) -> Result<Metrics, String> {
    let scored = measured.scored_latencies_ms();
    let mut metrics = Metrics::new();
    let p50 = stats::quantile(&scored, 0.5).ok_or("no operation ran")?;
    let p90 = stats::quantile(&scored, 0.9).ok_or("no operation ran")?;
    metrics.insert("latency_p50_ms", (p50, "ms"));
    metrics.insert("latency_p90_ms", (p90, "ms"));
    metrics.insert("goodput_ops_per_s", (measured.goodput_ops_per_s(), "1/s"));
    let attempted = measured.ops.len() as f64;
    let verified = attempted - measured.failed() as f64;
    metrics.insert("verified_share", (verified / attempted, "ratio"));
    let setup = stats::median(&measured.setup_s).ok_or("set-up never ran")?;
    metrics.insert("setup_s", (setup, "s"));
    let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    metrics.insert("peak_rss_mb", (rss, "MB"));
    Ok(metrics)
}

fn per_layer(measured: &Measured) -> Metrics {
    let mut metrics = Metrics::new();
    for (name, unit) in PER_LAYER {
        let value = measured.layers.get(name).copied().unwrap_or(0.0);
        metrics.insert(name, (value, unit));
    }
    metrics
}

fn json_escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
