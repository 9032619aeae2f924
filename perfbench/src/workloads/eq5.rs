//! `eq5_compile`: cold compiles of eq. (5), `tbs; revsimp; rptm; tpar; ps`,
//! through `Pipeline::run`, from one client. Simulators and the service are
//! bypassed, so this workload is the control for the other two.
//!
//! Every output is simulated on every basis state with `DenseReference`
//! and compared against the *input permutation*, outside the timed region.
//! An output that fails is a failed operation, scored as the whole timed
//! window in the latency percentiles: when this benchmark was written,
//! `tpar` broke every spec on 5 or more variables.

use super::{layer_medians, ms, timed, Measured, Op, MIN_OPS};
use crate::check;
use crate::inputs::{self, PermSpec};
use crate::stats;
use crate::trace::{OpTrace, Tracer};
use qdaflow_pipeline::passes::{Ps, Revsimp, Rptm, Tbs, Tpar};
use qdaflow_pipeline::{Ir, Pass, Pipeline, PipelineReport};
use qdaflow_quantum::QuantumCircuit;
use std::collections::BTreeMap;
use std::time::Instant;

pub const EQ5: &str = "tbs; revsimp; rptm; tpar; ps";

const SETUP_REPEATS: usize = 25;
const REPLAY_MIN_OPS: usize = 56;

/// The verdict on one spec's output, kept so that a repeated compile with
/// an identical output is not simulated again.
struct Verdict {
    output: QuantumCircuit,
    result: Result<(), String>,
    rptm_t: usize,
    tpar_t: usize,
}

fn t_count_after(report: &PipelineReport, pass: &str) -> usize {
    report.resources_after(pass).map_or(0, |r| r.t_count)
}

/// Checks one compile, reusing the verdict when the output is unchanged.
fn check(spec: &PermSpec, report: &PipelineReport, verdict: &mut Option<Verdict>) -> bool {
    let Some(output) = report.final_quantum() else {
        return false;
    };
    if let Some(known) = verdict.as_ref().filter(|v| &v.output == output) {
        return known.result.is_ok();
    }
    let fresh = Verdict {
        output: output.clone(),
        result: check::realizes_permutation(output, &spec.permutation),
        rptm_t: t_count_after(report, "rptm"),
        tpar_t: t_count_after(report, "tpar"),
    };
    let ok = fresh.result.is_ok();
    *verdict = Some(fresh);
    ok
}

/// Spec families compiled and spec families with at least one failed
/// compile. Compiles are deterministic, so a spec's verdict is the same on
/// every repeat; counted by family, the two numbers depend neither on how
/// many repeats fit in the window nor on which random specs a seed drew.
fn family_counts(compiled: &[(&PermSpec, bool)]) -> (usize, usize) {
    let mut families: BTreeMap<&str, bool> = BTreeMap::new();
    for (spec, failed) in compiled {
        *families.entry(spec.family()).or_default() |= *failed;
    }
    let failed = families.values().filter(|&&failed| failed).count();
    (families.len(), failed)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Measured, String> {
    let specs = inputs::eq5_specs(seed);
    let mut measured = Measured::default();
    // Set-up: parse eq. (5) and compile each hwb spec once.
    let mut pipeline = None;
    for _ in 0..SETUP_REPEATS {
        drop(pipeline.take());
        pipeline = Some(timed(&mut measured.setup_s, || {
            let pipeline = Pipeline::parse(EQ5).map_err(|e| e.to_string())?;
            for spec in specs.iter().filter(|s| s.name.starts_with("hwb")) {
                pipeline
                    .run(spec.permutation.clone().into())
                    .map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(pipeline)
        })?);
    }
    let pipeline = pipeline.expect("set up at least once");
    measured.clients = 1;

    let mut verdicts: Vec<Option<Verdict>> = specs.iter().map(|_| None).collect();
    let mut spec_ms: Vec<Vec<f64>> = specs.iter().map(|_| Vec::new()).collect();
    let mut spec_failed = vec![false; specs.len()];
    let mut overhead_us = Vec::new();
    let loop_seconds = if trace { seconds / 2.0 } else { seconds };
    let mut index = 0;
    while measured.timed_s < loop_seconds || index < MIN_OPS {
        let slot = index % specs.len();
        let input: Ir = specs[slot].permutation.clone().into();
        let started = Instant::now();
        let report = pipeline.run(input);
        let elapsed = started.elapsed();
        measured.timed_s += elapsed.as_secs_f64();
        spec_ms[slot].push(ms(elapsed));
        index += 1;
        let verified = match &report {
            Ok(report) => {
                let passes = report.total_duration();
                overhead_us.push((elapsed.as_secs_f64() - passes.as_secs_f64()) * 1e6);
                check(&specs[slot], report, &mut verdicts[slot])
            }
            Err(_) => false,
        };
        spec_failed[slot] |= !verified;
        measured.ops.push(Op {
            ms: ms(elapsed),
            verified,
        });
    }
    let compiled: Vec<(&PermSpec, bool)> = specs
        .iter()
        .zip(&spec_failed)
        .zip(&spec_ms)
        .filter(|(_, times)| !times.is_empty())
        .map(|((spec, &failed), _)| (spec, failed))
        .collect();
    measured.checks.push(format!(
        "{} of {} distinct specs failed or returned a wrong answer",
        compiled.iter().filter(|(_, failed)| *failed).count(),
        compiled.len()
    ));
    measured.families = Some(family_counts(&compiled));
    for ((spec, verdict), times) in specs.iter().zip(&verdicts).zip(&spec_ms) {
        let line = match verdict {
            Some(v) => format!(
                "{:<9} {} vars, T-count rptm {:>5} -> tpar {:>4}: {}",
                spec.name,
                spec.permutation.num_vars(),
                v.rptm_t,
                v.tpar_t,
                match &v.result {
                    Ok(()) => "verified against the input permutation".to_owned(),
                    Err(reason) => format!("FAILED: {reason}"),
                }
            ),
            None => format!("{:<9} compile error", spec.name),
        };
        measured.checks.push(format!(
            "{line} ({} compiles, median {:.3} ms)",
            times.len(),
            stats::median(times).unwrap_or(0.0)
        ));
    }
    if !trace {
        return Ok(measured);
    }

    measured.layers.insert(
        "pipeline.overhead_us",
        stats::median(&overhead_us).unwrap_or(0.0),
    );
    let (traced, untraced_wall_ns, differ) =
        replay(&specs, &verdicts, seconds / 2.0, &mut measured.layers);
    measured.checks.push(format!(
        "replay: {} of {} replayed compiles equal the output of Pipeline::run",
        2 * traced.len() - differ,
        2 * traced.len()
    ));
    layer_medians(
        "eq5_compile",
        &traced,
        &untraced_wall_ns,
        &mut measured.layers,
    );
    Ok(measured)
}

/// Replays compiles as the `Pass::apply` calls `Pipeline::run` makes, plus
/// `ps`'s statistics line, alternating an untraced and a traced replay.
/// Returns the traces, the untraced wall times, and how many replays
/// failed or differ from the pipeline's output for their spec.
fn replay(
    specs: &[PermSpec],
    verdicts: &[Option<Verdict>],
    seconds: f64,
    layers: &mut BTreeMap<&'static str, f64>,
) -> (Vec<OpTrace>, Vec<f64>, usize) {
    let mut differ = 0;
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut counts: [Vec<f64>; 5] = Default::default();
    let started = Instant::now();
    let mut index = 0;
    while index < REPLAY_MIN_OPS || started.elapsed().as_secs_f64() < seconds {
        let slot = index % specs.len();
        index += 1;
        for enabled in [false, true] {
            let mut tracer = Tracer::start(enabled);
            let replayed = replay_compile(&specs[slot], &mut tracer);
            let op = tracer.finish();
            let Ok((output, values)) = replayed else {
                differ += 1;
                continue;
            };
            if verdicts[slot].as_ref().map(|v| &v.output) != Some(&output) {
                differ += 1;
            }
            if enabled {
                traced.push(op);
                for (list, value) in counts.iter_mut().zip(values) {
                    list.push(value as f64);
                }
            } else {
                untraced.push(op.wall_ns as f64);
            }
        }
    }
    let names = [
        "reversible.tbs.gates_out",
        "reversible.revsimp.gates_out",
        "mapping.rptm.t_count",
        "mapping.tpar.t_count",
        "mapping.qubits",
    ];
    for (name, list) in names.into_iter().zip(&counts) {
        layers.insert(name, stats::median(list).unwrap_or(0.0));
    }
    (traced, untraced, differ)
}

/// One compile as its sequence of passes, one span per `Pass::apply`.
/// Returns the output and the gate counts, T-counts and width after each
/// stage, in the order of the per-layer count metrics.
fn replay_compile(spec: &PermSpec, t: &mut Tracer) -> Result<(QuantumCircuit, [usize; 5]), String> {
    let mut run = |pass: &dyn Pass, layer: &'static str, ir: Ir| {
        t.span(layer, || pass.apply(ir)).map_err(|e| e.to_string())
    };
    let tbs = run(&Tbs, "reversible.tbs_us", spec.permutation.clone().into())?;
    let tbs_gates = reversible_gates(&tbs);
    let revsimp = run(&Revsimp, "reversible.revsimp_us", tbs)?;
    let revsimp_gates = reversible_gates(&revsimp);
    let rptm = run(&Rptm::default(), "mapping.rptm_us", revsimp)?;
    let rptm_t = quantum(&rptm).map_or(0, QuantumCircuit::t_count);
    let tpar = run(&Tpar, "mapping.tpar_us", rptm)?;
    // `ps` passes its input through; its work is the statistics line the
    // pipeline records from `summarize`.
    let output = t
        .span("pipeline.ps_us", || {
            let out = Ps.apply(tpar)?;
            std::hint::black_box(Ps.summarize(&out));
            Ok::<_, qdaflow_pipeline::FlowError>(out)
        })
        .map_err(|e| e.to_string())?
        .into_quantum("ps")
        .map_err(|e| e.to_string())?;
    let counts = [
        tbs_gates,
        revsimp_gates,
        rptm_t,
        output.t_count(),
        output.num_qubits(),
    ];
    Ok((output, counts))
}

fn reversible_gates(ir: &Ir) -> usize {
    match ir {
        Ir::Reversible(circuit) => circuit.num_gates(),
        _ => 0,
    }
}

fn quantum(ir: &Ir) -> Option<&QuantumCircuit> {
    match ir {
        Ir::Quantum(circuit) => Some(circuit),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_by_family() {
        let specs = inputs::eq5_specs(5);
        let verdicts = |passing: &[&str]| -> Vec<(&PermSpec, bool)> {
            specs
                .iter()
                .map(|spec| (spec, !passing.iter().any(|p| spec.name.starts_with(p))))
                .collect()
        };
        // hwb4 and the 4-variable permutations verify, the rest fail.
        assert_eq!(family_counts(&verdicts(&["hwb4", "rand4"])), (7, 5));
        // One 5-variable permutation that verifies changes nothing.
        assert_eq!(
            family_counts(&verdicts(&["hwb4", "rand4", "rand5_41"])),
            (7, 5)
        );
        assert_eq!(family_counts(&verdicts(&["hwb", "rand"])), (7, 0));
    }

    #[test]
    fn a_replayed_compile_matches_the_pipeline_and_its_layers_add_up() {
        let spec = &inputs::eq5_specs(3)[0];
        let report = Pipeline::parse(EQ5)
            .unwrap()
            .run(spec.permutation.clone().into())
            .unwrap();
        let mut tracer = Tracer::start(true);
        let (output, counts) = replay_compile(spec, &mut tracer).unwrap();
        let op = tracer.finish();
        assert_eq!(Some(&output), report.final_quantum());
        assert_eq!(counts[3], output.t_count());
        let layers: Vec<&str> = op.self_ns.keys().copied().collect();
        assert_eq!(
            layers,
            [
                "mapping.rptm_us",
                "mapping.tpar_us",
                "pipeline.ps_us",
                "reversible.revsimp_us",
                "reversible.tbs_us"
            ]
        );
        assert_eq!(
            op.self_ns.values().sum::<u64>() + op.unattributed_ns,
            op.wall_ns
        );
    }
}
