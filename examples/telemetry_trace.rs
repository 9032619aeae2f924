//! A traced batch session: a 20-qubit Maiorana–McFarland hidden-shift
//! oracle (Fig. 7 scaled up: `f(x, y) = x · π(y)` with a 10-bit `π`) runs
//! through the shell's `batch --trace --stats`, producing a Chrome
//! trace-event file — loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev> — with spans from the pipeline, cache,
//! dispatch, kernel and job layers, plus the unified Prometheus dump
//! (pass durations, dispatch decisions, kernel sweep statistics, compile
//! times).
//!
//! Run with `cargo run --release -p qdaflow --example telemetry_trace`.

use qdaflow::hidden_shift::{HiddenShiftInstance, OracleStyle};
use qdaflow::prelude::*;
use qdaflow::quantum::qasm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 20 variables: the inner-product bent function (Maiorana–McFarland
    // with the identity permutation) — the same instance the
    // `plan_vs_reference` bench simulates.
    let bent = MaioranaMcFarland::inner_product(10);
    let instance = HiddenShiftInstance::from_maiorana_mcfarland(&bent, 0b10_1101_1001)?;
    let circuit = instance.build_circuit(OracleStyle::MaioranaMcFarland {
        synthesis: SynthesisChoice::TransformationBased,
    })?;

    let dir = std::env::temp_dir();
    let qasm_path = dir.join("qdaflow_hidden_shift_20q.qasm");
    std::fs::write(&qasm_path, qasm::to_qasm(&circuit))?;
    let trace_path = dir.join("qdaflow_trace_20q.json");

    let mut shell = Shell::new();
    let script = format!(
        "backend dense; batch --shots 256 --trace {} --stats --spec \"qasm:{}\"",
        trace_path.display(),
        qasm_path.display()
    );
    println!("$ {script}");
    for line in shell.run_script(&script)? {
        println!("{line}");
    }
    println!();
    println!(
        "trace written to {} — open it in chrome://tracing or https://ui.perfetto.dev",
        trace_path.display()
    );
    Ok(())
}
