//! Criterion benchmark: the `ExecPlan` interpreter, the one dense executor,
//! against the naive `DenseReference` oracle on a 20-qubit hidden shift
//! circuit.
//!
//! Both arms run the whole circuit from `|0…0⟩`. The oracle applies every
//! gate by out-of-place column accumulation into a fresh `2^n` vector: no
//! fusion, no fast paths, no threads. The plan arms fuse the circuit into a
//! `FusedProgram`, lower it to an `ExecPlan` (split re/im amplitude
//! storage, adjacent dense ops batched into 4×4 applications,
//! cache-blocked sweeps) and interpret it sequentially, and with the
//! persistent worker pool where the host has more than one CPU. The gap is
//! the price of checking the executor against the oracle at this size.

use criterion::{criterion_group, criterion_main, Criterion};
use qdaflow::hidden_shift::{HiddenShiftInstance, OracleStyle};
use qdaflow::prelude::*;
use qdaflow::quantum::statevector::Statevector;
use std::time::Duration;

const NUM_QUBITS: usize = 20;

/// A 20-qubit hidden shift instance over the inner-product bent function
/// (Maiorana–McFarland with the identity permutation), the largest single
/// register the paper's benchmark family reaches on a workstation-class
/// simulator.
fn twenty_qubit_hidden_shift() -> QuantumCircuit {
    let mm = MaioranaMcFarland::inner_product(NUM_QUBITS / 2);
    let instance = HiddenShiftInstance::from_maiorana_mcfarland(&mm, 0b10_1101_1001).unwrap();
    let circuit = instance
        .build_circuit(OracleStyle::MaioranaMcFarland {
            synthesis: SynthesisChoice::TransformationBased,
        })
        .unwrap();
    assert_eq!(circuit.num_qubits(), NUM_QUBITS);
    circuit
}

fn bench_plan_vs_reference(c: &mut Criterion) {
    let circuit = twenty_qubit_hidden_shift();
    let fused_ops = FusedProgram::fuse(&circuit).num_ops();
    println!(
        "hidden-shift-20q: {} gates -> {} fused ops",
        circuit.num_gates(),
        fused_ops
    );

    let mut group = c.benchmark_group("plan_vs_reference");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    // The oracle: one out-of-place column accumulation per gate.
    group.bench_function("dense_reference", |b| {
        b.iter(|| {
            let state = DenseReference::from_circuit(&circuit).unwrap();
            state.amplitude(0)
        })
    });

    // ExecPlan SoA interpreter, single-threaded: split re/im sweeps, 4x4
    // batching and cache-blocked local runs, no worker pool.
    group.bench_function("plan_sequential", |b| {
        b.iter(|| {
            let state = Statevector::run(&circuit, &ExecConfig::sequential()).unwrap();
            state.amplitude(0)
        })
    });

    // ExecPlan with the full auto configuration: the persistent worker pool
    // picks up block batches where the host has more than one CPU.
    group.bench_function("plan_parallel_auto", |b| {
        b.iter(|| {
            let state = Statevector::run(&circuit, &ExecConfig::auto()).unwrap();
            state.amplitude(0)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_plan_vs_reference);
criterion_main!(benches);
