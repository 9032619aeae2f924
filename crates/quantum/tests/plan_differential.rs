//! Differential property tests for the `ExecPlan` SoA interpreter, the one
//! dense executor, against the naive [`DenseReference`] oracle.
//!
//! Random 2–10 qubit circuits over every gate kind of the IR (Toffoli, MCX,
//! MCZ, SWAP and π/4-step rotations mixed in) run through the plan
//! interpreter and through the oracle. The two share no code — the plan
//! sweeps split re/im blocks record by record, the oracle accumulates
//! columns out of place — so agreement on every random circuit is strong
//! evidence that neither is wrong. The suites check:
//!
//! * suite 1: amplitudes within 1e-10 of the oracle, and the norm kept,
//!   under the production configuration and the one-record-per-gate
//!   lowering (the forced-threads, fusion-off and auto-with-threads
//!   configurations have a suite each in `differential.rs`);
//! * suite 2: the same with tiny cache blocks (4 amplitudes) and the worker
//!   pool forced on, which drives the cross-block pair/quad/permute
//!   dispatch on tiny registers;
//! * suite 3: a record-by-record replay — one record per gate, and after
//!   every record the state matches the oracle after the same gate, at
//!   1e-10 and at several block sizes;
//! * suite 4: bit-identical amplitudes and sampled histograms at 1, 2, 4
//!   and 8 threads and block sizes auto/4/8 amplitudes (4×4 batching off) —
//!   the reproducibility contract the batch subsystem relies on;
//! * suite 5: the noisy simulator's plan replay against a noisy replay on
//!   the oracle that draws the same RNG stream: identical histograms.

mod common;

use common::{assert_matches_reference, random_circuit, TOLERANCE};
use proptest::prelude::*;
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::noise::{NoiseModel, NoisySimulator};
use qdaflow_quantum::plan::{ExecPlan, SoaStatevector};
use qdaflow_quantum::reference::DenseReference;
use qdaflow_quantum::{QuantumCircuit, QuantumGate, Statevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One plan record per gate, in gate order.
fn gate_by_gate() -> ExecConfig {
    ExecConfig::sequential()
        .with_fusion(false)
        .with_pair_fusion(false)
}

/// Noisy shots on the oracle, drawing the RNG stream the noise model
/// defines: per gate, one draw per qubit against the gate class's
/// depolarizing probability (and one Pauli choice per error); per shot,
/// one measurement draw and one readout draw per qubit.
fn reference_noisy_run(
    circuit: &QuantumCircuit,
    model: &NoiseModel,
    shots: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let num_qubits = circuit.num_qubits();
    let mut histogram = vec![0usize; 1 << num_qubits];
    for _ in 0..shots {
        let mut state = DenseReference::new(num_qubits).expect("small register");
        for gate in circuit {
            state.apply_gate(gate);
            let probability = if gate.arity() == 1 {
                model.single_qubit_depolarizing
            } else {
                model.two_qubit_depolarizing
            };
            if probability == 0.0 {
                continue;
            }
            for qubit in gate.qubits() {
                if rng.gen::<f64>() < probability {
                    let pauli = match rng.gen_range(0..3) {
                        0 => QuantumGate::X(qubit),
                        1 => QuantumGate::Y(qubit),
                        _ => QuantumGate::Z(qubit),
                    };
                    state.apply_gate(&pauli);
                }
            }
        }
        let mut outcome = state.sample(rng);
        if model.readout_error > 0.0 {
            for qubit in 0..num_qubits {
                if rng.gen::<f64>() < model.readout_error {
                    outcome ^= 1usize << qubit;
                }
            }
        }
        histogram[outcome] += 1;
    }
    histogram
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Suite 1: the plan interpreter is amplitude-exact against the dense
    /// reference oracle and keeps the norm, under the production
    /// configuration (auto threads, 4×4 batching on, auto block size — one
    /// block for these registers) and with one record per gate, in gate
    /// order.
    #[test]
    fn plan_kernel_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        for config in [ExecConfig::default(), gate_by_gate()] {
            assert_matches_reference(&circuit, &config);
        }
    }

    /// Suite 2: tiny cache blocks (4 amplitudes) force the cross-block
    /// pair/quad/permute dispatch for most gates, and the forced worker pool
    /// routes the blocks over channels — amplitude-exact against the oracle.
    #[test]
    fn blocked_pooled_plan_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let config = ExecConfig::sequential()
            .with_block_bits(2)
            .with_threads(4)
            .with_parallel_threshold(2);
        assert_matches_reference(&circuit, &config);
    }

    /// Suite 3: a record-by-record replay against the oracle. Without
    /// fusion and batching the plan holds one record per gate, in gate
    /// order; after each record the state must match the oracle after the
    /// same gate, so a wrong record is caught at the gate that produced it.
    #[test]
    fn plan_replays_record_by_record_against_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        for block_bits in [0usize, 2, 3] {
            let config = gate_by_gate().with_block_bits(block_bits);
            let plan = ExecPlan::compile(&circuit, &config);
            prop_assert_eq!(plan.num_records(), circuit.num_gates());
            let mut state = SoaStatevector::zero_state(circuit.num_qubits(), plan.block_bits());
            let mut reference = DenseReference::new(circuit.num_qubits()).expect("small register");
            for (index, gate) in circuit.iter().enumerate() {
                plan.apply_record(&mut state, index);
                reference.apply_gate(gate);
                for (basis, expected) in reference.amplitudes().iter().enumerate() {
                    let actual = state.amplitude(basis);
                    prop_assert!(
                        actual.approx_eq(*expected, TOLERANCE),
                        "block_bits {} record {} ({:?}) amplitude {}: plan {:?} vs reference {:?}",
                        block_bits, index, gate, basis, actual, expected
                    );
                }
            }
        }
    }

    /// Suite 4: partition invariance. With 4×4 batching off, the plan path
    /// produces bit-identical amplitudes at 1, 2, 4 and 8 threads and at
    /// every block size, and the sampled histograms are identical for the
    /// same seed.
    #[test]
    fn plan_histograms_are_bit_identical_across_threads(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let base = ExecConfig::sequential().with_pair_fusion(false);
        let expected_state = Statevector::run(&circuit, &base).expect("small register");
        let expected = expected_state.sample_counts(&mut StdRng::seed_from_u64(seed ^ 0xD1FF), 512);
        for block_bits in [0usize, 2, 3] {
            for threads in [1usize, 2, 4, 8] {
                let config = base
                    .with_block_bits(block_bits)
                    .with_threads(threads)
                    .with_parallel_threshold(2);
                let plan = Statevector::run(&circuit, &config).expect("small register");
                prop_assert_eq!(
                    plan.amplitudes(),
                    expected_state.amplitudes(),
                    "block_bits {} at {} threads diverges", block_bits, threads
                );
                let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
                let histogram = plan.sample_counts(&mut rng, 512);
                prop_assert_eq!(
                    &histogram,
                    &expected,
                    "block_bits {} at {} threads samples differently", block_bits, threads
                );
            }
        }
    }
}

proptest! {
    // Noisy shots are expensive; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Suite 5: the noisy simulator's plan replay and a noisy replay on the
    /// oracle draw the same RNG stream, so their histograms are identical,
    /// at every block size.
    #[test]
    fn noisy_plan_replay_matches_reference_replay(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let model = NoiseModel::ibm_qx_2017();
        let expected = reference_noisy_run(&circuit, &model, 64, &mut StdRng::seed_from_u64(seed));
        for block_bits in [0usize, 2] {
            let simulator = NoisySimulator::with_config(
                model,
                ExecConfig::sequential().with_block_bits(block_bits),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = simulator.run(&circuit, 64, &mut rng).expect("small register");
            prop_assert_eq!(
                &plan,
                &expected,
                "noisy plan replay (block_bits {}) diverges from the reference replay", block_bits
            );
        }
    }
}
