//! Shared helpers of the dense differential suites (`differential.rs` and
//! `plan_differential.rs`): the random circuit generator and the
//! amplitude-and-norm check against the [`DenseReference`] oracle.

use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::reference::DenseReference;
use qdaflow_quantum::{QuantumCircuit, QuantumGate, Statevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Amplitude agreement tolerance against the dense reference: far above
/// f64 round-off even for long fused chains, far below any real defect.
pub const TOLERANCE: f64 = 1e-10;

/// Builds a random circuit over 2..=10 qubits from a seed, covering every
/// gate kind of the Clifford+T IR. Seed-based construction (instead of a
/// structured strategy) lets one generator drive both the qubit count and
/// the gate mix.
pub fn random_circuit(seed: u64) -> QuantumCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_qubits = rng.gen_range(2..11usize);
    let num_gates = rng.gen_range(1..41usize);
    let mut circuit = QuantumCircuit::new(num_qubits);
    for _ in 0..num_gates {
        let qubit = rng.gen_range(0..num_qubits);
        let gate = match rng.gen_range(0..15u32) {
            0 => QuantumGate::H(qubit),
            1 => QuantumGate::X(qubit),
            2 => QuantumGate::Y(qubit),
            3 => QuantumGate::Z(qubit),
            4 => QuantumGate::S(qubit),
            5 => QuantumGate::Sdg(qubit),
            6 => QuantumGate::T(qubit),
            7 => QuantumGate::Tdg(qubit),
            8 => QuantumGate::Rz {
                qubit,
                angle: f64::from(rng.gen_range(0..16u32)) * std::f64::consts::FRAC_PI_4,
            },
            9 => {
                let target = distinct(&mut rng, num_qubits, &[qubit]);
                QuantumGate::Cx {
                    control: qubit,
                    target,
                }
            }
            10 => {
                let b = distinct(&mut rng, num_qubits, &[qubit]);
                QuantumGate::Cz { a: qubit, b }
            }
            11 => {
                let b = distinct(&mut rng, num_qubits, &[qubit]);
                QuantumGate::Swap { a: qubit, b }
            }
            12 if num_qubits >= 3 => {
                let control_b = distinct(&mut rng, num_qubits, &[qubit]);
                let target = distinct(&mut rng, num_qubits, &[qubit, control_b]);
                QuantumGate::Ccx {
                    control_a: qubit,
                    control_b,
                    target,
                }
            }
            13 if num_qubits >= 4 => {
                let c2 = distinct(&mut rng, num_qubits, &[qubit]);
                let c3 = distinct(&mut rng, num_qubits, &[qubit, c2]);
                let target = distinct(&mut rng, num_qubits, &[qubit, c2, c3]);
                QuantumGate::Mcx {
                    controls: vec![qubit, c2, c3],
                    target,
                }
            }
            14 if num_qubits >= 3 => {
                let b = distinct(&mut rng, num_qubits, &[qubit]);
                let c = distinct(&mut rng, num_qubits, &[qubit, b]);
                QuantumGate::Mcz {
                    qubits: vec![qubit, b, c],
                }
            }
            _ => QuantumGate::H(qubit),
        };
        circuit.push(gate).expect("generated gates are in range");
    }
    circuit
}

/// Draws a qubit distinct from the ones already used.
fn distinct(rng: &mut StdRng, num_qubits: usize, used: &[usize]) -> usize {
    loop {
        let candidate = rng.gen_range(0..num_qubits);
        if !used.contains(&candidate) {
            return candidate;
        }
    }
}

/// Runs `circuit` under `config` and checks every amplitude and the norm
/// against the oracle.
pub fn assert_matches_reference(circuit: &QuantumCircuit, config: &ExecConfig) {
    let reference = DenseReference::from_circuit(circuit).expect("small register");
    let optimized = Statevector::run(circuit, config).expect("small register");
    for (index, (a, b)) in optimized
        .amplitudes()
        .iter()
        .zip(reference.amplitudes())
        .enumerate()
    {
        assert!(
            a.approx_eq(*b, TOLERANCE),
            "amplitude {index} diverges under {config:?}: plan {a:?} vs reference {b:?}\ncircuit:\n{circuit}"
        );
    }
    assert!(
        (optimized.norm() - 1.0).abs() < TOLERANCE,
        "norm {} under {config:?}",
        optimized.norm()
    );
    assert!((reference.norm() - 1.0).abs() < TOLERANCE);
}
