//! Output checks against references independent of the code under test.
//! A wrong answer is a failed operation.

use qdaflow_boolfn::Permutation;
use qdaflow_quantum::{DenseReference, ExecutionResult, QuantumCircuit, QuantumGate};

/// A hidden-shift job must return exactly its planted shift, in every shot.
pub fn hidden_shift(
    result: &ExecutionResult,
    shift: u64,
    num_qubits: usize,
    shots: usize,
) -> Result<(), String> {
    if result.num_qubits != num_qubits || result.shots != shots {
        return Err(format!(
            "expected {shots} shots on {num_qubits} qubits, got {} on {}",
            result.shots, result.num_qubits
        ));
    }
    let expected = usize::try_from(shift).map_err(|_| "shift exceeds usize".to_owned())?;
    match result.counts.get(&expected) {
        Some(&count) if count == shots && result.counts.len() == 1 => Ok(()),
        _ => Err(format!(
            "expected shift {shift:#x} with probability 1, got {} distinct outcomes, most likely {:?}",
            result.counts.len(),
            result.most_likely()
        )),
    }
}

/// An eq. (5) output realizes `permutation` on its first `n` qubits with
/// every ancilla back at 0: each basis input `x` is simulated with the naive
/// [`DenseReference`] and must land on `π(x)` with probability 1, and with
/// the same phase for every `x` (a wrong relative phase, such as a dropped
/// `T` on a control, is invisible to probabilities alone). The comparison is
/// against the input permutation, not against any intermediate circuit the
/// compiler produced.
pub fn realizes_permutation(
    circuit: &QuantumCircuit,
    permutation: &Permutation,
) -> Result<(), String> {
    let vars = permutation.num_vars();
    if circuit.num_qubits() < vars {
        return Err(format!(
            "{} qubits cannot hold {vars} variables",
            circuit.num_qubits()
        ));
    }
    let mut global_phase = None;
    for input in 0..1usize << vars {
        let mut state = DenseReference::new(circuit.num_qubits()).map_err(|e| e.to_string())?;
        for qubit in (0..vars).filter(|q| input >> q & 1 == 1) {
            state.apply_gate(&QuantumGate::X(qubit));
        }
        state.apply_circuit(circuit);
        let expected = permutation.apply(input);
        let amplitude = state.amplitude(expected);
        let probability = amplitude.norm_sqr();
        if probability < 1.0 - 1e-9 {
            return Err(format!(
                "input {input:#b} reaches pi(x) = {expected:#b} (ancillas 0) with probability {probability:.4}"
            ));
        }
        let phase = *global_phase.get_or_insert(amplitude);
        if (amplitude - phase).norm_sqr() > 1e-12 {
            return Err(format!(
                "input {input:#b} reaches pi(x) = {expected:#b} with phase {amplitude:?}, input 0 with {phase:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::hidden_shift_qasm;
    use qdaflow_boolfn::hwb::hwb_permutation;
    use qdaflow_engine::{BackendChoice, BatchEngine, BatchJob, OracleSpec};
    use qdaflow_pipeline::Pipeline;

    const QUBITS: usize = 10;
    const SHIFT: u64 = 0b10_0110_1101;
    const CUBIC: [[usize; 3]; 2] = [[0, 1, 2], [1, 3, 4]];

    fn run(source: &str) -> ExecutionResult {
        let job = BatchJob::new(OracleSpec::qasm(source), 64, 5).with_backend(BackendChoice::Auto);
        BatchEngine::new().run_batch(&[job]).unwrap().remove(0)
    }

    #[test]
    fn a_correct_hidden_shift_run_passes() {
        let result = run(&hidden_shift_qasm(QUBITS, SHIFT, &CUBIC));
        hidden_shift(&result, SHIFT, QUBITS, 64).unwrap();
    }

    #[test]
    fn one_flipped_shift_bit_fails() {
        let result = run(&hidden_shift_qasm(QUBITS, SHIFT, &CUBIC));
        for bit in 0..QUBITS {
            assert!(hidden_shift(&result, SHIFT ^ 1 << bit, QUBITS, 64).is_err());
        }
    }

    #[test]
    fn one_dropped_gate_fails() {
        let source = hidden_shift_qasm(QUBITS, SHIFT, &CUBIC);
        // One gate of each kind the oracles are built from, each in its
        // last occurrence (the first X layer acts on the uniform
        // superposition, where it is redundant).
        for needle in ["x q[0];", "cz q[1],q[6];", "ccx q[1],q[3],q[4];"] {
            let last = source
                .lines()
                .enumerate()
                .filter(|(_, line)| *line == needle)
                .last()
                .unwrap()
                .0;
            let dropped: String = source
                .lines()
                .enumerate()
                .filter(|&(index, _)| index != last)
                .map(|(_, line)| format!("{line}\n"))
                .collect();
            assert_ne!(dropped, source, "{needle} is in the program");
            assert!(
                hidden_shift(&run(&dropped), SHIFT, QUBITS, 64).is_err(),
                "dropping {needle} must fail the check"
            );
        }
    }

    #[test]
    fn eq5_checks_accept_a_correct_compile_and_reject_a_dropped_gate() {
        let permutation = hwb_permutation(4);
        let report = Pipeline::parse("tbs; revsimp; rptm")
            .unwrap()
            .run(permutation.clone().into())
            .unwrap();
        let circuit = report.final_quantum().unwrap().clone();
        realizes_permutation(&circuit, &permutation).unwrap();
        let dropping = |skip: usize| {
            let mut broken = QuantumCircuit::new(circuit.num_qubits());
            for (index, gate) in circuit.gates().iter().enumerate() {
                if index != skip {
                    broken.push(gate.clone()).unwrap();
                }
            }
            broken
        };
        for kind in ["h", "cx", "t"] {
            let first = circuit
                .gates()
                .iter()
                .position(|gate| gate.name() == kind)
                .unwrap();
            assert!(
                realizes_permutation(&dropping(first), &permutation).is_err(),
                "dropping the first {kind} must fail the check"
            );
        }
        let other = Permutation::new((0..16).map(|x| x ^ 1).collect()).unwrap();
        assert!(realizes_permutation(&circuit, &other).is_err());
    }
}
