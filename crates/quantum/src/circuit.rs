//! Quantum circuits as ordered gate lists.

use crate::{QuantumError, QuantumGate};
use std::collections::BTreeMap;
use std::fmt;

/// A quantum circuit: an ordered list of [`QuantumGate`]s over a fixed number
/// of qubits. Gates are applied left to right.
///
/// # Example
///
/// ```
/// use qdaflow_quantum::{circuit::QuantumCircuit, gate::QuantumGate};
///
/// # fn main() -> Result<(), qdaflow_quantum::QuantumError> {
/// let mut circuit = QuantumCircuit::new(2);
/// circuit.push(QuantumGate::H(0))?;
/// circuit.push(QuantumGate::Cx { control: 0, target: 1 })?;
/// assert_eq!(circuit.num_gates(), 2);
/// assert_eq!(circuit.depth(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantumCircuit {
    num_qubits: usize,
    gates: Vec<QuantumGate>,
}

impl QuantumCircuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate list, first gate first.
    pub fn gates(&self) -> &[QuantumGate] {
        &self.gates
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Builds a circuit over `num_qubits` qubits from a gate list, taking
    /// the list as the circuit's storage.
    ///
    /// # Errors
    ///
    /// The first error [`QuantumCircuit::push`] would report, in gate order.
    pub(crate) fn from_gates(
        num_qubits: usize,
        gates: Vec<QuantumGate>,
    ) -> Result<Self, QuantumError> {
        let mut circuit = Self::new(num_qubits);
        for gate in &gates {
            circuit.check(gate)?;
        }
        circuit.gates = gates;
        Ok(circuit)
    }

    /// Appends a gate to the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] if the gate references a
    /// qubit `>= num_qubits` and [`QuantumError::DuplicateQubit`] if it
    /// references the same qubit twice.
    pub fn push(&mut self, gate: QuantumGate) -> Result<(), QuantumError> {
        self.check(&gate)?;
        self.gates.push(gate);
        Ok(())
    }

    /// The validation behind [`QuantumCircuit::push`]; allocates nothing
    /// for gates on at most three qubits.
    fn check(&self, gate: &QuantumGate) -> Result<(), QuantumError> {
        if let Some(qubit) = gate.iter_qubits().find(|&qubit| qubit >= self.num_qubits) {
            return Err(QuantumError::QubitOutOfRange {
                qubit,
                num_qubits: self.num_qubits,
            });
        }
        match gate.duplicate_qubit() {
            Some(qubit) => Err(QuantumError::DuplicateQubit { qubit }),
            None => Ok(()),
        }
    }

    /// Appends every gate of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitCountMismatch`] if the circuits differ in
    /// qubit count.
    pub fn append(&mut self, other: &Self) -> Result<(), QuantumError> {
        if self.num_qubits != other.num_qubits {
            return Err(QuantumError::QubitCountMismatch {
                left: self.num_qubits,
                right: other.num_qubits,
            });
        }
        self.gates.extend(other.gates.iter().cloned());
        Ok(())
    }

    /// Returns the adjoint circuit (each gate inverted, order reversed).
    pub fn dagger(&self) -> Self {
        Self {
            num_qubits: self.num_qubits,
            gates: self.gates.iter().rev().map(QuantumGate::dagger).collect(),
        }
    }

    /// Returns a copy of the circuit extended to `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is smaller than the current count.
    pub fn extended_to(&self, num_qubits: usize) -> Self {
        assert!(
            num_qubits >= self.num_qubits,
            "cannot shrink a circuit from {} to {num_qubits} qubits",
            self.num_qubits
        );
        Self {
            num_qubits,
            gates: self.gates.clone(),
        }
    }

    /// Circuit depth: the length of the longest chain of gates sharing
    /// qubits, computed with the usual as-soon-as-possible scheduling.
    pub fn depth(&self) -> usize {
        let mut layer_of_qubit = vec![0usize; self.num_qubits];
        let mut depth = 0usize;
        for gate in &self.gates {
            let layer = gate
                .iter_qubits()
                .map(|q| layer_of_qubit[q])
                .max()
                .unwrap_or(0)
                + 1;
            for q in gate.iter_qubits() {
                layer_of_qubit[q] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// T-depth: depth counting only T/T† gates (layers of parallel T gates),
    /// the figure of merit optimized by the T-par algorithm referenced in the
    /// paper.
    pub fn t_depth(&self) -> usize {
        let mut layer_of_qubit = vec![0usize; self.num_qubits];
        let mut t_depth = 0usize;
        for gate in &self.gates {
            let is_t = gate.t_count() > 0;
            let layer = gate
                .iter_qubits()
                .map(|q| layer_of_qubit[q])
                .max()
                .unwrap_or(0)
                + usize::from(is_t);
            for q in gate.iter_qubits() {
                layer_of_qubit[q] = layer;
            }
            t_depth = t_depth.max(layer);
        }
        t_depth
    }

    /// Number of T and T† gates in the circuit (not counting undecomposed
    /// Toffoli gates).
    pub fn t_count(&self) -> usize {
        self.gates.iter().map(QuantumGate::t_count).sum()
    }

    /// Number of gates acting on two or more qubits.
    pub fn multi_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.arity() >= 2).count()
    }

    /// Histogram of gate mnemonics.
    pub fn gate_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for gate in &self.gates {
            *counts.entry(gate.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Returns `true` if every gate belongs to the Clifford+T library (i.e.
    /// no undecomposed Toffoli/MCX/MCZ with more than two qubits and no
    /// non-π/4 rotations).
    pub fn is_clifford_t(&self) -> bool {
        self.gates.iter().all(|gate| match gate {
            QuantumGate::Ccx { .. } | QuantumGate::Mcx { .. } | QuantumGate::Swap { .. } => false,
            QuantumGate::Mcz { qubits } => qubits.len() <= 2,
            QuantumGate::Rz { angle, .. } => {
                let eighth_turns = angle / std::f64::consts::FRAC_PI_4;
                (eighth_turns - eighth_turns.round()).abs() < 1e-9
            }
            _ => true,
        })
    }

    /// Iterates over the gates.
    pub fn iter(&self) -> std::slice::Iter<'_, QuantumGate> {
        self.gates.iter()
    }
}

impl<'a> IntoIterator for &'a QuantumCircuit {
    type Item = &'a QuantumGate;
    type IntoIter = std::slice::Iter<'a, QuantumGate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl fmt::Display for QuantumCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "// {} qubits, {} gates",
            self.num_qubits,
            self.num_gates()
        )?;
        for gate in &self.gates {
            writeln!(f, "{gate};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> QuantumCircuit {
        let mut circuit = QuantumCircuit::new(2);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1,
            })
            .unwrap();
        circuit
    }

    #[test]
    fn push_validates_qubits() {
        let mut circuit = QuantumCircuit::new(2);
        assert!(matches!(
            circuit.push(QuantumGate::H(2)),
            Err(QuantumError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            circuit.push(QuantumGate::Cx {
                control: 1,
                target: 1
            }),
            Err(QuantumError::DuplicateQubit { .. })
        ));
        assert!(circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1
            })
            .is_ok());
    }

    #[test]
    fn dagger_reverses_and_inverts() {
        let mut circuit = QuantumCircuit::new(1);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit.push(QuantumGate::T(0)).unwrap();
        let dagger = circuit.dagger();
        assert_eq!(dagger.gates()[0], QuantumGate::Tdg(0));
        assert_eq!(dagger.gates()[1], QuantumGate::H(0));
    }

    #[test]
    fn depth_of_parallel_and_serial_gates() {
        let mut circuit = QuantumCircuit::new(3);
        circuit.push(QuantumGate::H(0)).unwrap();
        circuit.push(QuantumGate::H(1)).unwrap();
        circuit.push(QuantumGate::H(2)).unwrap();
        assert_eq!(circuit.depth(), 1);
        circuit
            .push(QuantumGate::Cx {
                control: 0,
                target: 1,
            })
            .unwrap();
        assert_eq!(circuit.depth(), 2);
        circuit
            .push(QuantumGate::Cx {
                control: 1,
                target: 2,
            })
            .unwrap();
        assert_eq!(circuit.depth(), 3);
        assert_eq!(QuantumCircuit::new(4).depth(), 0);
    }

    #[test]
    fn t_count_and_t_depth() {
        let mut circuit = QuantumCircuit::new(2);
        circuit.push(QuantumGate::T(0)).unwrap();
        circuit.push(QuantumGate::T(1)).unwrap();
        circuit.push(QuantumGate::Tdg(0)).unwrap();
        assert_eq!(circuit.t_count(), 3);
        // The two parallel T gates form one layer, the T† a second one.
        assert_eq!(circuit.t_depth(), 2);
        assert_eq!(bell().t_count(), 0);
        assert_eq!(bell().t_depth(), 0);
    }

    #[test]
    fn depth_and_t_depth_span_multi_controlled_gates() {
        let mut circuit = QuantumCircuit::new(5);
        circuit.push(QuantumGate::T(0)).unwrap();
        circuit.push(QuantumGate::T(4)).unwrap();
        // The mcx joins qubits 0..=3, the mcz then joins 2..=4: each waits
        // for the latest layer among all of its qubits.
        circuit
            .push(QuantumGate::Mcx {
                controls: vec![0, 1, 2],
                target: 3,
            })
            .unwrap();
        circuit
            .push(QuantumGate::Mcz {
                qubits: vec![2, 3, 4],
            })
            .unwrap();
        circuit.push(QuantumGate::Tdg(1)).unwrap();
        circuit.push(QuantumGate::T(3)).unwrap();
        assert_eq!(circuit.depth(), 4);
        // T(0) and T(4) share the first T layer; Tdg(1) follows the mcx
        // (which carries T layer 1 from qubit 0) and T(3) follows the mcz
        // (which carries it from qubits 0 and 4).
        assert_eq!(circuit.t_depth(), 2);
        assert_eq!(circuit.multi_qubit_count(), 2);
    }

    #[test]
    fn push_reports_the_smallest_duplicated_qubit() {
        let mut circuit = QuantumCircuit::new(6);
        let cases = [
            (
                QuantumGate::Ccx {
                    control_a: 2,
                    control_b: 1,
                    target: 2,
                },
                2,
            ),
            (
                QuantumGate::Ccx {
                    control_a: 4,
                    control_b: 4,
                    target: 4,
                },
                4,
            ),
            (
                QuantumGate::Mcx {
                    controls: vec![5, 3, 5, 3],
                    target: 0,
                },
                3,
            ),
            (
                QuantumGate::Mcz {
                    qubits: vec![1, 2, 1],
                },
                1,
            ),
            (QuantumGate::Swap { a: 3, b: 3 }, 3),
        ];
        for (gate, qubit) in cases {
            assert_eq!(
                circuit.push(gate),
                Err(QuantumError::DuplicateQubit { qubit })
            );
        }
        // Range is checked before duplicates.
        assert_eq!(
            circuit.push(QuantumGate::Mcx {
                controls: vec![1, 1],
                target: 9,
            }),
            Err(QuantumError::QubitOutOfRange {
                qubit: 9,
                num_qubits: 6,
            })
        );
        assert!(circuit.is_empty());
    }

    #[test]
    fn from_gates_validates_like_push() {
        let gates = vec![
            QuantumGate::H(0),
            QuantumGate::Cx {
                control: 0,
                target: 1,
            },
        ];
        let circuit = QuantumCircuit::from_gates(2, gates.clone()).unwrap();
        assert_eq!(circuit.gates(), &gates[..]);
        assert_eq!(circuit, bell());
        // The first invalid gate in order is reported.
        assert_eq!(
            QuantumCircuit::from_gates(
                2,
                vec![
                    QuantumGate::H(0),
                    QuantumGate::Swap { a: 1, b: 1 },
                    QuantumGate::X(5)
                ]
            ),
            Err(QuantumError::DuplicateQubit { qubit: 1 })
        );
    }

    #[test]
    fn gate_counts_histogram() {
        let mut circuit = bell();
        circuit.push(QuantumGate::H(1)).unwrap();
        let counts = circuit.gate_counts();
        assert_eq!(counts["h"], 2);
        assert_eq!(counts["cx"], 1);
        assert_eq!(circuit.multi_qubit_count(), 1);
    }

    #[test]
    fn clifford_t_detection() {
        let mut circuit = bell();
        circuit.push(QuantumGate::T(0)).unwrap();
        assert!(circuit.is_clifford_t());
        circuit
            .push(QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 1,
            })
            .unwrap_err();
        let mut with_toffoli = QuantumCircuit::new(3);
        with_toffoli
            .push(QuantumGate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 2,
            })
            .unwrap();
        assert!(!with_toffoli.is_clifford_t());
    }

    #[test]
    fn append_checks_widths() {
        let mut circuit = bell();
        let other = bell();
        assert!(circuit.append(&other).is_ok());
        assert_eq!(circuit.num_gates(), 4);
        let wrong = QuantumCircuit::new(3);
        assert!(matches!(
            circuit.append(&wrong),
            Err(QuantumError::QubitCountMismatch { .. })
        ));
    }

    #[test]
    fn extended_keeps_gates() {
        let circuit = bell().extended_to(5);
        assert_eq!(circuit.num_qubits(), 5);
        assert_eq!(circuit.num_gates(), 2);
    }

    #[test]
    fn display_lists_gates() {
        let text = bell().to_string();
        assert!(text.contains("h q[0];"));
        assert!(text.contains("cx q[0], q[1];"));
    }

    #[test]
    fn iteration() {
        let circuit = bell();
        assert_eq!(circuit.iter().count(), 2);
        assert_eq!((&circuit).into_iter().count(), 2);
    }
}
