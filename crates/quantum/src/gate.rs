//! The quantum gate set used by the flow.
//!
//! The mapping stage of the paper targets the **Clifford+T** gate library
//! (H, S, S†, CNOT, CZ plus the non-Clifford T and T†), extended here with
//! the gates that appear before mapping (X, Y, Z, rotations, Toffoli and
//! larger multiple-controlled gates) so that the same IR can represent
//! circuits at every stage of the flow.

use crate::complex::Complex;
use std::f64::consts::FRAC_PI_4;
use std::fmt;

/// A quantum gate applied to specific qubits of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantumGate {
    /// Hadamard gate.
    H(usize),
    /// Pauli-X (NOT) gate.
    X(usize),
    /// Pauli-Y gate.
    Y(usize),
    /// Pauli-Z gate.
    Z(usize),
    /// Phase gate S = diag(1, i).
    S(usize),
    /// Inverse phase gate S† = diag(1, -i).
    Sdg(usize),
    /// T gate = diag(1, e^{iπ/4}).
    T(usize),
    /// Inverse T gate.
    Tdg(usize),
    /// Z-rotation by an arbitrary angle: diag(1, e^{iθ}).
    Rz {
        /// Target qubit.
        qubit: usize,
        /// Rotation angle θ in radians.
        angle: f64,
    },
    /// Controlled NOT.
    Cx {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled Z.
    Cz {
        /// First qubit (symmetric).
        a: usize,
        /// Second qubit (symmetric).
        b: usize,
    },
    /// Swap of two qubits.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Toffoli gate (CCX).
    Ccx {
        /// First control qubit.
        control_a: usize,
        /// Second control qubit.
        control_b: usize,
        /// Target qubit.
        target: usize,
    },
    /// Multiple-controlled X with an arbitrary number of positive controls.
    Mcx {
        /// Control qubits.
        controls: Vec<usize>,
        /// Target qubit.
        target: usize,
    },
    /// Multiple-controlled Z (fully symmetric phase gate flipping the sign of
    /// the all-ones subspace of its qubits).
    Mcz {
        /// Participating qubits.
        qubits: Vec<usize>,
    },
}

impl QuantumGate {
    /// The qubits the gate acts on, in declaration order.
    pub fn qubits(&self) -> Vec<usize> {
        self.iter_qubits().collect()
    }

    /// The qubits the gate acts on, in the order of
    /// [`QuantumGate::qubits`], without allocating: gates on at most three
    /// qubits yield them from an inline array, `mcx`/`mcz` from their own
    /// lists.
    pub(crate) fn iter_qubits(&self) -> impl Iterator<Item = usize> + '_ {
        let (list, fixed, len): (&[usize], [usize; 3], usize) = match self {
            Self::H(q)
            | Self::X(q)
            | Self::Y(q)
            | Self::Z(q)
            | Self::S(q)
            | Self::Sdg(q)
            | Self::T(q)
            | Self::Tdg(q)
            | Self::Rz { qubit: q, .. } => (&[], [*q, 0, 0], 1),
            Self::Cx {
                control: a,
                target: b,
            }
            | Self::Cz { a, b }
            | Self::Swap { a, b } => (&[], [*a, *b, 0], 2),
            Self::Ccx {
                control_a,
                control_b,
                target,
            } => (&[], [*control_a, *control_b, *target], 3),
            Self::Mcx { controls, target } => (controls, [*target, 0, 0], 1),
            Self::Mcz { qubits } => (qubits, [0; 3], 0),
        };
        list.iter().copied().chain(fixed.into_iter().take(len))
    }

    /// The smallest qubit the gate names more than once, if any. Gates on
    /// at most three qubits are checked pair by pair, without allocating.
    pub(crate) fn duplicate_qubit(&self) -> Option<usize> {
        match self {
            Self::Cx {
                control: a,
                target: b,
            }
            | Self::Cz { a, b }
            | Self::Swap { a, b } => (a == b).then_some(*a),
            Self::Ccx {
                control_a: a,
                control_b: b,
                target: c,
            } => [(a, b), (a, c), (b, c)]
                .into_iter()
                .find(|(x, y)| x == y)
                .map(|(x, _)| *x),
            Self::Mcx { .. } | Self::Mcz { .. } => {
                let mut sorted = self.qubits();
                sorted.sort_unstable();
                sorted
                    .windows(2)
                    .find(|pair| pair[0] == pair[1])
                    .map(|pair| pair[0])
            }
            _ => None,
        }
    }

    /// Short lower-case mnemonic of the gate (matching OpenQASM names where
    /// they exist).
    pub fn name(&self) -> &'static str {
        match self {
            Self::H(_) => "h",
            Self::X(_) => "x",
            Self::Y(_) => "y",
            Self::Z(_) => "z",
            Self::S(_) => "s",
            Self::Sdg(_) => "sdg",
            Self::T(_) => "t",
            Self::Tdg(_) => "tdg",
            Self::Rz { .. } => "rz",
            Self::Cx { .. } => "cx",
            Self::Cz { .. } => "cz",
            Self::Swap { .. } => "swap",
            Self::Ccx { .. } => "ccx",
            Self::Mcx { .. } => "mcx",
            Self::Mcz { .. } => "mcz",
        }
    }

    /// Number of qubits the gate acts on.
    pub fn arity(&self) -> usize {
        self.iter_qubits().count()
    }

    /// The adjoint (inverse) of the gate.
    pub fn dagger(&self) -> Self {
        match self {
            Self::S(q) => Self::Sdg(*q),
            Self::Sdg(q) => Self::S(*q),
            Self::T(q) => Self::Tdg(*q),
            Self::Tdg(q) => Self::T(*q),
            Self::Rz { qubit, angle } => Self::Rz {
                qubit: *qubit,
                angle: -angle,
            },
            other => other.clone(),
        }
    }

    /// Returns `true` for gates in the Clifford group (everything except T,
    /// T† and generic rotations).
    pub fn is_clifford(&self) -> bool {
        match self {
            Self::T(_) | Self::Tdg(_) => false,
            Self::Rz { angle, .. } => {
                // Rz is Clifford exactly for multiples of π/2.
                let quarter_turns = angle / (2.0 * FRAC_PI_4);
                (quarter_turns - quarter_turns.round()).abs() < 1e-9
            }
            Self::Ccx { .. } | Self::Mcx { .. } => false,
            Self::Mcz { qubits } => qubits.len() <= 2,
            _ => true,
        }
    }

    /// Number of T gates contributed directly by this gate (without
    /// decomposing Toffoli or larger gates; see `qdaflow-mapping` for the
    /// decomposed counts).
    pub fn t_count(&self) -> usize {
        match self {
            Self::T(_) | Self::Tdg(_) => 1,
            Self::Rz { angle, .. } => {
                let eighth_turns = angle / FRAC_PI_4;
                let is_multiple = (eighth_turns - eighth_turns.round()).abs() < 1e-9;
                let is_odd_multiple =
                    is_multiple && (eighth_turns.round() as i64).rem_euclid(2) == 1;
                usize::from(is_odd_multiple)
            }
            _ => 0,
        }
    }

    /// Returns `true` if the gate is diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Self::Z(_)
                | Self::S(_)
                | Self::Sdg(_)
                | Self::T(_)
                | Self::Tdg(_)
                | Self::Rz { .. }
                | Self::Cz { .. }
                | Self::Mcz { .. }
        )
    }

    /// The 2×2 unitary matrix of a single-qubit gate, as
    /// `[[u00, u01], [u10, u11]]`, or `None` for multi-qubit gates.
    pub fn single_qubit_matrix(&self) -> Option<[[Complex; 2]; 2]> {
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let matrix = match self {
            Self::H(_) => [
                [Complex::real(inv_sqrt2), Complex::real(inv_sqrt2)],
                [Complex::real(inv_sqrt2), Complex::real(-inv_sqrt2)],
            ],
            Self::X(_) => [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]],
            Self::Y(_) => [[Complex::ZERO, -Complex::I], [Complex::I, Complex::ZERO]],
            Self::Z(_) => [
                [Complex::ONE, Complex::ZERO],
                [Complex::ZERO, Complex::real(-1.0)],
            ],
            Self::S(_) => [[Complex::ONE, Complex::ZERO], [Complex::ZERO, Complex::I]],
            Self::Sdg(_) => [[Complex::ONE, Complex::ZERO], [Complex::ZERO, -Complex::I]],
            Self::T(_) => [
                [Complex::ONE, Complex::ZERO],
                [Complex::ZERO, Complex::from_angle(FRAC_PI_4)],
            ],
            Self::Tdg(_) => [
                [Complex::ONE, Complex::ZERO],
                [Complex::ZERO, Complex::from_angle(-FRAC_PI_4)],
            ],
            Self::Rz { angle, .. } => [
                [Complex::ONE, Complex::ZERO],
                [Complex::ZERO, Complex::from_angle(*angle)],
            ],
            _ => return None,
        };
        Some(matrix)
    }

    /// Like [`QuantumGate::single_qubit_matrix`], but reports multi-qubit
    /// gates as a typed [`QuantumError::UnsupportedGate`](crate::QuantumError::UnsupportedGate) instead of `None`,
    /// for callers that treat the request as fallible rather than optional.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::UnsupportedGate`](crate::QuantumError::UnsupportedGate) for gates without a single
    /// 2×2 matrix.
    pub fn single_qubit_matrix_checked(&self) -> Result<[[Complex; 2]; 2], crate::QuantumError> {
        self.single_qubit_matrix()
            .ok_or(crate::QuantumError::UnsupportedGate {
                gate: self.name(),
                operation: "single_qubit_matrix",
            })
    }
}

impl fmt::Display for QuantumGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rz { qubit, angle } => write!(f, "rz({angle:.6}) q[{qubit}]"),
            other => {
                let qubits: Vec<String> =
                    other.qubits().iter().map(|q| format!("q[{q}]")).collect();
                write!(f, "{} {}", other.name(), qubits.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubits_and_arity() {
        assert_eq!(QuantumGate::H(3).qubits(), vec![3]);
        assert_eq!(
            QuantumGate::Cx {
                control: 1,
                target: 0
            }
            .qubits(),
            vec![1, 0]
        );
        assert_eq!(
            QuantumGate::Mcx {
                controls: vec![0, 1, 2],
                target: 4
            }
            .arity(),
            4
        );
        assert_eq!(QuantumGate::Mcz { qubits: vec![0, 1] }.arity(), 2);
    }

    #[test]
    fn dagger_pairs() {
        assert_eq!(QuantumGate::T(0).dagger(), QuantumGate::Tdg(0));
        assert_eq!(QuantumGate::Sdg(1).dagger(), QuantumGate::S(1));
        assert_eq!(QuantumGate::H(2).dagger(), QuantumGate::H(2));
        let rz = QuantumGate::Rz {
            qubit: 0,
            angle: 0.7,
        };
        // Rz negation is exact in IEEE arithmetic, so the adjoint can be
        // asserted structurally — no panicking fallback arm needed.
        assert_eq!(
            rz.dagger(),
            QuantumGate::Rz {
                qubit: 0,
                angle: -0.7,
            }
        );
    }

    #[test]
    fn multi_qubit_matrix_request_is_a_typed_error() {
        use crate::QuantumError;
        assert!(QuantumGate::H(0).single_qubit_matrix_checked().is_ok());
        let err = QuantumGate::Cx {
            control: 0,
            target: 1,
        }
        .single_qubit_matrix_checked()
        .unwrap_err();
        assert_eq!(
            err,
            QuantumError::UnsupportedGate {
                gate: "cx",
                operation: "single_qubit_matrix",
            }
        );
        assert!(err.to_string().contains("cx"));
    }

    #[test]
    fn clifford_classification() {
        assert!(QuantumGate::H(0).is_clifford());
        assert!(QuantumGate::S(0).is_clifford());
        assert!(QuantumGate::Cx {
            control: 0,
            target: 1
        }
        .is_clifford());
        assert!(!QuantumGate::T(0).is_clifford());
        assert!(!QuantumGate::Ccx {
            control_a: 0,
            control_b: 1,
            target: 2
        }
        .is_clifford());
        assert!(QuantumGate::Rz {
            qubit: 0,
            angle: std::f64::consts::FRAC_PI_2
        }
        .is_clifford());
        assert!(!QuantumGate::Rz {
            qubit: 0,
            angle: FRAC_PI_4
        }
        .is_clifford());
    }

    #[test]
    fn direct_t_count() {
        assert_eq!(QuantumGate::T(0).t_count(), 1);
        assert_eq!(QuantumGate::Tdg(0).t_count(), 1);
        assert_eq!(QuantumGate::S(0).t_count(), 0);
        assert_eq!(
            QuantumGate::Rz {
                qubit: 0,
                angle: FRAC_PI_4
            }
            .t_count(),
            1
        );
        assert_eq!(
            QuantumGate::Rz {
                qubit: 0,
                angle: std::f64::consts::FRAC_PI_2
            }
            .t_count(),
            0
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn single_qubit_matrices_are_unitary() {
        let gates = [
            QuantumGate::H(0),
            QuantumGate::X(0),
            QuantumGate::Y(0),
            QuantumGate::Z(0),
            QuantumGate::S(0),
            QuantumGate::Sdg(0),
            QuantumGate::T(0),
            QuantumGate::Tdg(0),
            QuantumGate::Rz {
                qubit: 0,
                angle: 1.234,
            },
        ];
        for gate in gates {
            let m = gate.single_qubit_matrix().expect("single-qubit gate");
            // Check U U† = I.
            for row in 0..2 {
                for col in 0..2 {
                    let mut entry = Complex::ZERO;
                    for k in 0..2 {
                        entry += m[row][k] * m[col][k].conj();
                    }
                    let expected = if row == col {
                        Complex::ONE
                    } else {
                        Complex::ZERO
                    };
                    assert!(
                        entry.approx_eq(expected, 1e-12),
                        "{gate:?} is not unitary at ({row},{col})"
                    );
                }
            }
        }
        assert!(QuantumGate::Cx {
            control: 0,
            target: 1
        }
        .single_qubit_matrix()
        .is_none());
    }

    #[test]
    fn diagonal_classification() {
        assert!(QuantumGate::T(0).is_diagonal());
        assert!(QuantumGate::Cz { a: 0, b: 1 }.is_diagonal());
        assert!(QuantumGate::Mcz {
            qubits: vec![0, 1, 2]
        }
        .is_diagonal());
        assert!(!QuantumGate::H(0).is_diagonal());
        assert!(!QuantumGate::X(0).is_diagonal());
    }

    #[test]
    fn display_formats() {
        assert_eq!(QuantumGate::H(0).to_string(), "h q[0]");
        assert_eq!(
            QuantumGate::Cx {
                control: 1,
                target: 2
            }
            .to_string(),
            "cx q[1], q[2]"
        );
        let rz = QuantumGate::Rz {
            qubit: 3,
            angle: 0.5,
        };
        assert!(rz.to_string().starts_with("rz(0.5"));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn sdg_matrix_is_inverse_of_s() {
        let s = QuantumGate::S(0).single_qubit_matrix().unwrap();
        let sdg = QuantumGate::Sdg(0).single_qubit_matrix().unwrap();
        // (S * Sdg) should be the identity.
        for row in 0..2 {
            for col in 0..2 {
                let mut entry = Complex::ZERO;
                for k in 0..2 {
                    entry += s[row][k] * sdg[k][col];
                }
                let expected = if row == col {
                    Complex::ONE
                } else {
                    Complex::ZERO
                };
                assert!(entry.approx_eq(expected, 1e-12));
            }
        }
    }
}
