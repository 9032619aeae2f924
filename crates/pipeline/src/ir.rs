//! The unified intermediate representation threaded through a pipeline.
//!
//! Equation (5) of the paper moves one object through three representations:
//! a Boolean specification (a permutation for `tbs`/`dbs`, a single-output
//! function for `esopbs`), a reversible Toffoli network, and a Clifford+T
//! quantum circuit. [`Ir`] is the sum of those representations; [`Stage`]
//! names them, and [`StageSet`] is the small lattice the
//! [`Pipeline`](crate::Pipeline) builder uses to validate pass transitions
//! before anything runs.

use crate::FlowError;
use qdaflow_boolfn::{Permutation, TruthTable};
use qdaflow_quantum::QuantumCircuit;
use qdaflow_reversible::ReversibleCircuit;
use std::fmt;

/// A value flowing through a pipeline: one of the representations of the
/// compilation flow.
#[derive(Debug, Clone, PartialEq)]
pub enum Ir {
    /// Unparsed OpenQASM 2.0 source text (imported by the `qasmin` pass).
    QasmSource(String),
    /// A reversible specification: a permutation of `B^n`.
    Permutation(Permutation),
    /// An irreversible specification: a single-output Boolean function.
    Function(TruthTable),
    /// A reversible circuit over multiple-controlled Toffoli gates.
    Reversible(ReversibleCircuit),
    /// A quantum circuit (Clifford+T after `rptm`).
    Quantum(QuantumCircuit),
}

impl Ir {
    /// The stage this value belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            Self::QasmSource(_) => Stage::QasmSource,
            Self::Permutation(_) => Stage::Permutation,
            Self::Function(_) => Stage::Function,
            Self::Reversible(_) => Stage::Reversible,
            Self::Quantum(_) => Stage::Quantum,
        }
    }

    /// Unwraps OpenQASM source text, or reports a stage mismatch blamed on
    /// `pass`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::StageMismatch`] for any other stage.
    pub fn into_qasm_source(self, pass: &str) -> Result<String, FlowError> {
        match self {
            Self::QasmSource(source) => Ok(source),
            other => Err(mismatch(pass, StageSet::QASM_SOURCE, &other)),
        }
    }

    /// Unwraps a permutation, or reports a stage mismatch blamed on `pass`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::StageMismatch`] for any other stage.
    pub fn into_permutation(self, pass: &str) -> Result<Permutation, FlowError> {
        match self {
            Self::Permutation(permutation) => Ok(permutation),
            other => Err(mismatch(pass, StageSet::PERMUTATION, &other)),
        }
    }

    /// Unwraps a Boolean function, or reports a stage mismatch blamed on
    /// `pass`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::StageMismatch`] for any other stage.
    pub fn into_function(self, pass: &str) -> Result<TruthTable, FlowError> {
        match self {
            Self::Function(function) => Ok(function),
            other => Err(mismatch(pass, StageSet::FUNCTION, &other)),
        }
    }

    /// Unwraps a reversible circuit, or reports a stage mismatch blamed on
    /// `pass`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::StageMismatch`] for any other stage.
    pub fn into_reversible(self, pass: &str) -> Result<ReversibleCircuit, FlowError> {
        match self {
            Self::Reversible(circuit) => Ok(circuit),
            other => Err(mismatch(pass, StageSet::REVERSIBLE, &other)),
        }
    }

    /// Unwraps a quantum circuit, or reports a stage mismatch blamed on
    /// `pass`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::StageMismatch`] for any other stage.
    pub fn into_quantum(self, pass: &str) -> Result<QuantumCircuit, FlowError> {
        match self {
            Self::Quantum(circuit) => Ok(circuit),
            other => Err(mismatch(pass, StageSet::QUANTUM, &other)),
        }
    }
}

fn mismatch(pass: &str, expected: StageSet, found: &Ir) -> FlowError {
    FlowError::StageMismatch {
        pass: pass.to_owned(),
        expected,
        found: found.stage(),
    }
}

impl From<Permutation> for Ir {
    fn from(permutation: Permutation) -> Self {
        Self::Permutation(permutation)
    }
}

impl From<TruthTable> for Ir {
    fn from(function: TruthTable) -> Self {
        Self::Function(function)
    }
}

impl From<ReversibleCircuit> for Ir {
    fn from(circuit: ReversibleCircuit) -> Self {
        Self::Reversible(circuit)
    }
}

impl From<QuantumCircuit> for Ir {
    fn from(circuit: QuantumCircuit) -> Self {
        Self::Quantum(circuit)
    }
}

/// The stage (representation kind) of an [`Ir`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Unparsed OpenQASM 2.0 source text.
    QasmSource,
    /// Permutation specification.
    Permutation,
    /// Single-output Boolean function specification.
    Function,
    /// Reversible Toffoli network.
    Reversible,
    /// Quantum circuit.
    Quantum,
}

impl Stage {
    const ALL: [Self; 5] = [
        Self::QasmSource,
        Self::Permutation,
        Self::Function,
        Self::Reversible,
        Self::Quantum,
    ];

    fn bit(self) -> u8 {
        match self {
            Self::QasmSource => 16,
            Self::Permutation => 1,
            Self::Function => 2,
            Self::Reversible => 4,
            Self::Quantum => 8,
        }
    }

    /// The stage's name as it appears in messages ("reversible circuit").
    pub fn name(self) -> &'static str {
        match self {
            Self::QasmSource => "openqasm source",
            Self::Permutation => "permutation",
            Self::Function => "boolean function",
            Self::Reversible => "reversible circuit",
            Self::Quantum => "quantum circuit",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`Stage`]s, used to describe what a pass accepts and produces.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageSet(u8);

impl StageSet {
    /// The empty set.
    pub const EMPTY: Self = Self(0);
    /// Only [`Stage::Permutation`].
    pub const PERMUTATION: Self = Self(1);
    /// Only [`Stage::Function`].
    pub const FUNCTION: Self = Self(2);
    /// Only [`Stage::Reversible`].
    pub const REVERSIBLE: Self = Self(4);
    /// Only [`Stage::Quantum`].
    pub const QUANTUM: Self = Self(8);
    /// Only [`Stage::QasmSource`].
    pub const QASM_SOURCE: Self = Self(16);
    /// Both specification stages (permutation or Boolean function).
    pub const SPEC: Self = Self(1 | 2);
    /// Every stage.
    pub const ANY: Self = Self(31);

    /// Whether `stage` is in the set.
    pub fn contains(self, stage: Stage) -> bool {
        self.0 & stage.bit() != 0
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(self, other: Self) -> Self {
        Self(self.0 & other.0)
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Whether the set contains no stage.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The stages in the set, in flow order.
    pub fn stages(self) -> impl Iterator<Item = Stage> {
        Stage::ALL.into_iter().filter(move |s| self.contains(*s))
    }
}

impl From<Stage> for StageSet {
    fn from(stage: Stage) -> Self {
        Self(stage.bit())
    }
}

impl fmt::Display for StageSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("nothing");
        }
        let mut first = true;
        for stage in self.stages() {
            if !first {
                f.write_str(" or ")?;
            }
            write!(f, "{stage}")?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for StageSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StageSet({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sets_form_a_lattice() {
        assert!(StageSet::SPEC.contains(Stage::Permutation));
        assert!(StageSet::SPEC.contains(Stage::Function));
        assert!(!StageSet::SPEC.contains(Stage::Quantum));
        assert!(StageSet::SPEC.intersect(StageSet::QUANTUM).is_empty());
        assert_eq!(
            StageSet::PERMUTATION.union(StageSet::FUNCTION),
            StageSet::SPEC
        );
        assert_eq!(StageSet::ANY.stages().count(), 5);
        assert!(StageSet::ANY.contains(Stage::QasmSource));
        assert!(!StageSet::SPEC.contains(Stage::QasmSource));
    }

    #[test]
    fn stage_set_display_lists_members() {
        assert_eq!(StageSet::EMPTY.to_string(), "nothing");
        assert_eq!(
            StageSet::SPEC.to_string(),
            "permutation or boolean function"
        );
        assert_eq!(StageSet::QUANTUM.to_string(), "quantum circuit");
    }

    #[test]
    fn ir_unwrappers_report_mismatches() {
        let ir = Ir::from(Permutation::identity(2));
        assert_eq!(ir.stage(), Stage::Permutation);
        let err = ir.into_quantum("tpar").unwrap_err();
        assert!(matches!(err, FlowError::StageMismatch { .. }));
        assert!(err.to_string().contains("tpar"));
    }
}
