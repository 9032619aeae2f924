//! Workload inputs, generated from the benchmark seed alone.
//!
//! The hidden-shift programs are written as OpenQASM 2.0 from qelib1 gates
//! (`h`, `x`, `cz`, `ccx`) by this module, never through
//! `qasm::to_qasm`: that exporter writes `mcz` gates as comments, so a
//! re-imported program would silently lose its non-Clifford part and be
//! routed to a different backend.

use crate::rng::Rng;
use qdaflow_boolfn::hwb::hwb_permutation;
use qdaflow_boolfn::Permutation;
use std::collections::HashSet;
use std::fmt::Write as _;

macro_rules! emit {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// Width of the `dense_hs20` programs.
pub const DENSE_QUBITS: usize = 20;
/// Distinct shifts cycled by `dense_hs20`, so every compile after warm-up is
/// an in-memory cache hit.
pub const DENSE_SHIFTS: usize = 8;
/// Cubic monomials of `h`: each is one CCZ in `U_g` and one in `U_f~`.
pub const DENSE_CUBIC_TERMS: usize = 3;
/// Width of the `clifford_hs64` programs. Measured outcomes are `usize`, so
/// 64 qubits is the widest hidden shift whose answer the stabilizer path can
/// return; wider shifts end as typed `OutcomeOverflow` errors.
pub const CLIFFORD_QUBITS: usize = 64;
/// Seeded random permutations per variable count (4, 5 and 6) in
/// `eq5_compile`, next to hwb4–hwb7.
pub const RANDOM_PERMS_PER_SIZE: usize = 96;

/// One hidden-shift program and the shift it must return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftProgram {
    pub shift: u64,
    pub source: String,
}

/// The hidden-shift circuit of Fig. 3 for the Maiorana–McFarland bent
/// function `f(x, y) = x·y ⊕ h(y)` (Fig. 7 family with π = identity) on
/// `n = 2m` qubits: `x` on qubits `0..m`, `y` on `m..2m`, and `h` the sum of
/// the cubic monomials `cubic` (index triples into `0..m`). Its dual is
/// `f~(u, v) = u·v ⊕ h(u)`, so the ideal output is exactly `|shift⟩`.
pub fn hidden_shift_qasm(num_qubits: usize, shift: u64, cubic: &[[usize; 3]]) -> String {
    assert!(
        num_qubits.is_multiple_of(2) && num_qubits <= 64,
        "even width up to 64"
    );
    let half = num_qubits / 2;
    let mut out = String::with_capacity(64 * num_qubits);
    emit!(out, "OPENQASM 2.0;\ninclude \"qelib1.inc\";");
    emit!(out, "qreg q[{num_qubits}];\ncreg c[{num_qubits}];");
    let all_h = |out: &mut String| {
        for q in 0..num_qubits {
            emit!(out, "h q[{q}];");
        }
    };
    let shift_x = |out: &mut String| {
        for q in (0..num_qubits).filter(|q| shift >> q & 1 == 1) {
            emit!(out, "x q[{q}];");
        }
    };
    // U_f on the register whose cubic part sits at `offset` (y for f, x for
    // the dual): the inner product as CZ pairs, each monomial as a CCZ.
    let phase_oracle = |out: &mut String, offset: usize| {
        for i in 0..half {
            emit!(out, "cz q[{i}],q[{}];", half + i);
        }
        for &[a, b, c] in cubic {
            let (a, b, c) = (offset + a, offset + b, offset + c);
            emit!(out, "h q[{c}];\nccx q[{a}],q[{b}],q[{c}];\nh q[{c}];");
        }
    };
    all_h(&mut out);
    shift_x(&mut out);
    phase_oracle(&mut out, half);
    shift_x(&mut out);
    all_h(&mut out);
    phase_oracle(&mut out, 0);
    all_h(&mut out);
    emit!(out, "measure q -> c;");
    out
}

/// `dense_hs20`: [`DENSE_SHIFTS`] distinct 20-bit shifts sharing one cubic
/// `h` of [`DENSE_CUBIC_TERMS`] monomials.
pub fn dense_programs(seed: u64) -> Vec<ShiftProgram> {
    let mut rng = Rng::stream(seed, 1);
    let half = DENSE_QUBITS / 2;
    let mut cubic: Vec<[usize; 3]> = Vec::with_capacity(DENSE_CUBIC_TERMS);
    while cubic.len() < DENSE_CUBIC_TERMS {
        let mut term = rng.distinct(3, half);
        term.sort_unstable();
        let term = [term[0], term[1], term[2]];
        if !cubic.contains(&term) {
            cubic.push(term);
        }
    }
    rng.distinct(DENSE_SHIFTS, 1 << DENSE_QUBITS)
        .into_iter()
        .map(|shift| ShiftProgram {
            shift: shift as u64,
            source: hidden_shift_qasm(DENSE_QUBITS, shift as u64, &cubic),
        })
        .collect()
}

/// `clifford_hs64`: an endless stream of all-distinct 64-bit shifts of the
/// inner-product bent function (H, the shift's X, CZ pairs).
#[derive(Debug)]
pub struct CliffordStream {
    rng: Rng,
    seen: HashSet<u64>,
}

impl CliffordStream {
    pub fn new(seed: u64) -> Self {
        CliffordStream {
            rng: Rng::stream(seed, 2),
            seen: HashSet::new(),
        }
    }

    pub fn next_program(&mut self) -> ShiftProgram {
        loop {
            let shift = self.rng.next_u64();
            if self.seen.insert(shift) {
                return ShiftProgram {
                    shift,
                    source: hidden_shift_qasm(CLIFFORD_QUBITS, shift, &[]),
                };
            }
        }
    }
}

/// One `eq5_compile` specification.
#[derive(Debug, Clone, PartialEq)]
pub struct PermSpec {
    pub name: String,
    pub permutation: Permutation,
}

impl PermSpec {
    /// The spec's family: `hwb4` to `hwb7` each on its own, and the random
    /// permutations by size (`rand4`, `rand5`, `rand6`). Unlike a single
    /// random spec, a family is the same for every seed.
    pub fn family(&self) -> &str {
        self.name.split('_').next().unwrap_or(&self.name)
    }
}

/// `eq5_compile`: hwb4–hwb7 and [`RANDOM_PERMS_PER_SIZE`] seeded random
/// permutations on each of 4, 5 and 6 variables, in a fixed cycle order.
pub fn eq5_specs(seed: u64) -> Vec<PermSpec> {
    let mut specs: Vec<PermSpec> = (4..=7)
        .map(|n| PermSpec {
            name: format!("hwb{n}"),
            permutation: hwb_permutation(n),
        })
        .collect();
    let mut rng = Rng::stream(seed, 3);
    for vars in 4..=6 {
        for index in 0..RANDOM_PERMS_PER_SIZE {
            let mut map: Vec<usize> = (0..1usize << vars).collect();
            for i in (1..map.len()).rev() {
                map.swap(i, rng.below(i + 1));
            }
            specs.push(PermSpec {
                name: format!("rand{vars}_{index}"),
                permutation: Permutation::new(map).expect("a shuffle is a permutation"),
            });
        }
    }
    specs
}

/// The sampling seed of job `index` (distinct per job).
pub fn job_seed(seed: u64, index: usize) -> u64 {
    Rng::stream(seed, 4 + index as u64).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        assert_eq!(dense_programs(7), dense_programs(7));
        assert_eq!(eq5_specs(7), eq5_specs(7));
        let (mut a, mut b) = (CliffordStream::new(7), CliffordStream::new(7));
        for _ in 0..50 {
            assert_eq!(a.next_program(), b.next_program());
        }
        assert_eq!(job_seed(7, 3), job_seed(7, 3));
    }

    #[test]
    fn a_different_seed_gives_different_inputs() {
        assert_ne!(dense_programs(7), dense_programs(8));
        assert_ne!(eq5_specs(7), eq5_specs(8));
        assert_ne!(
            CliffordStream::new(7).next_program(),
            CliffordStream::new(8).next_program()
        );
        assert_ne!(job_seed(7, 3), job_seed(8, 3));
    }

    #[test]
    fn inputs_have_the_intended_shape() {
        let dense = dense_programs(1);
        assert_eq!(dense.len(), DENSE_SHIFTS);
        let shifts: HashSet<u64> = dense.iter().map(|p| p.shift).collect();
        assert_eq!(shifts.len(), DENSE_SHIFTS, "shifts are distinct");
        assert!(dense.iter().all(|p| p.shift < 1 << DENSE_QUBITS));
        assert_eq!(
            dense[0].source.matches("ccx").count(),
            2 * DENSE_CUBIC_TERMS
        );
        let mut stream = CliffordStream::new(1);
        let programs: Vec<ShiftProgram> = (0..200).map(|_| stream.next_program()).collect();
        let distinct: HashSet<&str> = programs.iter().map(|p| p.source.as_str()).collect();
        assert_eq!(
            distinct.len(),
            programs.len(),
            "every Clifford job is distinct"
        );
        assert!(
            programs.iter().any(|p| p.shift >> 63 == 1),
            "shifts use all 64 bits"
        );
        let specs = eq5_specs(1);
        assert_eq!(specs.len(), 4 + 3 * RANDOM_PERMS_PER_SIZE);
    }
}
