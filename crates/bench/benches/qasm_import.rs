//! Criterion benchmark of the OpenQASM 2.0 importer (`qasm::from_qasm`),
//! the front door every text program takes into the job service.
//!
//! Three inputs cover the importer's paths:
//!
//! - `clifford_hs64`: a 64-qubit Clifford hidden shift (H layers, the
//!   shift's X gates, CZ pairs), the shape of every job in the
//!   `clifford_hs64` service workload — short statements, one or two
//!   indexed qubits each;
//! - `cubic_hs20`: a 20-qubit Maiorana–McFarland hidden shift whose cubic
//!   part is written `h; ccx; h`, the `dense_hs20` shape (three-qubit
//!   applications);
//! - `gate_defs`: a Cuccaro ripple-carry adder built from user `gate`
//!   definitions with parameterized bodies, the path that expands
//!   definitions inline and evaluates angle expressions per call.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qdaflow::quantum::qasm::from_qasm;
use std::fmt::Write as _;
use std::time::Duration;

/// Appends one line to an OpenQASM program under construction.
macro_rules! emit {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// The Fig. 3 hidden-shift program for `f(x, y) = x·y ⊕ h(y)` on
/// `num_qubits` qubits, with each cubic monomial of `h` written as a CCZ
/// (`h; ccx; h`).
fn hidden_shift_qasm(num_qubits: usize, shift: u64, cubic: &[[usize; 3]]) -> String {
    let half = num_qubits / 2;
    let mut out = String::new();
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

/// A `width`-bit Cuccaro ripple-carry adder written with user `gate`
/// definitions (`maj`, `uma`) and a parameterized phase kickback family
/// whose bodies call each other, so every application expands nested
/// definitions and evaluates `theta` expressions.
fn gate_definition_qasm(width: usize) -> String {
    let mut out = String::new();
    emit!(out, "OPENQASM 2.0;\ninclude \"qelib1.inc\";");
    emit!(out, "gate maj a,b,c {{ cx c,b; cx c,a; ccx a,b,c; }}");
    emit!(out, "gate uma a,b,c {{ ccx a,b,c; cx c,a; cx a,b; }}");
    emit!(out, "gate kick0(theta) a,b {{ cu1(theta) a,b; }}");
    for level in 1..8 {
        emit!(
            out,
            "gate kick{level}(theta) a,b {{ kick{}(theta/2) a,b; crz(-theta/4) b,a; }}",
            level - 1
        );
    }
    emit!(
        out,
        "qreg cin[1];\nqreg a[{width}];\nqreg b[{width}];\nqreg cout[1];"
    );
    emit!(out, "creg ans[{}];", width + 1);
    emit!(out, "x a;\nh b[0];");
    emit!(out, "maj cin[0],b[0],a[0];");
    for i in 1..width {
        emit!(out, "maj a[{}],b[{i}],a[{i}];", i - 1);
    }
    emit!(out, "cx a[{}],cout[0];", width - 1);
    for i in (1..width).rev() {
        emit!(out, "uma a[{}],b[{i}],a[{i}];", i - 1);
    }
    emit!(out, "uma cin[0],b[0],a[0];");
    for i in 0..width {
        emit!(out, "kick{}(pi/{}) a[{i}],b[{i}];", i % 8, i + 1);
    }
    emit!(out, "measure b[0] -> ans[0];");
    out
}

fn bench_qasm_import(c: &mut Criterion) {
    let mut group = c.benchmark_group("qasm_import");
    group
        .sample_size(200)
        .measurement_time(Duration::from_secs(3));
    let shift = 0x9e37_79b9_7f4a_7c15_u64;
    let cubic = [[0, 1, 2], [3, 5, 7], [2, 6, 9]];
    let cubic_shift = 0b1011_0010_1100_0101_1001_u64;
    let inputs = [
        (
            "clifford_hs64",
            hidden_shift_qasm(64, shift, &[]),
            3 * 64 + 2 * shift.count_ones() as usize + 64,
        ),
        (
            "cubic_hs20",
            hidden_shift_qasm(20, cubic_shift, &cubic),
            3 * 20 + 2 * cubic_shift.count_ones() as usize + 2 * (10 + 3 * 3),
        ),
        (
            "gate_defs",
            gate_definition_qasm(16),
            // `x a`, `h b[0]`, 16 three-gate `maj` and 16 `uma`, one `cx`,
            // and `kick{l}` = 5 gates of `cu1` plus 4 of `crz` per level.
            16 + 1 + 2 * 16 * 3 + 1 + (0..16).map(|i| 5 + 4 * (i % 8)).sum::<usize>(),
        ),
    ];
    for (name, source, gates) in &inputs {
        let circuit = from_qasm(source).expect("the bench inputs are valid OpenQASM");
        assert_eq!(circuit.num_gates(), *gates, "{name} imports in full");
        group.bench_function(name, |b| b.iter(|| from_qasm(black_box(source))));
    }
    group.finish();
}

criterion_group!(benches, bench_qasm_import);
criterion_main!(benches);
