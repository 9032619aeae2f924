//! Integration tests of the RevKit-style shell against the rest of the flow.

use qdaflow::mapping::verify::quantum_matches_reversible;
use qdaflow::prelude::*;

#[test]
fn paper_pipeline_produces_a_verified_clifford_t_circuit() {
    let mut shell = Shell::new();
    shell
        .run_script("revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c")
        .unwrap();
    let reversible = shell.store().reversible().unwrap().clone();
    let quantum = shell.store().quantum().unwrap().clone();
    assert!(quantum.is_clifford_t());
    assert!(quantum_matches_reversible(&quantum, &reversible).unwrap());
    // The reversible circuit still realizes the hwb specification after
    // simplification.
    let hwb = qdaflow::boolfn::hwb::hwb_permutation(4);
    assert!(qdaflow::reversible::simulation::realizes_permutation(
        &reversible,
        &hwb
    ));
}

#[test]
fn tpar_never_increases_the_t_count_in_shell_pipelines() {
    for script in [
        "revgen --hwb 4; tbs; rptm",
        "revgen --random 4 --seed 11; tbs; rptm",
        "revgen --perm \"0 2 3 5 7 1 4 6\"; dbs; rptm",
    ] {
        let mut shell = Shell::new();
        shell.run_script(script).unwrap();
        let before = shell.store().quantum().unwrap().t_count();
        shell.run_command("tpar").unwrap();
        let after = shell.store().quantum().unwrap().t_count();
        assert!(after <= before, "{script}: {before} -> {after}");
    }
}

#[test]
fn esop_pipeline_compiles_boolean_expressions() {
    let mut shell = Shell::new();
    let output = shell
        .run_script("revgen --expr \"(a & b) ^ (c & d)\"; esopbs; revsimp; rptm; tpar; ps -c")
        .unwrap();
    assert!(output.iter().any(|l| l.contains("[esopbs]")));
    let quantum = shell.store().quantum().unwrap();
    assert!(quantum.is_clifford_t());
    // The Bennett embedding uses 4 inputs + 1 output line.
    assert!(quantum.num_qubits() >= 5);
}

#[test]
fn shell_results_match_the_programmatic_flow() {
    // Compile the same permutation through the shell and through
    // flow::compile_permutation; the final T-counts must agree.
    let pi = Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap();
    let report = qdaflow::flow::compile_permutation(
        &pi,
        qdaflow::reversible::synthesis::SynthesisMethod::TransformationBased,
    )
    .unwrap();

    let mut shell = Shell::new();
    shell
        .run_script("revgen --perm \"0 2 3 5 7 1 4 6\"; tbs; revsimp; rptm; tpar")
        .unwrap();
    let shell_circuit = shell.store().quantum().unwrap();
    assert_eq!(shell_circuit.t_count(), report.optimized.t_count);
}

#[test]
fn qasm_written_by_the_shell_parses_back() {
    let mut shell = Shell::new();
    let output = shell.run_script("revgen --hwb 3; tbs; rptm; qasm").unwrap();
    let qasm_text: Vec<String> = output.into_iter().filter(|l| !l.starts_with('[')).collect();
    let parsed = qdaflow::quantum::qasm::from_qasm(&qasm_text.join("\n")).unwrap();
    assert_eq!(parsed.gates(), shell.store().quantum().unwrap().gates());
}
