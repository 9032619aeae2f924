//! Integration tests of the pass-manager pipeline API: the parsed pipeline
//! of equation (5) is bit-identical to the canned one-call flow, invalid
//! pipelines fail at build time with typed errors, and the engine's oracle
//! compilation (now routed through pipelines) still verifies.

use proptest::prelude::*;
use qdaflow::flow;
use qdaflow::pipeline::passes::{PhaseOracle, Tpar};
use qdaflow::prelude::*;
use qdaflow::reversible::synthesis::SynthesisMethod;

/// Equation (5) of the paper, with a passthrough `revgen` taking the
/// specification at run time.
const EQ5: &str = "revgen; tbs; revsimp; rptm; tpar; ps";

fn fig5_permutation() -> Permutation {
    Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap()
}

#[test]
fn parsed_equation_5_equals_the_canned_flow_on_fig5() {
    let pi = fig5_permutation();
    let pipeline = Pipeline::parse(EQ5).unwrap();
    let report = pipeline.run(pi.clone().into()).unwrap();
    let canned = flow::compile_permutation(&pi, SynthesisMethod::TransformationBased).unwrap();

    // The final circuit is bit-identical…
    assert_eq!(report.final_quantum().unwrap(), &canned.circuit);
    // …and so is every recorded metric.
    assert_eq!(report.gates_after("tbs").unwrap(), canned.reversible_gates);
    assert_eq!(
        report.gates_after("revsimp").unwrap(),
        canned.simplified_gates
    );
    assert_eq!(report.resources_after("rptm").unwrap(), &canned.mapped);
    assert_eq!(report.resources_after("tpar").unwrap(), &canned.optimized);
    assert_eq!(report.final_resources().unwrap(), canned.optimized);
}

#[test]
fn invalid_pipelines_fail_at_build_time_with_typed_errors() {
    // Unknown pass name.
    assert!(matches!(
        Pipeline::parse("revgen; tbs; frobnicate"),
        Err(FlowError::UnknownPass { name }) if name == "frobnicate"
    ));
    // tpar cannot run on a reversible circuit.
    assert!(matches!(
        Pipeline::parse("revgen; tbs; tpar; rptm"),
        Err(FlowError::InvalidStageOrder { position: 2, .. })
    ));
    // rptm cannot run on a specification.
    assert!(matches!(
        Pipeline::parse("revgen --hwb 4; rptm"),
        Err(FlowError::InvalidStageOrder { position: 1, .. })
    ));
    // Synthesizing twice is invalid: tbs does not accept a reversible circuit.
    assert!(matches!(
        Pipeline::parse("revgen; tbs; tbs"),
        Err(FlowError::InvalidStageOrder { .. })
    ));
    // Malformed pass arguments are typed, too.
    assert!(matches!(
        Pipeline::parse("revgen --hwb x; tbs"),
        Err(FlowError::InvalidPassArguments { .. })
    ));
}

#[test]
fn shell_flow_command_matches_the_canned_flow() {
    let mut shell = Shell::new();
    shell
        .run_script("flow \"revgen --hwb 4; tbs; revsimp; rptm; tpar; ps\"")
        .unwrap();
    let canned = flow::compile_permutation(
        &qdaflow::boolfn::hwb::hwb_permutation(4),
        SynthesisMethod::TransformationBased,
    )
    .unwrap();
    assert_eq!(shell.store().quantum().unwrap(), &canned.circuit);
}

#[test]
fn phase_function_flow_matches_its_pipeline() {
    let f = Expr::parse("(a & b) ^ (c & d)")
        .unwrap()
        .truth_table(4)
        .unwrap();
    let canned = flow::compile_phase_function(&f).unwrap();
    let report = Pipeline::builder()
        .then(PhaseOracle::decomposed())
        .then(Tpar)
        .build()
        .unwrap()
        .run(f.clone().into())
        .unwrap();
    assert_eq!(report.final_quantum().unwrap(), &canned.circuit);
    assert_eq!(report.final_resources().unwrap(), canned.optimized);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property of the redesign: for random permutations and
    /// both synthesis routes, the *parsed* shell-syntax pipeline produces
    /// circuits and reports bit-identical to `flow::compile_permutation`,
    /// and the shell leaves the same circuits in its store whether the
    /// stages are typed as separate commands or as one `flow` script.
    #[test]
    fn parsed_pipeline_is_bit_identical_to_the_canned_flow(
        num_vars in 2usize..=4,
        seed in any::<u64>(),
        dbs in any::<bool>(),
    ) {
        let pi = Permutation::random_seeded(num_vars, seed);
        let (script, method) = if dbs {
            ("revgen; dbs; revsimp; rptm; tpar; ps", SynthesisMethod::DecompositionBased)
        } else {
            (EQ5, SynthesisMethod::TransformationBased)
        };
        let report = Pipeline::parse(script).unwrap().run(pi.clone().into()).unwrap();
        let canned = flow::compile_permutation(&pi, method).unwrap();
        prop_assert_eq!(report.final_quantum().unwrap(), &canned.circuit);
        let images: Vec<String> = pi.as_slice().iter().map(usize::to_string).collect();
        let stages = format!(
            "revgen --perm {}; {}; revsimp; rptm; tpar",
            images.join(","),
            method.command_name()
        );
        let mut commands = Shell::new();
        commands.run_script(&stages).unwrap();
        let mut flowed = Shell::new();
        flowed.run_script(&format!("flow \"{stages}\"")).unwrap();
        for shell in [&commands, &flowed] {
            prop_assert_eq!(shell.store().reversible(), report.artifacts.reversible.as_ref());
            prop_assert_eq!(shell.store().quantum().unwrap(), &canned.circuit);
        }
        prop_assert_eq!(
            report.gates_after(method.command_name()).unwrap(),
            canned.reversible_gates
        );
        prop_assert_eq!(report.gates_after("revsimp").unwrap(), canned.simplified_gates);
        prop_assert_eq!(report.resources_after("rptm").unwrap(), &canned.mapped);
        prop_assert_eq!(report.resources_after("tpar").unwrap(), &canned.optimized);
    }

    /// Pipelines stay semantically correct: the final Clifford+T circuit
    /// realizes the input permutation (checked through the shared
    /// verification helper, which also exercises ancilla cleanliness).
    #[test]
    fn pipeline_circuits_verify_against_their_specification(
        num_vars in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let pi = Permutation::random_seeded(num_vars, seed);
        let report = Pipeline::parse(EQ5).unwrap().run(pi.clone().into()).unwrap();
        let reversible = report.artifacts.reversible.as_ref().unwrap();
        let quantum = report.final_quantum().unwrap();
        prop_assert!(qdaflow::mapping::verify::quantum_matches_reversible(
            quantum, reversible
        ).unwrap());
        for basis in 0..pi.len() {
            prop_assert_eq!(reversible.apply(basis), pi.apply(basis));
        }
    }
}
