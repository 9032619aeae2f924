//! Differential property tests: the `ExecPlan` executor under its fused,
//! forced-threads, unfused and auto configurations against the naive
//! [`DenseReference`] oracle.
//!
//! Random 2–10 qubit Clifford+T circuits (with Toffoli, MCX, MCZ, SWAP and
//! π/4-step rotations mixed in) are executed on both simulators and compared
//! amplitude-for-amplitude. The two implementations share no code — the
//! production path compiles an `ExecPlan` and sweeps split re/im blocks,
//! the reference accumulates columns out of place — so agreement on every
//! random circuit is strong evidence that neither is wrong.
//! `plan_differential.rs` holds the plan-specific suites (block sizes, the
//! worker pool, record-by-record replay, bit-identity, noisy replay).

mod common;

use common::{assert_matches_reference, random_circuit, TOLERANCE};
use proptest::prelude::*;
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::reference::DenseReference;
use qdaflow_quantum::Statevector;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Suite 1: the fused sequential path is amplitude-exact against the
    /// dense reference oracle.
    #[test]
    fn fused_kernel_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        assert_matches_reference(&circuit, &ExecConfig::sequential());
    }

    /// Suite 2: the multi-threaded path (threading forced on even for tiny
    /// registers) is amplitude-exact against the oracle.
    #[test]
    fn parallel_kernel_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let config = ExecConfig::sequential()
            .with_threads(4)
            .with_parallel_threshold(2);
        assert_matches_reference(&circuit, &config);
    }

    /// Suite 3: with the fusion pass off (one op per gate, 4×4 batching
    /// still on) the plan agrees with the oracle too, isolating fusion-pass
    /// bugs from kernel bugs.
    #[test]
    fn lowered_kernel_matches_dense_reference(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        assert_matches_reference(&circuit, &ExecConfig::sequential().with_fusion(false));
    }

    /// Suite 4: unitarity — the fused execution under the auto
    /// configuration with threading forced preserves the norm on every
    /// random circuit, and so does the reference.
    #[test]
    fn fused_execution_preserves_norm(seed in any::<u64>()) {
        let circuit = random_circuit(seed);
        let config = ExecConfig::default()
            .with_threads(4)
            .with_parallel_threshold(2);
        let state = Statevector::run(&circuit, &config).expect("small register");
        prop_assert!((state.norm() - 1.0).abs() < TOLERANCE);
        let reference = DenseReference::from_circuit(&circuit).expect("small register");
        prop_assert!((reference.norm() - 1.0).abs() < TOLERANCE);
    }
}
