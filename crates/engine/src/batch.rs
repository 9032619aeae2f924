//! The batch execution subsystem: deduplicated compilation plus parallel,
//! reproducible sampling for many jobs at once.
//!
//! A [`BatchJob`] is one workload — an [`OracleSpec`] plus a shot count, a
//! sampling seed and a simulation [`BackendChoice`] (dense, sparse,
//! stabilizer, or automatic). [`BatchEngine::run_batch`],
//! [`BatchEngine::try_run_batch`] and [`BatchEngine::run_job`] execute jobs
//! on one path:
//!
//! 1. jobs under [`BackendChoice::Auto`] are **resolved** first (as in
//!    [`BatchEngine::resolve_backends`]): the spec is compiled through the
//!    cache, censused ([`qdaflow_quantum::GateCensus`]) and routed by
//!    [`resolve_backend`] — so every key downstream names a concrete
//!    backend, never `auto`;
//! 2. every job is keyed by the canonical hash of its spec *and* resolved
//!    backend ([`BatchJob::cache_key`]) and **deduplicated** through the
//!    engine's [`OracleCache`], so `N` jobs over `k` distinct oracles cost
//!    `k` compilations (or fewer, when the cache is warm from a previous
//!    batch);
//! 3. the distinct programs are compiled and simulated **in parallel** over
//!    `std::thread::scope` workers (one simulated state — dense, sparse, or
//!    a stabilizer support sampler per the job's backend — per distinct
//!    program, shared by every job that uses it);
//! 4. each job samples its shots with the **shot-sharded** sampler
//!    ([`Statevector::sample_counts_sharded`] /
//!    [`SparseStatevector::sample_counts_sharded`] /
//!    [`StabilizerSampler::sample_counts_sharded`]) under its own seed.
//!
//! Results come back in job order and are fully reproducible: a job's
//! histogram depends only on `(spec, backend, shots, seed,
//! shot_shard_size)` — never on the thread count, the batch composition, or
//! the cache state. Auto resolution is reproducible too: it is a pure
//! function of the compiled circuit.

use crate::cache::{CompiledProgram, OracleCache, OracleSpec};
use crate::engine::{note_dispatch, resolve_backend, BackendChoice};
use crate::EngineError;
use qdaflow_pipeline::spec::{CanonicalHasher, SpecKey};
use qdaflow_quantum::backend::ExecutionResult;
use qdaflow_quantum::fusion::ExecConfig;
use qdaflow_quantum::{GateCensus, QuantumError, Statevector};
use qdaflow_sparse::SparseStatevector;
use qdaflow_stabilizer::{StabilizerSampler, StabilizerTableau};
use qdaflow_telemetry as telemetry;
use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

/// Renders a caught panic payload into the text carried by
/// [`EngineError::JobPanicked`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Runs `body` with panics converted into [`EngineError::JobPanicked`] —
/// the per-job fault boundary of the batch engine and the job service.
pub(crate) fn catch_job_panic<T>(
    body: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    panic::catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(EngineError::JobPanicked {
            message: panic_message(payload),
        })
    })
}

/// One batch workload: compile `spec`, execute it on the chosen simulation
/// backend, and sample `shots` measurements under `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// The oracle to compile and execute.
    pub spec: OracleSpec,
    /// Number of measurement shots.
    pub shots: usize,
    /// Seed of the job's sharded sampling streams.
    pub seed: u64,
    /// Which exact simulation engine executes the compiled oracle.
    pub backend: BackendChoice,
}

impl BatchJob {
    /// Creates a job on the default (dense) simulation backend.
    pub fn new(spec: OracleSpec, shots: usize, seed: u64) -> Self {
        Self {
            spec,
            shots,
            seed,
            backend: BackendChoice::default(),
        }
    }

    /// Replaces the simulation backend of the job.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// The cache key of this job's compilation.
    ///
    /// Dense jobs use the spec's canonical key unchanged (so the batch path
    /// shares cache entries with [`OracleCache::get_or_compile`] and keys
    /// stay stable across releases); every other backend extends the digest
    /// with a backend tag, so the cache distinguishes which execution engine
    /// a program was compiled for. Compilation itself is
    /// backend-independent, so a mixed-backend workload over the same spec
    /// deliberately compiles (and caches) it once *per backend* — the cache
    /// records the execution-ready artifact per engine, trading one
    /// redundant compilation for unambiguous per-backend provenance.
    /// [`BackendChoice::Auto`] jobs are resolved to a concrete backend
    /// before keying on the batch path,
    /// so cache entries stay backend-exact; the defensive `backend:auto` tag
    /// only appears if an unresolved job is keyed directly.
    pub fn cache_key(&self) -> SpecKey {
        cache_key_on(&self.spec, self.backend)
    }

    /// The canonical identity digest of the whole job: the compilation
    /// cache key extended with the shot count, the sampling seed and the
    /// backend name. Two jobs with equal digests produce identical results
    /// under the same `shot_shard_size`, which is what makes the digest
    /// safe as the checkpoint key of the
    /// [`Journal`](crate::store::Journal): a resumed service replays a
    /// journaled result only onto an identical job.
    pub fn digest(&self) -> SpecKey {
        let key = self.cache_key();
        let mut hasher = CanonicalHasher::new();
        hasher.write_str("job");
        hasher.write_u64((key.0 >> 64) as u64);
        hasher.write_u64(key.0 as u64);
        hasher.write_u64(self.shots as u64);
        hasher.write_u64(self.seed);
        hasher.write_str(self.backend.as_str());
        hasher.finish()
    }
}

/// The cache key of compiling `spec` for `backend`; see
/// [`BatchJob::cache_key`].
fn cache_key_on(spec: &OracleSpec, backend: BackendChoice) -> SpecKey {
    let base = spec.cache_key();
    let tag = match backend {
        BackendChoice::Dense => return base,
        BackendChoice::Sparse => "backend:sparse",
        BackendChoice::Stabilizer => "backend:stabilizer",
        BackendChoice::Auto => "backend:auto",
    };
    let mut hasher = CanonicalHasher::new();
    hasher.write_u64((base.0 >> 64) as u64);
    hasher.write_u64(base.0 as u64);
    hasher.write_str(tag);
    hasher.finish()
}

/// The simulated output state of one distinct batch program, on whichever
/// engine its jobs selected.
#[derive(Debug)]
enum SimulatedState {
    Dense(Statevector),
    Sparse(SparseStatevector),
    /// The stabilizer path stores the enumerated support sampler rather
    /// than a tableau, so support-extraction errors surface at simulate
    /// time (in the fallible batch path) and per-job sampling stays
    /// infallible like the other backends.
    Stabilizer(StabilizerSampler),
}

impl SimulatedState {
    /// Samples a job's shots with the shot-sharded sampler and builds its
    /// [`ExecutionResult`]; all engines use the same `(seed, shard)` RNG
    /// scheme, so equal-seed jobs agree across backends.
    fn sample_job(
        &self,
        program: &CompiledProgram,
        shots: usize,
        seed: u64,
        config: &ExecConfig,
    ) -> ExecutionResult {
        let shards = shots.div_ceil(config.shot_shard_size.max(1)) as u64;
        let registry = telemetry::global_metrics();
        registry
            .counter(
                "qdaflow_sampling_shards_total",
                "Shot-sharded sampling shards executed.",
                &[],
            )
            .add(shards);
        registry
            .counter(
                "qdaflow_sampling_shots_total",
                "Shots drawn by the shot-sharded sampler.",
                &[],
            )
            .add(shots as u64);
        let _span = telemetry::span!("sampling", "sample {shots} shots ({shards} shards)");
        // The compiled program counted its resources once, at compile time.
        let resources = program.resources().clone();
        match self {
            Self::Dense(state) => {
                let histogram = state.sample_counts_sharded(seed, shots, config);
                // Borrowed, not consumed: the 2^n-entry histogram is freed
                // only after the counts are built. Freeing it first changed
                // where the allocator put the counts, so the worker's heap
                // was trimmed and refaulted on every job: dense 20-qubit
                // jobs ran ~10% slower with 16 MB less peak memory.
                ExecutionResult::with_resources(
                    resources,
                    shots,
                    histogram.iter().copied().enumerate(),
                )
            }
            Self::Sparse(state) => {
                let counts =
                    qdaflow_sparse::widen_counts(state.sample_counts_sharded(seed, shots, config));
                ExecutionResult::with_resources(resources, shots, counts)
            }
            Self::Stabilizer(sampler) => {
                let counts = sampler.sample_counts_sharded(seed, shots, config);
                ExecutionResult::with_resources(resources, shots, counts)
            }
        }
    }
}

/// The batch execution engine: an [`OracleCache`] plus an execution
/// configuration. The cache persists across [`BatchEngine::run_batch`]
/// calls, so a long-running service keeps amortizing compilations over its
/// whole lifetime.
#[derive(Debug, Default)]
pub struct BatchEngine {
    cache: OracleCache,
    config: ExecConfig,
}

impl BatchEngine {
    /// Creates an engine with an empty cache and the default execution
    /// configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an engine with an explicit execution configuration
    /// (`config.threads` bounds both the per-program simulation workers and
    /// the shot-sharded sampling workers; `config.shot_shard_size` is part
    /// of the sampling reproducibility contract).
    pub fn with_config(config: ExecConfig) -> Self {
        Self {
            cache: OracleCache::new(),
            config,
        }
    }

    /// Creates an engine over an existing cache (e.g. a disk-backed one
    /// built with [`OracleCache::with_disk`]).
    pub fn with_cache(cache: OracleCache, config: ExecConfig) -> Self {
        Self { cache, config }
    }

    /// The execution configuration in use.
    pub fn exec_config(&self) -> ExecConfig {
        self.config
    }

    /// Replaces the execution configuration. Does not invalidate the cache —
    /// compiled circuits are configuration-independent.
    pub fn set_exec_config(&mut self, config: ExecConfig) {
        self.config = config;
    }

    /// The engine's compiled-oracle cache (for statistics or pre-warming).
    pub fn cache(&self) -> &OracleCache {
        &self.cache
    }

    /// Executes a batch of jobs, all or nothing: the fault-isolated
    /// [`BatchEngine::try_run_batch`] path with its outcomes collapsed into
    /// one `Result`. Results are returned in job order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZeroShots`] for the first job without shots,
    /// checked before anything compiles. Otherwise returns the first failing
    /// job's error in job order, including [`EngineError::JobPanicked`] for
    /// a job whose compilation panicked. On error no partial results are
    /// returned.
    pub fn run_batch(&self, jobs: &[BatchJob]) -> Result<Vec<ExecutionResult>, EngineError> {
        if let Some(index) = jobs.iter().position(|job| job.shots == 0) {
            return Err(EngineError::ZeroShots { index });
        }
        self.execute(jobs, &self.config).into_iter().collect()
    }

    /// Resolves every job's backend to a concrete choice: jobs already on a
    /// concrete backend pass through unchanged, [`BackendChoice::Auto`] jobs
    /// are compiled through the cache (under the raw spec key, shared with
    /// dense callers), censused, and routed by [`resolve_backend`]. The
    /// returned vector is in job order and never contains `Auto`; the shell
    /// logs it per job. Execution performs the same resolution and reuses
    /// the compilation through the cache.
    ///
    /// # Errors
    ///
    /// Returns the first compilation error among the `Auto` jobs.
    pub fn resolve_backends(&self, jobs: &[BatchJob]) -> Result<Vec<BackendChoice>, EngineError> {
        jobs.iter()
            .map(|job| match job.backend {
                BackendChoice::Auto => {
                    let program = self.cache.get_or_compile(&job.spec)?;
                    Ok(resolve_backend(&GateCensus::of(program.circuit())))
                }
                concrete => Ok(concrete),
            })
            .collect()
    }

    /// Executes a batch with **per-job fault isolation**: every job gets
    /// its own `Result`, in job order. A job whose compilation or
    /// simulation fails — including one that *panics* (converted to
    /// [`EngineError::JobPanicked`] at the worker boundary) — fails alone;
    /// its siblings complete normally. Duplicate jobs over a failed spec
    /// share the (cloned) error, exactly as they would have shared the
    /// compiled program. [`BatchEngine::run_batch`] and
    /// [`BatchEngine::run_job`] run on the same path.
    pub fn try_run_batch(&self, jobs: &[BatchJob]) -> Vec<Result<ExecutionResult, EngineError>> {
        self.execute(jobs, &self.config)
    }

    /// Executes one job (the [`JobService`](crate::JobService) worker
    /// path) under an explicit execution configuration: resolution, cached
    /// compilation, simulation and sampling, with panics converted to
    /// [`EngineError::JobPanicked`].
    ///
    /// # Errors
    ///
    /// Any compilation, simulation or validation failure of the job,
    /// including [`EngineError::ZeroShots`] and panics.
    pub fn run_job(
        &self,
        job: &BatchJob,
        config: &ExecConfig,
    ) -> Result<ExecutionResult, EngineError> {
        self.execute(std::slice::from_ref(job), config)
            .pop()
            .expect("one job in, one outcome out")
    }

    /// The one execution path behind every public entry point: per-job
    /// backend resolution, deduplication by resolved cache key in
    /// first-appearance order, parallel compilation and simulation of the
    /// distinct programs, and shot-sharded sampling per job. Every job gets
    /// its own outcome, in job order.
    fn execute(
        &self,
        jobs: &[BatchJob],
        config: &ExecConfig,
    ) -> Vec<Result<ExecutionResult, EngineError>> {
        let _span = telemetry::span!("batch", "run_batch: {} jobs", jobs.len());
        // Per-job backend resolution, each under its own panic boundary: a
        // spec whose *resolution* compile panics fails only its own job. The
        // program an Auto resolution compiled under the raw spec key is
        // aliased into the backend-tagged slot, so resolution and execution
        // share one compilation per distinct spec.
        let resolved: Vec<Result<(SpecKey, BackendChoice), EngineError>> = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                if job.shots == 0 {
                    return Err(EngineError::ZeroShots { index });
                }
                catch_job_panic(|| {
                    let backend = match job.backend {
                        BackendChoice::Auto => {
                            let program = self.cache.get_or_compile(&job.spec)?;
                            let backend = resolve_backend(&GateCensus::of(program.circuit()));
                            self.cache
                                .alias_keyed(cache_key_on(&job.spec, backend), &program);
                            backend
                        }
                        explicit => {
                            note_dispatch(explicit);
                            explicit
                        }
                    };
                    Ok((cache_key_on(&job.spec, backend), backend))
                })
            })
            .collect();
        // Deduplicate by resolved key in first-appearance order, so work
        // distribution is deterministic.
        let mut seen = HashSet::with_capacity(jobs.len());
        let mut distinct: Vec<(SpecKey, &OracleSpec, BackendChoice)> = Vec::new();
        for (job, outcome) in jobs.iter().zip(&resolved) {
            if let Ok((key, backend)) = outcome {
                if seen.insert(*key) {
                    distinct.push((*key, &job.spec, *backend));
                }
            }
        }
        let executed = self.compile_and_simulate(&distinct, config);
        jobs.iter()
            .zip(resolved)
            .map(|(job, outcome)| match &executed[&outcome?.0] {
                Ok((program, state)) => {
                    catch_job_panic(|| Ok(state.sample_job(program, job.shots, job.seed, config)))
                }
                Err(error) => Err(error.clone()),
            })
            .collect()
    }

    /// Compiles (through the cache) and simulates every distinct spec on its
    /// selected backend, in parallel over up to `config.threads` scoped
    /// workers. **Fault-isolated**: every spec gets its own `Result`, and a
    /// worker that panics mid-job (the `catch_unwind` boundary wraps each
    /// job individually) poisons only that job's slot with
    /// [`EngineError::JobPanicked`] — siblings on the same and other
    /// workers run to completion.
    #[allow(clippy::type_complexity)]
    fn compile_and_simulate(
        &self,
        distinct: &[(SpecKey, &OracleSpec, BackendChoice)],
        config: &ExecConfig,
    ) -> HashMap<SpecKey, Result<(Arc<CompiledProgram>, SimulatedState), EngineError>> {
        let workers = config.threads.max(1).min(distinct.len().max(1));
        // Avoid thread oversubscription: the per-simulation thread budget is
        // the config's, divided by the batch workers running concurrently.
        let simulate_config = config.with_threads((config.threads / workers).max(1));
        // Parallel compiles run on scoped worker threads: capture the batch
        // span here so each per-spec span stays parented under it.
        let trace_parent = telemetry::current_span();
        let run_one = |key: SpecKey,
                       spec: &OracleSpec,
                       backend: BackendChoice|
         -> Result<(Arc<CompiledProgram>, SimulatedState), EngineError> {
            catch_job_panic(|| {
                let _span = if telemetry::enabled() {
                    telemetry::span_with_parent(
                        "dispatch",
                        format!("compile+simulate on {backend}"),
                        trace_parent,
                    )
                } else {
                    telemetry::SpanGuard::disabled()
                };
                let program = self.cache.get_or_compile_keyed(key, spec)?;
                let state = match backend {
                    BackendChoice::Dense => SimulatedState::Dense(Statevector::run(
                        program.circuit(),
                        &simulate_config,
                    )?),
                    BackendChoice::Sparse => {
                        SimulatedState::Sparse(SparseStatevector::from_circuit(program.circuit())?)
                    }
                    BackendChoice::Stabilizer => {
                        let tableau = StabilizerTableau::from_circuit(program.circuit())
                            .map_err(QuantumError::from)?;
                        SimulatedState::Stabilizer(tableau.sampler().map_err(QuantumError::from)?)
                    }
                    // execute resolves every Auto job before keying; if this
                    // invariant ever breaks it is a typed error, not a
                    // process abort.
                    BackendChoice::Auto => return Err(EngineError::AutoUnresolved),
                };
                Ok((program, state))
            })
        };
        let mut outcomes: Vec<Option<Result<_, EngineError>>> = if workers <= 1 {
            distinct
                .iter()
                .map(|&(key, spec, backend)| Some(run_one(key, spec, backend)))
                .collect()
        } else {
            let mut slots: Vec<Option<Result<_, EngineError>>> =
                (0..distinct.len()).map(|_| None).collect();
            thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for worker in 0..workers {
                    let run_one = &run_one;
                    handles.push(scope.spawn(move || {
                        let mut local = Vec::new();
                        let mut index = worker;
                        while index < distinct.len() {
                            let (key, spec, backend) = distinct[index];
                            local.push((index, run_one(key, spec, backend)));
                            index += workers;
                        }
                        local
                    }));
                }
                for handle in handles {
                    // Individual jobs are panic-isolated inside `run_one`,
                    // so a worker can only fail to join on a double panic
                    // (e.g. a panicking Drop of a panic payload). Even
                    // then: the worker's jobs become typed per-job errors —
                    // never a crash of the whole batch.
                    if let Ok(local) = handle.join() {
                        for (index, outcome) in local {
                            slots[index] = Some(outcome);
                        }
                    }
                }
            });
            slots
        };
        distinct
            .iter()
            .zip(outcomes.iter_mut())
            .map(|(&(key, _, _), outcome)| {
                let outcome = outcome.take().unwrap_or_else(|| {
                    Err(EngineError::JobPanicked {
                        message: "batch worker terminated before reporting its jobs".to_owned(),
                    })
                });
                (key, outcome)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SynthesisChoice;
    use qdaflow_boolfn::{Permutation, TruthTable};
    use qdaflow_quantum::resource::ResourceCounts;

    /// The Fig. 4 hidden-shift program at `n` qubits as pure-Clifford QASM:
    /// the bent function f(x) = Σ x_{2i}·x_{2i+1} is a layer of CZ pairs
    /// (and is self-dual, so the same layer serves as U_f and U_f̃), the
    /// shifted oracle is X_s·U_f·X_s, and the ideal output is exactly |s⟩.
    fn clifford_hidden_shift_qasm(n: usize, shift: usize) -> String {
        use std::fmt::Write as _;
        let mut source = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
        writeln!(source, "qreg q[{n}];").unwrap();
        let h_layer = |source: &mut String| {
            for q in 0..n {
                writeln!(source, "h q[{q}];").unwrap();
            }
        };
        let shift_layer = |source: &mut String| {
            for q in 0..n.min(usize::BITS as usize) {
                if (shift >> q) & 1 == 1 {
                    writeln!(source, "x q[{q}];").unwrap();
                }
            }
        };
        let oracle = |source: &mut String| {
            for i in 0..n / 2 {
                writeln!(source, "cz q[{}],q[{}];", 2 * i, 2 * i + 1).unwrap();
            }
        };
        h_layer(&mut source);
        shift_layer(&mut source);
        oracle(&mut source);
        shift_layer(&mut source);
        h_layer(&mut source);
        oracle(&mut source);
        h_layer(&mut source);
        source
    }

    fn perm_job(images: Vec<usize>, shots: usize, seed: u64) -> BatchJob {
        BatchJob::new(
            OracleSpec::permutation(
                Permutation::new(images).unwrap(),
                SynthesisChoice::default(),
            ),
            shots,
            seed,
        )
    }

    #[test]
    fn duplicate_jobs_compile_once() {
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 64, 1),
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 64, 2),
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 128, 3),
            perm_job(vec![1, 0, 3, 2], 64, 4),
        ];
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results.len(), 4);
        let stats = engine.cache().stats();
        assert_eq!(stats.misses, 2, "two distinct oracles in the batch");
        assert_eq!(stats.entries, 2);
        // A second batch over the same oracles is all cache hits.
        engine.run_batch(&jobs).unwrap();
        assert_eq!(engine.cache().stats().misses, 2);
        assert!(engine.cache().stats().hits >= 2);
    }

    #[test]
    fn results_arrive_in_job_order_and_with_the_right_shots() {
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![1, 0, 3, 2], 10, 1),
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 20, 1),
            perm_job(vec![1, 0, 3, 2], 30, 1),
        ];
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(
            results.iter().map(|r| r.shots).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(results[0].num_qubits, results[2].num_qubits);
        // All probability mass of a permutation oracle on |0…0⟩ sits on π(0).
        assert_eq!(results[0].most_likely(), Some((1, 1.0)));
    }

    #[test]
    fn batch_results_are_thread_count_invariant() {
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 2000, 11),
            BatchJob::new(
                OracleSpec::phase_function(
                    TruthTable::from_bits(3, (0..8).map(|x| x % 3 == 0)).unwrap(),
                ),
                1500,
                13,
            ),
        ];
        let config = ExecConfig::sequential().with_shot_shard_size(128);
        let sequential = BatchEngine::with_config(config).run_batch(&jobs).unwrap();
        for threads in [2usize, 4, 8] {
            let threaded = BatchEngine::with_config(config.with_threads(threads))
                .run_batch(&jobs)
                .unwrap();
            assert_eq!(sequential, threaded, "threads={threads}");
        }
    }

    #[test]
    fn seeds_isolate_jobs_over_the_same_oracle() {
        let engine = BatchEngine::new();
        // A phase oracle preceded by nothing is deterministic, so use a
        // function with spread mass: sample the uniform state by compiling a
        // phase oracle and sampling — histograms over a deterministic state
        // are equal regardless of seed; instead check that equal seeds give
        // equal results and that the job seed (not position) keys sampling.
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 500, 42),
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 500, 42),
        ];
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine = BatchEngine::new();
        assert!(engine.run_batch(&[]).unwrap().is_empty());
        assert_eq!(engine.cache().stats().entries, 0);
    }

    #[test]
    fn cache_keys_distinguish_backend_choice() {
        let dense = perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 64, 1);
        let sparse = dense.clone().with_backend(BackendChoice::Sparse);
        assert_ne!(dense.cache_key(), sparse.cache_key());
        // The dense job key stays the raw spec key, so the batch path keeps
        // sharing cache entries with direct `get_or_compile` callers.
        assert_eq!(dense.cache_key(), dense.spec.cache_key());
        // A mixed batch compiles (and caches) the oracle once per backend.
        let engine = BatchEngine::new();
        engine.run_batch(&[dense, sparse]).unwrap();
        let stats = engine.cache().stats();
        assert_eq!((stats.misses, stats.entries), (2, 2));
    }

    #[test]
    fn sparse_jobs_match_dense_jobs_shot_for_shot() {
        // Unfused sequential execution makes the two engines' amplitudes
        // (and therefore their sampling prefix sums) bit-identical, so
        // equal-seed jobs must produce the *same* histogram.
        let config = ExecConfig::baseline().with_shot_shard_size(128);
        let engine = BatchEngine::with_config(config);
        let jobs: Vec<BatchJob> = [
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 2000, 11),
            BatchJob::new(
                OracleSpec::phase_function(
                    TruthTable::from_bits(3, (0..8).map(|x| x % 3 == 0)).unwrap(),
                ),
                1500,
                13,
            ),
        ]
        .into_iter()
        .flat_map(|job| [job.clone(), job.with_backend(BackendChoice::Sparse)])
        .collect();
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results[0], results[1], "permutation oracle");
        assert_eq!(results[2], results[3], "phase oracle");
    }

    #[test]
    fn stabilizer_jobs_match_dense_jobs_shot_for_shot() {
        // A permutation oracle synthesized into Clifford+T is not Clifford,
        // but a pure phase-function oracle over Mcz(≤2)/Z gates can be; use
        // a parity-ish function whose compiled circuit is all-Clifford. The
        // linear function x0^x1 compiles to Z gates only.
        let config = ExecConfig::baseline().with_shot_shard_size(128);
        let engine = BatchEngine::with_config(config);
        let job = BatchJob::new(
            OracleSpec::phase_function(
                TruthTable::from_bits(2, [false, true, true, false]).unwrap(),
            ),
            2000,
            11,
        );
        let jobs = vec![job.clone(), job.with_backend(BackendChoice::Stabilizer)];
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn stabilizer_jobs_run_clifford_circuits_beyond_every_amplitude_ceiling() {
        // A 100-qubit Clifford program through the batch engine: both
        // amplitude engines are representationally incapable of this.
        let source = clifford_hidden_shift_qasm(100, 0b1001011);
        let job =
            BatchJob::new(OracleSpec::qasm(source), 512, 5).with_backend(BackendChoice::Stabilizer);
        let engine = BatchEngine::new();
        let started = std::time::Instant::now();
        let results = engine.run_batch(&[job]).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "100q Clifford batch took {:?}",
            started.elapsed()
        );
        assert_eq!(results[0].most_likely(), Some((0b1001011, 1.0)));
    }

    #[test]
    fn auto_jobs_resolve_to_the_backend_the_census_predicts() {
        // The acceptance triple: an H-heavy+T circuit (dense), a
        // permutation oracle whose Toffolis map to T gates (sparse), and a
        // pure-Clifford circuit (stabilizer).
        let dense_spec = OracleSpec::qasm(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nh q[1];\nh q[2];\nt q[0];\n",
        );
        let sparse_spec = OracleSpec::permutation(
            Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap(),
            SynthesisChoice::default(),
        );
        let clifford_spec = OracleSpec::qasm(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncz q[1],q[2];\n",
        );
        let jobs = vec![
            BatchJob::new(dense_spec, 100, 1).with_backend(BackendChoice::Auto),
            BatchJob::new(sparse_spec, 100, 2).with_backend(BackendChoice::Auto),
            BatchJob::new(clifford_spec, 100, 3).with_backend(BackendChoice::Auto),
        ];
        let engine = BatchEngine::new();
        let resolved = engine.resolve_backends(&jobs).unwrap();
        assert_eq!(
            resolved,
            vec![
                BackendChoice::Dense,
                BackendChoice::Sparse,
                BackendChoice::Stabilizer,
            ]
        );
        // The run goes through the same resolution, and the cache ends up
        // keyed by the *resolved* backend: the dense job under the raw spec
        // key, the others under their backend-tagged keys — no auto tag
        // anywhere.
        let results = engine.run_batch(&jobs).unwrap();
        assert_eq!(results.len(), 3);
        for (job, backend) in jobs.iter().zip(&resolved) {
            let resolved_key = job.clone().with_backend(*backend).cache_key();
            assert!(
                engine.cache().peek(resolved_key).is_some(),
                "missing cache entry for resolved backend {backend}"
            );
        }
        assert!(engine.cache().peek(jobs[2].cache_key()).is_none());
        // Resolution compiled each spec once under its raw key; execution
        // reuses those programs through tagged-slot aliases instead of
        // compiling again.
        assert_eq!(engine.cache().stats().misses, 3);
    }

    #[test]
    fn auto_resolution_and_execution_share_one_circuit() {
        let engine = BatchEngine::new();
        let job = BatchJob::new(
            OracleSpec::qasm(clifford_hidden_shift_qasm(8, 0b1001_0110)),
            16,
            1,
        )
        .with_backend(BackendChoice::Auto);
        engine.run_batch(std::slice::from_ref(&job)).unwrap();
        let raw = engine.cache().peek(job.spec.cache_key()).unwrap();
        let resolved = engine
            .cache()
            .peek(cache_key_on(&job.spec, BackendChoice::Stabilizer))
            .unwrap();
        assert!(!Arc::ptr_eq(&raw, &resolved));
        assert!(std::ptr::eq(raw.circuit(), resolved.circuit()));
    }

    #[test]
    fn batch_results_carry_the_programs_resource_counts() {
        let source = clifford_hidden_shift_qasm(6, 0b10_1101);
        let expected = ResourceCounts::of(&qdaflow_quantum::qasm::from_qasm(&source).unwrap());
        let jobs: Vec<BatchJob> = [
            BackendChoice::Dense,
            BackendChoice::Sparse,
            BackendChoice::Stabilizer,
        ]
        .into_iter()
        .map(|backend| BatchJob::new(OracleSpec::qasm(source.clone()), 32, 3).with_backend(backend))
        .collect();
        for result in BatchEngine::new().run_batch(&jobs).unwrap() {
            assert_eq!(result.resources, expected);
            assert_eq!(result.num_qubits, 6);
            assert_eq!(result.counts.values().sum::<usize>(), 32);
        }
    }

    #[test]
    fn auto_batches_match_their_resolved_concrete_batches() {
        let job = BatchJob::new(
            OracleSpec::qasm(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
            ),
            1500,
            21,
        );
        let engine = BatchEngine::new();
        let auto = engine
            .run_batch(&[job.clone().with_backend(BackendChoice::Auto)])
            .unwrap();
        let concrete = engine
            .run_batch(&[job.with_backend(BackendChoice::Stabilizer)])
            .unwrap();
        assert_eq!(auto, concrete);
    }

    #[test]
    fn sparse_batches_are_thread_count_invariant() {
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 2000, 11).with_backend(BackendChoice::Sparse),
            perm_job(vec![1, 0, 3, 2], 1000, 3).with_backend(BackendChoice::Sparse),
        ];
        let config = ExecConfig::sequential().with_shot_shard_size(128);
        let sequential = BatchEngine::with_config(config).run_batch(&jobs).unwrap();
        for threads in [2usize, 4, 8] {
            let threaded = BatchEngine::with_config(config.with_threads(threads))
                .run_batch(&jobs)
                .unwrap();
            assert_eq!(sequential, threaded, "threads={threads}");
        }
    }

    #[test]
    fn panicking_job_fails_alone_while_siblings_complete() {
        // Regression for the old worker join: a panic inside one job's
        // compilation used to abort the whole batch (and, through the
        // worker `.join().expect(...)`, the calling thread). Now the panic
        // is caught at the job boundary: the poisoned job carries a typed
        // `JobPanicked` and every sibling still returns its real result.
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![0, 2, 3, 5, 7, 1, 4, 6], 200, 1),
            BatchJob::new(OracleSpec::fault_injection(true, 3), 100, 2),
            perm_job(vec![1, 0, 3, 2], 300, 3),
        ];
        let outcomes = engine.try_run_batch(&jobs);
        assert_eq!(outcomes.len(), 3);
        assert!(
            matches!(&outcomes[1], Err(EngineError::JobPanicked { message })
            if message.contains("injected compilation panic (tag 3)"))
        );
        let expected = engine
            .run_batch(&[jobs[0].clone(), jobs[2].clone()])
            .unwrap();
        assert_eq!(outcomes[0].as_ref().unwrap(), &expected[0]);
        assert_eq!(outcomes[2].as_ref().unwrap(), &expected[1]);
        // The all-or-nothing API reports the same typed error — never a
        // propagated panic.
        assert!(matches!(
            engine.run_batch(&jobs),
            Err(EngineError::JobPanicked { .. })
        ));
    }

    #[test]
    fn deterministic_job_failures_are_typed_and_isolated() {
        let engine = BatchEngine::new();
        let jobs = vec![
            BatchJob::new(OracleSpec::fault_injection(false, 9), 50, 1),
            perm_job(vec![1, 0, 3, 2], 50, 2),
        ];
        let outcomes = engine.try_run_batch(&jobs);
        assert!(matches!(&outcomes[0], Err(EngineError::Flow { message })
            if message.contains("tag 9")));
        assert!(outcomes[1].is_ok());
    }

    #[test]
    fn resolve_backends_never_yields_auto() {
        // Pins the invariant the old `unreachable!` assumed: automatic
        // resolution always lands on a concrete backend, for every census
        // shape we can produce (H-heavy, T-heavy, pure Clifford, empty).
        let specs = vec![
            OracleSpec::qasm(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nh q[1];\nt q[0];\n",
            ),
            OracleSpec::permutation(
                Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap(),
                SynthesisChoice::default(),
            ),
            OracleSpec::qasm(
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
            ),
            OracleSpec::qasm("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"),
        ];
        let jobs: Vec<BatchJob> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| BatchJob::new(spec, 10, i as u64).with_backend(BackendChoice::Auto))
            .collect();
        let engine = BatchEngine::new();
        let resolved = engine.resolve_backends(&jobs).unwrap();
        assert_eq!(resolved.len(), jobs.len());
        for backend in resolved {
            assert_ne!(backend, BackendChoice::Auto);
        }
    }

    #[test]
    fn zero_shot_jobs_are_rejected_with_their_index() {
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![1, 0, 3, 2], 10, 1),
            perm_job(vec![1, 0, 3, 2], 0, 2),
        ];
        assert!(matches!(
            engine.run_batch(&jobs),
            Err(EngineError::ZeroShots { index: 1 })
        ));
        // Validation happens before any compilation.
        assert_eq!(engine.cache().stats().entries, 0);
        // The isolating API rejects per job, leaving valid siblings alone.
        let outcomes = engine.try_run_batch(&jobs);
        assert!(outcomes[0].is_ok());
        assert!(matches!(
            outcomes[1],
            Err(EngineError::ZeroShots { index: 1 })
        ));
    }

    #[test]
    fn run_batch_checks_shots_before_any_job_fails() {
        let engine = BatchEngine::new();
        let jobs = vec![
            BatchJob::new(OracleSpec::fault_injection(false, 1), 10, 1),
            perm_job(vec![1, 0, 3, 2], 10, 2),
            perm_job(vec![1, 0, 3, 2], 0, 3),
        ];
        assert!(matches!(
            engine.run_batch(&jobs),
            Err(EngineError::ZeroShots { index: 2 })
        ));
        assert_eq!(engine.cache().stats().entries, 0);
    }

    #[test]
    fn run_batch_returns_the_first_failure_in_job_order() {
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![1, 0, 3, 2], 10, 1),
            BatchJob::new(OracleSpec::fault_injection(false, 4), 10, 2),
            BatchJob::new(OracleSpec::fault_injection(false, 5), 10, 3),
        ];
        assert!(
            matches!(engine.run_batch(&jobs), Err(EngineError::Flow { message })
            if message.contains("tag 4"))
        );
        let reversed = [jobs[2].clone(), jobs[1].clone()];
        assert!(
            matches!(engine.run_batch(&reversed), Err(EngineError::Flow { message })
            if message.contains("tag 5"))
        );
    }

    #[test]
    fn run_batch_types_a_panicking_auto_resolution() {
        // The resolution compile of an Auto job runs under the per-job
        // panic boundary too, so the all-or-nothing API reports it as a
        // typed error instead of unwinding into the caller.
        let engine = BatchEngine::new();
        let jobs = vec![
            perm_job(vec![1, 0, 3, 2], 10, 1),
            BatchJob::new(OracleSpec::fault_injection(true, 6), 10, 2)
                .with_backend(BackendChoice::Auto),
        ];
        assert!(
            matches!(engine.run_batch(&jobs), Err(EngineError::JobPanicked { message })
            if message.contains("injected compilation panic (tag 6)"))
        );
    }

    #[test]
    fn job_digests_separate_execution_parameters_from_cache_keys() {
        let base = perm_job(vec![1, 0, 3, 2], 100, 1);
        let other_seed = perm_job(vec![1, 0, 3, 2], 100, 2);
        let other_shots = perm_job(vec![1, 0, 3, 2], 200, 1);
        // Same compilation, so one cache key…
        assert_eq!(base.cache_key(), other_seed.cache_key());
        // …but distinct checkpoints: a journal must not answer a 200-shot
        // job with a 100-shot result.
        assert_ne!(base.digest(), other_seed.digest());
        assert_ne!(base.digest(), other_shots.digest());
        assert_eq!(base.digest(), base.clone().digest());
    }
}
