//! The compiled-oracle cache: compilation results keyed by the canonical
//! hash of their specification.
//!
//! Oracle compilation (reversible synthesis, simplification, Clifford+T
//! mapping) is by far the most expensive step of the engine's flow, and a
//! production deployment sees the *same* oracles over and over — the same
//! permutation compiled for every incoming job, the same phase function
//! re-submitted by many users. [`OracleCache`] memoizes
//! [`CompiledProgram`]s under the [`SpecKey`] of their [`OracleSpec`] (the
//! canonical digest of the specification plus the pass list, see
//! [`qdaflow_pipeline::spec`]), so a repeated compilation is a hash lookup
//! instead of a synthesis run. The cache is `Sync`: concurrent
//! `get_or_compile` calls for distinct specs compile in parallel outside the
//! lock, and a race on the same key keeps the first inserted program.

use crate::oracle::{compile_permutation_oracle, compile_phase_oracle, SynthesisChoice};
use crate::store::disk::{DiskCache, DiskCacheStats};
use crate::EngineError;
use qdaflow_boolfn::{Permutation, TruthTable};
use qdaflow_pipeline::spec::{self, CanonicalHasher, SpecKey};
use qdaflow_quantum::resource::ResourceCounts;
use qdaflow_quantum::QuantumCircuit;
use qdaflow_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Handles into the process-wide metrics registry for the cache layers and
/// the compile-time histogram, registered once on first use.
struct CacheTelemetry {
    mem_hits: telemetry::Counter,
    mem_misses: telemetry::Counter,
    disk_hits: telemetry::Counter,
    disk_misses: telemetry::Counter,
    compile_seconds: telemetry::Histogram,
}

fn cache_telemetry() -> &'static CacheTelemetry {
    static HANDLES: std::sync::OnceLock<CacheTelemetry> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let registry = telemetry::global_metrics();
        let hits = |layer: &str| {
            registry.counter(
                "qdaflow_cache_hits_total",
                "Oracle-cache lookups answered by a layer.",
                &[("layer", layer)],
            )
        };
        let misses = |layer: &str| {
            registry.counter(
                "qdaflow_cache_misses_total",
                "Oracle-cache lookups a layer could not answer.",
                &[("layer", layer)],
            )
        };
        CacheTelemetry {
            mem_hits: hits("mem"),
            mem_misses: misses("mem"),
            disk_hits: hits("disk"),
            disk_misses: misses("disk"),
            compile_seconds: registry.histogram(
                "qdaflow_compile_duration_seconds",
                "Wall-clock oracle compilation time (cache misses only).",
                &telemetry::DURATION_BUCKETS,
                &[],
            ),
        }
    })
}

/// A cacheable oracle specification: what to compile and through which
/// passes.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleSpec {
    /// A permutation oracle `|x⟩ → |π(x)⟩`, compiled through the paper's
    /// synthesis → `revsimp` → `rptm` prefix of equation (5).
    Permutation {
        /// The permutation to realize.
        permutation: Permutation,
        /// Which reversible synthesis algorithm to use.
        synthesis: SynthesisChoice,
    },
    /// A diagonal phase oracle `U_f`, compiled through the `po` pass.
    PhaseFunction {
        /// The Boolean function whose phase oracle is compiled.
        function: TruthTable,
    },
    /// A circuit imported from OpenQASM 2.0 source through the `qasmin`
    /// pass — the front door for workloads not born from our spec types.
    Qasm {
        /// The OpenQASM source text.
        source: String,
    },
    /// A fault-injection oracle whose compilation deliberately fails: it
    /// panics (`panic: true`) or returns a typed error (`panic: false`).
    /// This is the crash-safety smoke test of the job service — submit one
    /// to a deployment to verify that retry, dead-lettering and per-job
    /// panic isolation are wired correctly without crafting a genuinely
    /// broken workload. Keyed like any other spec (`tag` distinguishes
    /// independent injections), and never cached: compilation never
    /// succeeds.
    FaultInjection {
        /// Panic during compilation when `true`; fail with a typed,
        /// deterministic [`EngineError`] when `false`.
        panic: bool,
        /// Distinguishes independent injections in cache keys and journals.
        tag: u64,
    },
}

impl OracleSpec {
    /// A permutation-oracle spec.
    pub fn permutation(permutation: Permutation, synthesis: SynthesisChoice) -> Self {
        Self::Permutation {
            permutation,
            synthesis,
        }
    }

    /// A phase-oracle spec.
    pub fn phase_function(function: TruthTable) -> Self {
        Self::PhaseFunction { function }
    }

    /// An OpenQASM-import spec.
    pub fn qasm(source: impl Into<String>) -> Self {
        Self::Qasm {
            source: source.into(),
        }
    }

    /// A fault-injection spec (see [`OracleSpec::FaultInjection`]).
    pub fn fault_injection(panic: bool, tag: u64) -> Self {
        Self::FaultInjection { panic, tag }
    }

    /// Number of specification variables (the oracle's data qubits; the
    /// compiled circuit may add ancillas). For a QASM spec this is unknown
    /// before parsing and reported as 0.
    pub fn num_vars(&self) -> usize {
        match self {
            Self::Permutation { permutation, .. } => permutation.num_vars(),
            Self::PhaseFunction { function } => function.num_vars(),
            Self::Qasm { .. } | Self::FaultInjection { .. } => 0,
        }
    }

    /// The ordered pass descriptions this spec compiles through — the pass
    /// list half of the cache key.
    pub fn pass_list(&self) -> Vec<String> {
        match self {
            Self::Permutation { synthesis, .. } => {
                let synthesis = match synthesis {
                    SynthesisChoice::TransformationBased => "tbs",
                    SynthesisChoice::DecompositionBased => "dbs",
                };
                vec![
                    synthesis.to_owned(),
                    "revsimp".to_owned(),
                    "rptm".to_owned(),
                ]
            }
            Self::PhaseFunction { .. } => vec!["po".to_owned()],
            Self::Qasm { .. } => vec!["qasmin".to_owned()],
            Self::FaultInjection { .. } => vec!["fault".to_owned()],
        }
    }

    /// The canonical cache key: the digest of the specification contents and
    /// the pass list. Equal for any two specs describing the same oracle
    /// through the same passes, regardless of how they were constructed.
    /// Hashes by reference, and produces the same key as
    /// [`spec::spec_key`]`(Some(&ir), &self.pass_list())` over the
    /// corresponding `Ir` value (enforced by `tests/integration_batch.rs`).
    pub fn cache_key(&self) -> SpecKey {
        let mut hasher = CanonicalHasher::new();
        match self {
            Self::Permutation { permutation, .. } => {
                spec::write_permutation(&mut hasher, permutation)
            }
            Self::PhaseFunction { function } => spec::write_function(&mut hasher, function),
            Self::Qasm { source } => spec::write_qasm_source(&mut hasher, source),
            Self::FaultInjection { panic, tag } => {
                hasher.write_str("fault-injection");
                hasher.write_u64(u64::from(*panic));
                hasher.write_u64(*tag);
            }
        }
        spec::write_passes(&mut hasher, &self.pass_list());
        hasher.finish()
    }

    /// Compiles the spec to a Clifford+T circuit (uncached; see
    /// [`OracleCache::get_or_compile`] for the cached path).
    ///
    /// # Errors
    ///
    /// Propagates synthesis and mapping failures.
    pub fn compile(&self) -> Result<QuantumCircuit, EngineError> {
        match self {
            Self::Permutation {
                permutation,
                synthesis,
            } => compile_permutation_oracle(permutation, *synthesis),
            Self::PhaseFunction { function } => compile_phase_oracle(function),
            Self::Qasm { source } => Ok(qdaflow_quantum::qasm::from_qasm(source)?),
            Self::FaultInjection { panic, tag } => {
                if *panic {
                    panic!("injected compilation panic (tag {tag})");
                }
                Err(EngineError::Flow {
                    message: format!("injected deterministic compilation failure (tag {tag})"),
                })
            }
        }
    }
}

/// A compiled, immutable oracle: the circuit plus the metadata the batch
/// layer reports. Shared via `Arc` between the cache and all jobs using it;
/// the circuit is shared again by every cache slot aliasing the program.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    key: SpecKey,
    circuit: Arc<QuantumCircuit>,
    resources: ResourceCounts,
    compile_time: Duration,
}

impl CompiledProgram {
    /// Builds a program from a fresh compilation or a disk-cache load; the
    /// resource counts are computed here, once per program, and reused by
    /// every job result.
    pub(crate) fn from_parts(
        key: SpecKey,
        circuit: QuantumCircuit,
        compile_time: Duration,
    ) -> Self {
        Self {
            key,
            resources: ResourceCounts::of(&circuit),
            circuit: Arc::new(circuit),
            compile_time,
        }
    }

    /// The cache key the program is stored under.
    pub fn key(&self) -> SpecKey {
        self.key
    }

    /// The compiled Clifford+T circuit.
    pub fn circuit(&self) -> &QuantumCircuit {
        &self.circuit
    }

    /// Resource counts of the compiled circuit.
    pub fn resources(&self) -> &ResourceCounts {
        &self.resources
    }

    /// Wall-clock time the (cold) compilation took.
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }
}

/// Hit/miss/occupancy statistics of an [`OracleCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of `get_or_compile` calls answered from the in-memory table.
    pub hits: u64,
    /// Number of `get_or_compile` calls that compiled.
    pub misses: u64,
    /// Number of `get_or_compile` calls answered from the disk layer
    /// (always `0` for a cache without one).
    pub disk_hits: u64,
    /// Number of programs currently cached in memory.
    pub entries: usize,
}

/// A thread-safe memo table of [`CompiledProgram`]s keyed by [`SpecKey`],
/// optionally layered over a persistent [`DiskCache`]
/// ([`OracleCache::with_disk`]): memory miss → disk load → compile, with
/// every fresh compilation written back to disk so it survives restarts
/// and is shared across processes.
#[derive(Debug, Default)]
pub struct OracleCache {
    programs: Mutex<HashMap<SpecKey, Arc<CompiledProgram>>>,
    disk: Option<DiskCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
}

impl OracleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty in-memory cache layered over `disk`: lookups fall
    /// through to the disk entry before compiling, and compilations are
    /// persisted (atomically, best-effort) as they happen.
    pub fn with_disk(disk: DiskCache) -> Self {
        Self {
            disk: Some(disk),
            ..Self::default()
        }
    }

    /// The disk layer, if the cache has one.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Counters of the disk layer (zeros without one).
    pub fn disk_stats(&self) -> DiskCacheStats {
        self.disk.as_ref().map(DiskCache::stats).unwrap_or_default()
    }

    /// Returns the compiled program for `spec`, compiling (and caching) it
    /// on a miss. Compilation happens outside the cache lock, so concurrent
    /// misses on *distinct* specs compile in parallel; concurrent misses on
    /// the *same* spec may compile redundantly, and the first insertion
    /// wins.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures; nothing is cached on error.
    pub fn get_or_compile(&self, spec: &OracleSpec) -> Result<Arc<CompiledProgram>, EngineError> {
        self.get_or_compile_keyed(spec.cache_key(), spec)
    }

    /// [`OracleCache::get_or_compile`] for callers that already computed
    /// `spec.cache_key()` (the batch engine keys every job up front for
    /// deduplication); `key` must be that spec's key.
    pub(crate) fn get_or_compile_keyed(
        &self,
        key: SpecKey,
        spec: &OracleSpec,
    ) -> Result<Arc<CompiledProgram>, EngineError> {
        let stats = cache_telemetry();
        if let Some(program) = self.lock().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            stats.mem_hits.inc();
            return Ok(program);
        }
        stats.mem_misses.inc();
        if let Some(disk) = &self.disk {
            if let Some((circuit, compile_time)) = disk.load(key) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                stats.disk_hits.inc();
                telemetry::event("cache", "disk hit", vec![("key", format!("{key:?}"))]);
                let program = Arc::new(CompiledProgram::from_parts(key, circuit, compile_time));
                return Ok(self.lock().entry(key).or_insert(program).clone());
            }
            stats.disk_misses.inc();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let circuit = {
            let _span = telemetry::span!("cache", "compile {key:?}");
            spec.compile()?
        };
        let program = Arc::new(CompiledProgram::from_parts(key, circuit, start.elapsed()));
        // The compile wall time used to be recorded on the program and then
        // forgotten; feed it into the unified histogram so `batch --stats`
        // can report compilation latency.
        stats.compile_seconds.observe_duration(program.compile_time);
        if let Some(disk) = &self.disk {
            disk.store(key, &program.circuit, program.compile_time);
        }
        Ok(self.lock().entry(key).or_insert(program).clone())
    }

    /// Re-inserts an already-compiled program under a second cache key,
    /// returning the entry now stored there (the existing program if the
    /// slot was already occupied). The batch engine uses this to share one
    /// compilation between the raw spec slot (where automatic-backend
    /// resolution compiles) and the backend-tagged slot (where execution
    /// looks up) — an alias is bookkeeping, not a compilation, so the
    /// hit/miss counters are untouched.
    pub(crate) fn alias_keyed(
        &self,
        key: SpecKey,
        program: &Arc<CompiledProgram>,
    ) -> Arc<CompiledProgram> {
        let mut entries = self.lock();
        if let Some(existing) = entries.get(&key) {
            return existing.clone();
        }
        let aliased = Arc::new(CompiledProgram {
            key,
            circuit: Arc::clone(&program.circuit),
            resources: program.resources.clone(),
            compile_time: program.compile_time,
        });
        entries.insert(key, aliased.clone());
        aliased
    }

    /// Looks a program up without compiling (does not touch the hit/miss
    /// counters).
    pub fn peek(&self, key: SpecKey) -> Option<Arc<CompiledProgram>> {
        self.lock().get(&key).cloned()
    }

    /// Current hit/miss/occupancy statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }

    /// Evicts every cached in-memory program and resets the counters. Disk
    /// entries are kept — they belong to every process sharing the
    /// directory, not to this instance.
    pub fn clear(&self) {
        self.lock().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.disk_hits.store(0, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<SpecKey, Arc<CompiledProgram>>> {
        self.programs.lock().expect("oracle cache lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdaflow_quantum::Statevector;

    fn example_permutation() -> Permutation {
        Permutation::new(vec![0, 2, 3, 5, 7, 1, 4, 6]).unwrap()
    }

    #[test]
    fn repeated_compilations_hit_the_cache() {
        let cache = OracleCache::new();
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let first = cache.get_or_compile(&spec).unwrap();
        let second = cache.get_or_compile(&spec).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // An equal spec constructed independently also hits.
        let rebuilt = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        assert!(Arc::ptr_eq(
            &cache.get_or_compile(&rebuilt).unwrap(),
            &first
        ));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn synthesis_choice_and_spec_kind_separate_keys() {
        let pi = example_permutation();
        let tbs = OracleSpec::permutation(pi.clone(), SynthesisChoice::TransformationBased);
        let dbs = OracleSpec::permutation(pi, SynthesisChoice::DecompositionBased);
        assert_ne!(tbs.cache_key(), dbs.cache_key());
        let f = TruthTable::from_bits(3, (0..8).map(|x| x == 7)).unwrap();
        let po = OracleSpec::phase_function(f);
        assert_ne!(po.cache_key(), tbs.cache_key());
        let cache = OracleCache::new();
        cache.get_or_compile(&tbs).unwrap();
        cache.get_or_compile(&dbs).unwrap();
        cache.get_or_compile(&po).unwrap();
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().misses, 3);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn cached_programs_realize_their_specification() {
        let cache = OracleCache::new();
        let pi = example_permutation();
        let spec = OracleSpec::permutation(pi.clone(), SynthesisChoice::default());
        let program = cache.get_or_compile(&spec).unwrap();
        assert_eq!(program.key(), spec.cache_key());
        assert!(program.resources().total_gates > 0);
        for basis in 0..8usize {
            let mut state =
                Statevector::basis_state(program.circuit().num_qubits(), basis).unwrap();
            state.apply_circuit(program.circuit());
            assert!(
                state.probability_of(pi.apply(basis)) > 1.0 - 1e-9,
                "{basis}"
            );
        }
    }

    #[test]
    fn qasm_specs_compile_and_key_like_qasmin_pipelines() {
        let source = "qreg d[1];\nqreg e[1];\nh d;\nrz(3.141592653589793/4) d[0];\ncx d[0],e[0];";
        let spec = OracleSpec::qasm(source);
        assert_eq!(spec.pass_list(), vec!["qasmin".to_owned()]);
        assert_eq!(spec.num_vars(), 0);
        // The key agrees with the pipeline-layer digest over Ir::QasmSource.
        let ir = qdaflow_pipeline::Ir::QasmSource(source.to_owned());
        assert_eq!(
            spec.cache_key(),
            qdaflow_pipeline::spec::spec_key(Some(&ir), &spec.pass_list())
        );
        let cache = OracleCache::new();
        let program = cache.get_or_compile(&spec).unwrap();
        assert_eq!(program.circuit().num_qubits(), 2);
        assert_eq!(program.circuit().num_gates(), 3);
        assert!(Arc::ptr_eq(
            &cache.get_or_compile(&OracleSpec::qasm(source)).unwrap(),
            &program
        ));
        // Parse failures are typed errors, nothing is cached.
        let entries = cache.stats().entries;
        assert!(cache
            .get_or_compile(&OracleSpec::qasm("qreg q[1];\nbad"))
            .is_err());
        assert_eq!(cache.stats().entries, entries);
    }

    #[test]
    fn aliased_slots_share_the_compiled_circuit() {
        let cache = OracleCache::new();
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let program = cache.get_or_compile(&spec).unwrap();
        let alias_key = SpecKey(program.key().0 ^ 1);
        let aliased = cache.alias_keyed(alias_key, &program);
        assert_eq!(aliased.key(), alias_key);
        assert!(Arc::ptr_eq(&aliased.circuit, &program.circuit));
        assert_eq!(aliased.resources(), program.resources());
        // The slot is now taken: aliasing again returns the stored entry.
        assert!(Arc::ptr_eq(
            &cache.alias_keyed(alias_key, &program),
            &aliased
        ));
        assert!(Arc::ptr_eq(&cache.peek(alias_key).unwrap(), &aliased));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn peek_does_not_compile_or_count() {
        let cache = OracleCache::new();
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        assert!(cache.peek(spec.cache_key()).is_none());
        cache.get_or_compile(&spec).unwrap();
        assert!(cache.peek(spec.cache_key()).is_some());
        assert_eq!(cache.stats().hits, 0);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qdaflow-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_backed_caches_warm_restarted_processes() {
        let dir = scratch_dir("warm");
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let first = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        let program = first.get_or_compile(&spec).unwrap();
        assert_eq!(first.stats().misses, 1);
        assert_eq!(first.disk_stats().writes, 1);
        // A brand-new cache over the same directory — a restarted process —
        // loads from disk instead of compiling.
        let second = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        let warmed = second.get_or_compile(&spec).unwrap();
        let stats = second.stats();
        assert_eq!(
            (stats.misses, stats.disk_hits),
            (0, 1),
            "restart must not recompile"
        );
        assert_eq!(warmed.circuit(), program.circuit());
        // And the loaded entry now also sits in memory.
        second.get_or_compile(&spec).unwrap();
        assert_eq!(second.stats().hits, 1);
    }

    #[test]
    fn truncated_disk_entries_degrade_to_counted_misses() {
        let dir = scratch_dir("truncated");
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let writer = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        writer.get_or_compile(&spec).unwrap();
        let path = dir.join(format!("{:032x}.qdc", spec.cache_key().0));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let reader = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        reader.get_or_compile(&spec).unwrap();
        let stats = reader.stats();
        assert_eq!((stats.misses, stats.disk_hits), (1, 0));
        assert_eq!(reader.disk_stats().corrupt, 1);
        // The recompile rewrote a valid entry.
        let healed = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        healed.get_or_compile(&spec).unwrap();
        assert_eq!(healed.stats().disk_hits, 1);
    }

    #[test]
    fn wrong_version_disk_entries_degrade_to_counted_misses() {
        let dir = scratch_dir("version");
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let writer = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        writer.get_or_compile(&spec).unwrap();
        let path = dir.join(format!("{:032x}.qdc", spec.cache_key().0));
        let mut bytes = std::fs::read(&path).unwrap();
        // Bump the little-endian version word just past the 4-byte magic.
        bytes[4] = bytes[4].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        let reader = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        reader.get_or_compile(&spec).unwrap();
        assert_eq!(reader.stats().misses, 1);
        assert_eq!(reader.disk_stats().corrupt, 1);
    }

    #[test]
    fn concurrent_instances_race_to_one_valid_entry() {
        // Two cache instances over the same directory — two processes —
        // compile the same spec concurrently. Both miss (no coordination is
        // promised across processes), but the atomic write-rename leaves
        // exactly one valid entry behind.
        let dir = scratch_dir("race");
        let spec = OracleSpec::permutation(example_permutation(), SynthesisChoice::default());
        let a = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        let b = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        std::thread::scope(|scope| {
            let ta = scope.spawn(|| a.get_or_compile(&spec).unwrap());
            let tb = scope.spawn(|| b.get_or_compile(&spec).unwrap());
            let pa = ta.join().unwrap();
            let pb = tb.join().unwrap();
            assert_eq!(pa.circuit(), pb.circuit());
        });
        let compiles = a.stats().misses + b.stats().misses;
        let loads = a.stats().disk_hits + b.stats().disk_hits;
        assert_eq!(compiles + loads, 2);
        assert!(compiles >= 1);
        // Exactly one durable file, no leftover temp files, and it decodes.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec![format!("{:032x}.qdc", spec.cache_key().0)]);
        let fresh = OracleCache::with_disk(DiskCache::open(&dir).unwrap());
        fresh.get_or_compile(&spec).unwrap();
        assert_eq!(fresh.stats().disk_hits, 1);
    }
}
